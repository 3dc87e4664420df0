"""Checkpoint journal: resumable ATPG runs over a JSONL record log.

A long unattended ATPG run can die for many reasons — run deadline,
OOM-killed worker, Ctrl-C, a machine reboot.  The checkpoint layer makes
those deaths cheap: per-fault :class:`~repro.atpg.engine.AtpgRecord`
results are appended to a JSON-lines journal *as shards complete*, and a
later run started with ``resume_from`` skips every fault whose verdict
is already journaled, re-dispatching only the remainder.  A fault's
verdict class depends only on (circuit, fault), and the parallel
coordinator merges by verdict class (see :mod:`repro.atpg.parallel`),
so a resumed run gives every fault the same verdict class as an
uninterrupted one, with the same coverage.

Journal layout — one JSON object per line:

* line 1: a header ``{"type": "header", "version": 1, "circuit": ...,
  "config": {...}}``;
* then records ``{"type": "record", "net": ..., "value": ...,
  "status": ..., "test": ..., "abort_reason": ..., ...}``.

The format is append-only and crash-tolerant: a truncated trailing line
(the write the crash interrupted) is ignored on load, and duplicate
fault lines (a resumed run journaling into the same file) resolve to the
last occurrence.

Which journaled verdicts are *final* on resume:

* ``UNTESTABLE`` / ``UNOBSERVABLE`` — kept;
* ``TESTED`` — kept when its pattern detects its fault;
* ``DROPPED`` — kept when its pattern detects its fault *and* is the
  pattern of a kept ``TESTED`` record, so every detected record's
  pattern stays in the resumed run's test set;
* ``ABORTED`` with reason ``budget_exhausted`` / ``mem_budget_exceeded``
  — kept: the fault already had its whole budget;
* ``ABORTED`` with an orchestration reason (deadline, shard timeout,
  worker crash) — **re-dispatched**: those faults never got their full
  budget, which is exactly what resuming is for.

A journal is *data crossing a trust boundary*: it may come from an older
run, a different solver build, or a corrupted disk.
:func:`verified_resumable_records` therefore re-simulates every
journaled TESTED and DROPPED pattern before trusting it — a cheap
witness check — and hands rejects back to the caller for re-dispatch
instead of letting a stale wrong verdict survive into the merged
summary.  A normal journal passes: shard records are appended in shard
order, so a TESTED record always precedes the DROPPED records it
causes.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterable
from pathlib import Path
from typing import Optional, TextIO

from repro.atpg.certify import witness_ok
from repro.atpg.engine import (
    ABORT_BUDGET,
    ABORT_MEM,
    AtpgRecord,
    AtpgSummary,
    FaultStatus,
)
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault

JOURNAL_VERSION = 1


def record_to_dict(record: AtpgRecord) -> dict:
    """JSON-ready view of one per-fault record (journal line payload)."""
    return {
        "type": "record",
        "net": record.fault.net,
        "value": record.fault.value,
        "status": record.status.value,
        "num_variables": record.num_variables,
        "num_clauses": record.num_clauses,
        "build_time": record.build_time,
        "encode_time": record.encode_time,
        "solve_time": record.solve_time,
        "decisions": record.decisions,
        "conflicts": record.conflicts,
        "propagations": record.propagations,
        "test": record.test,
        "abort_reason": record.abort_reason,
        "certified": record.certified,
    }


def record_from_dict(payload: dict) -> AtpgRecord:
    """Rebuild an :class:`AtpgRecord` from its journal line."""
    return AtpgRecord(
        fault=Fault(payload["net"], payload["value"]),
        status=FaultStatus(payload["status"]),
        num_variables=payload.get("num_variables", 0),
        num_clauses=payload.get("num_clauses", 0),
        build_time=payload.get("build_time", 0.0),
        encode_time=payload.get("encode_time", 0.0),
        solve_time=payload.get("solve_time", 0.0),
        decisions=payload.get("decisions", 0),
        conflicts=payload.get("conflicts", 0),
        # Added for predictor training data; old journals default to 0.
        propagations=payload.get("propagations", 0),
        test=payload.get("test"),
        abort_reason=payload.get("abort_reason"),
        certified=payload.get("certified"),
    )


def is_final(record: AtpgRecord) -> bool:
    """True when a journaled verdict need not be re-dispatched on
    resume (see the module docstring for the rule).  Budget reasons
    (conflict or memory) are final: the fault already had its whole
    budget, though with warm CDCL solvers which faults run out of it
    depends on the schedule.  Orchestration reasons are not final."""
    if record.status is not FaultStatus.ABORTED:
        return True
    return record.abort_reason in (ABORT_BUDGET, ABORT_MEM)


class CheckpointError(ValueError):
    """A journal could not be loaded (bad header, circuit mismatch)."""


def _failpoint(name: str) -> None:
    # Lazily bound: repro.service.__init__ imports modules that import
    # this one, so a top-level import would cycle.  Rebinds itself on
    # first use.
    global _failpoint
    from repro.service.failpoints import failpoint as _failpoint  # noqa: PLW0603

    _failpoint(name)


class CheckpointWriter:
    """Append-only JSONL journal of per-fault records.

    Safe to point at the journal being resumed: records are appended and
    duplicates resolve to the last line on load.  Every write is flushed
    so a killed run loses at most the line being written.

    Args:
        fence: optional write-side fencing guard (a callable raising
            when ownership is lost, with a ``.token`` attribute — see
            :class:`repro.service.lease.FenceGuard`).  When set, every
            append first proves ownership and every record line is
            stamped with the fencing token, so a journal tells exactly
            which lease generation settled each fault and a zombie
            writer dies at the append instead of corrupting the new
            owner's journal.

    Environmental write failures (``ENOSPC``/``EIO``) surface as
    :class:`repro.io.atomic.StorageError` so the service can land the
    job in FAILED-with-reason instead of a traceback.
    """

    def __init__(
        self,
        path: str | Path,
        circuit: str,
        config: Optional[dict] = None,
        fence=None,
    ) -> None:
        self.path = Path(path)
        self.circuit = circuit
        self.fence = fence
        new_file = not self.path.exists() or self.path.stat().st_size == 0
        if not new_file:
            # A journal killed mid-write ends in a torn partial line with
            # no newline.  Appending straight after it would glue the
            # first new record onto the torn fragment, losing both, so
            # start on a fresh line.
            with open(self.path, "rb") as fh:
                fh.seek(-1, 2)
                torn_tail = fh.read(1) != b"\n"
        self._fh: Optional[TextIO] = open(self.path, "a", encoding="utf-8")
        try:
            if not new_file and torn_tail:
                self._fh.write("\n")
                self._fh.flush()
            if new_file:
                self._write_line(
                    {
                        "type": "header",
                        "version": JOURNAL_VERSION,
                        "circuit": circuit,
                        "config": config or {},
                    }
                )
        except BaseException:
            # No caller holds a writer that failed to construct, so close
            # its handle here; a second flush error must not mask the
            # first.
            with contextlib.suppress(OSError):
                self.close()
            raise

    def _write_line(self, payload: dict) -> None:
        assert self._fh is not None, "writer is closed"
        try:
            _failpoint("journal.append.pre_flush")
            self._fh.write(json.dumps(payload) + "\n")
            self._fh.flush()
            _failpoint("journal.append.post_flush")
        except OSError as exc:
            from repro.io.atomic import STORAGE_ERRNOS, StorageError

            if exc.errno in STORAGE_ERRNOS:
                raise StorageError("journal append", self.path, exc) from exc
            raise

    def write_record(self, record: AtpgRecord) -> None:
        """Journal one per-fault record (flushed immediately).

        With a fence installed, ownership is proven *before* the append
        (:class:`repro.service.lease.StaleTokenError` on loss) and the
        line carries the fencing token.
        """
        payload = record_to_dict(record)
        if self.fence is not None:
            self.fence()
            payload["fence"] = self.fence.token
        self._write_line(payload)

    def write_summary(self, summary: AtpgSummary) -> None:
        """Journal every record of a completed shard summary."""
        for record in summary.records:
            self.write_record(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_checkpoint(
    path: str | Path, circuit: Optional[str] = None
) -> tuple[dict, dict[Fault, AtpgRecord]]:
    """Load a journal written by :class:`CheckpointWriter`.

    Args:
        path: the JSONL journal.
        circuit: when given, the journal header's circuit name must
            match (resuming against the wrong netlist is always a bug).

    Returns:
        (header, records) where records maps each journaled fault to its
        *last* journaled record.

    Raises:
        CheckpointError: missing/corrupt header or circuit mismatch.
    """
    path = Path(path)
    header: Optional[dict] = None
    records: dict[Fault, AtpgRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                # A truncated trailing line is the normal signature of a
                # killed run; anything torn mid-file is also unusable.
                continue
            if line_no == 1:
                if payload.get("type") != "header":
                    raise CheckpointError(
                        f"{path}: first journal line is not a header"
                    )
                if payload.get("version") != JOURNAL_VERSION:
                    raise CheckpointError(
                        f"{path}: unsupported journal version "
                        f"{payload.get('version')!r}"
                    )
                header = payload
                continue
            if payload.get("type") != "record":
                continue
            record = record_from_dict(payload)
            records[record.fault] = record
    if header is None:
        raise CheckpointError(f"{path}: journal has no header")
    if circuit is not None and header.get("circuit") != circuit:
        raise CheckpointError(
            f"{path}: journal is for circuit "
            f"{header.get('circuit')!r}, not {circuit!r}"
        )
    return header, records


def resumable_records(
    path: str | Path, circuit: Optional[str] = None
) -> dict[Fault, AtpgRecord]:
    """The journaled records a resumed run can treat as settled."""
    _, records = load_checkpoint(path, circuit=circuit)
    return {
        fault: record
        for fault, record in records.items()
        if is_final(record)
    }


class ResumeRejectedRecordsWarning(UserWarning):
    """Journaled TESTED or DROPPED records failed the witness check at
    the resume trust boundary (a pattern that is not a mapping of input
    nets to 0 or 1, one that does not detect its fault, or a DROPPED
    pattern no kept TESTED record carries) and were re-dispatched."""


def verified_resumable_records(
    path: str | Path,
    network,
    faults: Iterable[Fault],
    circuit: Optional[str] = None,
    mark_certified: bool = True,
) -> tuple[dict[Fault, AtpgRecord], list[AtpgRecord]]:
    """Settled journal records, with detected patterns witness-checked.

    Every journaled TESTED and DROPPED record's pattern is replayed
    through fault simulation against ``network`` — the journal crosses
    a trust boundary, so a stale or corrupt wrong verdict must not
    survive into a resumed run's summary.  A DROPPED record is also
    rejected when its pattern is not the pattern of a kept TESTED
    record.  Verified records come back with ``certified=True``.

    Args:
        network: the :class:`~repro.circuits.network.Network` being
            resumed (ground truth for the witness replay).
        faults: the faults the resumed run wants; journal records of
            other faults are ignored, so a kept DROPPED record's
            pattern is always that of a kept TESTED record.
        circuit: forwarded to :func:`load_checkpoint` header validation.
        mark_certified: set ``certified=True`` on verified TESTED and
            DROPPED records (off for runs without certification).

    Returns:
        ``(verified, rejected)`` — the records safe to treat as settled,
        and the TESTED/DROPPED records that failed (their faults must
        be re-dispatched; each is also an implicit cross-run
        disagreement).
    """
    wanted = set(faults)
    settled = resumable_records(path, circuit=circuit)
    records = [record for fault, record in settled.items() if fault in wanted]
    # Records sharing a pattern replay back to back, so one simulator
    # simulates each distinct pattern once; every record still replays
    # its own pattern against its own fault.
    simulator = FaultSimulator(network)
    witnessed = {
        record.fault
        for record in sorted(records, key=lambda r: repr(r.test))
        if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
        and witness_ok(simulator, record.fault, record.test)
    }
    verified: dict[Fault, AtpgRecord] = {}
    rejected: list[AtpgRecord] = []
    dropped: list[AtpgRecord] = []
    for record in records:
        if record.status is FaultStatus.DROPPED:
            dropped.append(record)  # checked once the TESTED ones are
        elif (
            record.status is not FaultStatus.TESTED
            or record.fault in witnessed
        ):
            verified[record.fault] = record
        else:
            rejected.append(record)
    kept_tests = {
        frozenset(record.test.items())
        for record in verified.values()
        if record.status is FaultStatus.TESTED
    }
    for record in dropped:
        if (
            record.fault in witnessed
            and frozenset(record.test.items()) in kept_tests
        ):
            verified[record.fault] = record
        else:
            rejected.append(record)
    if mark_certified:
        for record in verified.values():
            if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
                record.certified = True
    return verified, rejected
