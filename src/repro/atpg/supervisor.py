"""Supervised shard execution: the resilient layer under parallel ATPG.

The paper's tail argument (Figure 1) is exactly why orchestration needs
supervision: *most* ATPG-SAT shards finish fast, but a run that fans a
fault list across worker processes must survive the rare shard that
hangs on a cubic-tail instance, a worker killed by the OS, or a platform
without ``fork`` — and still terminate with an answer for every fault.

:class:`ShardSupervisor` dispatches shard jobs to single-purpose forked
worker processes and supervises them:

* **per-shard wall-clock timeouts** — a shard that exceeds its budget is
  terminated and counted as ``shard_timeout``;
* **crash detection** — a worker that exits without delivering a result
  (killed, segfaulted, ``os._exit``) is counted as ``shard_crashed``;
* **bounded retry with shard splitting** — a failed shard is retried
  after a jittered exponential backoff delay (immediate re-dispatch
  hammers a machine that is already sick; the chosen delays land in
  ``RunHealth.backoff_delays``); on repeat failure it is split in half
  and the halves are re-queued, so one poisonous fault ends up isolated
  (and aborted) instead of taking its whole shard down;
* **graceful degradation** — when forking is unavailable or the pool
  keeps dying (several consecutive failures with no success), remaining
  jobs run in-process through ``fallback_fn``;
* **run deadline** — once ``deadline_at`` passes, running workers are
  terminated and queued jobs are reported back unrun (reason
  ``deadline_exceeded``) instead of being dispatched;
* **interrupt safety** — KeyboardInterrupt (or any exception) tears the
  worker processes down with ``terminate()``/``join()`` before
  re-raising, so Ctrl-C leaves no orphans.

The supervisor is deliberately generic over the *unit of work*: it only
needs ``worker_fn(job) -> result`` and ``split_job(job) -> [jobs]``, so
the same machinery runs ATPG shards, cut-width analysis shards
(:mod:`repro.core.width_pipeline`), and the chaos-test stand-ins of
``tests/atpg/test_supervisor.py``.  The failure vocabulary
(:data:`ABORT_SHARD_TIMEOUT` & co.) and the :class:`RunHealth` counters
live here for the same reason — they describe shard orchestration, not
any particular workload.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Optional

from repro.obs import Counters, counter

#: Machine-readable failure reasons for work the supervisor could not
#: complete (also attached to ABORTED ATPG records as ``abort_reason``).
#: ``ABORT_BUDGET`` is produced by the solving layer, not the
#: supervisor, but belongs to the same vocabulary.
ABORT_BUDGET = "budget_exhausted"
ABORT_DEADLINE = "deadline_exceeded"
ABORT_SHARD_TIMEOUT = "shard_timeout"
ABORT_SHARD_CRASHED = "shard_crashed"
ABORT_MEM = "mem_budget_exceeded"
ABORT_SOLVER = "solver_error"
ABORT_CERTIFICATION = "certification_failed"

#: Supervisor poll granularity (seconds): the upper bound on how stale a
#: timeout/deadline check can be while workers are busy.
_TICK = 0.05

#: Dispatch attempts per job before the supervisor splits it (and, for
#: an atomic job, gives up on it).
MAX_ATTEMPTS = 2
#: Failures with no intervening success before the supervisor stops
#: trusting the pool and degrades to in-process execution.
MAX_CONSECUTIVE_FAILURES = 3
#: Retry backoff: a failed job is re-queued after
#: ``RETRY_BACKOFF_BASE * 2^(attempts-1)`` seconds, capped at
#: ``RETRY_BACKOFF_CAP`` and scaled by a jitter in [0.5, 1.0], instead
#: of being re-dispatched at once, so a sick machine (OOM pressure, a
#: thrashing disk) is not hammered by a tight crash-retry loop.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 2.0
#: Seed of the jitter PRNG: delay sequences repeat run to run.
RETRY_JITTER_SEED = 0


@dataclass
class RunHealth(Counters):
    """Robustness telemetry for one supervised run.

    Counts the orchestration events that distinguish a clean run from a
    degraded one: shard retries, timed-out / crashed workers, automatic
    shard splits, the in-process degraded-mode flag, whether the
    run-level deadline fired, and a histogram of abort reasons over the
    run's final records.
    """

    retries: int = 0
    timed_out_shards: int = 0
    crashed_shards: int = 0
    shard_splits: int = 0
    degraded: bool = False
    deadline_hit: bool = False
    # Recomputed over the final merged records by whoever owns the
    # summary (count_aborts), so shard-level counts never double-count.
    abort_reasons: dict[str, int] = counter(dict, merge=False)
    #: Jittered exponential-backoff delays (seconds) applied before each
    #: shard retry, in the order they were chosen.  Purely diagnostic —
    #: ``retries`` already marks the run unclean; the delays say how
    #: much re-dispatch pressure the backoff absorbed.
    backoff_delays: list[float] = field(default_factory=list)
    #: Result-certification telemetry (:mod:`repro.atpg.certify`).
    #: ``certified``/``uncertified`` tally final records whose
    #: certification passed/failed (recomputed over final records, like
    #: ``abort_reasons``); ``escalations`` counts failure-triggered
    #: climbs of the solver escalation ladder; ``disagreements`` counts
    #: faults where independent solve paths returned contradicting
    #: verdicts (any one is a solver bug caught and healed).
    certified: int = counter(0, merge=False)
    uncertified: int = counter(0, merge=False)
    disagreements: int = 0
    escalations: int = 0

    @property
    def clean(self) -> bool:
        """True when no supervision event fired during the run."""
        return not (
            self.retries
            or self.timed_out_shards
            or self.crashed_shards
            or self.shard_splits
            or self.degraded
            or self.deadline_hit
            or self.abort_reasons
            or self.uncertified
            or self.disagreements
            or self.escalations
        )

    def count_aborts(self, records: Sequence[Any]) -> None:
        """Recompute the abort-reason histogram from final records.

        Any record collection works: a record counts as aborted when its
        ``status`` (if it has one) stringifies to ``"aborted"``, or —
        for status-less workloads like the width pipeline — when it
        carries a truthy ``abort_reason``.
        """
        reasons: dict[str, int] = {}
        for record in records:
            status = getattr(record, "status", None)
            if status is not None:
                if getattr(status, "value", status) != "aborted":
                    continue
                reason = getattr(record, "abort_reason", None) or "unknown"
            else:
                reason = getattr(record, "abort_reason", None)
                if not reason:
                    continue
            reasons[reason] = reasons.get(reason, 0) + 1
        self.abort_reasons = reasons

    def count_certification(self, records: Sequence[Any]) -> None:
        """Recompute certified/uncertified tallies from final records.

        A record with ``certified is True`` passed its witness replay or
        DRUP/agreement check; ``certified is False`` means certification
        was attempted and failed on every ladder rung; ``certified is
        None`` (certification off, or statuses with nothing to certify)
        counts as neither.
        """
        self.certified = sum(
            1 for r in records if getattr(r, "certified", None) is True
        )
        self.uncertified = sum(
            1 for r in records if getattr(r, "certified", None) is False
        )


@dataclass
class FailedShard:
    """A shard the supervisor gave up on (or never dispatched)."""

    job: Any
    reason: str  # ABORT_SHARD_TIMEOUT / ABORT_SHARD_CRASHED / ABORT_DEADLINE
    detail: str = ""


@dataclass
class SupervisorReport:
    """Everything a coordinator needs to finish the run.

    ``results`` holds successful shard results in completion order;
    ``failed`` the shards whose faults must be marked ABORTED (with the
    machine-readable reason); ``health`` the supervision counters.
    """

    results: list = field(default_factory=list)
    failed: list[FailedShard] = field(default_factory=list)
    health: RunHealth = field(default_factory=RunHealth)


@dataclass
class _Attempt:
    """One queued unit of work plus its failure history."""

    job: Any
    attempts: int = 0
    #: ``time.monotonic()`` before which this attempt must not be
    #: dispatched (retry backoff); 0.0 = immediately dispatchable.
    not_before: float = 0.0


class _Running:
    """A live worker process executing one attempt."""

    __slots__ = ("process", "conn", "attempt", "started", "result")

    def __init__(self, process, conn, attempt: _Attempt) -> None:
        self.process = process
        self.conn = conn
        self.attempt = attempt
        self.started = time.monotonic()
        self.result = None


def _child_main(worker_fn, job, conn) -> None:
    """Worker process body: run the shard, ship the result, exit.

    Any exception escaping ``worker_fn`` makes the child exit without
    sending, which the parent observes as a crash — the same signature
    as a SIGKILL, so one recovery path covers both.
    """
    result = worker_fn(job)
    conn.send(result)
    conn.close()


class ShardSupervisor:
    """Run shard jobs under supervision (see module docstring).

    Args:
        worker_fn: executed in a forked child per shard; its return
            value must be picklable.
        fallback_fn: executed *in-process* in degraded mode; defaults to
            ``worker_fn``.  Parallel ATPG passes the plain sequential
            shard runner here so a dying pool still finishes the run.
        split_job: splits a failed job into smaller jobs (return a list
            with >= 2 entries, or a single-entry/empty list when the job
            is atomic and must be abandoned).
        workers: maximum concurrent worker processes.
        shard_timeout: per-shard wall-clock budget in seconds (None =
            unlimited).
        deadline_at: absolute ``time.monotonic()`` run deadline; when it
            passes, running workers are terminated and queued jobs are
            reported as ``deadline_exceeded``.
        use_processes: False forces in-process execution from the start
            (the ``workers <= 1`` / cannot-fork path).
        mark_degraded: record ``health.degraded`` even for planned
            in-process execution (used when the caller *wanted* a pool
            but the platform cannot fork).
        on_result: callback fired in the parent as each shard result
            arrives (the checkpoint-journal hook).
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        *,
        fallback_fn: Optional[Callable[[Any], Any]] = None,
        split_job: Optional[Callable[[Any], Sequence[Any]]] = None,
        workers: int = 1,
        shard_timeout: Optional[float] = None,
        deadline_at: Optional[float] = None,
        use_processes: bool = True,
        mark_degraded: bool = False,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.worker_fn = worker_fn
        self.fallback_fn = fallback_fn if fallback_fn is not None else worker_fn
        self.split_job = split_job
        self.workers = workers
        self.shard_timeout = shard_timeout
        self.deadline_at = deadline_at
        self.use_processes = use_processes
        self.mark_degraded = mark_degraded
        self.on_result = on_result
        self._jitter = random.Random(RETRY_JITTER_SEED)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Any]) -> SupervisorReport:
        """Execute ``jobs`` to completion; never raises for worker
        failures (only for coordinator-side bugs or interrupts)."""
        report = SupervisorReport()
        report.health.degraded = self.mark_degraded
        pending: deque[_Attempt] = deque(_Attempt(job) for job in jobs)
        running: list[_Running] = []
        consecutive_failures = 0
        degraded = not self.use_processes
        ctx = (
            multiprocessing.get_context("fork")
            if self.use_processes
            else None
        )

        try:
            while pending or running:
                now = time.monotonic()
                if self.deadline_at is not None and now >= self.deadline_at:
                    report.health.deadline_hit = True
                    self._drain_at_deadline(pending, running, report)
                    break

                if degraded and not running:
                    self._run_in_process(pending.popleft(), report)
                    continue

                if not degraded:
                    self._launch_ready(ctx, pending, running, now)

                if not running and pending:
                    # Every queued attempt is in retry backoff: sleep
                    # toward the nearest release instead of busy-spinning
                    # through an empty poll.
                    soonest = min(a.not_before for a in pending)
                    delay = min(_TICK, max(0.0, soonest - time.monotonic()))
                    if delay > 0:
                        time.sleep(delay)
                    continue

                events = self._poll(running)
                for kind, entry in events:
                    running.remove(entry)
                    if kind == "result":
                        consecutive_failures = 0
                        report.results.append(entry.result)
                        if self.on_result is not None:
                            self.on_result(entry.result)
                    else:
                        consecutive_failures += 1
                        self._handle_failure(entry, kind, pending, report)
                        if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                            degraded = True
                            report.health.degraded = True
        finally:
            for entry in running:
                if entry.process.is_alive():
                    entry.process.terminate()
            for entry in running:
                entry.process.join()
                entry.conn.close()

        return report

    # ------------------------------------------------------------------
    def _launch_ready(
        self,
        ctx,
        pending: deque,
        running: list["_Running"],
        now: float,
    ) -> None:
        """Fill free worker slots with dispatchable attempts, leaving
        attempts still inside their retry backoff window queued."""
        scan = len(pending)
        while scan and pending and len(running) < self.workers:
            scan -= 1
            attempt = pending.popleft()
            if attempt.not_before > now:
                pending.append(attempt)
                continue
            running.append(self._launch(ctx, attempt))

    def _backoff_delay(self, attempts: int) -> float:
        """Jittered exponential backoff for re-dispatch number
        ``attempts`` (1-based), see :data:`RETRY_BACKOFF_BASE`; the
        jitter keeps sibling retries from re-landing in lockstep."""
        raw = min(
            RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2.0 ** (attempts - 1))
        )
        return raw * (0.5 + 0.5 * self._jitter.random())

    def _launch(self, ctx, attempt: _Attempt) -> _Running:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(self.worker_fn, attempt.job, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()  # child's end lives in the child now
        return _Running(process, parent_conn, attempt)

    def _poll(self, running: list[_Running]) -> list[tuple[str, _Running]]:
        """Wait one tick for worker events.

        Returns (kind, entry) pairs where kind is ``result``,
        ``crashed``, or ``timed_out``; a ``result`` entry carries the
        received value in ``entry.result``.
        """
        if not running:
            return []
        waitables = [r.conn for r in running] + [
            r.process.sentinel for r in running
        ]
        timeout = _TICK
        if self.shard_timeout is not None:
            now = time.monotonic()
            nearest = min(r.started + self.shard_timeout for r in running)
            timeout = max(0.0, min(timeout, nearest - now))
        ready = set(_wait_connections(waitables, timeout))

        events: list[tuple[str, _Running]] = []
        now = time.monotonic()
        for entry in running:
            if entry.conn in ready or entry.conn.poll():
                try:
                    entry.result = entry.conn.recv()
                    events.append(("result", entry))
                except (EOFError, OSError):
                    events.append(("crashed", entry))
                entry.process.join()
                entry.conn.close()
            elif entry.process.sentinel in ready:
                # Child exited without delivering a result.
                entry.process.join()
                entry.conn.close()
                events.append(("crashed", entry))
            elif (
                self.shard_timeout is not None
                and now - entry.started >= self.shard_timeout
            ):
                entry.process.terminate()
                entry.process.join()
                entry.conn.close()
                events.append(("timed_out", entry))
        return events

    def _handle_failure(
        self,
        entry: _Running,
        kind: str,
        pending: deque,
        report: SupervisorReport,
    ) -> None:
        attempt = entry.attempt
        if kind == "timed_out":
            report.health.timed_out_shards += 1
            reason = ABORT_SHARD_TIMEOUT
            detail = f"exceeded shard timeout of {self.shard_timeout}s"
        else:
            report.health.crashed_shards += 1
            reason = ABORT_SHARD_CRASHED
            detail = f"worker exited with code {entry.process.exitcode}"

        attempt.attempts += 1
        if attempt.attempts < MAX_ATTEMPTS:
            report.health.retries += 1
            delay = self._backoff_delay(attempt.attempts)
            attempt.not_before = time.monotonic() + delay if delay else 0.0
            report.health.backoff_delays.append(delay)
            pending.append(attempt)
            return
        pieces = (
            list(self.split_job(attempt.job))
            if self.split_job is not None
            else []
        )
        if len(pieces) >= 2:
            # Isolate the poison: each half restarts its attempt budget.
            report.health.shard_splits += 1
            for piece in pieces:
                pending.append(_Attempt(piece))
            return
        report.failed.append(FailedShard(attempt.job, reason, detail))

    def _run_in_process(
        self, attempt: _Attempt, report: SupervisorReport
    ) -> None:
        """Degraded mode: one in-process attempt, no hang protection."""
        try:
            result = self.fallback_fn(attempt.job)
        except Exception as exc:  # KeyboardInterrupt still propagates
            report.health.crashed_shards += 1
            report.failed.append(
                FailedShard(
                    attempt.job,
                    ABORT_SHARD_CRASHED,
                    f"in-process shard raised {type(exc).__name__}: {exc}",
                )
            )
            return
        report.results.append(result)
        if self.on_result is not None:
            self.on_result(result)

    def _drain_at_deadline(
        self,
        pending: deque,
        running: list[_Running],
        report: SupervisorReport,
    ) -> None:
        """Deadline fired: stop everything, report the faults unrun."""
        for entry in running:
            if entry.process.is_alive():
                entry.process.terminate()
            entry.process.join()
            entry.conn.close()
            report.failed.append(
                FailedShard(
                    entry.attempt.job,
                    ABORT_DEADLINE,
                    "terminated at run deadline",
                )
            )
        running.clear()
        while pending:
            report.failed.append(
                FailedShard(
                    pending.popleft().job,
                    ABORT_DEADLINE,
                    "not dispatched before run deadline",
                )
            )
