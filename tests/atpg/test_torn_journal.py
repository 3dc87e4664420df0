"""Torn-journal recovery property tests (kill at every byte offset).

The checkpoint journal's crash contract is byte-granular: a writer
killed at *any* instant leaves a prefix of the journal, possibly ending
in a torn partial line.  These tests enforce the contract directly — a
reference run's journal is truncated at **every byte offset**, and each
truncation must load to exactly the settled records whose complete
lines survived, with no duplicates and no invented verdicts.  On top of
that, engine resume (``--resume``) and the service's job re-adoption
path are replayed from a sample of torn prefixes in the default
(incremental CDCL) configuration and must reproduce the uninterrupted
run's verdict-class projection exactly: the warm solvers may find other
test vectors after a resume, never another verdict class.
"""

from __future__ import annotations

import json

import pytest

from repro.atpg.checkpoint import (
    CheckpointError,
    load_checkpoint,
    record_to_dict,
    resumable_records,
)
from repro.atpg.parallel import ParallelAtpgEngine
from repro.gen.benchmarks import c17
from repro.io.bench import dumps_bench
from repro.service.jobs import JobState, JobStore, job_id_for_key
from repro.service.runner import execute_job
from repro.service.store import ResultStore, verdict_projection


def _engine(network):
    # The service configuration: incremental CDCL with witness
    # certification, whose verdict classes survive any resume point.
    return ParallelAtpgEngine(network, workers=1, certify="witness")


def _verdicts(summary) -> list[list]:
    return [verdict_projection(record_to_dict(r)) for r in summary.records]


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted journaled run of c17 shared by every test."""
    import tempfile
    from pathlib import Path

    network = c17()
    tmp = Path(tempfile.mkdtemp(prefix="torn-journal-"))
    journal = tmp / "journal.jsonl"
    summary = _engine(network).run(fault_dropping=True, checkpoint_to=journal)
    return {
        "network": network,
        "tmp": tmp,
        "journal_bytes": journal.read_bytes(),
        "summary": summary,
        "verdicts": _verdicts(summary),
    }


def _line_ends(data: bytes) -> list[int]:
    """Byte offset at which each journal line's *content* is complete
    (its trailing newline excluded — a line missing only the newline is
    still recoverable)."""
    ends, start = [], 0
    for line in data.split(b"\n")[:-1]:
        ends.append(start + len(line))
        start += len(line) + 1
    return ends


class TestEveryByteOffset:
    def test_load_recovers_exact_prefix_at_every_offset(
        self, reference, tmp_path
    ):
        """Truncation at byte N loads exactly the lines complete by N."""
        data = reference["journal_bytes"]
        circuit = reference["network"].name
        torn = tmp_path / "torn.jsonl"
        line_ends = _line_ends(data)
        reference_lines = data.split(b"\n")[:-1]
        for offset in range(len(data) + 1):
            torn.write_bytes(data[:offset])
            survived = sum(1 for end in line_ends if end <= offset)
            if survived == 0:
                # Not even the header's content survived: the journal is
                # unusable and must refuse rather than resume quietly.
                with pytest.raises((CheckpointError, OSError)):
                    load_checkpoint(torn, circuit=circuit)
                continue
            _, records = load_checkpoint(torn, circuit=circuit)
            expected = [
                json.loads(line) for line in reference_lines[1:survived]
            ]
            # Every surviving record line is recovered, in order,
            # exactly once, with its verdict intact — and the torn tail
            # never invents a record.
            assert len(records) == len(expected)
            for payload, (fault, record) in zip(expected, records.items()):
                assert (fault.net, fault.value) == (
                    payload["net"], payload["value"]
                )
                assert record.status.value == payload["status"]
                assert record.test == payload["test"]

    def test_settled_faults_never_duplicated(self, reference, tmp_path):
        """resumable_records is keyed per fault at every truncation."""
        data = reference["journal_bytes"]
        torn = tmp_path / "torn.jsonl"
        header_len = data.index(b"\n") + 1
        for offset in range(header_len, len(data) + 1):
            torn.write_bytes(data[:offset])
            settled = resumable_records(torn, circuit=reference["network"].name)
            faults = [(f.net, f.value) for f in settled]
            assert len(faults) == len(set(faults))
            assert len(faults) <= len(reference["summary"].records)


def _resume_offsets(data: bytes) -> list[int]:
    """A spread of truncation points past the header: line boundaries,
    mid-line tears, and the exact end."""
    header_len = data.index(b"\n") + 1
    boundaries = [
        i + 1 for i, b in enumerate(data) if b == 0x0A and i + 1 > header_len
    ]
    sampled = boundaries[:: max(1, len(boundaries) // 4)]
    mid_line = [min(len(data), b + 17) for b in sampled]
    return sorted(set([header_len, *sampled, *mid_line, len(data)]))


class TestResumeParity:
    def test_resume_from_torn_prefix_matches_uninterrupted(
        self, reference, tmp_path
    ):
        """--resume over a torn prefix reproduces the full run."""
        data = reference["journal_bytes"]
        for offset in _resume_offsets(data):
            torn = tmp_path / f"torn-{offset}.jsonl"
            torn.write_bytes(data[:offset])
            summary = _engine(reference["network"]).run(
                fault_dropping=True, resume_from=torn, checkpoint_to=torn
            )
            assert _verdicts(summary) == reference["verdicts"], (
                f"resume from offset {offset} diverged"
            )
            faults = [(r.fault.net, r.fault.value) for r in summary.records]
            assert len(faults) == len(set(faults))


    def test_uncertified_resume_keeps_class_projection(self, tmp_path):
        """Without certification the resume trust check must not stamp
        ``certified`` on the records it replays: the uninterrupted run
        leaves it unset, and the projection includes it."""
        network = c17()
        journal = tmp_path / "journal.jsonl"
        clean = ParallelAtpgEngine(network, workers=1).run(
            checkpoint_to=journal
        )
        data = journal.read_bytes()
        for offset in _resume_offsets(data):
            torn = tmp_path / f"torn-{offset}.jsonl"
            torn.write_bytes(data[:offset])
            resumed = ParallelAtpgEngine(network, workers=1).run(
                resume_from=torn
            )
            assert _verdicts(resumed) == _verdicts(clean), offset


class TestJobReadoption:
    def _torn_job(self, tmp_path, reference, offset: int):
        """A RUNNING job whose journal is a torn prefix, as left behind
        by a server killed mid-run."""
        store = JobStore(tmp_path / "service")
        from repro.service.hashing import canonical_job_key, canonical_options
        from repro.service.hashing import canonical_circuit_hash

        network = reference["network"]
        options = canonical_options(None)
        key = canonical_job_key(network, options)
        job_id = job_id_for_key(key)
        store.create(
            job_id,
            job_key=key,
            circuit_hash=canonical_circuit_hash(network),
            circuit_name=network.name,
            netlist_text=dumps_bench(network),
            options=options,
            tenant="default",
        )
        store.journal_path(job_id).write_bytes(
            reference["journal_bytes"][:offset]
        )
        store.set_state(job_id, JobState.RUNNING, runner_pid=None)
        return store, job_id

    def test_readoption_recovers_torn_journal(self, reference, tmp_path):
        data = reference["journal_bytes"]
        offsets = _resume_offsets(data)
        for offset in (offsets[0], offsets[len(offsets) // 2], offsets[-2]):
            store, job_id = self._torn_job(
                tmp_path / f"at-{offset}", reference, offset
            )
            adopted = store.recover()
            assert [m["id"] for m in adopted] == [job_id]
            meta = store.load_meta(job_id)
            assert meta["state"] == JobState.QUEUED.value
            assert meta["adoptions"] == 1
            results = ResultStore(store.root / "cas")
            doc = execute_job(store, results, job_id)
            assert [
                verdict_projection(r) for r in doc["records"]
            ] == [verdict_projection(r) for r in (
                record_to_dict(rec) for rec in reference["summary"].records
            )]
            faults = [(r["net"], r["value"]) for r in doc["records"]]
            assert len(faults) == len(set(faults))
            assert store.load_meta(job_id)["state"] == JobState.DONE.value
