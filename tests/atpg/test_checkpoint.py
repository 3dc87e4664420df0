"""Checkpoint journal and ``--resume`` semantics.

The acceptance property: a run that dies mid-flight and is resumed from
its journal gives every fault the verdict class an uninterrupted run
gives it, with the same coverage.  The resumed shards fault-drop only
against their own tests, so the vectors and the TESTED/DROPPED split
may differ across the cut, on every backend.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.atpg.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    is_final,
    load_checkpoint,
    record_from_dict,
    record_to_dict,
    resumable_records,
)
from repro.atpg.engine import (
    ABORT_BUDGET,
    ABORT_DEADLINE,
    ABORT_SHARD_CRASHED,
    ABORT_SHARD_TIMEOUT,
    AtpgRecord,
    FaultStatus,
)
from repro.atpg.faults import Fault
from repro.atpg.parallel import ParallelAtpgEngine
from tests.conftest import claim_marker, make_random_network, verdict_classes

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _essence(summary):
    return [(r.fault, r.status, r.test) for r in summary.records]


def _record(net="n1", value=1, status=FaultStatus.TESTED, **kwargs):
    return AtpgRecord(fault=Fault(net, value), status=status, **kwargs)


class TestRecordSerialization:
    def test_round_trip_tested(self):
        record = _record(
            status=FaultStatus.TESTED,
            num_variables=12,
            num_clauses=30,
            build_time=0.5,
            encode_time=0.25,
            solve_time=0.125,
            decisions=7,
            conflicts=3,
            test={"a": 1, "b": 0},
        )
        assert record_from_dict(record_to_dict(record)) == record

    def test_round_trip_aborted_with_reason(self):
        record = _record(
            status=FaultStatus.ABORTED, abort_reason=ABORT_BUDGET
        )
        back = record_from_dict(record_to_dict(record))
        assert back == record
        assert back.abort_reason == ABORT_BUDGET

    def test_round_trip_propagations(self):
        record = _record(decisions=7, conflicts=3, propagations=91)
        payload = record_to_dict(record)
        assert payload["propagations"] == 91
        assert record_from_dict(payload).propagations == 91

    def test_old_journal_without_propagations_defaults_to_zero(self):
        # Journals written before the field existed must keep loading.
        payload = record_to_dict(_record(propagations=91))
        del payload["propagations"]
        back = record_from_dict(payload)
        assert back.propagations == 0
        assert back.fault == Fault("n1", 1)

    @pytest.mark.parametrize(
        "status,reason,final",
        [
            (FaultStatus.TESTED, None, True),
            (FaultStatus.UNTESTABLE, None, True),
            (FaultStatus.UNOBSERVABLE, None, True),
            (FaultStatus.DROPPED, None, True),
            (FaultStatus.ABORTED, ABORT_BUDGET, True),
            (FaultStatus.ABORTED, ABORT_DEADLINE, False),
            (FaultStatus.ABORTED, ABORT_SHARD_TIMEOUT, False),
            (FaultStatus.ABORTED, ABORT_SHARD_CRASHED, False),
        ],
    )
    def test_is_final(self, status, reason, final):
        assert is_final(_record(status=status, abort_reason=reason)) is final


class TestJournalFile:
    def test_writer_then_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17", config={"budget": 5}) as writer:
            writer.write_record(_record("n1", 0))
            writer.write_record(_record("n2", 1, status=FaultStatus.UNTESTABLE))
        header, records = load_checkpoint(path, circuit="c17")
        assert header["config"] == {"budget": 5}
        assert set(records) == {Fault("n1", 0), Fault("n2", 1)}

    def test_duplicate_fault_last_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17") as writer:
            writer.write_record(
                _record("n1", 0, status=FaultStatus.ABORTED,
                        abort_reason=ABORT_SHARD_CRASHED)
            )
            writer.write_record(_record("n1", 0, status=FaultStatus.TESTED))
        _, records = load_checkpoint(path)
        assert records[Fault("n1", 0)].status is FaultStatus.TESTED

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17") as writer:
            writer.write_record(_record("n1", 0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "record", "net": "n2", "val')  # torn write
        _, records = load_checkpoint(path)
        assert set(records) == {Fault("n1", 0)}

    def test_reopening_appends_no_second_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17") as writer:
            writer.write_record(_record("n1", 0))
        with CheckpointWriter(path, "c17") as writer:
            writer.write_record(_record("n2", 1))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["type"] for l in lines] == ["header", "record", "record"]

    def test_circuit_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17"):
            pass
        with pytest.raises(CheckpointError, match="c17"):
            load_checkpoint(path, circuit="c432")

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps(record_to_dict(_record())) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_resumable_records_filters_orchestration_aborts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointWriter(path, "c17") as writer:
            writer.write_record(_record("n1", 0))
            writer.write_record(
                _record("n2", 0, status=FaultStatus.ABORTED,
                        abort_reason=ABORT_BUDGET)
            )
            writer.write_record(
                _record("n3", 0, status=FaultStatus.ABORTED,
                        abort_reason=ABORT_DEADLINE)
            )
            writer.write_record(
                _record("n4", 0, status=FaultStatus.ABORTED,
                        abort_reason=ABORT_SHARD_TIMEOUT)
            )
        settled = resumable_records(path, circuit="c17")
        assert set(settled) == {Fault("n1", 0), Fault("n2", 0)}


@pytest.mark.usefixtures("small_shards")
class TestResume:
    """End-to-end resume parity on real circuits."""

    @pytest.fixture
    def net(self):
        return make_random_network(7, num_inputs=5, num_gates=16)

    def _engine(self, net, **kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("solver", "dpll")
        return ParallelAtpgEngine(net, **kwargs)

    def _truncate(self, path, keep_records):
        """Simulate a killed run: keep the header + ``keep_records``
        whole lines, then a torn partial line."""
        lines = path.read_text().splitlines()
        kept = lines[: 1 + keep_records]
        torn = lines[1 + keep_records][:17] if len(lines) > 1 + keep_records else ""
        path.write_text("\n".join(kept) + "\n" + torn)

    def test_resume_matches_uninterrupted_fresh(self, net, tmp_path):
        """Every fault solved cold (DPLL): resume is class-identical."""
        clean = self._engine(net).run()
        journal = tmp_path / "run.jsonl"
        self._engine(net).run(checkpoint_to=journal)
        self._truncate(journal, keep_records=5)
        resumed = self._engine(net).run(resume_from=journal)
        assert verdict_classes(resumed) == verdict_classes(clean)
        assert resumed.fault_coverage == clean.fault_coverage

    def test_resume_from_complete_journal_skips_all_solving(self, net, tmp_path):
        journal = tmp_path / "run.jsonl"
        clean = self._engine(net).run(checkpoint_to=journal)
        resumed = self._engine(net).run(resume_from=journal)
        assert _essence(resumed) == _essence(clean)
        # Every verdict was settled: no SAT search happened on resume.
        assert resumed.stats.sat_calls == 0

    def test_resume_coverage_matches_incremental(self, net, tmp_path):
        clean = self._engine(net, solver="cdcl").run()
        journal = tmp_path / "run.jsonl"
        self._engine(net, solver="cdcl").run(checkpoint_to=journal)
        self._truncate(journal, keep_records=5)
        resumed = self._engine(net, solver="cdcl").run(resume_from=journal)
        statuses = lambda s: {
            (r.fault, r.status is FaultStatus.TESTED or
             r.status is FaultStatus.DROPPED)
            for r in s.records
        }
        assert statuses(resumed) == statuses(clean)
        assert resumed.fault_coverage == clean.fault_coverage

    def test_resume_and_checkpoint_same_file(self, net, tmp_path):
        """Resuming into the journal being extended is the documented
        workflow: duplicates resolve to the last line."""
        clean = self._engine(net).run()
        journal = tmp_path / "run.jsonl"
        self._engine(net).run(checkpoint_to=journal)
        self._truncate(journal, keep_records=3)
        resumed = self._engine(net).run(
            resume_from=journal, checkpoint_to=journal
        )
        assert verdict_classes(resumed) == verdict_classes(clean)
        # The journal now holds a final verdict for every fault: a second
        # resume settles everything without re-solving.
        second = self._engine(net).run(resume_from=journal)
        assert _essence(second) == _essence(resumed)
        assert second.stats.sat_calls == 0

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    @pytest.mark.parametrize(
        "victim",
        [Fault("in0", 0), Fault("in2", 0)],
        ids=["in0-sa0", "in2-sa0"],
    )
    def test_killed_parallel_run_resumes_to_parity(
        self, net, tmp_path, monkeypatch, victim
    ):
        """Acceptance: a run whose worker is killed mid-flight, resumed
        via the journal, gives every fault the uninterrupted run's
        verdict class and coverage, and every resumed pattern detects
        its fault.  The worker killed is the one whose shard holds
        ``victim`` (the two victims lie in different shards).  With one
        attempt the killed shard is split, and its halves no longer drop
        faults against each other, so vectors and the TESTED/DROPPED
        split may differ from the clean run's."""
        from repro.atpg.certify import witness_ok
        from repro.atpg.parallel import _run_shard

        clean = self._engine(net, workers=2).run()
        journal = tmp_path / "run.jsonl"
        marker = tmp_path / "crashed"

        def crash_once(job, on_record=None):
            if victim in job.faults and claim_marker(marker):
                os._exit(13)
            return _run_shard(job, on_record=on_record)

        monkeypatch.setattr("repro.atpg.supervisor.MAX_ATTEMPTS", 1)
        engine = self._engine(net, workers=2)
        engine._shard_runner = crash_once
        first = engine.run(checkpoint_to=journal)
        assert first.stats.health.crashed_shards == 1
        resumed = self._engine(net, workers=2).run(resume_from=journal)
        assert verdict_classes(resumed) == verdict_classes(clean)
        assert resumed.fault_coverage == clean.fault_coverage
        for record in resumed.records:
            if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
                assert witness_ok(net, record.fault, record.test), record
