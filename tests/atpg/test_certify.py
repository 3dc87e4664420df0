"""Certification and the self-healing escalation ladder.

The chaos tests are the acceptance criterion for this subsystem: a
solver that returns *wrong verdicts* (not crashes — wrong answers) must
be caught by certification, healed by an independent rung, and surfaced
as a disagreement in ``RunHealth``.  The chaos engines below override
only ``_primary_record``, exactly the seam the ladder treats as its
untrusted first rung.
"""

import pytest

from repro.atpg.certify import (
    CERTIFY_MODES,
    CertificationError,
    EscalationLadder,
    witness_ok,
)
from repro.atpg.checkpoint import (
    CheckpointWriter,
    ResumeRejectedRecordsWarning,
    verified_resumable_records,
)
from repro.atpg.engine import (
    ABORT_CERTIFICATION,
    ABORT_MEM,
    ABORT_SOLVER,
    AtpgEngine,
    AtpgRecord,
    EngineStats,
    FaultStatus,
)
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.parallel import ParallelAtpgEngine
from tests.conftest import make_random_network


class TestWitness:
    def test_witness_ok_detecting_pattern(self, redundant_network):
        engine = AtpgEngine(redundant_network)
        record = engine.generate_test(Fault("t", 1))
        assert witness_ok(redundant_network, Fault("t", 1), record.test)

    def test_witness_rejects_non_detecting_pattern(self, redundant_network):
        # The redundant fault is detected by *no* pattern.
        pattern = {name: 0 for name in redundant_network.inputs}
        assert not witness_ok(redundant_network, Fault("t", 0), pattern)


class TestSharedWitnessValues:
    """The engine simulates each new test once and shares the values
    between its witness check, phase seeding and fault dropping.  A
    wrong pattern must still fail its witness check even when the
    simulator has just simulated the right one for the same fault."""

    @staticmethod
    def _flip_first_input(monkeypatch):
        real = AtpgEngine._extract_test

        def flipped(self, assignment):
            test = real(self, assignment)
            test[self.network.inputs[0]] ^= 1
            return test

        monkeypatch.setattr(AtpgEngine, "_extract_test", flipped)

    @staticmethod
    def _and_network():
        from repro.circuits.build import NetworkBuilder

        builder = NetworkBuilder()
        a, b = builder.inputs(2)
        builder.outputs(builder.and_(a, b, name="z"))
        return builder.build()

    def test_validation_raises_on_flipped_witness(self, monkeypatch):
        engine = AtpgEngine(self._and_network())  # certify off, validate on
        fault = Fault("z", 0)  # detected only by a = b = 1
        assert engine.generate_test(fault).status is FaultStatus.TESTED
        self._flip_first_input(monkeypatch)
        with pytest.raises(CertificationError):
            engine.generate_test(fault)

    def test_ladder_escalates_on_flipped_witness(self, monkeypatch):
        engine = AtpgEngine(self._and_network(), certify="witness")
        fault = Fault("z", 0)
        assert engine.generate_test(fault).certified is True
        self._flip_first_input(monkeypatch)
        stats = EngineStats()
        record = engine.generate_test(fault, stats)
        # Every rung projects its model through the flipped extraction,
        # so no witness passes and the fault aborts instead.
        assert stats.health.escalations >= 1
        assert record.status is FaultStatus.ABORTED
        assert record.abort_reason == ABORT_CERTIFICATION
        assert record.certified is False


class TestCertifiedRuns:
    """With an honest solver, certification is an invariant check:
    every TESTABLE verdict passes witness replay and (in ``full`` mode)
    every REDUNDANT verdict is proof- or agreement-certified."""

    @pytest.mark.parametrize("mode", ("witness", "full"))
    @pytest.mark.parametrize("seed", (0, 3, 7))
    def test_all_verdicts_certified(self, mode, seed):
        network = make_random_network(seed, num_inputs=4, num_gates=10)
        summary = AtpgEngine(network, certify=mode).run()
        health = summary.stats.health
        for record in summary.records:
            if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
                assert record.certified is True, record
            elif record.status is FaultStatus.UNTESTABLE:
                expected = True if mode == "full" else None
                assert record.certified is expected, record
        assert health.uncertified == 0
        assert health.disagreements == 0
        assert health.escalations == 0
        assert health.certified > 0

    def test_certified_run_matches_uncertified_verdicts(self):
        network = make_random_network(11, num_inputs=4, num_gates=12)
        plain = AtpgEngine(network).run(fault_dropping=False)
        certified = AtpgEngine(network, certify="full").run(
            fault_dropping=False
        )
        by_fault = {r.fault: r.status for r in plain.records}
        for record in certified.records:
            assert record.status is by_fault[record.fault]

    def test_sequential_parallel_and_certified_runs_agree(
        self, rand_i14_g120
    ):
        """The sequential, 2-shard and fully certified runs cover the
        same faults, and full certification stays within 1.3x the
        uncertified run's propagations (0.79x measured)."""
        network = rand_i14_g120
        faults = collapse_faults(network)
        sequential = AtpgEngine(network).run(faults=faults)
        parallel = ParallelAtpgEngine(network, workers=2).run(faults=faults)
        certified = AtpgEngine(network, certify="full").run(faults=faults)
        assert parallel.stats.shards == 2
        assert parallel.fault_coverage == sequential.fault_coverage
        assert certified.fault_coverage == sequential.fault_coverage
        assert parallel.stats.health.clean, parallel.stats.health.as_dict()
        health = certified.stats.health
        assert health.uncertified == 0
        assert health.disagreements == 0
        assert health.escalations == 0
        assert health.certified > 0
        extra = certified.stats.propagations - sequential.stats.propagations
        assert extra <= 1.3 * sequential.stats.propagations
        # The per-gate CNF cache serves the base loads: the replay
        # solver's load reuses every block the engine's solver encoded.
        assert sequential.stats.cache_hits == 0
        assert certified.stats.cache_hits == certified.stats.cache_misses
        assert certified.stats.cache_misses == len(network.nets)

    def test_redundant_fault_certified_by_proof(self, redundant_network):
        engine = AtpgEngine(redundant_network, certify="full")
        record = engine.generate_test(Fault("t", 0))
        assert record.status is FaultStatus.UNTESTABLE
        assert record.certified is True

    def test_invalid_mode_rejected(self, redundant_network):
        assert set(CERTIFY_MODES) == {"off", "witness", "full"}
        with pytest.raises(ValueError):
            AtpgEngine(redundant_network, certify="paranoid")
        with pytest.raises(ValueError):
            EscalationLadder(AtpgEngine(redundant_network), "off")


# ----------------------------------------------------------------------
# Chaos engines: wrong answers, not crashes.
# ----------------------------------------------------------------------
class LyingSatEngine(AtpgEngine):
    """Primary rung claims every fault TESTED with an arbitrary pattern
    (which may or may not actually detect the fault)."""

    def _primary_record(self, fault, stats):
        return AtpgRecord(
            fault=fault,
            status=FaultStatus.TESTED,
            test={name: 0 for name in self.network.inputs},
        )


class LyingUnsatEngine(AtpgEngine):
    """Primary rung claims every fault UNTESTABLE."""

    def _primary_record(self, fault, stats):
        return AtpgRecord(fault=fault, status=FaultStatus.UNTESTABLE)


class MemStarvedEngine(AtpgEngine):
    """Primary rung always aborts on the memory budget."""

    def _primary_record(self, fault, stats):
        return AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            abort_reason=ABORT_MEM,
        )


class CrashingEngine(AtpgEngine):
    """Primary rung raises (solver bug / OOM / cosmic ray)."""

    def _primary_record(self, fault, stats):
        raise RuntimeError("injected solver crash")


class TestChaosHealing:
    def test_lying_unsat_healed_with_disagreements(self):
        """A solver wrongly claiming UNTESTABLE everywhere must be
        outvoted by the fresh rung's certified witnesses — and every
        flip must surface as a disagreement."""
        network = make_random_network(5, num_inputs=4, num_gates=10)
        chaos = LyingUnsatEngine(network, certify="full").run(
            fault_dropping=False
        )
        honest = AtpgEngine(network).run(fault_dropping=False)
        by_fault = {r.fault: r.status for r in honest.records}
        flipped = 0
        for record in chaos.records:
            assert record.status is by_fault[record.fault], record
            if record.status is FaultStatus.TESTED:
                assert record.certified is True
                flipped += 1
        assert flipped > 0
        assert chaos.stats.health.disagreements >= flipped
        assert not chaos.stats.health.clean

    def test_lying_sat_on_redundant_fault(self, redundant_network):
        """The nastiest lie: TESTED-with-bogus-pattern for a fault that
        is provably untestable.  Witness replay must refuse the pattern
        and the healed UNSAT must carry a checked proof."""
        engine = LyingSatEngine(redundant_network, certify="full")
        stats = EngineStats()
        record = engine._ladder.process(Fault("t", 0), stats)
        assert record.status is FaultStatus.UNTESTABLE
        assert record.certified is True
        assert stats.health.disagreements == 1
        assert stats.health.escalations >= 1

    def test_mem_budget_abort_escalates_to_working_rung(self):
        network = make_random_network(2, num_inputs=4, num_gates=8)
        summary = MemStarvedEngine(network, certify="full").run(
            fault_dropping=False
        )
        for record in summary.records:
            assert record.status is not FaultStatus.ABORTED, record
        assert summary.stats.health.escalations > 0

    def test_crashing_primary_healed_not_raised(self):
        network = make_random_network(9, num_inputs=4, num_gates=8)
        summary = CrashingEngine(network, certify="witness").run(
            fault_dropping=False
        )
        statuses = {r.status for r in summary.records}
        assert FaultStatus.ABORTED not in statuses
        assert summary.stats.health.escalations > 0

    def test_all_rungs_crashing_aborts_with_solver_error(
        self, redundant_network, monkeypatch
    ):
        engine = AtpgEngine(redundant_network, certify="full")

        def boom(rung, fault, stats):
            raise RuntimeError("every rung is broken")

        monkeypatch.setattr(engine._ladder, "_solve_rung", boom)
        record = engine._ladder.process(Fault("t", 1), EngineStats())
        assert record.status is FaultStatus.ABORTED
        assert record.abort_reason == ABORT_SOLVER

    def test_unanimous_bad_witnesses_abort_certification(
        self, redundant_network, monkeypatch
    ):
        """If *every* rung claims TESTED with a non-detecting pattern,
        journaling any of them would be a silent wrong answer — the
        fault must abort with ``certification_failed`` instead."""
        engine = AtpgEngine(redundant_network, certify="full")
        bogus = {name: 0 for name in redundant_network.inputs}

        def lying_rung(rung, fault, stats):
            return (
                AtpgRecord(
                    fault=fault, status=FaultStatus.TESTED, test=dict(bogus)
                ),
                None,
            )

        monkeypatch.setattr(engine._ladder, "_solve_rung", lying_rung)
        record = engine._ladder.process(Fault("t", 0), EngineStats())
        assert record.status is FaultStatus.ABORTED
        assert record.abort_reason == ABORT_CERTIFICATION
        assert record.certified is False


class TestCertificationError:
    def test_message_carries_fault_and_kind(self):
        err = CertificationError(Fault("n1", 1), "witness", "bad model")
        assert "n1" in str(err) and "witness" in str(err)
        assert isinstance(err, RuntimeError)  # back-compat guard


class TestParallelCertify:
    def test_parallel_full_certification(self):
        network = make_random_network(4, num_inputs=4, num_gates=12)
        serial = AtpgEngine(network, certify="full").run()
        parallel = ParallelAtpgEngine(
            network, workers=2, certify="full"
        ).run()
        assert parallel.status_counts() == serial.status_counts()
        health = parallel.stats.health
        assert health.uncertified == 0
        assert health.certified > 0
        for record in parallel.records:
            if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
                assert record.certified is True


class TestResumeTrustBoundary:
    def _journal_with_corrupt_tested(self, tmp_path, network):
        """An honest run's journal, with one TESTED pattern corrupted
        to a non-detecting one (stale/corrupt journal simulation)."""
        summary = AtpgEngine(network).run(fault_dropping=False)
        bogus = {name: 0 for name in network.inputs}
        tested = [
            r
            for r in summary.records
            if r.status is FaultStatus.TESTED
            and not witness_ok(network, r.fault, bogus)
        ]
        assert tested, "need a fault the bogus pattern does not detect"
        victim = tested[0].fault
        path = tmp_path / "journal.jsonl"
        with CheckpointWriter(path, network.name) as writer:
            for record in summary.records:
                if record.fault == victim:
                    bad = AtpgRecord(
                        fault=record.fault,
                        status=FaultStatus.TESTED,
                        test=dict(bogus),
                    )
                    writer.write_record(bad)
                else:
                    writer.write_record(record)
        return path, victim, summary

    def test_corrupt_tested_record_rejected_on_load(self, tmp_path):
        network = make_random_network(21, num_inputs=4, num_gates=10)
        path, victim, _ = self._journal_with_corrupt_tested(
            tmp_path, network
        )
        verified, rejected = verified_resumable_records(
            path, network, collapse_faults(network), circuit=network.name
        )
        assert victim not in verified
        assert [r.fault for r in rejected] == [victim]
        for record in verified.values():
            if record.status is FaultStatus.TESTED:
                assert record.certified is True

    def test_resume_re_solves_rejected_fault_and_warns(self, tmp_path):
        network = make_random_network(21, num_inputs=4, num_gates=10)
        path, victim, honest = self._journal_with_corrupt_tested(
            tmp_path, network
        )
        engine = ParallelAtpgEngine(network, workers=1)
        with pytest.warns(ResumeRejectedRecordsWarning):
            summary = engine.run(resume_from=path)
        healed = next(r for r in summary.records if r.fault == victim)
        assert healed.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
        if healed.status is FaultStatus.TESTED:
            assert witness_ok(network, victim, healed.test)
        assert summary.stats.health.disagreements >= 1
