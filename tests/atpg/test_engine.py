"""Tests for the SAT-based ATPG engine (the TEGUS stand-in)."""

import pytest

from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.fault_sim import fault_simulate
from repro.atpg.faults import Fault, collapse_faults, full_fault_list
from repro.circuits.build import NetworkBuilder
from repro.circuits.decompose import tech_decompose
from repro.gen.benchmarks import c17
from tests.conftest import make_random_network


class TestSingleFault:
    def test_testable_fault(self, redundant_network):
        engine = AtpgEngine(redundant_network)
        record = engine.generate_test(Fault("t", 1))
        assert record.status is FaultStatus.TESTED
        assert record.test is not None
        outcome = fault_simulate(
            redundant_network, [Fault("t", 1)], [record.test]
        )
        assert Fault("t", 1) in outcome.detected

    def test_redundant_fault_proven(self, redundant_network):
        engine = AtpgEngine(redundant_network)
        record = engine.generate_test(Fault("t", 0))
        assert record.status is FaultStatus.UNTESTABLE

    def test_unobservable_fault(self):
        builder = NetworkBuilder()
        a, b = builder.inputs(2)
        builder.and_(a, b, name="dangle")
        builder.outputs(builder.or_(a, b, name="z"))
        engine = AtpgEngine(builder.build())
        record = engine.generate_test(Fault("dangle", 0))
        assert record.status is FaultStatus.UNOBSERVABLE

    def test_record_carries_instance_size(self, example_network):
        engine = AtpgEngine(example_network)
        record = engine.generate_test(Fault("f", 1))
        assert record.num_variables > 0
        assert record.num_clauses > 0

    @pytest.mark.parametrize(
        "solver", ["cdcl", "dpll", "dpll-static", "caching"]
    )
    def test_all_backends_agree(self, solver, redundant_network):
        engine = AtpgEngine(redundant_network, solver=solver)
        assert (
            engine.generate_test(Fault("t", 0)).status
            is FaultStatus.UNTESTABLE
        )
        assert (
            engine.generate_test(Fault("t", 1)).status is FaultStatus.TESTED
        )

    def test_unknown_backend_rejected(self, redundant_network):
        # Rejected at construction, before any fault is solved.
        with pytest.raises(ValueError, match="unknown solver"):
            AtpgEngine(redundant_network, solver="quantum")


class TestFullRun:
    def test_c17_full_coverage(self):
        """c17 is fully testable — the classic smoke test of any ATPG."""
        net = tech_decompose(c17())
        engine = AtpgEngine(net)
        summary = engine.run(fault_dropping=False)
        assert summary.fault_coverage == 1.0
        assert not summary.by_status(FaultStatus.ABORTED)
        # Every generated test validated by fault simulation already
        # (validate=True); double-check coverage with the pattern set.
        tests = summary.tests()
        outcome = fault_simulate(net, collapse_faults(net), tests)
        assert outcome.coverage == 1.0

    def test_fault_dropping_reduces_sat_calls(self):
        net = tech_decompose(c17())
        with_drop = AtpgEngine(net).run(fault_dropping=True)
        without = AtpgEngine(net).run(fault_dropping=False)
        sat_calls_with = len(
            [r for r in with_drop.records if r.status is FaultStatus.TESTED]
        )
        sat_calls_without = len(
            [r for r in without.records if r.status is FaultStatus.TESTED]
        )
        assert sat_calls_with <= sat_calls_without
        # Dropped + tested together still cover everything.
        covered = with_drop.by_status(FaultStatus.TESTED) + with_drop.by_status(
            FaultStatus.DROPPED
        )
        assert len(covered) == len(
            [
                r
                for r in without.records
                if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
            ]
        )

    def test_every_testable_fault_gets_valid_test(self):
        for seed in (2, 7):
            net = tech_decompose(
                make_random_network(seed, num_inputs=4, num_gates=10)
            )
            summary = AtpgEngine(net).run(fault_dropping=False)
            for record in summary.by_status(FaultStatus.TESTED):
                outcome = fault_simulate(net, [record.fault], [record.test])
                assert record.fault in outcome.detected

    def test_summary_partition_is_complete(self, example_network):
        summary = AtpgEngine(example_network).run(fault_dropping=True)
        total = sum(len(summary.by_status(s)) for s in FaultStatus)
        assert total == len(summary.records)
        assert len(summary.records) == len(collapse_faults(example_network))

    def test_explicit_fault_list(self, example_network):
        faults = [Fault("f", 0), Fault("f", 1)]
        summary = AtpgEngine(example_network).run(
            faults=faults, fault_dropping=False
        )
        assert [r.fault for r in summary.records] == faults


class TestBatchedDropping:
    def test_dropping_matches_no_dropping_coverage(self):
        """Batched dropping never changes which faults are covered."""
        for seed in (3, 9):
            net = tech_decompose(
                make_random_network(seed, num_inputs=4, num_gates=12)
            )
            dropped = AtpgEngine(net).run(fault_dropping=True)
            plain = AtpgEngine(net).run(fault_dropping=False)
            assert dropped.fault_coverage == plain.fault_coverage
            covered = lambda s: {
                r.fault
                for r in s.records
                if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
            }
            assert covered(dropped) == covered(plain)

    def test_dropped_records_carry_detecting_test(self):
        net = tech_decompose(c17())
        summary = AtpgEngine(net).run(fault_dropping=True)
        for record in summary.by_status(FaultStatus.DROPPED):
            outcome = fault_simulate(net, [record.fault], [record.test])
            assert record.fault in outcome.detected

    def test_small_block_size_equivalent(self):
        """Drop decisions are independent of the packing granularity."""
        net = tech_decompose(c17())
        wide = AtpgEngine(net, drop_block_size=64).run()
        narrow = AtpgEngine(net, drop_block_size=3).run()
        assert [(r.fault, r.status, r.test) for r in wide.records] == [
            (r.fault, r.status, r.test) for r in narrow.records
        ]


class TestOrderingAndStats:
    def test_scoap_order_applied_by_default(self):
        from repro.atpg.scoap import order_faults

        net = tech_decompose(c17())
        engine = AtpgEngine(net)
        assert engine.ordered_faults() == order_faults(
            net, collapse_faults(net)
        )

    def test_given_order_preserved(self):
        net = tech_decompose(c17())
        faults = list(reversed(collapse_faults(net)))
        engine = AtpgEngine(net, order="given")
        assert engine.ordered_faults(faults) == faults

    def test_unknown_order_rejected(self):
        net = tech_decompose(c17())
        with pytest.raises(ValueError):
            AtpgEngine(net, order="random")

    def test_stats_populated(self):
        net = tech_decompose(c17())
        summary = AtpgEngine(net).run()
        stats = summary.stats
        assert stats.sat_calls == len(
            [
                r
                for r in summary.records
                if r.status
                in (
                    FaultStatus.TESTED,
                    FaultStatus.UNTESTABLE,
                    FaultStatus.ABORTED,
                )
            ]
        )
        assert stats.cache_misses > 0
        assert stats.cache_hits > 0  # overlapping cones must share CNF
        assert stats.wall_time > 0
        assert stats.solve_time > 0
        stages = stats.stage_times()
        assert set(stages) == {"build", "encode", "solve", "fsim"}

    def test_record_stage_times(self):
        net = tech_decompose(c17())
        record = AtpgEngine(net).generate_test(collapse_faults(net)[0])
        assert record.solve_time >= 0
        assert record.build_time >= 0
        assert record.encode_time >= 0


class TestSolverFactory:
    def test_known_backends(self):
        from repro.atpg.engine import make_solver

        for name in ("cdcl", "dpll", "dpll-static", "caching"):
            assert make_solver(name, 100) is not None

    def test_unknown_backend(self):
        from repro.atpg.engine import make_solver

        with pytest.raises(ValueError):
            make_solver("quantum")
