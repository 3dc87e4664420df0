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

    @pytest.mark.parametrize("solver", ["cdcl", "dpll", "caching"])
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
        engine = AtpgEngine(net)
        assert engine.ordered_faults(faults) == faults

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
        # The CNF cache serves the base load: each gate encoded once.
        # Fault deltas instantiate clause templates, never the cache.
        assert stats.cache_misses == len(net.nets)
        assert stats.cache_hits == 0
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

    def test_cone_setup_is_encode_time_only(self, monkeypatch):
        """A run loads the good circuit twice under full certification:
        once into the engine's solver and once into the replay rung's.
        The engine's base holds each gate's clauses exactly once, and a
        slow load lands in encode time and nowhere else: the four
        stages still sum to at most the wall time."""
        import time

        from repro.gen.structured import tmr_voted_adder
        from repro.sat.incremental import IncrementalSatSolver
        from repro.sat.tseitin import gate_clauses

        delay = 0.1
        add_base = IncrementalSatSolver.add_base
        loaded = []

        def slow_add_base(self, clauses):
            loaded.append(self)
            time.sleep(delay)
            return add_base(self, clauses)

        monkeypatch.setattr(IncrementalSatSolver, "add_base", slow_add_base)
        network = tech_decompose(tmr_voted_adder(2))
        engine = AtpgEngine(network, certify="full")
        stats = engine.run().stats
        assert len(loaded) == 2
        assert loaded == [engine._solver, engine._replay_solver]
        gate_clause_count = sum(
            len(gate_clauses(gate)) for gate in network.gates()
        )
        assert engine._solver.num_base_clauses == gate_clause_count
        assert sum(stats.stage_times().values()) <= stats.wall_time
        assert stats.encode_time >= 2 * delay
        assert stats.build_time < delay

    def test_one_fanout_walk_per_site(self, monkeypatch):
        """Fault dropping, miter construction and the certify ladder's
        replay rung read one per-site cone cache: a run walks each fault
        site's transitive fanout once."""
        from repro.circuits.network import Network
        from repro.gen.structured import tmr_voted_adder

        walked = []
        fanout = Network.transitive_fanout

        def counting(self, nets):
            nets = list(nets)
            walked.extend(nets)
            return fanout(self, nets)

        monkeypatch.setattr(Network, "transitive_fanout", counting)
        network = tech_decompose(tmr_voted_adder(2))
        engine = AtpgEngine(network, certify="full")
        summary = engine.run()
        counts = summary.status_counts()
        assert counts["dropped"] and counts["untestable"]
        assert sorted(walked) == sorted({r.fault.net for r in summary.records})

    def test_mem_budget_counts_the_whole_circuit(self):
        """``mem_budget_mb`` bounds the clause database of the engine's
        one solver, whole-circuit base included: a fault that solves
        within the budget on its own circuit aborts once an unrelated
        circuit beside it pushes the solver's base over the budget."""
        from repro.gen.structured import tmr_voted_adder

        hard = tech_decompose(tmr_voted_adder(5))
        filler = make_random_network(5, num_inputs=12, num_gates=1500)
        network = _side_by_side(hard, filler)
        budget = 0.5

        alone = AtpgEngine(hard, mem_budget_mb=budget)
        record = alone.generate_test(Fault("c_r0_1", 0))
        assert record.status is FaultStatus.UNTESTABLE

        fault = Fault("hard.c_r0_1", 0)
        record = AtpgEngine(network, mem_budget_mb=budget).generate_test(fault)
        assert record.status is FaultStatus.ABORTED
        assert record.abort_reason == "mem_budget_exceeded"

        # Why: the budget is checked every 64 conflicts, the bounded run
        # follows the unbounded one's trajectory up to the first check,
        # and by then only the whole circuit's clauses exceed it.
        unbounded = AtpgEngine(network)
        record = unbounded.generate_test(fault)
        assert record.status is FaultStatus.UNTESTABLE
        assert record.conflicts >= 64
        limit = budget * 2**20
        assert alone._solver.core.clause_bytes_estimate() < limit
        assert unbounded._solver.core.clause_bytes_estimate() > limit


def _side_by_side(first, second):
    """One network holding both circuits, nets prefixed ``hard.`` and
    ``fill.``: neither observes the other."""
    from repro.circuits.network import Network

    combined = Network(name=f"{first.name}+{second.name}")
    for prefix, part in (("hard.", first), ("fill.", second)):
        renamed = part.renamed(prefix)
        for net in renamed.topological_order():
            gate = renamed.gate(net)
            if net in renamed.inputs:
                combined.add_input(net)
            else:
                combined.add_gate(net, gate.gate_type, gate.inputs)
        for out in renamed.outputs:
            combined.add_output(out)
    return combined


class TestSolverFactory:
    def test_known_backends(self):
        from repro.atpg.engine import make_solver

        for name in ("cdcl", "dpll", "caching"):
            assert make_solver(name, 100) is not None

    def test_unknown_backend(self):
        from repro.atpg.engine import make_solver

        with pytest.raises(ValueError):
            make_solver("quantum")
