"""Tests for the persistent CDCL core and the incremental solver layer.

Covers the MiniSat-style mechanics ISSUE 2 introduces: solving under
assumptions on persistent state, activation-guarded clause groups with
push/solve/retire cycles, conflict budgets returning UNKNOWN without
poisoning the core, variable-index recycling bounded by the garbage
collector, and randomized parity against the fresh ``solve_cdcl`` path.
"""

import random

import pytest

from repro.sat.cdcl import CdclCore, solve_cdcl
from repro.sat.cnf import CnfFormula, clause, formula_from_ints, neg, pos
from repro.sat.compile import lit_of, negate
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.result import SatStatus


def push_named(solver, clauses):
    """Push named clauses as one group: a name the base interned keeps
    its solver variable, every other name becomes a local variable.
    Returns the group and the ``(name, variable)`` pairs of every name
    a model can be read for."""
    lookup = solver.compiler.lookup
    local = {}
    ints = []
    for named in clauses:
        lits = set()
        for literal in sorted(named, key=lambda l: (l.variable, l.positive)):
            var = lookup(literal.variable)
            if var is None:
                index = local.setdefault(literal.variable, len(local))
                lits.add(~lit_of(index, literal.positive))
            else:
                lits.add(lit_of(var, literal.positive))
        if not any(lit ^ 1 in lits for lit in lits):
            ints.append(sorted(lits))
    group = solver.push_group(ints, len(local))
    names = list(solver.compiler.items()) + [
        (name, group.variables[index]) for name, index in local.items()
    ]
    return group, names


def random_formula(seed: int, num_vars: int = 6, num_clauses: int = 14):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.choice((1, 2, 2, 3, 3))
        chosen = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return formula_from_ints(clauses)


def unsat_parity_formula():
    """All eight 3-literal clauses over three variables: UNSAT, and any
    proof needs at least one conflict (no root units)."""
    ints = []
    for a in (1, -1):
        for b in (2, -2):
            for c in (3, -3):
                ints.append([a, b, c])
    return formula_from_ints(ints)


class TestCoreAssumptions:
    def test_unsat_under_assumptions_then_sat_without(self):
        core = CdclCore()
        x0, x1 = core.new_var(), core.new_var()
        core.add_clause([lit_of(x0, True), lit_of(x1, True)])

        status, _ = core.solve(
            assumptions=(lit_of(x0, False), lit_of(x1, False))
        )
        assert status is SatStatus.UNSAT
        assert not core.root_failed  # assumption failure is not root UNSAT

        status, _ = core.solve()
        assert status is SatStatus.SAT
        assert core.values[x0] == 1 or core.values[x1] == 1

    def test_assumption_forces_model(self):
        core = CdclCore()
        x0, x1 = core.new_var(), core.new_var()
        core.add_clause([lit_of(x0, False), lit_of(x1, True)])  # x0 -> x1

        status, _ = core.solve(assumptions=(lit_of(x0, True),))
        assert status is SatStatus.SAT
        assert core.values[x0] == 1
        assert core.values[x1] == 1

    def test_learned_state_survives_across_calls(self):
        core = CdclCore()
        formula = unsat_parity_formula()
        index = {name: core.new_var() for name in formula.variables}
        for named in formula.clauses:
            core.add_clause(
                [lit_of(index[l.variable], l.positive) for l in named]
            )

        status, first = core.solve()
        assert status is SatStatus.UNSAT
        assert first.conflicts >= 1
        # Root UNSAT is permanent: the next call answers immediately.
        status, second = core.solve()
        assert status is SatStatus.UNSAT
        assert second.conflicts == 0

    def test_budget_unknown_does_not_poison_core(self):
        core = CdclCore()
        formula = unsat_parity_formula()
        index = {name: core.new_var() for name in formula.variables}
        for named in formula.clauses:
            core.add_clause(
                [lit_of(index[l.variable], l.positive) for l in named]
            )

        status, _ = core.solve(max_conflicts=0)
        assert status is SatStatus.UNKNOWN
        status, _ = core.solve()
        assert status is SatStatus.UNSAT

    def test_reduce_learned_preserves_answers(self):
        core = CdclCore()
        formula = random_formula(23, num_vars=10, num_clauses=30)
        index = {name: core.new_var() for name in formula.variables}
        for named in formula.clauses:
            core.add_clause(
                [lit_of(index[l.variable], l.positive) for l in named]
            )
        before, _ = core.solve()
        core.backjump(0)
        core.reduce_learned()
        after, _ = core.solve()
        assert after is before


class TestClauseGroups:
    def test_push_solve_retire_cycle(self):
        solver = IncrementalSatSolver()
        solver.add_base([clause(pos("a"), pos("b"))])

        group, _ = push_named(solver, [clause(neg("a")), clause(neg("b"))])
        assert solver.solve(group).status is SatStatus.UNSAT
        solver.retire(group)

        # The contradiction retired with its group; the base is SAT.
        assert solver.solve().status is SatStatus.SAT

        group, names = push_named(solver, [clause(pos("a"))])
        result = solver.solve(group, model_vars=names)
        assert result.status is SatStatus.SAT
        assert result.assignment["a"] == 1
        solver.retire(group)

    def test_retire_is_idempotent(self):
        solver = IncrementalSatSolver()
        solver.add_base([clause(pos("a"))])
        group, _ = push_named(solver, [clause(pos("b"))])
        solver.retire(group)
        solver.retire(group)
        assert solver.solve().status is SatStatus.SAT

    def test_budget_then_retry_with_more(self):
        solver = IncrementalSatSolver()
        group, _ = push_named(solver, unsat_parity_formula().clauses)
        assert solver.solve(group, max_conflicts=0).status is (
            SatStatus.UNKNOWN
        )
        assert solver.solve(group).status is SatStatus.UNSAT
        solver.retire(group)
        assert solver.solve().status is SatStatus.SAT

    def test_group_variables_are_recycled(self):
        """50 push/retire cycles must not grow the core unboundedly."""
        solver = IncrementalSatSolver()
        solver.add_base([clause(pos("keep"))])
        high_water = 0
        for round_index in range(50):
            name = f"g{round_index}"
            group, _ = push_named(
                solver,
                [
                    clause(pos("keep"), pos(name)),
                    clause(neg(name), pos(f"{name}_out")),
                ],
            )
            assert solver.solve(group).status is SatStatus.SAT
            solver.retire(group)
            high_water = max(high_water, solver.core.num_vars)
            # Only the base load names variables.
            assert solver.num_vars == 1
        # Group vars recycle instantly; activation vars recycle at each
        # sweep, which runs once retired clauses are half the database
        # (here at every retire), so the core plateaus at once.
        assert high_water <= 1 + 2 + 2
        assert solver.core.num_vars <= high_water

    def test_collect_sweeps_retired_clauses(self):
        solver = IncrementalSatSolver()
        # A base larger than the group, so retiring it does not sweep.
        solver.add_base(
            [clause(pos("a"), pos("b")), clause(neg("a"), pos("e"))]
            + [clause(pos(f"x{k}"), pos(f"y{k}")) for k in range(3)]
        )
        baseline = len(solver.core.base)
        group, _ = push_named(
            solver, [clause(pos("c")), clause(neg("c"), pos("d"))]
        )
        solver.solve(group)
        solver.retire(group)
        assert len(solver.core.base) > baseline  # still attached (inert)
        swept = solver.core.collect()
        assert swept >= group.num_clauses
        # The retire unit [-t] itself stays; the group's clauses go.
        assert len(solver.core.base) <= baseline + 1

    def test_phase_seeding_steers_the_model(self):
        solver = IncrementalSatSolver()
        solver.add_base([clause(pos("a"), pos("b"))])
        hints = {"a": 0, "b": 1}
        positions = [0] * solver.num_base_vars
        for name, var in solver.compiler.items():
            positions[var] = list(hints).index(name)
        solver.seed_phases(list(hints.values()), positions)
        result = solver.solve()
        assert result.status is SatStatus.SAT
        assert result.assignment["b"] == 1
        assert result.assignment.get("a", 0) == 0


class TestParityWithFreshSolver:
    @pytest.mark.parametrize("seed", range(25))
    def test_single_group_matches_solve_cdcl(self, seed):
        formula = random_formula(seed, num_vars=7, num_clauses=20)
        fresh = solve_cdcl(formula)

        solver = IncrementalSatSolver()
        group, names = push_named(solver, formula.clauses)
        result = solver.solve(group, model_vars=names)
        assert result.status is fresh.status, seed
        if result.status is SatStatus.SAT:
            assert formula.is_satisfied_by(result.assignment)

    def test_batch_of_groups_matches_fresh_verdicts(self):
        """A realistic batch: shared base, successive deltas, retained
        learned clauses — every verdict must match a cold start."""
        base = random_formula(101, num_vars=8, num_clauses=10)
        solver = IncrementalSatSolver()
        solver.add_base(base.clauses)
        for seed in range(20):
            delta = random_formula(200 + seed, num_vars=8, num_clauses=8)
            combined = CnfFormula(base.clauses | delta.clauses)
            fresh = solve_cdcl(combined)

            group, names = push_named(solver, delta.clauses)
            result = solver.solve(group, model_vars=names)
            assert result.status is fresh.status, seed
            if result.status is SatStatus.SAT:
                assert combined.is_satisfied_by(result.assignment)
            solver.retire(group)


class TestBinaryEdgesAcrossLifecycle:
    """Push/retire/GC interaction with the binary implication graph:
    guarded clauses of width 2 live in the ``bin_others``/``bin_refs``
    successor lists, and a retired group's edges must leave the graph
    at the next arena collection."""

    @staticmethod
    def _binary_edges(core):
        return sum(len(succ) for succ in core.bin_others)

    def test_retired_group_drops_binary_edges(self):
        solver = IncrementalSatSolver()
        solver.add_base([clause(pos("a"), pos("b"))])
        base_edges = self._binary_edges(solver.core)
        # Each single-literal group clause compiles to a guarded binary
        # [¬act, lit], entering the binary graph.
        group, _ = push_named(solver, [clause(pos("c")), clause(pos("d"))])
        assert self._binary_edges(solver.core) == base_edges + 4
        assert solver.solve(group).status is SatStatus.SAT
        solver.retire(group)
        solver.core.backjump(0)
        solver.core.collect()
        assert self._binary_edges(solver.core) == base_edges
        assert self._binary_edges(solver.core) == sum(
            len(refs) for refs in solver.core.bin_refs
        )

    def test_gc_never_changes_a_verdict(self):
        """Property: a solver that collects after every retire returns
        the same verdict sequence as one that never collects, over
        randomized binary-dense push/retire workloads."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10_000))
        def run(seed):
            rng = random.Random(seed)
            eager = IncrementalSatSolver()
            lazy = IncrementalSatSolver()
            lazy.core.collect = lambda: 0  # never sweeps
            base = random_formula(rng.randrange(10**6), num_vars=6)
            eager.add_base(base.clauses)
            lazy.add_base(base.clauses)
            for _ in range(6):
                group_formula = random_formula(
                    rng.randrange(10**6), num_vars=8, num_clauses=10
                )
                g_eager, _ = push_named(eager, group_formula.clauses)
                g_lazy, _ = push_named(lazy, group_formula.clauses)
                verdict_eager = eager.solve(g_eager).status
                verdict_lazy = lazy.solve(g_lazy).status
                assert verdict_eager is verdict_lazy
                if rng.random() < 0.7:
                    eager.retire(g_eager)
                    eager.core.collect()
                    lazy.retire(g_lazy)

        run()


class TestRestrictedDecisions:
    """One solver holds a whole random circuit; each fault's SAT call
    decides only the fault's relevant set R (the transitive fanin of
    its observing outputs) plus its delta's variables."""

    @staticmethod
    def _network(seed):
        from tests.conftest import make_random_network

        network = make_random_network(seed, num_inputs=6, num_gates=16)
        rng = random.Random(seed)
        gates = [net for net in network.nets if net not in network.inputs]
        for net in rng.sample(gates, 2):
            if net not in network.outputs:
                network.add_output(net)
        return network

    @staticmethod
    def _detects(network, fault, test):
        from repro.atpg.faults import inject_fault

        good = network.evaluate(test)
        bad = inject_fault(network, fault).evaluate(test)
        return any(good[out] != bad[out] for out in network.outputs)

    @pytest.mark.parametrize("seed", range(12))
    def test_answers_match_cold_cdcl_and_detect(self, seed):
        from repro.atpg.fault_sim import FaultSimulator
        from repro.atpg.faults import collapse_faults
        from repro.atpg.miter import build_atpg_circuit, build_fault_delta
        from repro.sat.cdcl import CdclSolver
        from repro.sat.tseitin import gate_clauses

        network = self._network(seed)
        topo = network.topological_order()
        solver = IncrementalSatSolver()
        solver.add_base(
            clause
            for net in topo
            for clause in gate_clauses(network.gate(net))
        )
        simulator = FaultSimulator(network)
        assert simulator.nets == topo
        base_vars = [solver.compiler.lookup(net) for net in topo]
        restricted = 0
        for fault in collapse_faults(network):
            tfo = network.transitive_fanout([fault.net])
            observing = [out for out in network.outputs if out in tfo]
            if not observing:
                continue
            relevant = network.transitive_fanin(observing)
            decidable = bytearray(solver.num_base_vars)
            for net in relevant:
                index = solver.compiler.lookup(net)
                if index is not None:
                    decidable[index] = 1
            restricted += decidable.count(0)
            mask = bytes(net in relevant for net in topo)
            delta = build_fault_delta(simulator, fault, mask, base_vars)
            group = solver.push_group(delta.clauses, delta.num_locals)
            model_vars = [
                (net, var)
                for net, var in zip(topo, base_vars)
                if var is not None and net in network.inputs
            ] + [
                (topo[pos], group.variables[local])
                for pos, local in delta.free_inputs
            ]
            result = solver.solve(
                group, model_vars=model_vars, decidable=bytes(decidable)
            )
            solver.retire(group)
            cold = CdclSolver().solve(
                build_atpg_circuit(network, fault).formula()
            )
            assert result.status is cold.status, fault
            if result.status is SatStatus.SAT:
                # Inputs the search left unassigned are don't-cares:
                # either completion must detect the fault.
                for default in (0, 1):
                    test = {
                        net: result.assignment.get(net, default)
                        for net in network.inputs
                    }
                    assert self._detects(network, fault, test), (fault, test)
        # Some fault of every circuit had base variables it may not decide.
        assert restricted > 0


class TestMaskedBranchingOrder:
    """A call under a new mask refills the branching heap with what the
    mask allows (module docstring of :mod:`repro.sat.cdcl`,
    "Restricted decisions")."""

    def test_new_mask_decides_what_the_old_one_dropped(self):
        core = CdclCore()
        core.new_vars(6)
        status, _ = core.solve(decidable=bytes([1, 1, 0, 0, 0, 0]))
        assert status is SatStatus.SAT
        values = core.values
        assert -1 not in values[:2] and values[2:] == [-1] * 4
        # Vars 2 and 3 left the heap under the first mask.
        status, _ = core.solve(decidable=bytes([0, 0, 1, 1, 0, 0]))
        assert status is SatStatus.SAT
        values = core.values
        assert -1 not in values[2:4] and values[4:] == [-1] * 2
