"""Aborted-fault accounting and fail-fast validation.

The paper's point is that most ATPG instances are easy and a few are
intractably hard; the engine's honesty requirement is the flip side: a
fault the solver *gave up on* (conflict budget, run deadline) must be
reported ``ABORTED`` with a machine-readable reason — never silently
folded into the undetectable count, which would overstate redundancy.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.atpg.engine import (
    ABORT_BUDGET,
    ABORT_DEADLINE,
    AtpgEngine,
    FaultStatus,
)
from repro.atpg.parallel import ParallelAtpgEngine
from repro.circuits import GateType, Network, ValidationError
from repro.sat.cdcl import CdclCore
from repro.sat.compile import lit_of
from repro.sat.result import SatStatus
from tests.conftest import make_random_network

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

# Seeds where a zero budget forces aborts on both solve paths
# (scanned offline; deterministic because the generator is seeded).
ABORTING_SEEDS = [2, 6, 15]

#: The incremental CDCL path and the per-fault cold path (DPLL), which
#: share the engine's abort accounting.
SOLVERS = [
    pytest.param("cdcl", id="incremental"),
    pytest.param("dpll", id="dpll"),
]


def _net(seed):
    return make_random_network(seed, num_inputs=5, num_gates=18)


def _sequential(net, solver, **kwargs):
    return AtpgEngine(net, solver=solver, **kwargs)


def _parallel(net, solver, **kwargs):
    kwargs.setdefault("workers", 2 if HAS_FORK else 1)
    kwargs.setdefault("min_faults_per_shard", 1)
    return ParallelAtpgEngine(net, solver=solver, **kwargs)


class TestBudgetAbortAccounting:
    @pytest.mark.parametrize("seed", ABORTING_SEEDS)
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("make", [_sequential, _parallel])
    def test_budget_aborts_are_aborted_not_undetectable(
        self, seed, solver, make
    ):
        net = _net(seed)
        starved = make(net, solver, max_conflicts=0).run()
        aborted = [
            r for r in starved.records if r.status is FaultStatus.ABORTED
        ]
        assert aborted, "scan promised this seed aborts at budget 0"
        # Every abort carries the machine-readable budget reason.
        assert all(r.abort_reason == ABORT_BUDGET for r in aborted)
        assert all(r.test is None for r in aborted)
        # Aborts are never laundered into the undetectable count: a
        # fault the starved run calls UNTESTABLE must also be UNTESTABLE
        # when the solver gets a real budget.
        full = make(net, solver).run()
        untestable = lambda s: {
            r.fault
            for r in s.records
            if r.status
            in (FaultStatus.UNTESTABLE, FaultStatus.UNOBSERVABLE)
        }
        assert untestable(starved) <= untestable(full)
        # Accounting: record count conserved, histogram consistent.
        assert len(starved.records) == len(full.records)
        assert starved.stats.health.abort_reasons.get(
            ABORT_BUDGET
        ) == len(aborted)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_aborts_count_against_coverage(self, solver):
        """ABORTED faults stay in the coverage denominator (they are
        not proven redundant), so starving the solver must not inflate
        reported coverage."""
        net = _net(2)
        starved = _sequential(net, solver, max_conflicts=0).run()
        detected = sum(
            1
            for r in starved.records
            if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
        )
        denominator = detected + sum(
            1
            for r in starved.records
            if r.status is FaultStatus.ABORTED
        )
        assert starved.fault_coverage == pytest.approx(
            detected / denominator
        )


class TestDeadlineAccounting:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("make", [_sequential, _parallel])
    def test_zero_deadline_aborts_with_reason(self, solver, make):
        net = _net(2)
        summary = make(net, solver, deadline=0.0).run()
        baseline = make(net, solver).run()
        assert len(summary.records) == len(baseline.records)
        assert all(
            r.status is FaultStatus.ABORTED
            and r.abort_reason == ABORT_DEADLINE
            for r in summary.records
        )
        assert summary.stats.health.deadline_hit
        assert summary.fault_coverage == 0.0

    def test_negative_deadline_rejected(self):
        net = _net(2)
        with pytest.raises(ValueError):
            AtpgEngine(net, deadline=-1.0)
        with pytest.raises(ValueError):
            ParallelAtpgEngine(net, deadline=-1.0)

    def test_cdcl_core_deadline_returns_unknown(self):
        # A satisfiable formula with search left to do: an already
        # expired deadline must surface as UNKNOWN (resource limit),
        # not SAT/UNSAT.
        core = CdclCore()
        variables = [core.new_var() for _ in range(6)]
        for a, b in zip(variables, variables[1:]):
            core.add_clause([lit_of(a, True), lit_of(b, True)])
            core.add_clause([lit_of(a, False), lit_of(b, False)])
        status, _ = core.solve(deadline_at=time.monotonic() - 1.0)
        assert status is SatStatus.UNKNOWN
        # The core is not poisoned: without a deadline it solves.
        status, _ = core.solve()
        assert status is SatStatus.SAT

    def test_cdcl_core_future_deadline_still_solves(self):
        core = CdclCore()
        a, b = core.new_var(), core.new_var()
        core.add_clause([lit_of(a, True), lit_of(b, True)])
        status, _ = core.solve(deadline_at=time.monotonic() + 60.0)
        assert status is SatStatus.SAT


def _cyclic_network():
    net = Network("cyclic")
    net.add_gate("x", GateType.AND, ["y", "y"])
    net.add_gate("y", GateType.OR, ["x", "x"])
    net.set_outputs(["x"])
    return net


class TestValidationWiring:
    def test_sequential_engine_rejects_cyclic_netlist(self):
        with pytest.raises(ValidationError):
            AtpgEngine(_cyclic_network())

    def test_parallel_engine_rejects_cyclic_netlist(self):
        with pytest.raises(ValidationError):
            ParallelAtpgEngine(_cyclic_network())

    def test_undriven_net_rejected(self):
        net = Network("undriven")
        net.add_gate("x", GateType.NOT, ["ghost"])
        net.set_outputs(["x"])
        with pytest.raises(ValidationError):
            AtpgEngine(net)

    def test_validate_false_defers_the_error(self):
        # Opt-out skips the fail-fast check at construction; the broken
        # netlist then fails later, at use.
        engine = AtpgEngine(_cyclic_network(), validate=False)
        assert engine is not None

    def test_healthy_network_passes(self):
        AtpgEngine(_net(2))  # must not raise
