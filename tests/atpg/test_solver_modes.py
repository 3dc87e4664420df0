"""The two solve paths: incremental CDCL against the cold DPLL backend.

``solver="cdcl"`` keeps one persistent CDCL core per output cone and
pushes each fault's miter delta as an activation-guarded clause group;
the non-CDCL backends solve every miter from scratch.  ATPG-SAT
*verdicts* (SAT / UNSAT) depend only on the formula, never on retained
learned clauses or phases, so with an ample budget the incremental
engine must agree fault-by-fault with the DPLL backend, an independent
reference that shares no CDCL code.  Test *vectors* are allowed to
differ, but every emitted test must detect its fault.

Under a tight budget the two backends abort *different* faults (their
budgets count different work, and retained clauses change where the
CDCL budget runs out), so the aborted case asserts the guaranteed
invariants instead of parity: decided verdicts never contradict,
aborted records carry no test, and raising the budget restores exact
verdict parity.
"""

import pytest

from repro.atpg.engine import SOLVERS, AtpgEngine, FaultStatus, make_solver
from repro.atpg.fault_sim import fault_simulate
from repro.circuits.decompose import tech_decompose
from repro.gen.benchmarks import c17
from tests.conftest import make_random_network


def _circuits():
    return [
        tech_decompose(c17()),
        make_random_network(3, num_inputs=5, num_gates=16),
        make_random_network(11, num_inputs=4, num_gates=18),
        make_random_network(19, num_inputs=5, num_gates=20),
    ]


def _verdicts(summary):
    """Per-fault (fault, status) pairs in canonical order."""
    return [(r.fault, r.status) for r in summary.records]


def _detected(summary):
    return {
        r.fault
        for r in summary.records
        if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
    }


class TestVerdictParity:
    def test_identical_verdicts_without_dropping(self):
        for net in _circuits():
            inc = AtpgEngine(net).run(fault_dropping=False)
            ref = AtpgEngine(net, solver="dpll").run(fault_dropping=False)
            assert _verdicts(inc) == _verdicts(ref), net.name
            assert inc.fault_coverage == ref.fault_coverage

    def test_identical_coverage_with_dropping(self):
        """With dropping, vectors differ but verdict classes match."""
        for net in _circuits():
            inc = AtpgEngine(net).run()
            ref = AtpgEngine(net, solver="dpll").run()
            assert inc.fault_coverage == ref.fault_coverage, net.name
            untestable = lambda s: {
                r.fault for r in s.by_status(FaultStatus.UNTESTABLE)
            }
            assert untestable(inc) == untestable(ref), net.name
            assert _detected(inc) == _detected(ref), net.name

    def test_incremental_tests_are_valid(self):
        for net in _circuits():
            summary = AtpgEngine(net).run(fault_dropping=False)
            for record in summary.records:
                if record.test is not None:
                    outcome = fault_simulate(
                        net, [record.fault], [record.test]
                    )
                    assert record.fault in outcome.detected, net.name


class TestAbortedFaults:
    """Conflict-budget behaviour on both solve paths."""

    BUDGET = 1  # tight enough to abort many faults on this circuit

    def _net(self):
        return tech_decompose(
            make_random_network(13, num_inputs=5, num_gates=16)
        )

    def _starved(self, net):
        inc = AtpgEngine(net, max_conflicts=self.BUDGET)
        ref = AtpgEngine(net, solver="dpll", max_conflicts=self.BUDGET)
        return (
            inc.run(fault_dropping=False),
            ref.run(fault_dropping=False),
        )

    def test_both_modes_abort_under_tight_budget(self):
        for summary in self._starved(self._net()):
            assert summary.by_status(FaultStatus.ABORTED)
            for record in summary.by_status(FaultStatus.ABORTED):
                assert record.test is None

    def test_decided_verdicts_never_contradict(self):
        """A fault decided by both backends gets the same verdict.

        Which faults *abort* depends on the backend and on retained
        solver state, but SAT/UNSAT is a property of the formula:
        whenever both decide a fault, they must agree.
        """
        inc, ref = self._starved(self._net())
        ref_status = {r.fault: r.status for r in ref.records}
        decided = (FaultStatus.TESTED, FaultStatus.UNTESTABLE)
        both = 0
        for record in inc.records:
            other = ref_status[record.fault]
            if record.status in decided and other in decided:
                assert record.status == other, record.fault
                both += 1
        assert both, "no fault decided by both backends"

    def test_ample_budget_restores_exact_parity(self):
        net = self._net()
        inc = AtpgEngine(net).run(fault_dropping=False)
        ref = AtpgEngine(net, solver="dpll").run(fault_dropping=False)
        assert not inc.by_status(FaultStatus.ABORTED)
        assert not ref.by_status(FaultStatus.ABORTED)
        assert _verdicts(inc) == _verdicts(ref)


class TestModeSelection:
    def test_invalid_mode_rejected(self):
        """SOLVERS is the one list of backends: each name builds, and a
        name outside it is refused by the factory and the engine."""
        net = tech_decompose(c17())
        for name in SOLVERS:
            make_solver(name)
            AtpgEngine(net, solver=name)
        for bad in ("bogus", "fresh", "CDCL"):
            with pytest.raises(ValueError, match="unknown solver"):
                make_solver(bad)
            with pytest.raises(ValueError, match="unknown solver"):
                AtpgEngine(net, solver=bad)

    def test_incremental_is_the_default(self):
        net = tech_decompose(c17())
        assert AtpgEngine(net).incremental is True
        assert AtpgEngine(net, solver="cdcl").incremental is True

    def test_non_cdcl_backends_use_fresh_path(self):
        """Only the CDCL backend has a persistent incremental core."""
        net = tech_decompose(c17())
        for solver in ("dpll", "dpll-static", "caching"):
            engine = AtpgEngine(net, solver=solver)
            assert engine.incremental is False
            summary = engine.run(fault_dropping=False)
            baseline = AtpgEngine(net).run(fault_dropping=False)
            assert _verdicts(summary) == _verdicts(baseline), solver
