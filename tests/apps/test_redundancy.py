"""Tests for ATPG-based redundancy removal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.redundancy import remove_redundancies
from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.circuits.build import NetworkBuilder
from repro.circuits.decompose import tech_decompose
from repro.circuits.simulate import networks_equivalent
from repro.gen.structured import tmr_voted_adder
from tests.conftest import make_random_network


def consensus_circuit():
    """carry = ab + b̄c + ac — the ac term is redundant (consensus)."""
    builder = NetworkBuilder("consensus")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    nb = builder.not_(b, name="nb")
    ab = builder.and_(a, b, name="ab")
    nbc = builder.and_(nb, c, name="nbc")
    ac = builder.and_(a, c, name="ac")
    builder.outputs(builder.or_(ab, nbc, ac, name="carry"))
    return builder.build()


class TestRemoval:
    def test_consensus_term_removed(self):
        net = consensus_circuit()
        optimized, report = remove_redundancies(net)
        assert report.removed  # ac/sa0 (at least) proven redundant
        assert report.gate_reduction >= 1
        assert networks_equivalent(net, optimized)

    def test_optimized_circuit_is_irredundant(self):
        net = consensus_circuit()
        optimized, _ = remove_redundancies(net)
        summary = AtpgEngine(optimized).run(fault_dropping=True)
        assert not summary.by_status(FaultStatus.UNTESTABLE)

    def test_irredundant_circuit_untouched(self, example_network):
        optimized, report = remove_redundancies(example_network)
        assert not report.removed
        assert report.passes == 1
        assert networks_equivalent(example_network, optimized)

    def test_report_counts(self):
        net = consensus_circuit()
        _, report = remove_redundancies(net)
        assert report.gates_before == net.num_gates()
        assert report.gates_after <= report.gates_before

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_always_function_preserving(self, seed):
        """The optimizer never changes the circuit function — verified
        exhaustively by simulation for every random circuit."""
        net = make_random_network(seed, num_inputs=4, num_gates=9)
        optimized, _ = remove_redundancies(net)
        assert networks_equivalent(net, optimized)

    def test_double_redundancy_multi_pass(self):
        """Two stacked redundant ORs require iteration to a fixed point."""
        builder = NetworkBuilder("double")
        a = builder.input("a")
        b = builder.input("b")
        ab = builder.and_(a, b, name="ab")
        r1 = builder.or_(a, ab, name="r1")  # = a (absorption)
        r2 = builder.or_(r1, ab, name="r2")  # still = a
        builder.outputs(r2)
        net = builder.build()
        optimized, report = remove_redundancies(net)
        assert networks_equivalent(net, optimized)
        assert optimized.num_gates() < net.num_gates()


class TestTmrVotedAdder:
    """The deliberately redundancy-heavy bench circuit: every fault
    inside a single TMR carry replica is outvoted by the other two, so
    the untestable fraction is structural, not accidental."""

    def _net(self, width=3):
        return tech_decompose(tmr_voted_adder(width))

    def test_majority_of_faults_untestable(self):
        net = self._net()
        summary = AtpgEngine(net).run(fault_dropping=False)
        counts = summary.status_counts()
        total = sum(counts.values())
        assert counts["untestable"] > total // 2, counts
        # The shared sum logic stays testable — coverage of the
        # testable faults must be complete.
        assert counts["tested"] > 0
        assert counts["aborted"] == 0
        assert summary.fault_coverage == pytest.approx(1.0)

    def test_redundancy_removal_strips_replicas(self):
        """remove_redundancies collapses the voted adder toward a plain
        adder while preserving its function."""
        net = self._net(width=2)
        optimized, report = remove_redundancies(net)
        assert report.removed
        assert networks_equivalent(net, optimized)
        assert optimized.num_gates() < net.num_gates()
