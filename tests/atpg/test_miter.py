"""Tests for the C_ψ^ATPG miter construction (Figure 3)."""

from collections import Counter

import pytest

from repro.atpg.engine import AtpgEngine
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, full_fault_list
from repro.atpg.miter import (
    FAULTY_PREFIX,
    XOR_PREFIX,
    UnobservableFault,
    atpg_sat_formula,
    build_atpg_circuit,
    build_fault_delta,
    fault_cone_nets,
    sub_circuit,
)
from repro.circuits.build import NetworkBuilder
from repro.circuits.gates import GateType
from repro.circuits.network import Network
from repro.circuits.simulate import simulate_pattern
from repro.sat.dpll import solve_dpll
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.tseitin import gate_clauses


class TestSubCircuit:
    def test_sub_circuit_contains_tfi_of_tfo(self, example_network):
        sub = sub_circuit(example_network, Fault("f", 1))
        # TFO(f) = {f, h, i}; TFI of that = everything.
        assert set(sub.nets) == set(example_network.nets)
        assert sub.outputs == ("i",)

    def test_sub_circuit_prunes_unrelated_logic(self, two_output_network):
        sub = sub_circuit(two_output_network, Fault("y", 0))
        # y only reaches z; x's AND stays (it feeds z) but x is not an
        # output of the sub-circuit.
        assert sub.outputs == ("z",)

    def test_unobservable_fault_raises(self):
        builder = NetworkBuilder()
        a, b = builder.inputs(2)
        builder.and_(a, b, name="dangling")
        builder.outputs(builder.or_(a, b, name="z"))
        with pytest.raises(UnobservableFault):
            sub_circuit(builder.build(), Fault("dangling", 0))


class TestMiterStructure:
    def test_fault_cone(self, example_network):
        assert fault_cone_nets(example_network, Fault("f", 1)) == {
            "f",
            "h",
            "i",
        }

    def test_faulty_copies_created(self, example_network):
        atpg = build_atpg_circuit(example_network, Fault("f", 1))
        for net in ("f", "h", "i"):
            assert atpg.network.has_net(FAULTY_PREFIX + net)
        # Nets outside the cone are shared, not duplicated.
        assert not atpg.network.has_net(FAULTY_PREFIX + "a")

    def test_fault_site_is_constant(self, example_network):
        atpg = build_atpg_circuit(example_network, Fault("f", 1))
        gate = atpg.network.gate(FAULTY_PREFIX + "f")
        assert gate.gate_type.value == "const1"

    def test_outputs_are_xors(self, example_network):
        atpg = build_atpg_circuit(example_network, Fault("f", 1))
        assert atpg.network.outputs == ("xor$i",)
        assert atpg.observing_outputs == ("i",)

    def test_unknown_fault_net(self, example_network):
        with pytest.raises(ValueError):
            build_atpg_circuit(example_network, Fault("ghost", 0))


class TestMiterSemantics:
    def test_miter_fires_exactly_on_detecting_patterns(self, example_network):
        """CIRCUIT-SAT(C_ψ^ATPG) outputs 1 exactly on test vectors."""
        from repro.atpg.faults import inject_fault

        fault = Fault("f", 1)
        atpg = build_atpg_circuit(example_network, fault)
        faulty = inject_fault(example_network, fault)
        inputs = list(example_network.inputs)
        for bits in range(1 << len(inputs)):
            pattern = {
                net: (bits >> i) & 1 for i, net in enumerate(inputs)
            }
            good = simulate_pattern(example_network, pattern)
            bad = simulate_pattern(faulty, pattern)
            detects = any(
                good[o] != bad[o] for o in example_network.outputs
            )
            miter_values = simulate_pattern(atpg.network, pattern)
            fired = any(miter_values[o] for o in atpg.network.outputs)
            assert fired == detects, pattern

    def test_formula_solves_to_test(self, example_network):
        formula = atpg_sat_formula(example_network, Fault("f", 1))
        result = solve_dpll(formula)
        assert result.is_sat

    def test_multi_output_fault(self, two_output_network):
        atpg = build_atpg_circuit(two_output_network, Fault("x", 0))
        assert set(atpg.observing_outputs) == {"x", "z"}
        assert len(atpg.network.outputs) == 2


def _repeated_fanin_network():
    """Gates that list an input twice, a primary input that is also an
    output (``p`` with fanout, ``q`` with none), and a CONST1 that feeds
    a gate."""
    network = Network("repeats")
    a, b, x, p, q = (network.add_input(n) for n in ("a", "b", "x", "p", "q"))
    one = network.add_gate("one", GateType.CONST1, ())
    g_and = network.add_gate("g_and", GateType.AND, (x, b, b))
    g_xor = network.add_gate("g_xor", GateType.XOR, (a, a))
    g_xnor = network.add_gate("g_xnor", GateType.XNOR, (a, p, a))
    g_nand = network.add_gate("g_nand", GateType.NAND, (b, b))
    g_nor = network.add_gate("g_nor", GateType.NOR, (x, x, g_xor))
    g_one = network.add_gate("g_one", GateType.AND, (one, a))
    z = network.add_gate("z", GateType.OR, (g_and, g_xnor, g_nor, g_one))
    w = network.add_gate("w", GateType.XOR, (g_nand, g_and, g_and))
    network.set_outputs([z, w, p, q, g_xor])
    return network


def _delta_circuits():
    from tests.atpg.test_fault_sim import every_gate_network

    return [every_gate_network(seed) for seed in range(6)] + [
        _repeated_fanin_network()
    ]


def _name(network):
    return network.name


def _named(clause):
    """A named clause as a set of (net, polarity) pairs, or ``None`` for
    a tautology."""
    pairs = frozenset((lit.variable, lit.positive) for lit in clause)
    if any((net, not positive) in pairs for net, positive in pairs):
        return None
    return pairs


class TestFaultDelta:
    """The integer delta of :func:`build_fault_delta`, read back to net
    names through the base numbering, is exactly what
    :func:`build_atpg_circuit` adds over the good circuit."""

    @pytest.mark.parametrize("network", _delta_circuits(), ids=_name)
    def test_delta_reads_back_to_the_named_miter(self, network):
        topo = network.topological_order()
        solver = IncrementalSatSolver()
        solver.add_base(
            clause
            for net in topo
            for clause in gate_clauses(network.gate(net))
        )
        name_of = {var: name for name, var in solver.compiler.items()}
        base_vars = [solver.compiler.lookup(net) for net in topo]
        simulator = FaultSimulator(network)
        for fault in full_fault_list(network):
            tfo = network.transitive_fanout([fault.net])
            observing = [out for out in network.outputs if out in tfo]
            if not observing:
                with pytest.raises(UnobservableFault):
                    build_fault_delta(
                        simulator, fault, bytes(len(topo)), base_vars
                    )
                continue
            relevant = network.transitive_fanin(observing)
            mask = bytes(net in relevant for net in topo)
            delta = build_fault_delta(simulator, fault, mask, base_vars)

            local_names = {
                j: FAULTY_PREFIX + topo[pos]
                for j, pos in enumerate(delta.cone)
            }
            local_names.update(
                (j, topo[pos]) for pos, j in delta.free_inputs
            )
            xor_locals = [
                j for j in range(delta.num_locals) if j not in local_names
            ]
            distinct = dict.fromkeys(topo[pos] for pos in delta.observing)
            assert len(xor_locals) == len(distinct)
            local_names.update(
                (j, XOR_PREFIX + out) for j, out in zip(xor_locals, distinct)
            )

            def read(lit):
                if lit < 0:
                    return local_names[~lit >> 1], not ~lit & 1
                return name_of[lit >> 1], not lit & 1

            got = []
            for clause in delta.clauses:
                assert len(set(clause)) == len(clause), (fault, clause)
                assert not any(lit ^ 1 in clause for lit in clause), fault
                got.append(frozenset(read(lit) for lit in clause))

            atpg = build_atpg_circuit(network, fault)
            added = [
                gate
                for gate in atpg.network.gates()
                if gate.output.startswith(XOR_PREFIX)
                or (
                    gate.output.startswith(FAULTY_PREFIX)
                    and gate.output[len(FAULTY_PREFIX):] in relevant
                )
            ]
            expected = [
                pairs
                for gate in added
                for clause in gate_clauses(gate)
                if (pairs := _named(clause)) is not None
            ]
            expected.append(
                frozenset((out, True) for out in atpg.network.outputs)
            )
            assert Counter(got) == Counter(expected), fault
            assert [topo[pos] for pos in delta.cone] == [
                net for net in topo if net in tfo and net in relevant
            ]
            assert [topo[pos] for pos in delta.observing] == observing

    @pytest.mark.parametrize("network", _delta_circuits(), ids=_name)
    def test_engine_certifies_every_fault(self, network):
        """Every fault's delta solves on the engine's solver, and every
        verdict passes the certify ladder without an escalation."""
        summary = AtpgEngine(network, certify="full").run(
            faults=full_fault_list(network), fault_dropping=False
        )
        health = summary.stats.health
        assert health.uncertified == 0 and health.escalations == 0
        for record in summary.records:
            if record.status.value in ("tested", "untestable"):
                assert record.certified is True, record.fault
