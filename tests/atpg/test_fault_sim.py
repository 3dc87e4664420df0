"""Tests for parallel-pattern fault simulation."""

import random

import pytest

from repro.atpg.fault_sim import (
    FaultSimulator,
    PatternBlockStore,
    fault_simulate,
    pattern_detects,
    random_pattern_coverage,
    simulate_fault,
)
from repro.atpg.faults import Fault, full_fault_list, inject_fault
from repro.circuits.build import NetworkBuilder
from repro.circuits.gates import GateType
from repro.circuits.network import Network
from repro.circuits.simulate import pack_patterns, simulate, simulate_pattern
from tests.conftest import make_random_network

#: Every gate type the simulator lowers.
EVERY_GATE = (
    GateType.CONST0,
    GateType.CONST1,
    GateType.BUF,
    GateType.NOT,
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def every_gate_network(seed: int, num_inputs: int = 4, num_gates: int = 24):
    """A random network holding each of :data:`EVERY_GATE` at least once,
    with fanins of 1 to 4 nets and several outputs."""
    rng = random.Random(seed)
    network = Network(f"every{seed}")
    nets = [network.add_input(f"i{k}") for k in range(num_inputs)]
    kinds = list(EVERY_GATE) + [
        rng.choice(EVERY_GATE) for _ in range(num_gates - len(EVERY_GATE))
    ]
    rng.shuffle(kinds)
    for index, kind in enumerate(kinds):
        if kind in (GateType.CONST0, GateType.CONST1):
            sources = []
        elif kind in (GateType.BUF, GateType.NOT):
            sources = [rng.choice(nets)]
        else:
            sources = rng.sample(nets, min(rng.randint(1, 4), len(nets)))
        nets.append(network.add_gate(f"g{index}", kind, sources))
    network.set_outputs(nets[-3:] + [rng.choice(nets[:-3])])
    return network


def and_net():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    builder.outputs(builder.and_(a, b, name="z"))
    return builder.build()


class TestSimulateFault:
    def test_detection_mask(self):
        net = and_net()
        # patterns (a,b): (0,0) (1,0) (0,1) (1,1) packed LSB-first.
        words = {"in0": 0b1010, "in1": 0b1100}
        good = simulate(net, words, 4)
        # z/sa1 differs whenever good z = 0: patterns 0,1,2.
        assert simulate_fault(net, Fault("z", 1), good, 0b1111) == 0b0111
        # z/sa0 differs only on pattern 3.
        assert simulate_fault(net, Fault("z", 0), good, 0b1111) == 0b1000

    def test_unexcited_fault(self):
        net = and_net()
        words = {"in0": 0b11, "in1": 0b11}
        good = simulate(net, words, 2)
        # z is 1 in both patterns; z/sa1 never excited.
        assert simulate_fault(net, Fault("z", 1), good, 0b11) == 0


class TestGoodCircuitProgram:
    """The simulator's whole-network program against the per-gate
    reference, :meth:`Network.evaluate`."""

    @pytest.mark.parametrize("width", (1, 3, 64, 65))
    def test_matches_network_evaluate(self, width):
        for seed in range(6):
            network = every_gate_network(seed)
            rng = random.Random(seed * 1000 + width)
            words = {net: rng.getrandbits(width) for net in network.inputs}
            mask = (1 << width) - 1
            simulator = FaultSimulator(network)
            expected = network.evaluate(words, mask=mask)
            assert simulator.simulate(words, mask) == [
                expected[net] for net in simulator.nets
            ], seed

    def test_pattern_values_keyed_by_input_bits(self):
        network = every_gate_network(3)
        simulator = FaultSimulator(network)
        ones = {net: 1 for net in network.inputs}
        first = simulator.pattern_values(ones)
        assert simulator.pattern_values(dict(ones)) is first
        assert simulator.good_sims == 1
        flipped = dict(ones, **{network.inputs[0]: 0})
        other = simulator.pattern_values(flipped)
        assert simulator.good_sims == 2
        expected = network.evaluate(flipped)
        assert other == [expected[net] for net in simulator.nets]


class TestFaultSimulateAgainstDefinition:
    def test_matches_full_faulty_simulation(self):
        """Cone-based fault sim must agree with full faulted-circuit sim,
        with fault sites and cones on every gate type."""
        rng = random.Random(5)
        networks = [
            make_random_network(seed, num_inputs=4, num_gates=9)
            for seed in range(6)
        ] + [every_gate_network(seed) for seed in range(6)]
        for seed, net in enumerate(networks):
            faults = full_fault_list(net)
            patterns = [
                {n: rng.randrange(2) for n in net.inputs} for _ in range(24)
            ]
            outcome = fault_simulate(net, faults, patterns)
            for fault in faults:
                faulty = inject_fault(net, fault)
                expected_mask = 0
                for i, pattern in enumerate(patterns):
                    good = simulate_pattern(net, pattern)
                    bad = simulate_pattern(faulty, pattern)
                    if any(good[o] != bad[o] for o in net.outputs):
                        expected_mask |= 1 << i
                actual = outcome.detected.get(fault, 0)
                assert actual == expected_mask, (seed, fault)

    def test_pattern_detects(self):
        net = and_net()
        assert pattern_detects(net, Fault("z", 0), {"in0": 1, "in1": 1})
        assert not pattern_detects(net, Fault("z", 0), {"in0": 0, "in1": 1})


class TestCoverage:
    def test_coverage_bounds(self):
        net = and_net()
        result = random_pattern_coverage(net, full_fault_list(net), 64, seed=1)
        assert 0.0 <= result.coverage <= 1.0
        # 64 random patterns on a 2-input AND detect everything testable.
        assert result.coverage == 1.0

    def test_empty_fault_list(self):
        net = and_net()
        result = fault_simulate(net, [], [{"in0": 1, "in1": 1}])
        assert result.coverage == 1.0
        assert not result.undetected


class TestPatternBlockStore:
    def _store_net(self, seed=6):
        return make_random_network(seed, num_inputs=4, num_gates=10)

    def test_first_detection_matches_fault_simulate(self):
        rng = random.Random(0)
        net = self._store_net()
        # Block sizes and pattern counts that straddle block boundaries.
        for block_size, count in ((4, 11), (1, 3), (3, 7), (64, 65)):
            store = PatternBlockStore(net, block_size=block_size)
            patterns = [
                {n: rng.randrange(2) for n in net.inputs}
                for _ in range(count)
            ]
            for pattern in patterns:
                store.add(pattern)
            assert len(store) == count
            for fault in full_fault_list(net):
                outcome = fault_simulate(net, [fault], patterns)
                mask = outcome.detected.get(fault, 0)
                expected = (mask & -mask).bit_length() - 1 if mask else None
                assert store.first_detection(fault) == expected, (
                    block_size,
                    fault,
                )

    @pytest.mark.parametrize("block_size", (1, 3, 64))
    def test_blocks_match_whole_block_simulation(self, block_size):
        """Blocks grown one pattern at a time (``add``) or a chunk at a
        time (``extend``) hold exactly the good values of simulating each
        block whole, at every count across a block boundary."""
        rng = random.Random(block_size)
        net = every_gate_network(block_size)
        added = PatternBlockStore(net, block_size=block_size)
        patterns = []
        for _ in range(2 * block_size + 1):
            pattern = {n: rng.randrange(2) for n in net.inputs}
            patterns.append(pattern)
            added.add(pattern)
            extended = PatternBlockStore(net, block_size=block_size)
            extended.extend(patterns[:1])
            extended.extend(patterns[1:])
            for store in (added, extended):
                nets = store.simulator.nets
                assert len(store._blocks) == -(-len(patterns) // block_size)
                for index, good in enumerate(store._blocks):
                    block = patterns[
                        index * block_size : (index + 1) * block_size
                    ]
                    whole = simulate(
                        net, pack_patterns(block, net.inputs), len(block)
                    )
                    assert good == [whole[n] for n in nets], index

    def test_detection_stable_as_patterns_arrive(self):
        """Earliest-detection answers never change once given."""
        rng = random.Random(1)
        net = self._store_net(seed=8)
        store = PatternBlockStore(net, block_size=3)
        faults = full_fault_list(net)
        first_seen: dict = {}
        for _ in range(10):
            store.add({n: rng.randrange(2) for n in net.inputs})
            for fault in faults:
                hit = store.first_detection(fault)
                if fault in first_seen:
                    assert hit == first_seen[fault], fault
                elif hit is not None:
                    first_seen[fault] = hit

    def test_empty_store_detects_nothing(self):
        net = and_net()
        store = PatternBlockStore(net)
        assert store.first_detection(Fault("z", 0)) is None
        assert store.patterns == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            PatternBlockStore(and_net(), block_size=0)
