"""Tests for parallel-pattern fault simulation."""

from repro.atpg.fault_sim import (
    fault_simulate,
    pattern_detects,
    random_pattern_coverage,
    simulate_fault,
)
from repro.atpg.faults import Fault, full_fault_list, inject_fault
from repro.circuits.build import NetworkBuilder
from repro.circuits.simulate import simulate, simulate_pattern
from tests.conftest import make_random_network


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


class TestFaultSimulateAgainstDefinition:
    def test_matches_full_faulty_simulation(self):
        """Cone-based fault sim must agree with full faulted-circuit sim."""
        import random

        rng = random.Random(5)
        for seed in range(6):
            net = make_random_network(seed, num_inputs=4, num_gates=9)
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
        import random

        from repro.atpg.fault_sim import PatternBlockStore

        rng = random.Random(0)
        net = self._store_net()
        store = PatternBlockStore(net, block_size=4)  # force several blocks
        patterns = [
            {n: rng.randrange(2) for n in net.inputs} for _ in range(11)
        ]
        for pattern in patterns:
            store.add(pattern)
        assert len(store) == 11
        for fault in full_fault_list(net):
            outcome = fault_simulate(net, [fault], patterns)
            mask = outcome.detected.get(fault, 0)
            expected = (mask & -mask).bit_length() - 1 if mask else None
            assert store.first_detection(fault) == expected, fault

    def test_detection_stable_as_patterns_arrive(self):
        """Earliest-detection answers never change once given."""
        import random

        from repro.atpg.fault_sim import PatternBlockStore

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
        from repro.atpg.fault_sim import PatternBlockStore

        net = and_net()
        store = PatternBlockStore(net)
        assert store.first_detection(Fault("z", 0)) is None
        assert store.patterns == []

    def test_invalid_block_size(self):
        import pytest

        from repro.atpg.fault_sim import PatternBlockStore

        with pytest.raises(ValueError):
            PatternBlockStore(and_net(), block_size=0)
