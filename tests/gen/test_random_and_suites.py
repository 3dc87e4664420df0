"""Tests for the random generator and the benchmark suite registry."""

import math

import pytest

from repro.circuits.decompose import is_decomposed, tech_decompose
from repro.circuits.simulate import networks_equivalent
from repro.circuits.validate import validate_network
from repro.gen import benchmarks
from repro.gen.benchmarks import (
    C17_BENCH,
    array_multiplier_circuits,
    c17,
    circuit_names,
    iter_suite,
    load_circuit,
    suite_names,
)
from repro.gen.random_circuits import (
    RandomCircuitSpec,
    benchmark_like_suite,
    random_circuit,
)


class TestRandomCircuit:
    def test_deterministic(self):
        spec = RandomCircuitSpec(num_inputs=6, num_gates=30, seed=4)
        a = random_circuit(spec)
        b = random_circuit(spec)
        assert list(a.nets) == list(b.nets)
        assert networks_equivalent(a, b)

    def test_structurally_valid(self):
        for seed in range(6):
            spec = RandomCircuitSpec(
                num_inputs=8, num_gates=40, num_outputs=4, seed=seed
            )
            net = random_circuit(spec)
            report = validate_network(net)
            assert report.ok, report.errors
            assert not report.warnings  # no dangling logic by construction

    def test_gate_budget_roughly_met(self):
        spec = RandomCircuitSpec(num_inputs=10, num_gates=100, num_outputs=5, seed=1)
        net = random_circuit(spec)
        assert 100 <= net.num_gates() <= 160

    def test_fanin_bound(self):
        spec = RandomCircuitSpec(num_inputs=6, num_gates=50, max_fanin=2, seed=2)
        assert random_circuit(spec).max_fanin() <= 2

    def test_zero_reconvergence_gives_forest(self):
        spec = RandomCircuitSpec(
            num_inputs=8, num_gates=40, num_outputs=3,
            reconvergence=0.0, seed=3,
        )
        net = random_circuit(spec)
        # No gate output is read twice (PIs may still fan out).
        for net_name in net.nets:
            if net.gate(net_name).gate_type.is_source:
                continue
            assert len(net.fanouts(net_name)) <= 1

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(RandomCircuitSpec(num_inputs=0, num_gates=5))
        with pytest.raises(ValueError):
            random_circuit(RandomCircuitSpec(num_inputs=2, num_gates=5, max_fanin=1))
        with pytest.raises(ValueError):
            random_circuit(
                RandomCircuitSpec(num_inputs=2, num_gates=5, reconvergence=2.0)
            )

    def test_benchmark_like_suite_sizes(self):
        suite = benchmark_like_suite([50, 150], seed=0)
        assert len(suite) == 2
        assert suite[0].num_gates() < suite[1].num_gates()


class TestSuiteRegistry:
    def test_suite_names(self):
        assert suite_names() == ["iscas", "mcnc"]

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            circuit_names("nonexistent")

    def test_unknown_circuit(self):
        with pytest.raises(KeyError):
            load_circuit("mcnc", "nonexistent")

    def test_c17_verbatim(self):
        net = c17()
        assert net.num_gates() == 6
        assert "NAND" in C17_BENCH

    @pytest.mark.parametrize("suite", ["mcnc", "iscas"])
    def test_all_circuits_load_decomposed(self, suite):
        for name, net in iter_suite(suite):
            assert is_decomposed(net, 3), name
            report = validate_network(net, require_simple=True, max_fanin=3)
            assert report.ok, (name, report.errors)

    def test_decomposed_flag(self):
        raw = load_circuit("iscas", "c17", decomposed=False)
        cooked = load_circuit("iscas", "c17", decomposed=True)
        assert not is_decomposed(raw, 3)  # NANDs present
        assert is_decomposed(cooked, 3)
        assert networks_equivalent(tech_decompose(raw), cooked)

    def test_array_multipliers_are_declared(self, monkeypatch):
        """Every suite circuit built with an array multiplier, bare or as
        a redundant-tail unit's core, is declared, and nothing else is:
        the declaration is what Figure 8 skips by default."""
        built: list[str] = []
        for name in ("array_multiplier", "redundant_tail_unit"):
            original = getattr(benchmarks, name)

            def spy(*args, _original=original, **kwargs):
                built.append(_original.__name__)
                return _original(*args, **kwargs)

            monkeypatch.setattr(benchmarks, name, spy)
        for suite in suite_names():
            with_multiplier = []
            for name in circuit_names(suite):
                built.clear()
                benchmarks._builders(suite)[name]()
                if built:
                    with_multiplier.append(name)
            assert array_multiplier_circuits(suite) == tuple(with_multiplier), suite

    def test_suites_have_log_like_widths(self):
        """The headline property the suites exist for: cut-width stays
        a small multiple of log2(size) across the board (multipliers
        excluded, as in the paper)."""
        from repro.core.bounds import fault_width_samples

        for suite in ("mcnc", "iscas"):
            skip = {"mult4", "mult6", "mult8"}
            for name, net in iter_suite(suite):
                if name in skip:
                    continue
                samples = fault_width_samples(net, max_faults=3)
                for sample in samples:
                    if sample.sub_circuit_size >= 8:
                        ratio = sample.cutwidth / math.log2(
                            sample.sub_circuit_size
                        )
                        assert ratio <= 6.0, (suite, name, sample)
