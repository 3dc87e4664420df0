"""Property tests for the cut-width estimators.

Two properties the Figure-8 data rests on:

* the estimate is *witnessed*: the returned order reproduces the
  reported width exactly under ``circuit_cutwidth_under_order``, and the
  estimate upper-bounds the true minimum;
* the estimate is *deterministic*: fixed seed ⇒ fixed order, including
  across processes with different ``PYTHONHASHSEED`` (the property that
  makes the parallel sweep merge bit-identical).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutwidth import circuit_cutwidth_under_order, mla_ordering
from repro.core.hypergraph import circuit_hypergraph
from repro.core.mla import estimate_cutwidth
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit
from repro.partition.exact import MAX_EXACT_VERTICES, exact_min_cutwidth
from tests.conftest import make_random_network


def _circuit(seed: int, gates: int):
    return random_circuit(
        RandomCircuitSpec(
            num_inputs=6, num_gates=gates, num_outputs=2, seed=seed
        )
    )


class TestEstimateProperties:
    @given(seed=st.integers(0, 30), gates=st.integers(20, 60))
    @settings(max_examples=15, deadline=None)
    def test_order_witnesses_reported_width(self, seed, gates):
        """The MLA result is self-certifying: re-measuring its order
        reproduces the reported cut-width exactly."""
        net = _circuit(seed, gates)
        result = mla_ordering(net, seed=seed % 3)
        assert sorted(result.order) == sorted(circuit_hypergraph(net).vertices)
        assert (
            circuit_cutwidth_under_order(net, result.order) == result.cutwidth
        )

    @given(seed=st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_estimate_is_upper_bound(self, seed):
        """On graphs small enough to solve exactly, the estimator never
        reports below the true minimum (and matches it when the exact
        path is taken)."""
        net = make_random_network(seed, num_inputs=4, num_gates=9)
        graph = circuit_hypergraph(net)
        exact, _ = exact_min_cutwidth(graph)
        estimate = estimate_cutwidth(graph, seed=0)
        assert estimate >= exact
        if graph.num_vertices <= MAX_EXACT_VERTICES:
            assert estimate == exact

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_seed_stable(self, seed):
        net = _circuit(seed, 45)
        first = mla_ordering(net, seed=1)
        second = mla_ordering(net, seed=1)
        assert first.order == second.order
        assert first.cutwidth == second.cutwidth


class TestCrossProcessDeterminism:
    def test_order_independent_of_pythonhashseed(self, tmp_path: Path):
        """The arrangement must not vary with string-hash randomisation:
        worker processes inherit different hash seeds, and the parallel
        sweep's bit-identical merge depends on per-fault purity."""
        script = (
            "from repro.gen.random_circuits import RandomCircuitSpec, "
            "random_circuit\n"
            "from repro.core.cutwidth import mla_ordering\n"
            "net = random_circuit(RandomCircuitSpec(num_inputs=8, "
            "num_gates=80, num_outputs=3, seed=4))\n"
            "print('|'.join(mla_ordering(net, seed=0).order))\n"
        )
        outputs = []
        for hash_seed in ("1", "2", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = str(Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]
