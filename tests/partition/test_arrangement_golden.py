"""Golden digests of the partitioner's exact arrangements.

Among many equally good bisections and orders, the tie-breaks decide
which one comes out: the FM initial shuffle, gain-bucket arrival order
(every affected vertex re-enters at the back of its bucket after a
move), the DP's lowest-index vertex choice, coarse cluster names, and
the edge and member order of restricted and context graphs.  These
digests pin the exact sides, orders and widths, so a kernel rewrite
that claims to keep every arrangement is checked against them, not just
against the widths.

The digest file was written by the string-keyed kernels.  Rewrite it
only for a change that means to alter arrangements:

    PYTHONPATH=src:. python tests/partition/test_arrangement_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

import pytest

from repro.circuits.decompose import tech_decompose
from repro.core.hypergraph import Hypergraph, circuit_hypergraph
from repro.core.mla import min_cut_linear_arrangement
from repro.core.width_pipeline import WidthAnalysisPipeline
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit
from repro.gen.structured import (
    alu_slice,
    carry_lookahead_adder,
    cellular_array_2d,
)
from repro.partition.exact import exact_min_cutwidth
from repro.partition.fm import fm_bisect
from repro.partition.multilevel import multilevel_bisect
from tests.partition.test_fm_multilevel import random_hypergraph

GOLDEN = Path(__file__).with_name("arrangement_golden.json")

_CIRCUITS: dict[str, Callable] = {
    "alu7": lambda: alu_slice(7),
    "cla8": lambda: carry_lookahead_adder(8),
    "ca2d4x3": lambda: cellular_array_2d(4, 3),
    "rand100": lambda: random_circuit(
        RandomCircuitSpec(num_inputs=10, num_gates=100, num_outputs=3, seed=23)
    ),
}


@cache
def _network(name: str):
    return tech_decompose(_CIRCUITS[name]())


def _graphs() -> dict[str, Hypergraph]:
    graphs = {
        f"rand{seed}_n{n}": random_hypergraph(seed, n=n, m=m)
        for seed in (0, 1, 2)
        for n, m in ((24, 40), (70, 120))
    }
    for name in _CIRCUITS:
        graphs[name] = circuit_hypergraph(_network(name))
    return graphs


def _bisection(result) -> list:
    return [result.left, result.right, result.cut]


def _fm(graph: Hypergraph) -> list:
    first, last = graph.vertices[0], graph.vertices[-1]
    half = list(graph.vertices[: len(graph.vertices) // 2])
    out = [_bisection(fm_bisect(graph, seed=seed)) for seed in (0, 1, 2)]
    out += [
        _bisection(
            fm_bisect(graph, seed=seed, locked_left=(first,), locked_right=(last,))
        )
        for seed in (0, 3)
    ]
    out.append(_bisection(fm_bisect(graph, initial_left=half, balance=0.2)))
    return out


def _multilevel(graph: Hypergraph) -> list:
    first, last = graph.vertices[0], graph.vertices[-1]
    out = [_bisection(multilevel_bisect(graph, seed=seed)) for seed in (0, 1)]
    out += [
        _bisection(
            multilevel_bisect(
                graph, seed=seed, locked_left=(first,), locked_right=(last,)
            )
        )
        for seed in (0, 5)
    ]
    return out


def _exact(graph: Hypergraph) -> list:
    vertices = graph.vertices
    middle = len(vertices) // 2
    windows = (vertices[:12], vertices[middle - 7 : middle + 7], vertices[-14:])
    out = []
    for keep in windows:
        sub = graph.restricted_to(keep)
        out.append(list(exact_min_cutwidth(sub)))
        out.append(list(exact_min_cutwidth(sub, return_order=False)))
    return out


def _mla(graph: Hypergraph) -> list:
    runs = (
        {"seed": 0},
        {"seed": 1},
        {"seed": 0, "refine": False},
        {"seed": 2, "leaf_size": 8},
    )
    out = []
    for kwargs in runs:
        result = min_cut_linear_arrangement(graph, **kwargs)
        out.append([result.order, result.cutwidth])
    return out


def _pipeline(name: str) -> list:
    report = WidthAnalysisPipeline(_network(name)).run(max_faults=12)
    return [
        [str(s.fault), s.sub_circuit_size, s.cutwidth] for s in report.samples
    ]


def _cases() -> dict[str, Callable[[], list]]:
    cases: dict[str, Callable[[], list]] = {}
    for name, graph in _graphs().items():
        cases[f"fm/{name}"] = lambda g=graph: _fm(g)
        cases[f"multilevel/{name}"] = lambda g=graph: _multilevel(g)
        cases[f"exact/{name}"] = lambda g=graph: _exact(g)
        cases[f"mla/{name}"] = lambda g=graph: _mla(g)
    for name in _CIRCUITS:
        cases[f"pipeline/{name}"] = lambda n=name: _pipeline(n)
    return cases


def _digest(value: list) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_CASES = _cases()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_arrangement_matches_golden(case: str) -> None:
    golden = json.loads(GOLDEN.read_text())
    assert _digest(_CASES[case]()) == golden[case]


def test_golden_covers_every_case() -> None:
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_arrangement_golden.py --write")
    digests = {case: _digest(run()) for case, run in sorted(_CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
