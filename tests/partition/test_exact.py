"""Tests for the exact minimum cut-width DP."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import Hypergraph, cut_width_under_order
from repro.partition.exact import MAX_EXACT_VERTICES, exact_min_cutwidth


def path_graph(n: int) -> Hypergraph:
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (f"e{i}", (f"v{i}", f"v{i+1}")) for i in range(n - 1)
    )
    return Hypergraph(vertices, edges)


def cycle_graph(n: int) -> Hypergraph:
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (f"e{i}", (f"v{i}", f"v{(i+1) % n}")) for i in range(n)
    )
    return Hypergraph(vertices, edges)


def star_graph(leaves: int) -> Hypergraph:
    vertices = ("hub",) + tuple(f"l{i}" for i in range(leaves))
    edges = tuple((f"e{i}", ("hub", f"l{i}")) for i in range(leaves))
    return Hypergraph(vertices, edges)


def complete_graph(n: int) -> Hypergraph:
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (f"e{i}_{j}", (f"v{i}", f"v{j}"))
        for i in range(n)
        for j in range(i + 1, n)
    )
    return Hypergraph(vertices, edges)


class TestKnownValues:
    def test_empty(self):
        width, order = exact_min_cutwidth(Hypergraph((), ()))
        assert width == 0
        assert order == []

    def test_single_vertex(self):
        width, _ = exact_min_cutwidth(Hypergraph(("a",), ()))
        assert width == 0

    def test_path_cutwidth_is_one(self):
        width, order = exact_min_cutwidth(path_graph(7))
        assert width == 1
        assert cut_width_under_order(path_graph(7), order) == 1

    def test_cycle_cutwidth_is_two(self):
        width, _ = exact_min_cutwidth(cycle_graph(6))
        assert width == 2

    def test_star_cutwidth(self):
        # Best ordering puts the hub in the middle: ceil(leaves/2).
        width, _ = exact_min_cutwidth(star_graph(5))
        assert width == 3

    def test_complete_graph_k4(self):
        # K4 cutwidth = 4 (known small value).
        width, _ = exact_min_cutwidth(complete_graph(4))
        assert width == 4

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            exact_min_cutwidth(path_graph(MAX_EXACT_VERTICES + 1))

    def test_no_order_mode(self):
        width, order = exact_min_cutwidth(path_graph(5), return_order=False)
        assert width == 1
        assert order is None


class TestOptimality:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_matches_brute_force(self, seed):
        """DP result equals exhaustive minimum over all permutations."""
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 6)
        vertices = tuple(f"v{i}" for i in range(n))
        edges = []
        for index in range(rng.randint(1, 7)):
            size = rng.randint(2, min(3, n))
            members = tuple(rng.sample(vertices, size))
            edges.append((f"e{index}", members))
        graph = Hypergraph(vertices, tuple(edges))
        dp_width, dp_order = exact_min_cutwidth(graph)
        brute = min(
            cut_width_under_order(graph, list(perm))
            for perm in itertools.permutations(vertices)
        )
        assert dp_width == brute
        assert cut_width_under_order(graph, dp_order) == dp_width


class TestWideCuts:
    def test_widths_beyond_a_byte(self):
        """Parallel edges push cut values past 255; the DP must not wrap."""
        vertices = tuple(f"v{i}" for i in range(5))
        edges = tuple(
            (f"e{i}_{copy}", (vertices[i], vertices[(i + 1) % 5]))
            for i in range(5)
            for copy in range(150)
        )
        graph = Hypergraph(vertices, edges)
        width, order = exact_min_cutwidth(graph)
        assert width == 300
        assert cut_width_under_order(graph, order) == 300
        assert exact_min_cutwidth(graph, return_order=False) == (300, None)
