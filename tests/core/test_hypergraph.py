"""Tests for the circuit hypergraph and Definition 4.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import (
    Hypergraph,
    circuit_hypergraph,
    crossing_edges,
    cut_profile,
    cut_size,
    cut_width_under_order,
)
from tests.conftest import make_random_network


class TestHypergraphBasics:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(("a", "a"), ())

    def test_unknown_edge_member_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(("a",), (("e", ("a", "ghost")),))

    def test_incidence(self):
        graph = Hypergraph(
            ("a", "b", "c"), (("e0", ("a", "b")), ("e1", ("b", "c")))
        )
        index = graph.indexed()
        assert index.index_of == {"a": 0, "b": 1, "c": 2}
        assert index.members == [(0, 1), (1, 2)]
        assert index.incidence == [[0], [0, 1], [1]]
        assert graph.edges_touching(["c", "ghost"]) == [1]

    def test_restriction_drops_singletons(self):
        graph = Hypergraph(
            ("a", "b", "c"), (("e0", ("a", "b")), ("e1", ("b", "c")))
        )
        sub = graph.restricted_to(["a", "b"])
        assert sub.num_edges == 1
        assert sub.vertices == ("a", "b")


class TestCircuitHypergraph:
    def test_example_circuit_shape(self, example_network):
        graph = circuit_hypergraph(example_network)
        # 9 nets; output i has no readers → its edge is dropped → 8 edges.
        assert graph.num_vertices == 9
        assert graph.num_edges == 8

    def test_edge_spans_driver_and_readers(self, example_network):
        graph = circuit_hypergraph(example_network)
        edge = {label: members for label, members in graph.edges}
        assert set(edge["f"]) == {"f", "h"}
        assert set(edge["b"]) == {"b", "f"}

    def test_fanout_edge(self, two_output_network):
        graph = circuit_hypergraph(two_output_network)
        edge = {label: members for label, members in graph.edges}
        # in1 drives both the AND (x) and the OR (y).
        assert set(edge["in1"]) == {"in1", "x", "y"}


class TestCutWidth:
    def test_paper_ordering_a_width_3(self, example_network):
        graph = circuit_hypergraph(example_network)
        order = ["b", "c", "f", "a", "h", "d", "e", "g", "i"]
        assert cut_width_under_order(graph, order) == 3

    def test_profile_max_equals_width(self, example_network):
        graph = circuit_hypergraph(example_network)
        order = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
        profile = cut_profile(graph, order)
        assert max(profile) == cut_width_under_order(graph, order)
        assert profile[-1] == 0  # full prefix cuts nothing

    def test_invalid_order_rejected(self, example_network):
        graph = circuit_hypergraph(example_network)
        with pytest.raises(ValueError):
            cut_width_under_order(graph, ["a", "b"])
        with pytest.raises(ValueError):
            cut_width_under_order(graph, list("abcdefghh"))

    def test_cut_size_matches_crossing_edges(self, example_network):
        graph = circuit_hypergraph(example_network)
        prefix = ["b", "c", "f", "a", "h"]
        labels = crossing_edges(graph, prefix)
        assert cut_size(graph, prefix) == len(labels)
        # The paper's Cut-Z example: only net h crosses.
        assert labels == ["h"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_profile_is_consistent_with_direct_count(self, seed):
        """The difference-array profile equals naive per-prefix counting."""
        net = make_random_network(seed, num_inputs=4, num_gates=8)
        graph = circuit_hypergraph(net)
        order = net.topological_order()
        profile = cut_profile(graph, order)
        for i in range(len(order)):
            assert profile[i] == cut_size(graph, order[: i + 1])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_width_invariant_under_reversal(self, seed):
        """Cut-width is symmetric: reversing an order preserves it."""
        net = make_random_network(seed, num_inputs=4, num_gates=8)
        graph = circuit_hypergraph(net)
        order = net.topological_order()
        assert cut_width_under_order(graph, order) == cut_width_under_order(
            graph, list(reversed(order))
        )
