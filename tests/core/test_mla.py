"""Tests for the min-cut linear arrangement estimator."""

import pytest

from repro.circuits.decompose import tech_decompose
from repro.core.hypergraph import circuit_hypergraph, cut_width_under_order
from repro.core.mla import (
    estimate_cutwidth,
    min_cut_linear_arrangement,
)
from repro.gen.structured import binary_tree_circuit, parity_tree, ripple_carry_adder
from repro.partition.exact import exact_min_cutwidth
from tests.conftest import make_random_network


class TestMla:
    def test_returns_permutation(self):
        net = tech_decompose(ripple_carry_adder(6))
        graph = circuit_hypergraph(net)
        result = min_cut_linear_arrangement(graph)
        assert sorted(result.order) == sorted(graph.vertices)
        assert result.cutwidth == cut_width_under_order(graph, result.order)

    @pytest.mark.parametrize("seed", range(4))
    def test_reported_width_is_the_orders(self, seed):
        """Window refinement tracks the width incrementally; re-measuring
        the returned order must agree."""
        net = make_random_network(seed, num_inputs=8, num_gates=70)
        graph = circuit_hypergraph(tech_decompose(net))
        result = min_cut_linear_arrangement(graph)
        assert result.cutwidth == cut_width_under_order(graph, result.order)

    def test_upper_bounds_exact_on_small(self):
        for seed in range(6):
            net = make_random_network(seed, num_inputs=3, num_gates=5)
            graph = circuit_hypergraph(net)
            exact, _ = exact_min_cutwidth(graph)
            mla = min_cut_linear_arrangement(graph)
            assert mla.cutwidth >= exact
            # Leaves this small are solved exactly.
            if graph.num_vertices <= 12:
                assert mla.cutwidth == exact

    def test_tree_arrangement_near_optimal(self):
        """On a depth-7 binary tree the MLA must land within 2x of the
        Lemma 5.2 tree ordering."""
        from repro.core.kbounded import tree_cutwidth

        net = binary_tree_circuit(7)
        graph = circuit_hypergraph(net)
        result = min_cut_linear_arrangement(graph)
        assert result.cutwidth <= 2 * tree_cutwidth(net)

    def test_candidate_orders_honoured(self):
        """A perfect candidate order must never be beaten by a worse
        result: the MLA returns the best of all candidates."""
        from repro.core.kbounded import tree_ordering

        net = binary_tree_circuit(6)
        graph = circuit_hypergraph(net)
        perfect = tree_ordering(net)
        result = min_cut_linear_arrangement(
            graph, candidate_orders=[perfect]
        )
        assert result.cutwidth <= cut_width_under_order(graph, perfect)

    def test_bad_candidate_ignored(self):
        net = tech_decompose(parity_tree(8))
        graph = circuit_hypergraph(net)
        # Not a permutation: silently skipped.
        result = min_cut_linear_arrangement(
            graph, candidate_orders=[["nonsense"]]
        )
        assert sorted(result.order) == sorted(graph.vertices)

    def test_leaf_size_cap(self):
        net = tech_decompose(parity_tree(8))
        graph = circuit_hypergraph(net)
        with pytest.raises(ValueError):
            min_cut_linear_arrangement(graph, leaf_size=50)

    def test_empty_graph(self):
        from repro.core.hypergraph import Hypergraph

        result = min_cut_linear_arrangement(Hypergraph((), ()))
        assert result.order == []
        assert result.cutwidth == 0


class TestEstimate:
    def test_small_graph_exact(self):
        net = make_random_network(3, num_inputs=3, num_gates=5)
        graph = circuit_hypergraph(net)
        exact, _ = exact_min_cutwidth(graph)
        assert estimate_cutwidth(graph) == exact

    def test_large_graph_estimates(self):
        net = tech_decompose(ripple_carry_adder(8))
        graph = circuit_hypergraph(net)
        estimate = estimate_cutwidth(graph)
        assert 1 <= estimate <= 20  # ripple adders are narrow

    def test_deterministic_for_seed(self):
        net = tech_decompose(ripple_carry_adder(8))
        graph = circuit_hypergraph(net)
        assert estimate_cutwidth(graph, seed=5) == estimate_cutwidth(
            graph, seed=5
        )
