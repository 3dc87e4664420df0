"""Approximate min-cut linear arrangement (paper Section 5.2.1).

The paper estimates circuit cut-width as "the value of the max-cut
obtained under a min-cut linear arrangement", approximated by a placement
"based on recursive mincut bipartitioning, until the partitions are
sufficiently small", followed by "an exact MLA for each of these
partitions" — hMETIS doing the bipartitioning.  We implement the same
recipe with our multilevel FM partitioner plus two standard quality
measures the 1990s placement literature used:

* **terminal propagation** — each recursive split sees two locked anchor
  vertices standing for the already-placed context left and right of the
  current block, so cuts line up globally;
* **candidate seeding** — callers may pass structure-derived candidate
  orders (e.g. a DFS cone packing of the circuit); the best of all
  candidates is kept and locally refined.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from repro.core.hypergraph import (
    Hypergraph,
    cut_profile,
    cut_width_under_order,
)
from repro.partition.exact import MAX_EXACT_VERTICES, exact_min_cutwidth
from repro.partition.multilevel import multilevel_bisect

_LEFT_ANCHOR = "$anchorL"
_RIGHT_ANCHOR = "$anchorR"


@dataclass
class MlaResult:
    """An arrangement and its achieved cut-width."""

    order: list[str]
    cutwidth: int

    def profile(self, graph: Hypergraph) -> list[int]:
        """Cut size after every prefix of the arrangement."""
        return cut_profile(graph, self.order)


def min_cut_linear_arrangement(
    graph: Hypergraph,
    *,
    leaf_size: int = 12,
    seed: int = 0,
    refine: bool = True,
    candidate_orders: Sequence[Sequence[str]] = (),
) -> MlaResult:
    """Recursive-bisection MLA with exact leaf arrangements.

    Args:
        graph: hypergraph to arrange.
        leaf_size: partitions at or below this size are solved exactly
            (must not exceed :data:`MAX_EXACT_VERTICES`).
        seed: RNG seed for the partitioner.
        refine: run a sliding-window local improvement afterwards.
        candidate_orders: additional full orderings to consider (e.g.
            DFS cone packings); the overall best order wins.

    Returns:
        An :class:`MlaResult`; ``cutwidth`` is an upper bound on the true
        minimum cut-width.
    """
    if leaf_size > MAX_EXACT_VERTICES:
        raise ValueError(
            f"leaf_size must be <= {MAX_EXACT_VERTICES}, got {leaf_size}"
        )
    if graph.num_vertices == 0:
        return MlaResult(order=[], cutwidth=0)

    orders: list[list[str]] = [
        _arrange(graph, list(graph.vertices), set(), set(), leaf_size, seed),
        # The vertex order itself: for bottom-up-built circuits this is the
        # construction order, whose locality is often hard to beat.
        list(graph.vertices),
    ]
    vertex_set = set(graph.vertices)
    for candidate in candidate_orders:
        if _is_permutation(candidate, vertex_set):
            orders.append(list(candidate))
    return _best_of_pool(graph, orders, refine=refine, window=min(8, leaf_size))


def _is_permutation(candidate: Sequence[str], vertex_set: set[str]) -> bool:
    return set(candidate) == vertex_set and len(candidate) == len(vertex_set)


def _best_of_pool(
    graph: Hypergraph,
    orders: list[list[str]],
    *,
    refine: bool,
    window: int,
) -> MlaResult:
    """Pick the best order from a pool, after packing and optional polish.

    Degree-1 packing almost always helps (it shortens every packed
    vertex's single edge) but interacting moves can occasionally hurt,
    so keep the unpacked originals in the pool too.
    """
    orders = orders + [_pack_degree_one(graph, order) for order in orders]
    widths = [cut_width_under_order(graph, order) for order in orders]
    width = min(widths)
    best = orders[widths.index(width)]
    if refine and len(best) > 2:
        best, width = _window_refine(graph, best, window=window)
    return MlaResult(order=best, cutwidth=width)


def _arrange(
    graph: Hypergraph,
    subset: list[str],
    left_context: set[str],
    right_context: set[str],
    leaf_size: int,
    seed: int,
) -> list[str]:
    """Arrange ``subset`` given already-placed context on either side."""
    if len(subset) <= 1:
        return list(subset)
    if len(subset) <= leaf_size:
        # restricted_to keeps every subset vertex (only edges shrink), so
        # the exact order places them all.
        _, order = exact_min_cutwidth(graph.restricted_to(subset))
        assert order is not None
        return order

    sub = _context_hypergraph(graph, subset, left_context, right_context)
    locked_left = (_LEFT_ANCHOR,) if _LEFT_ANCHOR in sub.vertices else ()
    locked_right = (_RIGHT_ANCHOR,) if _RIGHT_ANCHOR in sub.vertices else ()
    result = multilevel_bisect(
        sub,
        seed=seed,
        locked_left=locked_left,
        locked_right=locked_right,
    )
    left, right = result.left, result.right
    if not left or not right:
        half = len(subset) // 2
        left, right = subset[:half], subset[half:]

    left_order = _arrange(
        graph,
        left,
        left_context,
        right_context | set(right),
        leaf_size,
        seed + 1,
    )
    right_order = _arrange(
        graph,
        right,
        left_context | set(left),
        right_context,
        leaf_size,
        seed + 2,
    )
    return left_order + right_order


def _context_hypergraph(
    graph: Hypergraph,
    subset: list[str],
    left_context: set[str],
    right_context: set[str],
) -> Hypergraph:
    """Induced sub-hypergraph plus terminal-propagation anchor vertices.

    Visits only the edges touching ``subset``, in edge order.
    """
    inside = set(subset)
    edges: list[tuple[str, tuple[str, ...]]] = []
    uses_left = uses_right = False
    for edge_index in graph.edges_touching(subset):
        label, members = graph.edges[edge_index]
        extended = [m for m in members if m in inside]
        if any(m in left_context for m in members):
            extended.append(_LEFT_ANCHOR)
            uses_left = True
        if any(m in right_context for m in members):
            extended.append(_RIGHT_ANCHOR)
            uses_right = True
        if len(extended) >= 2:
            edges.append((label, tuple(extended)))
    vertices = list(subset)
    if uses_left:
        vertices.append(_LEFT_ANCHOR)
    if uses_right:
        vertices.append(_RIGHT_ANCHOR)
    return Hypergraph(tuple(vertices), tuple(edges))


def _pack_degree_one(graph: Hypergraph, order: list[str]) -> list[str]:
    """Move each degree-1 vertex right next to a member of its only edge.

    Safe normalisation: removing a vertex from a linear order merges two
    adjacent gaps (never raising any crossing count) and re-inserting it
    splits one gap into two whose crossing sets differ only by the
    vertex's single edge — which now spans minimally.  Primary inputs
    read once and unread output gates are the common cases; circuits
    built "all PIs first" benefit enormously.
    """
    movable: dict[str, int] = {}
    for vertex, edges in zip(graph.vertices, graph.indexed().incidence):
        if len(edges) == 1:
            movable[vertex] = edges[0]

    # Keep at least one member of every edge unmoved to anchor it.
    anchored: set[str] = set()
    for vertex in list(movable):
        edge_index = movable[vertex]
        members = graph.edges[edge_index][1]
        if all(m in movable for m in members):
            anchor = members[0]
            anchored.add(anchor)
    for vertex in anchored:
        movable.pop(vertex, None)

    backbone = [v for v in order if v not in movable]
    position = {v: i for i, v in enumerate(backbone)}
    inserts: dict[int, list[str]] = {}
    front: list[str] = []
    for vertex in order:
        edge_index = movable.get(vertex)
        if edge_index is None:
            continue
        members = graph.edges[edge_index][1]
        others = [position[m] for m in members if m in position]
        if not others:
            front.append(vertex)
            continue
        inserts.setdefault(min(others), []).append(vertex)

    result = list(front)
    for index, vertex in enumerate(backbone):
        result.extend(inserts.get(index, ()))
        result.append(vertex)
    return result


def _window_refine(
    graph: Hypergraph, order: list[str], window: int
) -> tuple[list[str], int]:
    """Slide a window over the order, exactly re-arranging each window.

    A candidate window re-ordering is accepted only when it strictly
    lowers the *global* cut-width, so external edges are always
    accounted for.  Returns the refined order and its cut-width.

    Re-ordering positions ``start..end-1`` changes only the gaps inside
    the window (gap ``i`` lies after position ``i``; the gaps before
    ``start`` and from ``end - 1`` on separate the same vertex sets as
    before), and only through the edges with a member in the window.
    So a candidate's width is the max of the accepted order's profile
    maxima outside the window (kept as prefix and suffix maxima) and the
    window gaps re-counted over those edges.  The maxima are refreshed
    only on acceptance, which needs a strict drop of the width, so at
    most W times.
    """
    index = graph.indexed()
    index_of = index.index_of
    members_of = index.members
    incidence = index.incidence
    best_order = list(order)
    position = [0] * len(best_order)
    for i, vertex in enumerate(best_order):
        position[index_of[vertex]] = i
    profile = cut_profile(graph, best_order)
    prefix_max, suffix_max = _running_maxima(profile)
    best_width = suffix_max[0]

    step = max(1, window // 2)
    for start in range(0, max(1, len(order) - window + 1), step):
        segment = best_order[start : start + window]
        if len(segment) < 3:
            continue
        end = start + len(segment)
        _, arranged = exact_min_cutwidth(graph.restricted_to(segment))
        assert arranged is not None
        if arranged == segment:
            continue  # same order, same width: never a strict drop

        moved = [index_of[v] for v in arranged]
        new_position = dict(zip(moved, range(start, end)))
        edges = {e for v in moved for e in incidence[v]}
        # delta[i - start]: change of the crossing count at gap i.
        delta = [0] * len(segment)
        for edge in edges:
            old_spots = [position[m] for m in members_of[edge]]
            new_spots = [new_position.get(m, position[m]) for m in members_of[edge]]
            for spots, sign in ((old_spots, -1), (new_spots, 1)):
                first = max(min(spots), start)
                last = min(max(spots), end - 1)
                if first < last:
                    delta[first - start] += sign
                    delta[last - start] -= sign
        inside = []
        running = 0
        for i in range(start, end - 1):
            running += delta[i - start]
            inside.append(profile[i] + running)
        width = max(inside)
        if start > 0:
            width = max(width, prefix_max[start - 1])
        width = max(width, suffix_max[end - 1])
        if width < best_width:
            best_order[start:end] = arranged
            for vertex, spot in new_position.items():
                position[vertex] = spot
            profile[start : end - 1] = inside
            prefix_max, suffix_max = _running_maxima(profile)
            best_width = width
    return best_order, best_width


def _running_maxima(profile: list[int]) -> tuple[list[int], list[int]]:
    """``prefix[i] = max(profile[:i+1])`` and ``suffix[i] = max(profile[i:])``."""
    prefix = list(accumulate(profile, max))
    suffix = list(accumulate(reversed(profile), max))
    suffix.reverse()
    return prefix, suffix


def estimate_cutwidth(
    graph: Hypergraph,
    *,
    seed: int = 0,
    leaf_size: int = 12,
    candidate_orders: Sequence[Sequence[str]] = (),
) -> int:
    """Cut-width estimate: exact when small, MLA upper bound otherwise."""
    if graph.num_vertices <= MAX_EXACT_VERTICES:
        width, _ = exact_min_cutwidth(graph, return_order=False)
        return width
    return min_cut_linear_arrangement(
        graph, seed=seed, leaf_size=leaf_size, candidate_orders=candidate_orders
    ).cutwidth
