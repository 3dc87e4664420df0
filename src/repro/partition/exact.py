"""Exact minimum cut-width by dynamic programming over vertex subsets.

Used for the leaves of the recursive min-cut linear arrangement (the
paper performs "an exact MLA for each of these partitions" once they are
sufficiently small) and as a ground-truth oracle in tests.

The recurrence: for a prefix set S,

    W(S) = min over v in S of  max( W(S \\ {v}),  cut(S) )

where cut(S) is the number of hyperedges with members on both sides of
(S, V \\ S).  O(2^n · n) states.

cut(S) is incremental: with v the lowest vertex of S and S' = S \\ {v},
only v's own edges can cross one cut and not the other, so cut(S) is
cut(S') plus, over v's edges, +1 for an edge with no other member in S'
and -1 for an edge whose other members all lie in S'.  Every other edge
crosses both cuts or neither.

The minimum scans S's vertices from the lowest index and keeps the first
vertex reaching the least value, so the order it reconstructs is fixed.
Since max(W(S \\ {v}), cut(S)) >= cut(S), the scan stops at the first v
with W(S \\ {v}) <= cut(S): that v reaches the least possible value, and
a later vertex could only tie it, never replace it.

The tables are ``bytearray`` whenever their values fit in a byte (the
vertex choice always does, cuts and widths up to 255 edges): at 18
vertices a list table costs 2 MB, a byte table 256 KB.
"""

from __future__ import annotations

from repro.core.hypergraph import Hypergraph

#: Hard cap on exact DP size; 2^20 subsets is the practical Python limit.
MAX_EXACT_VERTICES = 18


def exact_min_cutwidth(
    graph: Hypergraph, return_order: bool = True
) -> tuple[int, list[str] | None]:
    """Minimum cut-width of ``graph`` and an optimal ordering.

    Args:
        graph: hypergraph with at most :data:`MAX_EXACT_VERTICES` vertices.
        return_order: when False, skip order reconstruction.

    Returns:
        ``(W_min, order)``; ``order`` is None when ``return_order`` is
        False or the graph is empty.

    Raises:
        ValueError: if the graph is too large for exact DP.
    """
    vertices = list(graph.vertices)
    n = len(vertices)
    if n == 0:
        return 0, ([] if return_order else None)
    if n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact cut-width limited to {MAX_EXACT_VERTICES} vertices, got {n}"
        )

    # Per vertex v, each edge through v as the mask of its members above
    # v: "alone" if v is its lowest member, "shared" if a member below v
    # (never in a subset whose lowest vertex is v) keeps it open.  A
    # shared edge with no member above v crosses whenever v is placed.
    index_of = {v: i for i, v in enumerate(vertices)}
    alone: list[list[int]] = [[] for _ in range(n)]
    shared: list[list[int]] = [[] for _ in range(n)]
    always = [0] * n
    for _, members in graph.edges:
        mask = 0
        for member in members:
            mask |= 1 << index_of[member]
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            above = mask & ~((bit << 1) - 1)
            if mask & (bit - 1):
                if above:
                    shared[v].append(above)
                else:
                    always[v] += 1
            elif above:
                alone[v].append(above)

    size = 1 << n
    table = bytearray if graph.num_edges < 256 else (lambda k: [0] * k)
    cut = table(size)
    width = table(size)
    choice = bytearray(size)  # a vertex index always fits a byte
    # By lowest vertex v, from the highest down, and within v by
    # increasing S: every S \ {u} (lowest vertex above v, or v and a
    # smaller integer) is settled before S.
    for v in range(n - 1, -1, -1):
        low = 1 << v
        alone_v = alone[v]
        shared_v = shared[v]
        always_v = always[v]
        for rest in range(0, size, low << 1):
            subset = rest | low
            c = cut[rest] + always_v
            for above in alone_v:
                inside = above & rest
                if not inside:
                    c += 1
                elif inside == above:
                    c -= 1
            for above in shared_v:
                if not above & rest:
                    c += 1
            cut[subset] = c

            best = width[rest]
            if best <= c:
                width[subset] = c
                choice[subset] = v
                continue
            best_bit = low
            s = rest
            while s:
                bit = s & -s
                s ^= bit
                candidate = width[subset ^ bit]
                if candidate < best:
                    best_bit = bit
                    if candidate <= c:
                        best = c
                        break
                    best = candidate
            width[subset] = best
            choice[subset] = best_bit.bit_length() - 1

    if not return_order:
        return width[size - 1], None

    order_indices: list[int] = []
    subset = size - 1
    while subset:
        last = choice[subset]
        order_indices.append(last)
        subset ^= 1 << last
    order_indices.reverse()
    return width[size - 1], [vertices[i] for i in order_indices]
