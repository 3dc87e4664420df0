"""Fiduccia–Mattheyses hypergraph bisection.

Our stand-in for hMETIS (the paper's Section 5.2.1 uses hMETIS inside a
recursive min-cut bisection).  Classic FM structure: tentatively move the
highest-gain unlocked vertex that keeps the balance constraint, lock it,
and at the end of the pass rewind to the best prefix.  For robustness we
recompute the exact gain of affected neighbours after each move from the
edge pin counters instead of using the delta-update rules; the move
selection itself stays O(1) via gain buckets.

The pass runs on the graph's integer form (:meth:`Hypergraph.indexed`):
vertices are indices in ``graph.vertices`` order, and sides, per-edge pin
counts and incidence are int lists.  Gain buckets are insertion-ordered
dicts keyed by vertex index, one per gain value in
``[-max_degree, max_degree]`` (a gain never exceeds the degree).  The
tie-break rule, which decides among the many equally good moves and so
fixes the arrangement, is:

* the initial split takes the first half of ``random.Random(seed)``'s
  shuffle of the free vertices in graph order;
* within a gain value, the earliest arrival wins;
* after a move, every unlocked vertex on the moved vertex's edges goes to
  the back of its bucket, even when its gain is unchanged, in first-seen
  order over those edges and their member order;
* a pop scans down from the highest bucket entered since the last pop
  (not from the top of the array: a vertex skipped for balance in a
  higher bucket waits there until something re-enters above the pop);
* the pass rewinds to the first best prefix.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.hypergraph import Hypergraph


@dataclass
class BisectionResult:
    """Outcome of a bisection: the two sides and the achieved cut size."""

    left: list[str]
    right: list[str]
    cut: int


def edge_cut(graph: Hypergraph, side_of: dict[str, int]) -> int:
    """Number of hyperedges spanning both sides."""
    cut = 0
    for _, members in graph.edges:
        sides = {side_of[m] for m in members}
        if len(sides) > 1:
            cut += 1
    return cut


def _indexed_cut(members: list[tuple[int, ...]], side: list[int]) -> int:
    """:func:`edge_cut` over vertex indices and a 0/1 side list."""
    cut = 0
    at = side.__getitem__
    for edge in members:
        on_right = sum(map(at, edge))
        if 0 < on_right < len(edge):
            cut += 1
    return cut


def fm_bisect(
    graph: Hypergraph,
    *,
    initial_left: Sequence[str] | None = None,
    balance: float = 0.1,
    max_passes: int = 8,
    seed: int = 0,
    locked_left: Sequence[str] = (),
    locked_right: Sequence[str] = (),
) -> BisectionResult:
    """Bisect ``graph`` minimising hyperedge cut.

    Args:
        graph: hypergraph to bisect.
        initial_left: starting left side; defaults to a random half.
        balance: allowed deviation — each side keeps at least
            ``max(1, floor((0.5 - balance) * n))`` free vertices.
        max_passes: improvement passes (each pass is a full FM sweep).
        seed: RNG seed for the initial random split.
        locked_left: anchor vertices pinned to side 0 (terminal
            propagation for recursive-bisection MLA).
        locked_right: anchor vertices pinned to side 1.
    """
    locked = {v: 0 for v in locked_left}
    locked.update({v: 1 for v in locked_right})
    vertices = graph.vertices
    free = [i for i, v in enumerate(vertices) if v not in locked]
    n = len(free)
    if n == 0:
        left = [v for v in vertices if locked.get(v) == 0]
        right = [v for v in vertices if locked.get(v) == 1]
        return BisectionResult(left, right, edge_cut(graph, locked))
    if n == 1 and not locked:
        return BisectionResult([vertices[free[0]]], [], 0)

    side = [1] * len(vertices)
    if initial_left is None:
        shuffled = free[:]
        random.Random(seed).shuffle(shuffled)
        for vertex in shuffled[: n // 2]:
            side[vertex] = 0
    else:
        left_set = set(initial_left)
        for vertex in free:
            if vertices[vertex] in left_set:
                side[vertex] = 0
    index = graph.indexed()
    for name, pinned in locked.items():
        vertex = index.index_of.get(name)
        if vertex is not None:
            side[vertex] = pinned
    min_side = max(1, int((0.5 - balance) * n))

    for _ in range(max_passes):
        if not _fm_pass(index.members, index.incidence, side, free, min_side):
            break

    left = [vertices[v] for v in free if side[v] == 0]
    right = [vertices[v] for v in free if side[v] == 1]
    return BisectionResult(left, right, _indexed_cut(index.members, side))


def _fm_pass(
    members: list[tuple[int, ...]],
    incidence: list[list[int]],
    side: list[int],
    free: list[int],
    min_side: int,
) -> bool:
    """One FM sweep mutating ``side``; True if the cut improved.

    ``free`` lists the unlocked vertices in graph order; locked vertices
    count in the pin counts but never move.
    """
    max_degree = max(len(incidence[v]) for v in free)
    if max_degree == 0:
        return False

    # pins[s][e]: members of edge e on side s.
    at = side.__getitem__
    right_pins = [sum(map(at, edge)) for edge in members]
    pins = ([len(edge) - r for edge, r in zip(members, right_pins)], right_pins)

    def gain(vertex: int) -> int:
        """Cut change of moving ``vertex``: +1 per edge it alone keeps in
        the cut, -1 per edge lying wholly on its side."""
        own = pins[side[vertex]]
        opposite = pins[1 - side[vertex]]
        total = 0
        for edge in incidence[vertex]:
            if not opposite[edge]:
                total -= 1
            elif own[edge] == 1:
                total += 1
        return total

    offset = max_degree
    buckets: list[dict[int, None]] = [{} for _ in range(2 * offset + 1)]
    slot = [-1] * len(side)  # bucket of each unlocked, unmoved vertex
    top = -1  # highest bucket entered since the last pop
    counts = [0, 0]
    for vertex in free:
        bucket = gain(vertex) + offset
        buckets[bucket][vertex] = None
        slot[vertex] = bucket
        if bucket > top:
            top = bucket
        counts[side[vertex]] += 1

    moved: list[int] = []
    cumulative = 0
    best_prefix = 0
    best_value = 0

    while True:
        # A move must leave its source side at least min_side vertices.
        left_ok = counts[0] > min_side
        right_ok = counts[1] > min_side
        if not (left_ok or right_ok):
            break
        wanted = 0 if left_ok else 1
        vertex = -1
        bucket = top
        while bucket >= 0:
            entries = buckets[bucket]
            if entries:
                if left_ok and right_ok:
                    vertex = next(iter(entries))
                    break
                for candidate in entries:
                    if side[candidate] == wanted:
                        vertex = candidate
                        break
                if vertex >= 0:
                    break
            bucket -= 1
        if vertex < 0:
            break
        del buckets[bucket][vertex]
        slot[vertex] = -1
        top = bucket

        src = side[vertex]
        dst = 1 - src
        own = pins[src]
        opposite = pins[dst]
        # First-seen order (dict, not set): the re-bucketing below moves
        # each vertex to the back of its gain bucket, so iteration order
        # here shapes future tie-breaks.
        affected: dict[int, None] = {}
        for edge in incidence[vertex]:
            own[edge] -= 1
            opposite[edge] += 1
            for member in members[edge]:
                affected[member] = None
        side[vertex] = dst
        counts[src] -= 1
        counts[dst] += 1

        for other in affected:
            previous = slot[other]
            if previous >= 0:
                # gain(other) inlined: this loop is the pass's hot spot.
                mine = pins[side[other]]
                theirs = pins[1 - side[other]]
                entry = offset
                for edge in incidence[other]:
                    if not theirs[edge]:
                        entry -= 1
                    elif mine[edge] == 1:
                        entry += 1
                del buckets[previous][other]
                buckets[entry][other] = None
                slot[other] = entry
                if entry > top:
                    top = entry

        moved.append(vertex)
        # The popped bucket is the vertex's exact gain: every move
        # re-scores all unlocked vertices on its edges.
        cumulative += bucket - offset
        if cumulative > best_value:
            best_value = cumulative
            best_prefix = len(moved)

    # Rewind moves beyond the best prefix.
    for vertex in moved[best_prefix:]:
        side[vertex] = 1 - side[vertex]
    return best_value > 0
