"""Multilevel hypergraph bisection (the hMETIS algorithmic recipe).

Coarsen the hypergraph by edge-coarsening matchings until it is small,
bisect the coarsest graph with FM from several random starts, then project
back through the hierarchy refining with FM at each level — the structure
of Karypis et al.'s multilevel scheme that the paper used via hMETIS.

Supports locked anchor vertices (terminal propagation): anchors are never
matched during coarsening and stay pinned to their side at every level,
so recursive-bisection linear arrangement can bias each split towards the
already-placed context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.hypergraph import Hypergraph
from repro.partition.fm import BisectionResult, fm_bisect


@dataclass
class _Level:
    """One coarsening level: the graph and the vertex → cluster map."""

    graph: Hypergraph
    cluster_of: dict[str, str]  # fine vertex -> coarse vertex


def _coarsen_once(
    graph: Hypergraph, rng: random.Random, locked: frozenset[str]
) -> _Level | None:
    """One edge-coarsening pass; None if no meaningful contraction.

    Works on vertex indices; a coarse vertex is named ``f"{a}+{b}"``
    after its two fine vertices (or keeps its name), and coarse vertices
    come in sorted-name order.
    """
    index = graph.indexed()
    members_of = index.members
    names = graph.vertices
    n = len(names)
    pinned = [name in locked for name in names]
    visit = list(range(n))
    rng.shuffle(visit)

    cluster: list[str] = list(names)
    used = [False] * n
    for vertex in visit:
        if used[vertex]:
            continue
        used[vertex] = True
        if pinned[vertex]:
            continue
        # Prefer a partner sharing the smallest hyperedge (strongest tie).
        best_partner = -1
        best_size = 1 << 30
        for edge_index in index.incidence[vertex]:
            members = members_of[edge_index]
            if len(members) >= best_size:
                continue
            for member in members:
                if not used[member] and not pinned[member]:
                    best_partner = member
                    best_size = len(members)
                    break
        if best_partner >= 0:
            name = f"{names[vertex]}+{names[best_partner]}"
            cluster[vertex] = cluster[best_partner] = name
            used[best_partner] = True

    coarse_names = sorted(set(cluster))
    if len(coarse_names) >= n:
        return None

    # Coarse member tuples as sorted coarse indices: index order is name
    # order, so each tuple and its first-seen edge match the sorted names.
    coarse_index = {name: i for i, name in enumerate(coarse_names)}
    coarse_of = [coarse_index[name] for name in cluster]
    coarse_edges: dict[tuple[int, ...], str] = {}
    for (label, _), members in zip(graph.edges, members_of):
        key = tuple(sorted({coarse_of[m] for m in members}))
        if len(key) >= 2 and key not in coarse_edges:
            coarse_edges[key] = label
    coarse = Hypergraph(
        tuple(coarse_names),
        tuple(
            (label, tuple(coarse_names[i] for i in key))
            for key, label in coarse_edges.items()
        ),
    )
    return _Level(coarse, dict(zip(names, cluster)))


def multilevel_bisect(
    graph: Hypergraph,
    *,
    coarse_threshold: int = 40,
    num_starts: int = 4,
    balance: float = 0.1,
    seed: int = 0,
    locked_left: tuple[str, ...] = (),
    locked_right: tuple[str, ...] = (),
) -> BisectionResult:
    """hMETIS-style multilevel min-cut bisection.

    Args:
        graph: hypergraph to bisect.
        coarse_threshold: stop coarsening below this many vertices.
        num_starts: random FM starts at the coarsest level.
        balance: FM balance tolerance at every level.
        seed: RNG seed controlling matching and initial partitions.
        locked_left: anchor vertices pinned to the left side.
        locked_right: anchor vertices pinned to the right side.

    Returns:
        A :class:`BisectionResult` over the *free* vertices only (anchors
        are excluded from the returned sides).
    """
    locked = frozenset(locked_left) | frozenset(locked_right)
    free_count = graph.num_vertices - len(locked)
    if free_count <= 1:
        free = [v for v in graph.vertices if v not in locked]
        return BisectionResult(free, [], 0)

    rng = random.Random(seed)
    levels: list[_Level] = []
    current = graph
    while current.num_vertices > max(coarse_threshold, 2 * len(locked) + 2):
        level = _coarsen_once(current, rng, locked)
        if level is None:
            break
        levels.append(level)
        current = level.graph

    # Initial partition at the coarsest level: best of several FM starts.
    best: BisectionResult | None = None
    for attempt in range(max(1, num_starts)):
        candidate = fm_bisect(
            current,
            balance=balance,
            seed=seed * 7919 + attempt,
            locked_left=tuple(locked_left),
            locked_right=tuple(locked_right),
        )
        if best is None or candidate.cut < best.cut:
            best = candidate
    assert best is not None
    left_set = set(best.left)

    # Uncoarsen, refining at each level.
    fine_graphs = [graph] + [level.graph for level in levels[:-1]]
    for level, fine in zip(reversed(levels), reversed(fine_graphs)):
        projected = [
            vertex
            for vertex in fine.vertices
            if vertex not in locked and level.cluster_of[vertex] in left_set
        ]
        refined = fm_bisect(
            fine,
            initial_left=projected,
            balance=balance,
            seed=seed,
            locked_left=tuple(locked_left),
            locked_right=tuple(locked_right),
        )
        left_set = set(refined.left)
        best = refined

    # The last FM call ran on ``graph`` itself (the finest level, or the
    # only one), so its sides and cut are the answer.
    return best
