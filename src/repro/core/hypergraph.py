"""Undirected hypergraph view of a Boolean network (paper Section 4.2).

The network is "seen as an undirected hypergraph with the signals as the
hyperedges, and the gates, inputs and outputs as the nodes".  A signal net
spans its driving gate plus every gate that reads it; direction is
deliberately discarded — this is the operational difference from the
Berman/McMillan BDD widths discussed in Section 6.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.circuits.network import Network


@dataclass(frozen=True)
class HypergraphIndex:
    """A hypergraph over vertex indices: the partitioners' working form.

    Attributes:
        index_of: vertex name -> its position in ``Hypergraph.vertices``.
        members: per edge, its members' indices in member order.
        incidence: per vertex index, the indices of the edges containing
            it, in ascending order.
    """

    index_of: dict[str, int]
    members: list[tuple[int, ...]]
    incidence: list[list[int]]


@dataclass
class Hypergraph:
    """An undirected hypergraph over string-named vertices.

    Attributes:
        vertices: all vertices, in a deterministic order.
        edges: each hyperedge as a tuple of distinct member vertices,
            paired with a label (the signal net name for circuit graphs).
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, tuple[str, ...]], ...] = field(default=())
    _index: HypergraphIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for label, members in self.edges:
            for member in members:
                if member not in vertex_set:
                    raise ValueError(
                        f"edge {label!r} references unknown vertex {member!r}"
                    )

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def indexed(self) -> HypergraphIndex:
        """The integer form of this graph.

        Memoised: the graph is immutable by convention, and arrangement
        search (FM passes, restriction, profiles, window refinement)
        works on it many times over.
        """
        if self._index is None:
            index_of = {v: i for i, v in enumerate(self.vertices)}
            members = [
                tuple(map(index_of.__getitem__, edge)) for _, edge in self.edges
            ]
            incidence: list[list[int]] = [[] for _ in self.vertices]
            for edge_index, edge in enumerate(members):
                for member in edge:
                    incidence[member].append(edge_index)
            object.__setattr__(
                self, "_index", HypergraphIndex(index_of, members, incidence)
            )
        return self._index

    def edges_touching(self, keep: Iterable[str]) -> list[int]:
        """Indices of the edges with a member in ``keep``, ascending.

        Unknown names are ignored.  Visits only the kept vertices'
        incidence, not every edge of the graph.
        """
        index = self.indexed()
        touched: set[int] = set()
        for vertex in keep:
            position = index.index_of.get(vertex)
            if position is not None:
                touched.update(index.incidence[position])
        return sorted(touched)

    def restricted_to(self, keep: Iterable[str]) -> "Hypergraph":
        """Sub-hypergraph induced on ``keep``; edges shrink, singletons drop.

        Vertices keep graph order and edges keep edge and member order.
        """
        keep_set = set(keep)
        index_of = self.indexed().index_of
        positions = sorted(index_of[v] for v in keep_set if v in index_of)
        vertices = tuple(self.vertices[i] for i in positions)
        edges = []
        for edge_index in self.edges_touching(keep_set):
            label, members = self.edges[edge_index]
            inside = tuple(m for m in members if m in keep_set)
            if len(inside) >= 2:
                edges.append((label, inside))
        return Hypergraph(vertices, tuple(edges))


def circuit_hypergraph(network: Network) -> Hypergraph:
    """The paper's hypergraph of a circuit.

    One vertex per net (i.e. per gate / primary input — the net and its
    driver are identified); one hyperedge per signal net spanning the
    driver and all its readers.  Nets with no readers yield singleton
    edges which can never cross a cut and are dropped.
    """
    vertices = tuple(network.topological_order())
    edges: list[tuple[str, tuple[str, ...]]] = []
    for net in vertices:
        readers = network.fanouts(net)
        members = (net, *readers)
        if len(members) >= 2:
            edges.append((net, members))
    return Hypergraph(vertices, tuple(edges))


def cut_width_under_order(
    graph: Hypergraph, order: Sequence[str]
) -> int:
    """W(G, h): maximum number of hyperedges crossing any gap of ``order``.

    Definition 4.1 of the paper: an edge crosses position *i* if it has one
    member at position ≤ i and another at position > i.

    Args:
        graph: the hypergraph.
        order: a permutation of the graph's vertices.

    Raises:
        ValueError: if ``order`` is not a permutation of the vertices.
    """
    profile = cut_profile(graph, order)
    return max(profile, default=0)


def cut_profile(graph: Hypergraph, order: Sequence[str]) -> list[int]:
    """Edge-crossing count after each prefix of ``order``.

    ``profile[i]`` is the number of hyperedges with a member among
    ``order[:i+1]`` and a member among ``order[i+1:]``.  The max of this
    list is the cut-width under the ordering.
    """
    index = graph.indexed()
    n = len(order)
    position = [-1] * graph.num_vertices
    if n != graph.num_vertices:
        raise ValueError("order must be a permutation of the hypergraph vertices")
    for i, vertex in enumerate(order):
        vertex_index = index.index_of.get(vertex)
        if vertex_index is None or position[vertex_index] >= 0:
            raise ValueError(
                "order must be a permutation of the hypergraph vertices"
            )
        position[vertex_index] = i

    profile = [0] * n
    at = position.__getitem__
    for members in index.members:
        spots = list(map(at, members))
        first = min(spots)
        last = max(spots)
        if first == last:
            continue
        # Edge is live in gaps first..last-1 (after prefix ending at i).
        profile[first] += 1
        profile[last] -= 1
    # Prefix-sum the difference array.
    running = 0
    for i in range(n):
        running += profile[i]
        profile[i] = running
    return profile


def crossing_edges(
    graph: Hypergraph, prefix: Iterable[str]
) -> list[str]:
    """Labels of edges crossing the cut (prefix, rest).

    The paper's cut ``(δ_V, δ̄_V)``: an edge crosses if it has members on
    both sides.
    """
    inside = set(prefix)
    labels = []
    for label, members in graph.edges:
        has_in = any(m in inside for m in members)
        has_out = any(m not in inside for m in members)
        if has_in and has_out:
            labels.append(label)
    return labels


def cut_size(graph: Hypergraph, prefix: Iterable[str]) -> int:
    """|(δ_V, δ̄_V)|: number of distinct nets crossing the cut."""
    return len(crossing_edges(graph, prefix))
