"""Line graph construction with a stable edge-to-vertex bijection, plus the
canonical clique partition (one clique per base vertex of degree >= 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .graph_core import Graph


@dataclass(frozen=True)
class LineGraphMap:
    """A graph, its line graph, and the bijection between base edges and
    line-graph vertices.  Line-graph vertex ids equal the dense lexicographic
    edge ids of the base graph, so downstream witnesses are reproducible.
    """

    base: Graph
    lg: Graph
    from_lg: tuple    # lg vertex id -> base edge (u, v)

    def lg_vertex(self, u, v):
        e = (u, v) if u < v else (v, u)
        return self._edge_idx[e]

    @cached_property
    def _edge_idx(self):
        return {e: i for i, e in enumerate(self.from_lg)}


@dataclass(frozen=True)
class CliquePartition:
    """Canonical clique partition of E(L(G)): for each base vertex v with
    deg(v) >= 2, the clique Q_v on the lg vertices of edges incident to v.
    """

    lgm: LineGraphMap
    cliques: tuple    # sequence of (base vertex id, frozenset of lg vertices)

    def clique_of(self, v):
        for center, members in self.cliques:
            if center == v:
                return members
        raise KeyError(v)


def build_line_graph(g: Graph) -> LineGraphMap:
    """Construct L(g); vertices of L(g) are the dense edge ids of g."""
    if g.n <= 2:
        raise PreconditionError("line graph requires base order > 2")
    if not g.is_connected():
        raise PreconditionError("line graph requires a connected base")
    edge_list = g.edge_list()
    idx = {e: i for i, e in enumerate(edge_list)}
    lg_edges = set()
    for v in range(g.n):
        inc = sorted(idx[(min(v, w), max(v, w))] for w in g.adjacency[v])
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                lg_edges.add((inc[i], inc[j]))
    lg = Graph.from_edges(len(edge_list), lg_edges)
    return LineGraphMap(
        base=g,
        lg=lg,
        from_lg=tuple(edge_list),
    )


def canonical_partition(lgm: LineGraphMap) -> CliquePartition:
    g = lgm.base
    idx = lgm._edge_idx
    cliques = []
    for v in range(g.n):
        if g.degree(v) < 2:
            continue
        members = frozenset(idx[(min(v, w), max(v, w))] for w in g.adjacency[v])
        cliques.append((v, members))
    return CliquePartition(lgm=lgm, cliques=tuple(cliques))

