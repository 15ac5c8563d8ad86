"""Line graph construction with a stable edge-to-vertex bijection, and the
centre of each line-graph edge: the base vertex its two ends share, so each
edge of L(G) is a 2-path of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .graph_core import Graph


@dataclass(frozen=True)
class LineGraphMap:
    """A graph, its line graph, and the bijection between base edges and
    line-graph vertices.  Line-graph vertex ids equal the dense lexicographic
    edge ids of the base graph, so downstream witnesses are reproducible.
    `centre[(a, b)]`, a < b, is the base vertex shared by the ends of the
    line-graph edge ab; `_edge_idx` inverts `from_lg`.  Both follow from
    the base, so eq and hash skip them.
    """

    base: Graph
    lg: Graph
    from_lg: tuple    # lg vertex id -> base edge (u, v)
    centre: dict = field(compare=False, repr=False)
    _edge_idx: dict = field(compare=False, repr=False)

    def lg_vertex(self, u, v):
        e = (u, v) if u < v else (v, u)
        return self._edge_idx[e]


def build_line_graph(g: Graph) -> LineGraphMap:
    """Construct L(g); vertices of L(g) are the dense edge ids of g."""
    if g.n <= 2:
        raise PreconditionError("line graph requires base order > 2")
    if not g.is_connected():
        raise PreconditionError("line graph requires a connected base")
    edge_list = g.edge_list()
    idx = {e: i for i, e in enumerate(edge_list)}
    centre = {}
    for v in range(g.n):
        inc = sorted(idx[(min(v, w), max(v, w))] for w in g.adjacency[v])
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                centre[(inc[i], inc[j])] = v
    return LineGraphMap(
        base=g,
        lg=Graph(len(edge_list), frozenset(centre)),
        from_lg=tuple(edge_list),
        centre=centre,
        _edge_idx=idx,
    )
