"""Graph surgeries: triangle expansion/contraction of degree-3 vertices, the
circumference-(n-1) counterexample builder, and the reconstruction check that
contracting the triangles of L(G) - M at the vertices where no edge of M
is centred recovers G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import _hypohamiltonian
from .errors import BudgetError, ParityError, PreconditionError, StructureError
from .graph_core import Graph, are_isomorphic
from .line_graph import LineGraphMap
from .matching import Matching
from .pmh import _matching_centers


@dataclass(frozen=True)
class Surgery:
    kind: str                 # y_extension / y_reduction
    site: tuple               # vertex id, or triangle as 3 vertex ids
    vertex_map: dict          # old vertex -> new vertex (surviving vertices)
    new_vertices: tuple       # vertices created by the surgery


def y_extension(g: Graph, v):
    """Expand degree-3 vertex v into a triangle; each triangle vertex takes
    one former neighbor (ascending neighbor id -> ascending new id)."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex {v} is not in the graph")
    if g.degree(v) != 3:
        raise PreconditionError(f"vertex {v} has degree {g.degree(v)}, need 3")
    nbrs = sorted(g.adjacency[v])
    # v keeps its id as the first triangle corner; two fresh corners appended
    n2 = g.n + 2
    t = (v, g.n, g.n + 1)
    edges = [e for e in g.edges if v not in e]
    for corner, w in zip(t, nbrs):
        edges.append((min(corner, w), max(corner, w)))
    edges += [(min(a, b), max(a, b)) for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    out = Graph.from_edges(n2, edges)
    surgery = Surgery(kind="y_extension", site=(v,),
                      vertex_map={u: u for u in range(g.n)},
                      new_vertices=t)
    return out, surgery


def y_reduction(g: Graph, triangle):
    """Contract a triangle whose corners each have exactly one outside
    neighbor back to a single degree-3 vertex."""
    t = tuple(sorted(triangle))
    if len(t) != 3 or len(set(t)) != 3:
        raise PreconditionError("triangle must have 3 vertices")
    a, b, c = t
    for x, y in ((a, b), (a, c), (b, c)):
        if not g.has_edge(x, y):
            raise PreconditionError(f"{t} does not induce a triangle")
    outside = []
    for x in t:
        ext = [w for w in g.adjacency[x] if w not in t]
        if len(ext) != 1:
            raise PreconditionError(
                f"triangle corner {x} has {len(ext)} outside neighbors, need 1")
        outside.append(ext[0])
    if len(set(outside)) != 3:
        raise PreconditionError("contraction would create parallel edges")
    # relabel: drop b and c, reuse a as the contracted vertex
    keep = [v for v in range(g.n) if v not in (b, c)]
    newid = {v: i for i, v in enumerate(keep)}
    edges = []
    for u, v in g.edges:
        if u in t and v in t:
            continue
        uu = newid[a] if u in t else newid[u]
        vv = newid[a] if v in t else newid[v]
        edges.append((min(uu, vv), max(uu, vv)))
    out = Graph.from_edges(len(keep), edges)
    surgery = Surgery(kind="y_reduction", site=t, vertex_map=newid,
                      new_vertices=(newid[a],))
    return out, surgery


def prop6_construct(g: Graph, keep, max_nodes=0):
    """From a cubic hypohamiltonian graph of odd size, expand every vertex
    except `keep` into a triangle.  The result is cubic, of even size, with
    circumference one below its order, and its line graph is not PMH.

    Returns (graph, kept_vertex_id, triangle_map) where triangle_map sends
    each expanded original vertex to its triangle corners in the output.
    `max_nodes` caps each search of the hypohamiltonicity check, which
    raises BudgetError when the cap leaves it undecided.
    """
    built, _nodes = _prop6_construct(g, keep, max_nodes)
    if built is None:
        raise BudgetError("a hamiltonicity search ran out of nodes")
    return built


def _prop6_construct(g: Graph, keep, max_nodes):
    """(built, nodes): what `prop6_construct` returns, or None when a capped
    search left the hypohamiltonicity check open, and the summed nodes of
    the check's searches."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise PreconditionError("base must be cubic")
    if len(g.edges) % 2 == 0:
        raise ParityError("base must have odd size")
    if not 0 <= keep < g.n:
        raise PreconditionError(f"vertex {keep} is not in the graph")
    verdict, nodes = _hypohamiltonian(g, max_nodes)
    if verdict is None:
        return None, nodes
    if not verdict:
        raise PreconditionError("base must be hypohamiltonian")
    cur = g
    # expansions never renumber surviving vertices, so original ids persist
    triangle_map = {}
    for v in range(g.n):
        if v == keep:
            continue
        cur, s = y_extension(cur, v)
        triangle_map[v] = s.new_vertices
    if len(cur.edges) != len(g.edges) + 3 * (g.n - 1) or len(cur.edges) % 2:
        raise StructureError(f"expansion left {len(cur.edges)} edges")
    return (cur, keep, triangle_map), nodes


def remark1_reduction(lgm: LineGraphMap, m: Matching):
    """Compute L(g) - m for a cubic base g, contract the triangle of every
    base vertex at which no matching edge is centred, and report whether the
    result is isomorphic to g."""
    g = lgm.base
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise PreconditionError("base must be cubic")
    if len(g.edges) % 2:
        raise ParityError("even base size required (L(g) needs a perfect matching)")
    centres = _matching_centers(lgm, m)
    residual = Graph.from_edges(lgm.lg.n, set(lgm.lg.edges) - set(m.edges))
    # matching-free triangles are pairwise disjoint, so contract in any
    # order; track relabeling as we go
    free = [[lgm.lg_vertex(v, w) for w in g.adjacency[v]]
            for v in range(g.n) if v not in centres]
    cur = residual
    ids = list(range(residual.n))   # current id of each original lg vertex
    for tri in free:
        t = sorted(ids[x] for x in tri)
        cur, s = y_reduction(cur, t)
        ids = [s.vertex_map[s.site[0]] if i in s.site else s.vertex_map[i]
               for i in ids]
    return cur, are_isomorphic(cur, g)
