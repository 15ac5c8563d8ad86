"""Perfect matchings, the matching <-> 3-path-decomposition bijection, and
1-extendability.

Enumeration, counting and the existence test run the kernel scan
`_kernel.pm_scan` without centres: backtracking over the lowest-id uncovered
vertex, in the order of `_kernel.purecore._completions` (the pure backend
runs it; the compiled scan walks the same tree in C, on its own stack, and
yields one shared tuple per edge).  Above `_kernel.MAX_VERTICES` vertices
they raise CapacityError on either backend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _kernel
from .cycles import _check_size
from .errors import ParityError, PreconditionError, StructureError, WitnessError
from .graph_core import Graph
from .line_graph import LineGraphMap


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges of a host graph."""

    edges: frozenset
    host_n: int

    def covered(self):
        s = set()
        for u, v in self.edges:
            s.add(u)
            s.add(v)
        return s

    def is_perfect(self):
        """Every host vertex on exactly one pair."""
        return (2 * len(self.edges) == self.host_n
                and len(self.covered()) == self.host_n)


@dataclass(frozen=True)
class P3Decomposition:
    """Partition of E(G) into 2-edge paths; each entry is (center, (e1, e2))
    with e1, e2 the two base edges sharing exactly the center vertex.
    """

    paths: tuple


def make_matching(g: Graph, edges) -> Matching:
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
    seen = set()
    for u, v in norm:
        if (u, v) not in g.edges:
            raise PreconditionError(f"({u},{v}) is not an edge of the host graph")
        if u in seen or v in seen:
            raise PreconditionError(f"matching edges collide at vertex {u if u in seen else v}")
        seen.update((u, v))
    return Matching(edges=norm, host_n=g.n)


def enumerate_perfect_matchings(g: Graph):
    """Yield every perfect matching exactly once, lexicographically by the
    dense edge ids of the chosen edges."""
    _check_size(g)
    for pairs in _kernel.pm_scan(g.adjacency):
        yield Matching(edges=frozenset(pairs), host_n=g.n)


def count_perfect_matchings(g: Graph):
    _check_size(g)
    scan = _kernel.pm_scan(g.adjacency)
    deque(scan, maxlen=0)
    return scan.tested


def has_perfect_matching_with(g: Graph, required=()):
    """Existence check for a perfect matching containing the given edges:
    false unless they are disjoint edges of g, else a scan of g without
    every edge at their ends but the required edges themselves."""
    _check_size(g)
    partner = {}
    for u, v in required:
        if u == v or not g.has_edge(u, v) or u in partner or v in partner:
            return False
        partner[u], partner[v] = v, u
    adj = list(g.adjacency)
    for u, v in partner.items():
        for w in g.adjacency[u]:
            if w not in partner:
                adj[w] = [x for x in adj[w] if x not in partner]
        adj[u] = [v]
    return next(iter(_kernel.pm_scan(adj)), None) is not None


def matching_to_p3(lgm: LineGraphMap, m: Matching) -> P3Decomposition:
    """Perfect matching of L(G) -> 3-path decomposition of G."""
    if m.host_n != lgm.lg.n or not m.is_perfect():
        ends = sorted(x for e in m.edges for x in e)
        twice = [x for x, y in zip(ends, ends[1:]) if x == y]
        if twice:
            raise PreconditionError(
                f"matching edges collide at vertex {twice[0]}")
        uncovered = sorted(set(range(lgm.lg.n)) - set(ends))
        raise PreconditionError(
            f"matching is not perfect on the line graph (uncovered lg vertex "
            f"{uncovered[0] if uncovered else '?'})")
    paths = []
    for a, b in sorted(m.edges):
        center = lgm.centre.get((a, b) if a < b else (b, a))
        if center is None:
            raise PreconditionError(f"matching pair ({a},{b}) is not an edge "
                                    f"of the line graph")
        paths.append((center, (lgm.from_lg[a], lgm.from_lg[b])))
    return P3Decomposition(paths=tuple(paths))


def p3_to_matching(lgm: LineGraphMap, decomp: P3Decomposition) -> Matching:
    """Inverse of matching_to_p3."""
    idx = lgm._edge_idx
    edges = [(idx[e1], idx[e2]) for _center, (e1, e2) in decomp.paths]
    return make_matching(lgm.lg, edges)


def validate_p3_decomposition(g: Graph, decomp: P3Decomposition):
    """Partition property: every base edge in exactly one path, and the two
    edges of each path share exactly the center."""
    seen = set()
    for center, (e1, e2) in decomp.paths:
        for e in (e1, e2):
            if e not in g.edges:
                return False
            if e in seen:
                return False
            seen.add(e)
        if set(e1) & set(e2) != {center}:
            return False
    return seen == set(g.edges)


def find_p3_decomposition(g: Graph) -> P3Decomposition:
    """Constructive 3-path decomposition of a connected graph of even size.

    Root a spanning tree and sweep vertices leaves-first: at each vertex,
    pair up the still-unused incident edges; on an odd count the tree edge
    to the parent is left for the parent to absorb.  Global parity makes the
    root come out even.
    """
    if not g.is_connected():
        raise StructureError("decomposition requires a connected graph")
    if len(g.edges) % 2 == 1:
        raise ParityError("a 3-path decomposition needs an even number of edges")
    if not g.edges:
        return P3Decomposition(paths=())

    parent = [-1] * g.n
    order = [0]
    seen = {0}
    for u in order:
        for w in g.adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)

    used = set()
    paths = []
    for v in reversed(order):
        inc = [(min(v, w), max(v, w)) for w in g.adjacency[v]]
        free = sorted(e for e in inc if e not in used)
        if len(free) % 2 == 1 and parent[v] >= 0:
            pe = (min(v, parent[v]), max(v, parent[v]))
            free.remove(pe)
        if len(free) % 2:
            raise StructureError(f"odd number of unpaired edges left at vertex {v}")
        for i in range(0, len(free), 2):
            e1, e2 = free[i], free[i + 1]
            used.update((e1, e2))
            paths.append((v, (e1, e2)))
    decomp = P3Decomposition(paths=tuple(paths))
    if not validate_p3_decomposition(g, decomp):
        raise WitnessError("constructed 3-path decomposition fails validation")
    return decomp


def one_extendability_check(g: Graph):
    """True iff every edge lies in some perfect matching; otherwise a witness
    edge in no perfect matching.  Returns (verdict, witness_or_None)."""
    for e in g.edge_list():
        if not has_perfect_matching_with(g, [e]):
            return False, e
    return True, None
