"""Perfect matchings, the matching <-> 3-path-decomposition bijection, and
1-extendability.

Enumeration is plain backtracking over the lowest-id uncovered vertex
(`_kernel.purecore._completions`, which the kernel scan of `is_pmh_line`
shares), exact and deterministic at the sizes this package targets; it
keeps its own stack, so a graph of any order is enumerated without
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel.purecore import _completions
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
        return len(self.covered()) == self.host_n


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
    if g.n % 2 == 1:
        return
    for chosen in _completions(g.adjacency, [False] * (g.n + 1)):
        yield Matching(edges=frozenset(chosen), host_n=g.n)


def count_perfect_matchings(g: Graph):
    if g.n % 2 == 1:
        return 0
    return sum(1 for _ in _completions(g.adjacency, [False] * (g.n + 1)))


def has_perfect_matching_with(g: Graph, required=()):
    """Existence check for a perfect matching containing the given edges."""
    req = [(min(u, v), max(u, v)) for u, v in required]
    covered = [False] * (g.n + 1)
    for u, v in req:
        if (u, v) not in g.edges:
            return False
        if covered[u] or covered[v]:
            return False
        covered[u] = covered[v] = True
    return next(_completions(g.adjacency, covered), None) is not None


def matching_to_p3(lgm: LineGraphMap, m: Matching) -> P3Decomposition:
    """Perfect matching of L(G) -> 3-path decomposition of G."""
    if m.host_n != lgm.lg.n or not m.is_perfect():
        uncovered = sorted(set(range(lgm.lg.n)) - m.covered())
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
