"""Cycle and tour machinery: hamiltonian cycles with forced edges, dominating
cycles, dominating tours, Euler tours, circumference, arbitrarily-traceable
and hypohamiltonian predicates.

Exact searches route through the kernel backend (compiled when available).
Budget-capped searches report "inconclusive", never absence.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import _kernel
from .errors import (BudgetError, CapacityError, PreconditionError,
                     StructureError, WitnessError)
from .graph_core import Graph

FOUND = "found"
ABSENT = "absent"
INCONCLUSIVE = "inconclusive"

_STATUS = {_kernel.FOUND: FOUND, _kernel.ABSENT: ABSENT, _kernel.BUDGET: INCONCLUSIVE}

CYCLE_SPACE_DIM_CAP = 24

_HAMILTONIAN = frozenset({"cycle", "tour", "hamiltonian", "dominating"})
_CYCLE = frozenset({"cycle", "tour"})


class CycleWalk(NamedTuple):
    """A closed walk; `vertices` repeats the first vertex last (a single
    vertex stands for the trivial length-0 tour)."""

    vertices: tuple
    kinds: frozenset = frozenset()

    @property
    def touched(self):
        return frozenset(self.vertices)

    @property
    def edge_seq(self):
        vs = self.vertices
        return tuple((a, b) if a < b else (b, a) for a, b in zip(vs, vs[1:]))

    def length(self):
        return len(self.vertices) - 1 if len(self.vertices) > 1 else 0

    def contains_edges(self, edges):
        have = frozenset(self.edge_seq)
        return all(((u, v) if u < v else (v, u)) in have for u, v in edges)


def closed(vertices, kinds=()):
    vs = list(vertices)
    if len(vs) > 1 and vs[0] != vs[-1]:
        vs.append(vs[0])
    return CycleWalk(vertices=tuple(vs), kinds=frozenset(kinds))


def validate_walk(g: Graph, walk: CycleWalk):
    """Independent re-check of a walk's claimed kind flags."""
    vs = walk.vertices
    if not vs or not 0 <= vs[0] < g.n:
        return False
    edges = walk.edge_seq
    if len(vs) > 1 and (vs[0] != vs[-1] or not g.edges.issuperset(edges)):
        return False
    # Every step is now an edge of g, so every touched vertex is in range.
    touched = walk.touched
    interior = vs[:-1] if len(vs) > 1 else ()
    simple = False
    if "cycle" in walk.kinds or "hamiltonian" in walk.kinds:
        if len(interior) < 3 or len(touched) != len(interior):
            return False
        simple = True  # a cycle of length >= 3 repeats no edge
    if "tour" in walk.kinds or "euler" in walk.kinds:
        if not simple and len(set(edges)) != len(edges):
            return False
    if "euler" in walk.kinds and set(edges) != g.edges:
        return False
    if "hamiltonian" in walk.kinds and len(touched) != g.n:
        return False
    # A walk through every vertex dominates every edge.
    if "dominating" in walk.kinds and len(touched) < g.n:
        for u, v in g.edges:
            if u not in touched and v not in touched:
                return False
    return True


class SearchResult(NamedTuple):
    outcome: str              # found / absent / inconclusive
    walk: CycleWalk | None
    nodes: int

    def __bool__(self):
        return self.outcome == FOUND


def _check_size(g: Graph):
    if g.n > _kernel.MAX_VERTICES:
        raise CapacityError(f"{g.n} vertices, above the search bound "
                            f"{_kernel.MAX_VERTICES}")


def _search_graph(g: Graph):
    """The kernel's SearchGraph of g, made on first use and kept on g, as its
    adjacency is, so every search of g shares one; a graph above the
    kernel's bound is refused when it is made, before either backend runs."""
    graph = g._search_graph
    if graph is None:
        _check_size(g)
        graph = _kernel.SearchGraph(g.adjacency)
        object.__setattr__(g, "_search_graph", graph)
    return graph


def _edge_table(g: Graph):
    """The kernel's EdgeTable of g, which `is_cycle` reads: made on first
    use from g.edges alone, and kept on g."""
    table = g._edge_table
    if table is None:
        table = _kernel.EdgeTable(g.n, g.edges)
        object.__setattr__(g, "_edge_table", table)
    return table


def find_hamiltonian_cycle(g: Graph, forced=(), max_nodes=0) -> SearchResult:
    """Exhaustive hamiltonian cycle search; the cycle must contain every
    forced edge.  Absence verdicts are certified by search-tree exhaustion.

    `forced` holds edges of g as pairs of ints in either order, with no
    vertex on more than two distinct ones; a repeated pair counts once.
    The kernel checks the set and refuses any other with PreconditionError.
    A cycle the kernel returns is re-checked by `hamiltonian_walk`."""
    if not isinstance(forced, (list, tuple)):
        forced = list(forced)     # read by the search and by the re-check
    try:
        status, cyc, nodes = _kernel.ham_cycle(_search_graph(g), forced,
                                               max_nodes)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    if status != _kernel.FOUND:
        return SearchResult(_STATUS[status], None, nodes)
    return SearchResult(FOUND, hamiltonian_walk(g, cyc, forced), nodes)


def hamiltonian_walk(g: Graph, cyc, forced=()) -> CycleWalk:
    """The closed walk of the vertex list `cyc`, with the kind flags of a
    hamiltonian cycle (which dominates every edge), once it is re-checked
    as a hamiltonian cycle of g through every pair of `forced`; raises
    WitnessError otherwise.  The check is
    `_kernel.is_cycle` on g's EdgeTable, made from g.edges and not from a
    search's copy of the graph, so every hamiltonian cycle the searches and
    routes return passes the one predicate."""
    if not (len(cyc) == g.n
            and _kernel.is_cycle(g.n, _edge_table(g), cyc, forced)):
        raise WitnessError(f"{list(cyc)} is not a hamiltonian cycle through "
                           f"the forced edges {sorted(map(tuple, forced))}")
    return CycleWalk((*cyc, cyc[0]), _HAMILTONIAN)


def _induced(g: Graph, keep):
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    # keep is sorted, so u < v gives pos[u] < pos[v]: each edge stays (low, high).
    edges = frozenset((pos[u], pos[v]) for u, v in g.edges
                      if u in pos and v in pos)
    return Graph(len(keep), edges), keep


def _dominating_memo(g: Graph):
    """Per-graph state of `find_dominating_cycle`, kept on g like its
    SearchGraph (so `Graph.drop_kernel_state` frees it and a pickle or copy
    leaves it out): the neighbour bitmask of every vertex, the bitmask of the
    vertices of degree < 2, and the certified outcome of each G - U searched
    so far, keyed by U's bitmask: its dominating cycle of g, or None when
    G - U has no hamiltonian cycle.  Budget-capped outcomes are not kept."""
    memo = g._dominating_cache
    if memo is None:
        adj = g.adjacency
        memo = ([sum(1 << w for w in a) for a in adj],
                sum(1 << v for v, a in enumerate(adj) if len(a) < 2), {})
        object.__setattr__(g, "_dominating_cache", memo)
    return memo


def find_dominating_cycle(g: Graph, allowed_untouched=frozenset(),
                          max_nodes=0) -> SearchResult:
    """Dominating cycle whose untouched vertices form a subset of
    `allowed_untouched`; candidate untouched sets are tried smallest first
    with lexicographic tie-break.

    A candidate U that leaves some kept vertex with fewer than two kept
    neighbours is skipped without a search: G - U has no hamiltonian cycle,
    which certifies that U fails under any budget.  The search of G - U
    depends on U alone, so its certified outcome is kept on g and a later
    call on the same graph object takes it without a search (0 nodes),
    under any budget."""
    allowed = sorted(set(allowed_untouched))
    outside = [v for v in allowed if not 0 <= v < g.n]
    if outside:
        raise PreconditionError(f"vertex {outside[0]} is not in the graph")
    adj = g.adjacency
    nbr, low, searched = _dominating_memo(g)
    full = (1 << g.n) - 1
    saw_budget = False
    total_nodes = 0
    for size in range(len(allowed) + 1):
        if g.n - size < 3:
            break
        for untouched in combinations(allowed, size):
            off = sum(1 << v for v in untouched)
            if low & ~off or any(nbr[v] & off for v in untouched):
                continue  # a vertex of degree < 2 kept, or an undominated edge
            kept = full ^ off
            if any((nbr[w] & kept).bit_count() < 2
                   for v in untouched for w in adj[v]):
                continue  # a neighbour of U keeps fewer than two neighbours
            if off in searched:
                if searched[off] is None:
                    continue
                return SearchResult(FOUND, searched[off], total_nodes)
            sub, keep = _induced(g, [v for v in range(g.n) if kept >> v & 1])
            res = find_hamiltonian_cycle(sub, max_nodes=max_nodes)
            total_nodes += res.nodes
            if res.outcome == FOUND:
                verts = [keep[v] for v in res.walk.vertices[:-1]]
                walk = closed(verts, kinds={"cycle", "tour", "dominating"})
                if not validate_walk(g, walk):
                    raise WitnessError(f"invalid dominating cycle {verts}")
                searched[off] = walk
                return SearchResult(FOUND, walk, total_nodes)
            if res.outcome == INCONCLUSIVE:
                saw_budget = True
            else:
                searched[off] = None
    return SearchResult(INCONCLUSIVE if saw_budget else ABSENT, None, total_nodes)


def _spanning_even_subgraph_exists(g: Graph):
    """Connected spanning subgraph with every degree even and positive.

    Walks the cycle space of g (False when g is disconnected) in Gray-code
    order, one XOR of a fundamental cycle per element; exact for dimension
    up to CYCLE_SPACE_DIM_CAP.
    """
    n = g.n
    if n == 0:
        return False
    bit = {e: 1 << i for i, e in enumerate(g.edge_list())}
    # path[u]: the edges of the BFS-tree path from vertex 0 to u, as a mask
    path = [0] + [None] * (n - 1)
    order = [0]
    for u in order:
        for w in g.adjacency[u]:
            if path[w] is None:
                path[w] = path[u] | bit[(u, w) if u < w else (w, u)]
                order.append(w)
    if len(order) != n:
        return False
    # a chord's fundamental cycle; a tree edge's mask XORs to 0 and drops out
    basis = [c for c in (b ^ path[u] ^ path[v] for (u, v), b in bit.items())
             if c]
    if len(basis) > CYCLE_SPACE_DIM_CAP:
        raise CapacityError(f"cycle space dimension {len(basis)} exceeds cap")
    even = 0
    for i in range(1, 1 << len(basis)):
        # Gray code: element i is element i - 1 XOR the basis cycle at the
        # lowest set bit of i
        even ^= basis[(i & -i).bit_length() - 1]
        sub = Graph(n, frozenset(e for e, b in bit.items() if even & b))
        if sub.is_connected():  # on all n >= 2 vertices: no degree is 0
            return True
    return False


def has_dominating_tour(g: Graph):
    """Closed trail (possibly a single vertex) dominating every edge.

    For |E| >= 3 this is L(g) being hamiltonian (Harary and Nash-Williams
    1965), and criterion 06 checks the kernel against it, so it reads no
    kernel on purpose: candidate touched sets are vertex covers, and trail
    existence within a cover is decided through the cycle space of the
    induced subgraph, which is False for a disconnected one.
    """
    if not g.is_connected():
        raise StructureError("dominating tour requires a connected graph")
    if g.n == 1:
        return True
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            s = set(sub)
            if any(u not in s and v not in s for u, v in g.edges):
                continue  # not a vertex cover
            if size == 1:
                return True  # trivial tour at a dominating vertex
            if _spanning_even_subgraph_exists(_induced(g, s)[0]):
                return True
    return False


def euler_tour(g: Graph):
    """Euler tour by Hierholzer's algorithm (smallest-neighbor-first, so the
    output is deterministic), or None when some degree is odd or the graph
    is the null graph, which has no closed walk."""
    if not g.is_connected():
        raise StructureError("euler tour requires a connected graph")
    if g.n == 0 or any(g.degree(v) % 2 for v in range(g.n)):
        return None
    # nbrs[u] yields the neighbours of u not yet tried, smallest first
    nbrs = [iter(a) for a in g.adjacency]
    used = set()
    # g is connected, so vertex 0 has an edge unless it is the only vertex
    stack = [0]
    out = []
    while stack:
        u = stack[-1]
        for w in nbrs[u]:
            e = (u, w) if u < w else (w, u)
            if e not in used:
                used.add(e)
                stack.append(w)
                break
        else:
            out.append(stack.pop())
    out.reverse()
    walk = closed(out, kinds={"tour", "euler"})
    if not validate_walk(g, walk):
        raise WitnessError(f"invalid euler tour {out}")
    return walk


def is_arbitrarily_traceable(g: Graph, v):
    """True iff g is eulerian and every cycle of g passes through v.  By
    Ore (1951) that is: g is connected, every degree is even, and g - v is
    a forest, i.e. |E(g - v)| = (n - 1) - c(g - v) for its c components."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex {v} is not in the graph")
    if not g.is_connected() or any(len(a) % 2 for a in g.adjacency):
        return False
    seen = {v}
    components = 0
    for root in range(g.n):
        if root not in seen:
            components += 1
            seen.add(root)
            stack = [root]
            while stack:
                for w in g.adjacency[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return len(g.edges) - g.degree(v) == g.n - 1 - components


def is_hypohamiltonian(g: Graph, max_nodes=0):
    """Not hamiltonian, but every single-vertex deletion is hamiltonian.

    `max_nodes` caps each search.  A capped search decides nothing, so when
    no other search settles the answer this raises BudgetError."""
    verdict, _nodes = _hypohamiltonian(g, max_nodes)
    if verdict is None:
        raise BudgetError("a hamiltonicity search ran out of nodes")
    return verdict


def _hypohamiltonian(g: Graph, max_nodes):
    """(verdict, nodes): the answer of `is_hypohamiltonian`, or None when a
    capped search left it open, and the summed nodes of every search run."""
    res = find_hamiltonian_cycle(g, max_nodes=max_nodes)
    nodes = res.nodes
    if res.outcome == FOUND:
        return False, nodes
    capped = res.outcome == INCONCLUSIVE
    for v in range(g.n):
        sub, _ = _induced(g, set(range(g.n)) - {v})
        if not sub.is_connected():
            return False, nodes
        res = find_hamiltonian_cycle(sub, max_nodes=max_nodes)
        nodes += res.nodes
        if res.outcome == ABSENT:
            return False, nodes
        capped = capped or res.outcome == INCONCLUSIVE
    return (None if capped else True), nodes


def longest_cycle_search(g: Graph, max_nodes=0) -> SearchResult:
    """Exact longest cycle (branch and bound); inconclusive under a budget
    cap returns the best cycle found so far as a lower bound.

    A graph's longest cycle is searched once, so the kernel loads g and its
    edge set into temporary objects instead of the ones kept on g, which
    would cost a one-shot caller more than they save (README)."""
    _check_size(g)
    status, cyc, nodes = _kernel.longest_cycle(g.adjacency, max_nodes)
    if cyc is None:
        return SearchResult(_STATUS[status], None, nodes)
    if not _kernel.is_cycle(g.n, g.edges, cyc):
        raise WitnessError(f"kernel returned an invalid cycle {cyc}")
    return SearchResult(_STATUS[status], CycleWalk((*cyc, cyc[0]), _CYCLE), nodes)


def circumference(g: Graph):
    """Length of a longest cycle; raises on acyclic input."""
    res = longest_cycle_search(g)
    if res.outcome == ABSENT:
        raise StructureError("graph is acyclic: circumference undefined")
    return res.walk.length()
