"""Constructive matching-extension machinery for line graphs.

Covers: the dominating-cycle extension for subcubic bases (both directions),
the two-hamiltonian-cycle partition for cubic hamiltonian bases, the
properly-coloured-cycle pipeline for complete and balanced complete
bipartite bases, the constrained-Euler-tour extension for arbitrarily
traceable bases, the Ore-type sufficient-condition predicates, and the
brute-force extendability oracle used to cross-validate everything.

The four matching routes and `kotzig_partition` take `(lgm, m, max_nodes)`
and read what they need off the base `lgm.base`.  Each finds a closed trail
of the base that the perfect matching m of L(G) fits, and `_lay_out` turns
that trail into a hamiltonian cycle of L(G) through m.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from ._kernel.purecore import _completions
from .cycles import (ABSENT, FOUND, INCONCLUSIVE, CycleWalk, SearchResult,
                     _check_size, closed, euler_tour, find_dominating_cycle,
                     find_hamiltonian_cycle, hamiltonian_walk,
                     is_arbitrarily_traceable, validate_walk)
from .errors import (BudgetError, ParityError, PreconditionError,
                     StructureError, WitnessError)
from .graph_core import Graph
from .line_graph import LineGraphMap
from .matching import Matching, matching_to_p3


@dataclass(frozen=True)
class EdgeColouring:
    """Total map from base edges to colour ids (not necessarily proper)."""

    colour: dict

    def of(self, u, v):
        return self.colour[(min(u, v), max(u, v))]


@dataclass(frozen=True)
class PmhVerdict:
    status: str               # pmh / not_pmh / inconclusive
    witness: Matching | None = None
    matchings_tested: int = 0
    nodes: int = 0
    searches: int = 0             # kernel searches run

    @property
    def is_pmh(self):
        """True or False, or None when inconclusive: a spent budget refutes
        nothing."""
        return None if self.status == "inconclusive" else self.status == "pmh"

    @property
    def vacuous(self):
        """PMH because the graph has no perfect matching to test."""
        return self.status == "pmh" and self.matchings_tested == 0


# ---------------------------------------------------------------------------
# Brute-force oracle


def is_pmh(h: Graph, max_nodes=0) -> PmhVerdict:
    """Exact extendability verdict: every perfect matching must lie in some
    hamiltonian cycle.  Graphs without perfect matchings are vacuously PMH.

    The matchings come from `_kernel.purecore._completions`, the reference
    enumeration, and not from the kernel scan behind
    `enumerate_perfect_matchings` and `is_pmh_line`, so the oracle stays
    independent of the fast path it cross-checks; the order is the same.
    Each pair list is the forced set of one `find_hamiltonian_cycle`, whose
    kernel checks it, and only a witness becomes a Matching.
    """
    tested = 0
    nodes = 0
    inconclusive = False
    for pairs in _completions(h.adjacency):
        tested += 1
        res = find_hamiltonian_cycle(h, pairs, max_nodes)
        nodes += res.nodes
        if res.outcome == ABSENT:
            return PmhVerdict("not_pmh", witness=Matching(frozenset(pairs), h.n),
                              matchings_tested=tested, nodes=nodes,
                              searches=tested)
        if res.outcome == INCONCLUSIVE:
            inconclusive = True
    if inconclusive:
        return PmhVerdict("inconclusive", matchings_tested=tested, nodes=nodes,
                          searches=tested)
    return PmhVerdict("pmh", matchings_tested=tested, nodes=nodes,
                      searches=tested)


# ---------------------------------------------------------------------------
# Trail cache for line graphs


def _centres(lgm: LineGraphMap):
    """The centre of each edge of L(G), by the edge ids of `_kernel.pm_scan`
    on L(G)'s adjacency."""
    return [lgm.centre[(v, w)]
            for v, nbrs in enumerate(lgm.lg.adjacency) for w in nbrs if w > v]


def is_pmh_line(lgm: LineGraphMap, max_nodes=0) -> PmhVerdict:
    """`is_pmh(lgm.lg)` with most kernel searches replaced by a local test.

    `_kernel.pm_scan` tests the perfect matchings, in `is_pmh`'s order,
    against the trails of the cycles found so far; a hit certifies that the
    matching extends.  A miss gets `is_pmh`'s forced search, and the trail
    of the cycle it finds joins the scan.  "not_pmh" comes only from an
    exhausted search, so without a budget status, witness and
    matchings_tested equal `is_pmh`'s, and nodes can only be fewer; under
    one, a hit stays certified, so `is_pmh`'s "inconclusive" can be "pmh".
    """
    h = lgm.lg
    _check_size(h)
    scan = _kernel.pm_scan(h.adjacency, _centres(lgm))
    searches = nodes = 0
    inconclusive = False
    for pairs in scan:
        searches += 1
        res = find_hamiltonian_cycle(h, pairs, max_nodes)
        nodes += res.nodes
        if res.outcome == ABSENT:
            return PmhVerdict("not_pmh", witness=Matching(frozenset(pairs), h.n),
                              matchings_tested=scan.tested, nodes=nodes,
                              searches=searches)
        if res.outcome == INCONCLUSIVE:
            inconclusive = True
        elif not scan.add(res.walk.vertices):
            raise WitnessError(f"the trail of cycle {res.walk.vertices} "
                               f"does not fit its own matching")
    status = "inconclusive" if inconclusive else "pmh"
    return PmhVerdict(status, matchings_tested=scan.tested, nodes=nodes,
                      searches=searches)


# ---------------------------------------------------------------------------
# Shared helpers


def _matching_centers(lgm: LineGraphMap, m: Matching):
    """The base vertices at which some 2-path of m is centred, read off
    `lgm.centre`.  Unless m is a perfect matching of the line graph,
    `matching_to_p3` raises its PreconditionError, which says why."""
    centre = lgm.centre
    centers = {centre.get((a, b) if a < b else (b, a)) for a, b in m.edges}
    if None in centers or m.host_n != lgm.lg.n or not m.is_perfect():
        matching_to_p3(lgm, m)
    return centers


def _lay_out(lgm: LineGraphMap, m: Matching, trail) -> CycleWalk:
    """The hamiltonian cycle of L(G) through the perfect matching m that a
    closed trail of G gives, by README's layout rule.  `trail` lists the
    trail's edges (L(G) vertices) in order; consecutive edges, the last and
    the first included, are the entry and exit of a segment at the vertex c
    they share.  Each segment walks its entry; the entry's partner in m, if
    centred at c; the 2-paths of m with both edges off the trail centred at
    c, in the first segment at c that the entry's 2-path does not fill; the
    exit's partner, if centred at c.  With no trail edges (G is a star) the
    one segment holds every 2-path.  The walk is re-checked by
    `hamiltonian_walk`, with m's pairs as the forced edges, which raises
    WitnessError unless it is a hamiltonian cycle of L(G) through m."""
    centre = lgm.centre
    on = set(trail)
    partner, at, off = {}, {}, {}
    for a, b in sorted(m.edges):
        if a > b:
            a, b = b, a
        partner[a], partner[b] = b, a
        at[a] = at[b] = c = centre[(a, b)]
        if a not in on and b not in on:
            off.setdefault(c, []).extend((a, b))
    verts = [] if trail else [x for seg in off.values() for x in seg]
    for entry, exit_ in zip(trail, trail[1:] + trail[:1]):
        c = centre[(entry, exit_) if entry < exit_ else (exit_, entry)]
        verts.append(entry)
        if partner[entry] == exit_:
            continue
        if at[entry] == c:
            verts.append(partner[entry])
        verts.extend(off.pop(c, ()))
        if at[exit_] == c:
            verts.append(partner[exit_])
    return hamiltonian_walk(lgm.lg, verts, m.edges)


def _cycle_trail(lgm: LineGraphMap, cycle: CycleWalk):
    """The edges of a cycle of the base, as L(G) vertices, each entering the
    cycle vertex of the same position."""
    c = cycle.vertices[:-1]
    return [lgm.lg_vertex(c[i - 1], c[i]) for i in range(len(c))]


# ---------------------------------------------------------------------------
# Dominating-cycle extension (subcubic bases)


def extend_via_dominating_cycle(lgm: LineGraphMap, m: Matching,
                                d: CycleWalk) -> CycleWalk:
    """Turn a dominating cycle of the base into a hamiltonian cycle of the
    line graph containing the perfect matching, by walking the clique of
    each cycle vertex.  Requires max base degree 3."""
    g = lgm.base
    if g.max_degree() > 3:
        raise PreconditionError("dominating-cycle extension needs max degree 3")
    if not validate_walk(g, closed(d.vertices, kinds={"cycle", "dominating"})):
        raise PreconditionError("d is not a dominating cycle of the base")
    stray = _matching_centers(lgm, m) - d.touched
    if stray:
        raise PreconditionError(f"a 2-path of the matching is centred at "
                                f"the untouched vertex {min(stray)}")
    return _lay_out(lgm, m, _cycle_trail(lgm, d))


def extend_matching_subcubic(lgm: LineGraphMap, m: Matching,
                             max_nodes=0) -> SearchResult:
    """Find a dominating cycle whose untouched vertices are the centre of no
    2-path of the matching, then extend; absence certifies (by the converse
    direction of the correspondence) that the matching is non-extendable."""
    g = lgm.base
    if g.max_degree() > 3:
        raise PreconditionError("subcubic extension requires max degree 3")
    centers = _matching_centers(lgm, m)
    res = find_dominating_cycle(g, allowed_untouched=set(range(g.n)) - centers,
                                max_nodes=max_nodes)
    if res.outcome != FOUND:
        return res
    # the cycle leaves untouched only vertices that centre no 2-path of m
    walk = _lay_out(lgm, m, _cycle_trail(lgm, res.walk))
    return SearchResult(FOUND, walk, res.nodes)


def kotzig_partition(lgm: LineGraphMap, m: Matching, max_nodes=0):
    """For a cubic hamiltonian base g: two edge-disjoint hamiltonian cycles
    of L(g) covering E(L(g)), the first containing m, and the node count of
    the search for a hamiltonian cycle of g, as (h1, h2, nodes).  Raises
    BudgetError when `max_nodes` stops that search."""
    g = lgm.base
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise PreconditionError("kotzig partition requires a cubic base")
    if len(g.edges) % 2:
        raise ParityError("kotzig partition requires even base size")
    _matching_centers(lgm, m)  # m must be perfect before any search
    res = find_hamiltonian_cycle(g, max_nodes=max_nodes)
    if res.outcome == INCONCLUSIVE:
        raise BudgetError("hamiltonian cycle search of the base ran out of nodes")
    if res.outcome == ABSENT:
        raise PreconditionError("base graph is not hamiltonian")
    h1 = _lay_out(lgm, m, _cycle_trail(lgm, res.walk))
    rest = Graph(lgm.lg.n, lgm.lg.edges - set(h1.edge_seq))
    # the complement's Euler tour, re-checked as a hamiltonian cycle of L(g)
    tour = euler_tour(rest) if rest.is_connected() else None
    h2 = hamiltonian_walk(lgm.lg, tour.vertices[:-1] if tour else ())
    return h1, h2, res.nodes


# ---------------------------------------------------------------------------
# Properly coloured cycles (complete and complete bipartite bases)


def colouring_from_matching(lgm: LineGraphMap, m: Matching) -> EdgeColouring:
    """One colour per matching edge; the two base edges of its 3-path get
    that colour.  Every colour class has exactly two edges, so no vertex is
    incident to three same-coloured edges (Daykin's hypothesis)."""
    decomp = matching_to_p3(lgm, m)
    colour = {}
    for cid, (_center, (e1, e2)) in enumerate(decomp.paths):
        colour[e1] = cid
        colour[e2] = cid
    return EdgeColouring(colour=colour)


def daykin_hypothesis_holds(g: Graph, c: EdgeColouring):
    """No vertex incident to more than two edges of one colour.  An edge of
    g that c does not colour raises KeyError."""
    colour = c.colour
    ends = {}         # (vertex, colour) -> the edges of that colour there
    for u, v in g.edges:
        col = colour[u, v]
        ends[u, col] = ends.get((u, col), 0) + 1
        ends[v, col] = ends.get((v, col), 0) + 1
    return max(ends.values(), default=0) <= 2


class _HamiltonianWalk:
    """The hamiltonian cycles of g as vertex lists from vertex 0, in
    lexicographic order and once per direction; with a colouring, only the
    properly coloured ones.  Iterating runs a depth-first search over the
    sorted adjacency with an explicit stack.  `nodes` counts the vertices
    put on the path, the root and each full path's last vertex included;
    `capped` is set when the walk stops at a nonzero `max_nodes`."""

    def __init__(self, g: Graph, c: EdgeColouring | None = None, max_nodes=0):
        self.g, self.c, self.max_nodes = g, c, max_nodes
        self.nodes, self.capped = 0, False

    def _node(self):
        self.nodes += 1
        self.capped = bool(self.max_nodes) and self.nodes > self.max_nodes
        return not self.capped

    def __iter__(self):
        g, c, n = self.g, self.c, self.g.n
        if n < 3 or not self._node():
            return
        # colour[u][w]: the colour of edge uw, read once per walk
        colour = [{} for _ in range(n)]
        for (a, b), col in c.colour.items() if c else ():
            colour[a][b] = colour[b][a] = col
        # path[i] is entered by a step of colour cols[i]; tries[i] iterates
        # the neighbours of path[i] not yet tried.
        path, cols, tries = [0], [None], [iter(g.adjacency[0])]
        visited = [True] + [False] * (n - 1)
        while tries:
            u, last = path[-1], cols[-1]
            for w in tries[-1]:
                if visited[w]:
                    continue
                col = None if c is None else colour[u][w]
                if c is None or col != last:
                    break
            else:
                tries.pop()
                cols.pop()
                visited[path.pop()] = False
                continue
            if not self._node():
                return
            if len(path) + 1 < n:
                path.append(w)
                cols.append(col)
                tries.append(iter(g.adjacency[w]))
                visited[w] = True
            elif g.has_edge(w, 0) and (c is None
                                       or colour[w][0] not in (col, cols[1])):
                yield path + [w]


def find_pc_hamiltonian_cycle(g: Graph, c: EdgeColouring,
                              max_nodes=0) -> SearchResult:
    """Hamiltonian cycle with no two consecutive edges sharing a colour,
    by exhaustive colour-aware backtracking."""
    search = _HamiltonianWalk(g, c, max_nodes)
    got = next(iter(search), None)
    if got is None:
        return SearchResult(INCONCLUSIVE if search.capped else ABSENT, None,
                            search.nodes)
    walk = hamiltonian_walk(g, got)
    if not is_properly_coloured(walk, c):
        raise WitnessError(f"invalid properly coloured cycle {got}")
    return SearchResult(FOUND, walk, search.nodes)


def is_properly_coloured(walk: CycleWalk, c: EdgeColouring):
    es = walk.edge_seq
    k = len(es)
    return all(c.of(*es[i]) != c.of(*es[(i + 1) % k]) for i in range(k))


def enumerate_hamiltonian_cycles(g: Graph):
    """All hamiltonian cycles up to rotation and reflection (anchored at
    vertex 0, direction fixed by second < last)."""
    return (p for p in _HamiltonianWalk(g) if p[1] < p[-1])


def count_pc_hamiltonian_cycles(g: Graph, c: EdgeColouring, limit=0):
    """Number of properly coloured hamiltonian cycles (up to symmetry);
    stops early at `limit` when nonzero."""
    count = 0
    for p in _HamiltonianWalk(g, c):
        if p[1] < p[-1]:
            count += 1
            if limit and count >= limit:
                break
    return count


def _extend_via_pc_search(lgm: LineGraphMap, m: Matching,
                          max_nodes) -> SearchResult:
    colouring = colouring_from_matching(lgm, m)
    pc = find_pc_hamiltonian_cycle(lgm.base, colouring, max_nodes=max_nodes)
    if pc.outcome != FOUND:
        return pc
    walk = _lay_out(lgm, m, _cycle_trail(lgm, pc.walk))
    return SearchResult(FOUND, walk, pc.nodes)


def extend_matching_complete(lgm: LineGraphMap, m: Matching,
                             max_nodes=0) -> SearchResult:
    """Extend a perfect matching of L(K_n), n = 0 or 1 mod 4, to a
    hamiltonian cycle via a properly coloured hamiltonian cycle of K_n.
    A search stopped by `max_nodes` is inconclusive."""
    n = lgm.base.n
    if len(lgm.base.edges) != n * (n - 1) // 2:
        raise PreconditionError(f"base graph is not K_{n}")
    if n % 4 not in (0, 1):
        raise ParityError(f"K_{n} has an odd number of edges; no perfect matching")
    if n == 4:
        return extend_matching_subcubic(lgm, m, max_nodes=max_nodes)
    res = _extend_via_pc_search(lgm, m, max_nodes)
    if res.outcome == ABSENT:
        raise StructureError(f"K_{n} has no properly coloured hamiltonian "
                             f"cycle under the matching's colouring")
    return res


def extend_matching_bipartite(lgm: LineGraphMap, m: Matching,
                              max_nodes=0) -> SearchResult:
    """Same pipeline on K_{k,k}, k = n/2.  The properly-coloured-cycle
    guarantee only kicks in for k >= 50, so at desk scale a failed search is
    reported as inconclusive, never as non-extendable."""
    g = lgm.base
    k = g.n // 2
    # A bipartite graph on 2k vertices has at most k * k edges, and only
    # K_{k,k} reaches that.
    if g.n != 2 * k or len(g.edges) != k * k or _bipartition(g) is None:
        raise PreconditionError(f"base graph is not K_{{{k},{k}}}")
    if k % 2:
        raise ParityError(f"K_{{{k},{k}}} has an odd number of edges")
    if k <= 3:
        return extend_matching_subcubic(lgm, m, max_nodes=max_nodes)
    res = _extend_via_pc_search(lgm, m, max_nodes)
    # absence of a PC cycle below the k >= 50 regime proves nothing
    if res.outcome == ABSENT:
        return SearchResult(INCONCLUSIVE, None, res.nodes)
    return res


# ---------------------------------------------------------------------------
# Arbitrarily traceable bases: constrained Euler tour


def extend_matching_arb_traceable(lgm: LineGraphMap, m: Matching,
                                  max_nodes=0) -> SearchResult:
    """For a base arbitrarily traceable from some vertex: an Euler tour of
    the base in which the two edges of every 3-path are consecutive.  It is
    a closed trail of the base whose segments are single (entry, exit)
    pairs, so `_lay_out` reads it edge by edge as a hamiltonian cycle of
    the line graph containing the matching.

    Such tours are the Euler tours of the split graph: one vertex per 3-path
    of m's decomposition, one per base vertex that ends some 3-path, and for
    each base edge of the 3-path centred at c an edge joining the path to
    the edge's other end.  A path vertex has degree 2 and a base vertex x
    degree deg(x) - 2 * (3-paths centred at x), even on an eulerian base, so
    the tour exists exactly when the split graph is connected.  A
    disconnected split graph certifies absence without a search, under any
    budget; such matchings do exist (pair two 3-paths at a degree-4 cut
    vertex).  Absence does not by itself certify that the matching is
    non-extendable in the line graph.  The tour takes one node per base
    edge; a `max_nodes` below that is inconclusive."""
    g = lgm.base
    if not any(is_arbitrarily_traceable(g, v) for v in range(g.n)):
        raise PreconditionError("base is not arbitrarily traceable from "
                                "any vertex")
    if len(g.edges) % 2:
        raise ParityError("even base size required")
    paths = matching_to_p3(lgm, m).paths
    ends = {}   # base vertex -> split-graph vertex, after the path vertices
    step = {}   # split-graph edge -> line-graph vertex of its base edge
    for p, (c, pair) in enumerate(paths):
        for e in pair:
            end = ends.setdefault(e[0] if e[1] == c else e[1],
                                  len(paths) + len(ends))
            step[(p, end)] = lgm.lg_vertex(*e)
    split = Graph(len(paths) + len(ends), frozenset(step))
    if not split.is_connected():
        return SearchResult(ABSENT, None, 0)
    if max_nodes and max_nodes < len(g.edges):
        return SearchResult(INCONCLUSIVE, None, 0)
    trail = [step[e] for e in euler_tour(split).edge_seq]
    return SearchResult(FOUND, _lay_out(lgm, m, trail), len(g.edges))


# ---------------------------------------------------------------------------
# Ore-type sufficient conditions


def _bipartition(g: Graph):
    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return None
    return ([v for v in range(g.n) if colour[v] == 0],
            [v for v in range(g.n) if colour[v] == 1])


def lasvergnas_condition(g: Graph):
    """Degree-sum bound n/2 + 2 over non-adjacent cross pairs of a balanced
    bipartite graph of order n.

    With n/2 + 1 the matching-extension guarantee is false (there are
    balanced bipartite graphs on 6 and 8 vertices meeting that bound whose
    perfect matchings do not all extend); n/2 + 2 is the tight bound and the
    exhaustive small-order sweep in the acceptance suite confirms it."""
    parts = _bipartition(g)
    if parts is None:
        raise StructureError("graph is not bipartite")
    u_side, v_side = parts
    if len(u_side) != len(v_side) or len(u_side) < 2:
        raise StructureError("balanced bipartition with sides >= 2 required")
    bound = g.n // 2 + 2
    for u in u_side:
        for w in v_side:
            if not g.has_edge(u, w) and g.degree(u) + g.degree(w) < bound:
                return False
    return True


def haggkvist_condition(g: Graph):
    """Degree-sum bound n + 1 over all non-adjacent pairs; order even >= 4."""
    if g.n < 4 or g.n % 2:
        raise StructureError("even order >= 4 required")
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if not g.has_edge(u, w) and g.degree(u) + g.degree(w) < g.n + 1:
                return False
    return True
