"""Constructive matching-extension machinery for line graphs.

Covers: the dominating-cycle extension for subcubic bases (both directions),
the two-hamiltonian-cycle partition for cubic hamiltonian bases, the
properly-coloured-cycle pipeline for complete and balanced complete
bipartite bases, the constrained-Euler-tour extension for arbitrarily
traceable bases, the Ore-type sufficient-condition predicates, and the
brute-force extendability oracle used to cross-validate everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .cycles import (ABSENT, FOUND, INCONCLUSIVE, CycleWalk, SearchResult,
                     _hamiltonian_search, closed, euler_tour,
                     find_dominating_cycle, find_hamiltonian_cycle,
                     is_arbitrarily_traceable, validate_walk)
from .errors import (BudgetError, ParityError, PreconditionError,
                     StructureError, WitnessError)
from .graph_core import Graph, make_named_graph
from .line_graph import LineGraphMap, build_line_graph
from .matching import (Matching, enumerate_perfect_matchings, matching_to_p3)


@dataclass(frozen=True)
class EdgeColouring:
    """Total map from base edges to colour ids (not necessarily proper)."""

    colour: dict

    def of(self, u, v):
        return self.colour[(min(u, v), max(u, v))]


@dataclass(frozen=True)
class PmhVerdict:
    status: str               # pmh / not_pmh / inconclusive
    vacuous: bool = False
    witness: Matching | None = None
    matchings_tested: int = 0
    nodes: int = 0
    searches: int | None = None   # kernel searches run

    def __post_init__(self):
        # the oracle runs one search per matching it tests
        if self.searches is None:
            object.__setattr__(self, "searches", self.matchings_tested)

    @property
    def is_pmh(self):
        return self.status == "pmh"


# ---------------------------------------------------------------------------
# Brute-force oracle


def is_pmh(h: Graph, max_nodes=0) -> PmhVerdict:
    """Exact extendability verdict: every perfect matching must lie in some
    hamiltonian cycle.  Graphs without perfect matchings are vacuously PMH.
    """
    tested = 0
    nodes = 0
    inconclusive = False
    # an enumerated matching is a valid forced set of h: skip the wrapper's check
    for m in enumerate_perfect_matchings(h):
        tested += 1
        res = _hamiltonian_search(h, sorted(m.edges), max_nodes)
        nodes += res.nodes
        if res.outcome == ABSENT:
            return PmhVerdict("not_pmh", witness=m, matchings_tested=tested,
                              nodes=nodes)
        if res.outcome == INCONCLUSIVE:
            inconclusive = True
    if tested == 0:
        return PmhVerdict("pmh", vacuous=True)
    if inconclusive:
        return PmhVerdict("inconclusive", matchings_tested=tested, nodes=nodes)
    return PmhVerdict("pmh", matchings_tested=tested, nodes=nodes)


# ---------------------------------------------------------------------------
# Trail cache for line graphs


def _centres(lgm: LineGraphMap):
    """The base vertex that the two ends of each edge of L(G) share, by the
    edge ids of `_kernel.pm_scan` on L(G)'s adjacency."""
    ends = lgm.from_lg
    return [ends[v][0] if ends[v][0] in ends[w] else ends[v][1]
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
    scan = _kernel.pm_scan(h.adjacency, _centres(lgm))
    searches = nodes = 0
    inconclusive = False
    for pairs in scan:
        searches += 1
        res = _hamiltonian_search(h, pairs, max_nodes)
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
    if scan.tested == 0:
        return PmhVerdict("pmh", vacuous=True)
    status = "inconclusive" if inconclusive else "pmh"
    return PmhVerdict(status, matchings_tested=scan.tested, nodes=nodes,
                      searches=searches)


# ---------------------------------------------------------------------------
# Shared helpers


def _matching_centers(lgm: LineGraphMap, m: Matching):
    """Map base vertex -> list of lg matching edges whose base 3-path is
    centered there.  Raises PreconditionError (via matching_to_p3) unless m
    is a perfect matching of the line graph."""
    idx = lgm._edge_idx
    centers = {}
    for c, (ea, eb) in matching_to_p3(lgm, m).paths:
        centers.setdefault(c, []).append((idx[ea], idx[eb]))
    return centers


def _checked_extension(lgm: LineGraphMap, m: Matching, walk: CycleWalk):
    if not (validate_walk(lgm.lg, walk) and walk.contains_edges(m.edges)):
        raise WitnessError(f"constructed walk {walk.vertices} is not a "
                           f"hamiltonian cycle through the matching")
    return walk


def stitch_clique_path(members, entry, exit_, inside_edges):
    """Alternating path through one canonical clique, from entry to exit,
    containing every matching edge inside the clique.

    Matching edges are laid out in ascending order; an edge touching the
    entry (exit) is pinned first (last) to keep the alternation.  A lone
    matching edge joining entry and exit is the whole path; with other
    matching edges beside it no such path exists.
    """
    if entry == exit_:
        raise PreconditionError("clique entry and exit must differ")
    inside = [(a, b) if a < b else (b, a) for a, b in sorted(inside_edges)]
    if not set(members).issuperset(x for e in inside for x in e):
        raise PreconditionError("matching edge leaves the clique")
    if ((entry, exit_) if entry < exit_ else (exit_, entry)) in inside:
        if len(inside) > 1:
            raise PreconditionError("entry-exit edge beside other matching edges")
        return [entry, exit_]
    first = last = None
    mids = []
    for e in inside:
        if entry in e:
            first = e
        elif exit_ in e:
            last = e
        else:
            mids.append(e)
    path = [entry]
    if first is not None:
        path.append(first[0] if first[1] == entry else first[1])
    for a, b in mids:
        path.extend((a, b))
    if last is not None:
        path.append(last[0] if last[1] == exit_ else last[1])
    path.append(exit_)
    if len(set(path)) != len(path):
        raise WitnessError(f"clique path {path} revisits a vertex")
    return path


def _stitch_along(lgm: LineGraphMap, m: Matching, centers,
                  cycle: CycleWalk) -> CycleWalk:
    """Hamiltonian cycle of the line graph through m along a cycle of the
    base: at each cycle vertex v, walk the clique Q_v from the edge entering v
    to the edge leaving it through the matching edges `centers[v]` at v."""
    cyc = cycle.vertices[:-1]
    s = len(cyc)
    verts = []
    for i, v in enumerate(cyc):
        entry = lgm.lg_vertex(cyc[i - 1], v)
        exit_ = lgm.lg_vertex(v, cyc[(i + 1) % s])
        if v not in centers:
            verts.append(entry)
            continue
        members = [lgm.lg_vertex(v, w) for w in lgm.base.adjacency[v]]
        verts.extend(stitch_clique_path(members, entry, exit_,
                                        centers[v])[:-1])
    walk = closed(verts, kinds={"cycle", "tour", "hamiltonian"})
    return _checked_extension(lgm, m, walk)


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
    return _extend_via_dominating_cycle(lgm, m, _matching_centers(lgm, m), d)


def _extend_via_dominating_cycle(lgm: LineGraphMap, m: Matching, centers,
                                 d: CycleWalk) -> CycleWalk:
    """`extend_via_dominating_cycle` for a base of max degree 3 and a `d`
    already checked as a dominating cycle of it."""
    g = lgm.base
    adj = g.adjacency
    for v in set(range(g.n)) - d.touched:
        if len(adj[v]) >= 2 and v in centers:
            raise PreconditionError(
                f"untouched vertex {v} has a matching-intersected clique")
    return _stitch_along(lgm, m, centers, d)


def extend_matching_subcubic(lgm: LineGraphMap, m: Matching,
                             max_nodes=0) -> SearchResult:
    """Find a dominating cycle whose untouched vertices all have
    matching-free cliques, then extend; absence certifies (by the converse
    direction of the correspondence) that the matching is non-extendable."""
    g = lgm.base
    if g.max_degree() > 3:
        raise PreconditionError("subcubic extension requires max degree 3")
    centers = _matching_centers(lgm, m)
    allowed = {v for v, a in enumerate(g.adjacency)
               if len(a) == 1 or (len(a) >= 2 and v not in centers)}
    res = find_dominating_cycle(g, allowed_untouched=allowed, max_nodes=max_nodes)
    if res.outcome != FOUND:
        return res
    walk = _extend_via_dominating_cycle(lgm, m, centers, res.walk)
    return SearchResult(FOUND, walk, res.nodes)


def kotzig_partition(g: Graph, m: Matching, lgm: LineGraphMap | None = None,
                     max_nodes=0):
    """For cubic hamiltonian g: two edge-disjoint hamiltonian cycles of L(g)
    covering E(L(g)), the first containing m, and the node count of the
    search for a hamiltonian cycle of g, as (h1, h2, nodes).  Raises
    BudgetError when `max_nodes` stops that search."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise PreconditionError("kotzig partition requires a cubic base")
    if len(g.edges) % 2:
        raise ParityError("kotzig partition requires even base size")
    if lgm is None:
        lgm = build_line_graph(g)
    elif lgm.base != g:
        raise PreconditionError("lgm is not the line graph of the base graph")
    centers = _matching_centers(lgm, m)  # m must be perfect before any search
    res = find_hamiltonian_cycle(g, max_nodes=max_nodes)
    if res.outcome == INCONCLUSIVE:
        raise BudgetError("hamiltonian cycle search of the base ran out of nodes")
    if res.outcome == ABSENT:
        raise PreconditionError("base graph is not hamiltonian")
    h1 = _extend_via_dominating_cycle(lgm, m, centers, res.walk)
    rest = Graph(lgm.lg.n, lgm.lg.edges - set(h1.edge_seq))
    tour = euler_tour(rest) if rest.is_connected() else None
    h2 = None if tour is None else closed(
        tour.vertices, kinds={"cycle", "tour", "hamiltonian"})
    if h2 is None or not validate_walk(lgm.lg, h2):
        raise WitnessError("complement of the extension is not a hamiltonian cycle")
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
    ec = EdgeColouring(colour=colour)
    if not daykin_hypothesis_holds(lgm.base, ec):
        raise StructureError("a vertex meets three edges of one colour")
    return ec


def daykin_hypothesis_holds(g: Graph, c: EdgeColouring):
    """No vertex incident to more than two edges of one colour."""
    for v in range(g.n):
        counts = {}
        for w in g.adjacency[v]:
            col = c.of(v, w)
            counts[col] = counts.get(col, 0) + 1
            if counts[col] > 2:
                return False
    return True


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
    walk = closed(got, kinds={"cycle", "tour", "hamiltonian"})
    if not (validate_walk(g, walk) and is_properly_coloured(walk, c)):
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
    walk = _stitch_along(lgm, m, _matching_centers(lgm, m), pc.walk)
    return SearchResult(FOUND, walk, pc.nodes)


def extend_matching_complete(n, m: Matching, lgm: LineGraphMap | None = None,
                             max_nodes=0) -> SearchResult:
    """Extend a perfect matching of L(K_n), n = 0 or 1 mod 4, to a
    hamiltonian cycle via a properly coloured hamiltonian cycle of K_n.
    A search stopped by `max_nodes` is inconclusive."""
    if n % 4 not in (0, 1):
        raise ParityError(f"K_{n} has an odd number of edges; no perfect matching")
    if lgm is None:
        lgm = build_line_graph(make_named_graph("complete", [n]))
    elif lgm.base.n != n or len(lgm.base.edges) != n * (n - 1) // 2:
        raise PreconditionError(f"base graph is not K_{n}")
    if n == 4:
        return extend_matching_subcubic(lgm, m, max_nodes=max_nodes)
    res = _extend_via_pc_search(lgm, m, max_nodes)
    if res.outcome == ABSENT:
        raise StructureError(f"K_{n} has no properly coloured hamiltonian "
                             f"cycle under the matching's colouring")
    return res


def extend_matching_bipartite(m_side, m: Matching,
                              lgm: LineGraphMap | None = None,
                              max_nodes=0) -> SearchResult:
    """Same pipeline on K_{m,m}.  The properly-coloured-cycle guarantee only
    kicks in for m >= 50, so at desk scale a failed search is reported as
    inconclusive, never as non-extendable."""
    if m_side % 2:
        raise ParityError(f"K_{{{m_side},{m_side}}} has an odd number of edges")
    if lgm is None:
        lgm = build_line_graph(make_named_graph("bipartite", [m_side, m_side]))
    # A bipartite graph on 2m vertices has at most m * m edges, and only
    # K_{m,m} reaches that.
    elif (lgm.base.n != 2 * m_side or len(lgm.base.edges) != m_side * m_side
          or _bipartition(lgm.base) is None):
        raise PreconditionError(f"base graph is not K_{{{m_side},{m_side}}}")
    if m_side <= 3:
        return extend_matching_subcubic(lgm, m, max_nodes=max_nodes)
    res = _extend_via_pc_search(lgm, m, max_nodes)
    # absence of a PC cycle below the m >= 50 regime proves nothing
    if res.outcome == ABSENT:
        return SearchResult(INCONCLUSIVE, None, res.nodes)
    return res


# ---------------------------------------------------------------------------
# Arbitrarily traceable bases: constrained Euler tour


def extend_matching_arb_traceable(lgm: LineGraphMap, v, m: Matching,
                                  max_nodes=0) -> SearchResult:
    """Euler tour of the base in which the two edges of every 3-path are
    consecutive; read as a vertex sequence of the line graph it is a
    hamiltonian cycle containing the matching.

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
    if not is_arbitrarily_traceable(g, v):
        raise PreconditionError(f"base is not arbitrarily traceable from {v}")
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
    walk = closed([step[e] for e in euler_tour(split).edge_seq],
                  kinds={"cycle", "tour", "hamiltonian"})
    return SearchResult(FOUND, _checked_extension(lgm, m, walk), len(g.edges))


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
