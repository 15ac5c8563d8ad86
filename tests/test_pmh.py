import hashlib
import random
from itertools import islice, permutations

import pytest

from pmhgraph import _kernel, pmh
from pmhgraph._kernel import purecore
from pmhgraph.cli import _candidate
from pmhgraph.constructions import prop6_construct, remark1_reduction
from pmhgraph.corpus import connected_graphs_upto, connected_subcubic_upto
from pmhgraph.cycles import (FOUND, closed, find_hamiltonian_cycle,
                             hamiltonian_walk, is_arbitrarily_traceable,
                             validate_walk)
from pmhgraph.errors import (CapacityError, ParityError, PreconditionError,
                             StructureError, WitnessError)
from pmhgraph.graph_core import Graph, make_named_graph, parse_graph6
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import (Matching, enumerate_perfect_matchings,
                               make_matching, matching_to_p3)
from pmhgraph.pmh import (EdgeColouring, _cycle_trail, _lay_out,
                          _matching_centers,
                          colouring_from_matching,
                          count_pc_hamiltonian_cycles,
                          daykin_hypothesis_holds,
                          enumerate_hamiltonian_cycles,
                          extend_matching_arb_traceable,
                          extend_matching_bipartite, extend_matching_complete,
                          extend_matching_subcubic,
                          extend_via_dominating_cycle,
                          find_pc_hamiltonian_cycle, haggkvist_condition,
                          is_pmh, is_pmh_line, is_properly_coloured,
                          kotzig_partition, lasvergnas_condition)

from conftest import euler_matching, on_twin, random_graph, two_squares

try:
    from pmhgraph._kernel import _fastcore
except ImportError:
    _fastcore = None

KERNELS = [purecore] + ([] if _fastcore is None else [_fastcore])


def test_is_pmh_verdicts(petersen):
    lgm = build_line_graph(make_named_graph("complete", [4]))
    assert is_pmh(lgm.lg).is_pmh
    v = is_pmh(petersen)
    assert v.status == "not_pmh" and v.witness is not None
    # the witness matching really has no containing hamiltonian cycle
    res = find_hamiltonian_cycle(petersen, forced=sorted(v.witness.edges))
    assert res.outcome == "absent"
    # no perfect matchings at all: vacuous
    v = is_pmh(make_named_graph("cycle", [5]))
    assert v.is_pmh and v.vacuous
    v = is_pmh(petersen, max_nodes=3)
    assert v.status == "inconclusive"
    assert v.searches == v.matchings_tested > 0


def _walk_from_trail(lgm, pairs, m):
    """The hamiltonian cycle of L(G) through m that a trail hit promises,
    laid out from the trail record alone: the record's (entry, exit) pairs,
    which are line-graph edges, chain the trail's edges into one cycle, and
    `_lay_out` walks its segments and re-checks the result."""
    nbrs = {}
    for a, b in pairs:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    order = [min(nbrs)] if nbrs else []
    while len(order) < len(nbrs):
        order.append(next(y for y in nbrs[order[-1]]
                          if len(order) < 2 or y != order[-2]))
    return _lay_out(lgm, m, order)


class _RecordingScan:
    """A kernel scan that records each matching it yields, with its
    position, and each cycle added after it."""

    def __init__(self, scan, log):
        self.scan, self.log = scan, log

    def __iter__(self):
        for pairs in self.scan:
            self.log.append((self.scan.tested, list(pairs), []))
            yield pairs

    @property
    def tested(self):
        return self.scan.tested

    def add(self, cycle):
        self.log[-1][2].append(cycle)
        return self.scan.add(cycle)


@pytest.fixture
def cross_check(monkeypatch):
    """is_pmh_line(lgm) against is_pmh(lgm.lg).  The scan's trails are
    rebuilt by the reference trail builder from the cycles added to it.
    Every matching of L(G) is tested against the trails held when the scan
    reached it: it must be yielded exactly when none fits, and each fit is
    laid out into its cycle by `_walk_from_trail`, whose `_lay_out` re-checks
    the cycle, so no hit goes uncertified."""
    real_scan = _kernel.pm_scan

    def check(lgm):
        log = []
        monkeypatch.setattr(_kernel, "pm_scan", lambda adj, centre:
                            _RecordingScan(real_scan(adj, centre), log))
        fast = is_pmh_line(lgm)
        monkeypatch.setattr(_kernel, "pm_scan", real_scan)
        oracle = is_pmh(lgm.lg)
        assert (fast.status, fast.witness, fast.matchings_tested,
                fast.vacuous) == (oracle.status, oracle.witness,
                                  oracle.matchings_tested, oracle.vacuous)
        assert fast.nodes <= oracle.nodes
        assert fast.searches == len(log) <= oracle.searches
        assert oracle.searches == oracle.matchings_tested

        h = lgm.lg
        edges = [(v, w) for v, a in enumerate(h.adjacency) for w in a if w > v]
        eid = {e: k for k, e in enumerate(edges)}
        centre = pmh._centres(lgm)
        trails = []
        for i, m in enumerate(enumerate_perfect_matchings(h), 1):
            if i > fast.matchings_tested:
                break
            chosen = sum(1 << eid[e] for e in m.edges)
            fits = [t for t in trails if purecore._fits(t, chosen, centre)]
            for _refused, _off, pairs, _segments in fits:
                pairs = [edges[e] for e in purecore._bits(pairs)]
                _walk_from_trail(lgm, pairs, m)
            if log and log[0][0] == i:
                _i, pairs, added = log.pop(0)
                assert not fits and sorted(m.edges) == pairs
                trails += [purecore._trail(c, eid, centre) for c in added]
            else:
                assert fits
        assert not log
        return fast

    return check


def test_is_pmh_line_equals_oracle_on_small_graphs(cross_check):
    verdicts = [cross_check(build_line_graph(g))
                for g in connected_graphs_upto(6)
                if g.n >= 3 and len(g.edges) % 2 == 0]
    assert len(verdicts) == 70
    assert sum(v.matchings_tested for v in verdicts) == 6642
    assert sum(v.searches for v in verdicts) == 282


def test_is_pmh_line_equals_oracle_on_survey_graphs(cross_check):
    """The graphs `survey --problem maxdeg4` checks on the corpus up to 7
    vertices."""
    verdicts = [cross_check(build_line_graph(g))
                for g in connected_graphs_upto(7)
                if _candidate(g, "maxdeg4", 0) == FOUND]
    assert len(verdicts) == 66 and {v.status for v in verdicts} == {"pmh"}
    assert sum(v.matchings_tested for v in verdicts) == 6580
    assert sum(v.searches for v in verdicts) == 392


@pytest.mark.parametrize("name, params", [
    ("complete", [4]), ("cube", []), ("complete", [5]), ("bipartite", [4, 4])])
def test_is_pmh_line_equals_oracle_on_named_graphs(cross_check, name, params):
    assert cross_check(build_line_graph(make_named_graph(name, params))).is_pmh


def test_is_pmh_line_finds_the_criterion_07_counterexample(cross_check):
    out, _keep, _tmap = prop6_construct(make_named_graph("petersen", []), 0)
    v = cross_check(build_line_graph(out))
    assert v.status == "not_pmh" and v.matchings_tested == v.searches == 1


@pytest.mark.parametrize("graph6, tested, searches",
                         [("G?qaf_", 7, 2), ("G?ovf_", 46, 3)])
def test_is_pmh_line_certifies_order_8_counterexamples(cross_check, graph6,
                                                       tested, searches):
    """Two hamiltonian graphs of order 8 and maximum degree 4 whose line
    graphs are not PMH: the search after the last miss is exhausted."""
    lgm = build_line_graph(parse_graph6(graph6))
    v = cross_check(lgm)
    assert (v.status, v.matchings_tested, v.searches) == ("not_pmh", tested,
                                                          searches)
    res = find_hamiltonian_cycle(lgm.lg, forced=sorted(v.witness.edges))
    assert res.outcome == "absent"


def test_is_pmh_line_on_coxeter():
    v = is_pmh_line(build_line_graph(make_named_graph("coxeter", [])))
    assert v.status == "pmh" and v.matchings_tested == 32768
    assert v.searches == 16 and v.nodes < 10_211_097


def test_is_pmh_line_refuses_a_graph_above_the_kernel_bound():
    """L(C_n) is C_n; above the bound the scan is refused like any search."""
    n = _kernel.MAX_VERTICES + 1
    lgm = build_line_graph(Graph.from_edges(n, [(i, (i + 1) % n)
                                                for i in range(n)]))
    with pytest.raises(CapacityError, match=f"{n} vertices"):
        is_pmh_line(lgm)


def test_is_pmh_line_caches_no_trail_under_a_spent_budget():
    lgm = build_line_graph(make_named_graph("complete", [4]))
    v = is_pmh_line(lgm, max_nodes=1)
    assert v.status == "inconclusive"
    assert v.searches == v.matchings_tested == 8


def test_extend_via_dominating_cycle_cases():
    g = make_named_graph("cube", [])
    lgm = build_line_graph(g)
    d = find_hamiltonian_cycle(g).walk
    for m in enumerate_perfect_matchings(lgm.lg):
        walk = extend_via_dominating_cycle(lgm, m, d)
        assert validate_walk(lgm.lg, walk) and walk.contains_edges(m.edges)


def test_extend_via_dominating_cycle_preconditions(petersen):
    g = make_named_graph("cube", [])
    lgm = build_line_graph(g)
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(PreconditionError):
        extend_via_dominating_cycle(lgm, m, closed([0, 1, 2]))  # not dominating
    # the hexagon round two antipodal corners dominates the cube, but a
    # matching with a 2-path centred at one of them does not fit it
    near = {x for w in g.adjacency[0] for x in (w, *g.adjacency[w])}
    corners = (0, next(v for v in range(g.n) if v not in near))
    rest = [v for v in range(g.n) if v not in corners]
    hexagon = [rest[0]]
    while len(hexagon) < len(rest):
        hexagon.append(next(w for w in g.adjacency[hexagon[-1]]
                            if w in rest and w not in hexagon))
    d = closed(hexagon, kinds={"cycle", "dominating"})
    stray = next(mm for mm in enumerate_perfect_matchings(lgm.lg)
                 if any(lgm.centre[tuple(sorted(e))] in corners
                        for e in mm.edges))
    with pytest.raises(PreconditionError, match="untouched vertex"):
        extend_via_dominating_cycle(lgm, stray, d)
    k5 = build_line_graph(make_named_graph("complete", [5]))
    mm = next(enumerate_perfect_matchings(k5.lg))
    with pytest.raises(PreconditionError):
        extend_via_dominating_cycle(k5, mm, closed(list(range(5))))  # degree > 3


def test_extend_subcubic_agrees_with_oracle():
    for name, params in [("complete", [4]), ("cube", [])]:
        lgm = build_line_graph(make_named_graph(name, params))
        for m in enumerate_perfect_matchings(lgm.lg):
            res = extend_matching_subcubic(lgm, m)
            oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
            assert res.outcome == oracle.outcome == "found"
            assert res.walk.contains_edges(m.edges)


# sha256 of repr((outcome, walk vertices, nodes)) of `extend_matching_subcubic`
# on each perfect matching of the line graphs of the 418 connected subcubic
# even-size bases up to 9 vertices, in corpus and enumeration order, with one
# fresh base graph per base whose dominating-cycle memo serves its matchings.
SUBCUBIC_DIGEST = "a543df821cbc35bcda1c05551eff5c0f81e4165c7896abcda4751d593e89273e"


def test_subcubic_memo_changes_no_outcome():
    """One base graph object per base, whose dominating-cycle searches are
    kept across its matchings, gives each matching the outcome and walk of
    a fresh base graph, at no more nodes; its outcomes, walks and nodes are
    pinned by SUBCUBIC_DIGEST."""
    bases = connected_subcubic_upto(9, even_size_only=True)
    assert len(bases) == 418
    matchings = 0
    digest = hashlib.sha256()
    for g in bases:
        shared = build_line_graph(Graph(g.n, g.edges))
        for m in enumerate_perfect_matchings(shared.lg):
            kept = extend_matching_subcubic(shared, m)
            fresh = extend_matching_subcubic(
                build_line_graph(Graph(g.n, g.edges)), m)
            assert (kept.outcome, kept.walk) == (fresh.outcome, fresh.walk)
            assert kept.nodes <= fresh.nodes
            digest.update(repr((kept.outcome, kept.walk and kept.walk.vertices,
                                kept.nodes)).encode())
            matchings += 1
    assert matchings == 3013
    assert digest.hexdigest() == SUBCUBIC_DIGEST


def test_subcubic_searches_coxeter_itself_once(kernel_calls):
    """Coxeter is not hamiltonian, so each matching of its line graph first
    tries U = {}; that search of the whole base runs for the first only."""
    lgm = build_line_graph(make_named_graph("coxeter", []))
    for m in islice(enumerate_perfect_matchings(lgm.lg), 64):
        res = extend_matching_subcubic(lgm, m)
        assert res and res.walk.contains_edges(m.edges)
    assert kernel_calls.count(28) == 1 and len(kernel_calls) < 64


def test_extend_subcubic_certifies_absence():
    # two squares sharing a vertex has degree 4, so go through a subcubic
    # non-extendable case instead: the 28-vertex triangle-expanded Petersen
    # is exercised in acceptance; here check the precondition path
    lgm = build_line_graph(make_named_graph("complete", [5]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(PreconditionError):
        extend_matching_subcubic(lgm, m)


def test_kotzig_partition_properties():
    for name in ("complete", "cube"):
        g = make_named_graph(name, [4] if name == "complete" else [])
        lgm = build_line_graph(g)
        for m in enumerate_perfect_matchings(lgm.lg):
            h1, h2, nodes = kotzig_partition(lgm, m)
            assert nodes == find_hamiltonian_cycle(g).nodes > 0
            assert validate_walk(lgm.lg, h1) and validate_walk(lgm.lg, h2)
            assert h1.contains_edges(m.edges)
            e1, e2 = set(h1.edge_seq), set(h2.edge_seq)
            assert e1.isdisjoint(e2) and e1 | e2 == set(lgm.lg.edges)


def test_kotzig_preconditions(petersen):
    lgm = build_line_graph(make_named_graph("cube", []))
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(ParityError):
        kotzig_partition(build_line_graph(make_named_graph("prism", [])),
                         m)  # odd size
    with pytest.raises(PreconditionError):
        kotzig_partition(build_line_graph(make_named_graph("cycle", [6])),
                         m)  # not cubic


def test_colouring_from_matching():
    lgm = build_line_graph(make_named_graph("complete", [5]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    c = colouring_from_matching(lgm, m)
    assert set(c.colour) == set(lgm.base.edges)
    per_colour = {}
    for e, col in c.colour.items():
        per_colour.setdefault(col, []).append(e)
    assert all(len(v) == 2 for v in per_colour.values())
    assert daykin_hypothesis_holds(lgm.base, c)


def _daykin_per_vertex(g, c):
    """Daykin's hypothesis read vertex by vertex, one `EdgeColouring.of` per
    adjacency entry."""
    for v in range(g.n):
        counts = {}
        for w in g.adjacency[v]:
            col = c.of(v, w)
            counts[col] = counts.get(col, 0) + 1
            if counts[col] > 2:
                return False
    return True


def test_daykin_hypothesis_agrees_with_the_per_vertex_reading(rng):
    """The one pass over the edges answers as the per-vertex reading on
    random colourings with one to four colours, holding and failing; an
    uncoloured edge raises KeyError."""
    seen = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10), rng.choice([0.3, 0.6, 0.9]))
        colours = rng.randint(1, 4)
        c = EdgeColouring({e: rng.randrange(colours) for e in g.edges})
        want = _daykin_per_vertex(g, c)
        assert daykin_hypothesis_holds(g, c) == want, (g, c)
        seen.add(want)
    assert seen == {True, False}
    k4 = make_named_graph("complete", [4])
    with pytest.raises(KeyError):
        daykin_hypothesis_holds(k4, EdgeColouring(
            {e: 0 for e in sorted(k4.edges)[1:]}))


def test_pc_cycle_search():
    lgm = build_line_graph(make_named_graph("complete", [5]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    c = colouring_from_matching(lgm, m)
    res = find_pc_hamiltonian_cycle(lgm.base, c)
    assert res and is_properly_coloured(res.walk, c)
    assert count_pc_hamiltonian_cycles(lgm.base, c, limit=2) >= 2
    for cap in (1, 5):
        res = find_pc_hamiltonian_cycle(lgm.base, c, max_nodes=cap)
        assert res.outcome == "inconclusive" and res.walk is None
        assert res.nodes == cap + 1


def _directed_cycles(g):
    """Every hamiltonian cycle of g from vertex 0, once per direction, in
    lexicographic order: the brute-force oracle for the walker."""
    return [(0,) + p for p in permutations(range(1, g.n))
            if all(g.has_edge(a, b) for a, b in zip((0,) + p, p + (0,)))]


def _properly_coloured(edges, c):
    return all(c.colour[edges[i - 1]] != c.colour[edges[i]]
               for i in range(len(edges)))


def _up_to_symmetry(cycle):
    k = len(cycle)
    return min(tuple(seq[(i + j) % k] for j in range(k))
               for seq in (cycle, cycle[::-1]) for i in range(k))


@pytest.mark.parametrize("name,params", [("complete", [5]), ("complete", [6]),
                                         ("bipartite", [3, 3]),
                                         ("bipartite", [4, 4])])
def test_hamiltonian_walk_matches_brute_force(name, params):
    lgm = build_line_graph(make_named_graph(name, params))
    g = lgm.base
    cycles = _directed_cycles(g)
    found = list(enumerate_hamiltonian_cycles(g))
    assert len(found) == len(cycles) // 2
    assert {_up_to_symmetry(tuple(p)) for p in found} \
        == {_up_to_symmetry(p) for p in cycles}
    # K_6 and K_{3,3} have an odd size, so no matching: colour them by rule
    colourings = [colouring_from_matching(lgm, m)
                  for m in enumerate_perfect_matchings(lgm.lg)]
    colourings += [EdgeColouring({e: sum(e) % k for e in g.edges})
                   for k in (2, 3)]
    edges = [[(min(e), max(e)) for e in zip(p, p[1:] + p[:1])] for p in cycles]
    for c in colourings:
        pc = [p for p, es in zip(cycles, edges) if _properly_coloured(es, c)]
        res = find_pc_hamiltonian_cycle(g, c)
        if pc:
            assert res.outcome == "found" and res.walk.vertices[:-1] == pc[0]
        else:
            assert res.outcome == "absent" and res.walk is None
        assert count_pc_hamiltonian_cycles(g, c) == len(pc) // 2
        assert count_pc_hamiltonian_cycles(g, c, limit=1) == min(len(pc), 1)


def test_hamiltonian_walk_on_a_long_cycle():
    n = 1200
    g = make_named_graph("cycle", [n])
    c = EdgeColouring({(min(i, (i + 1) % n), max(i, (i + 1) % n)): i % 2
                       for i in range(n)})
    res = find_pc_hamiltonian_cycle(g, c)
    assert res.outcome == "found" and res.nodes == n
    assert res.walk.vertices == tuple(range(n)) + (0,)
    assert count_pc_hamiltonian_cycles(g, c) == 1
    assert len(list(enumerate_hamiltonian_cycles(g))) == 1


def test_enumerate_hamiltonian_cycles_count():
    # (n-1)!/2 hamiltonian cycles of K_n up to symmetry
    k5 = make_named_graph("complete", [5])
    assert sum(1 for _ in enumerate_hamiltonian_cycles(k5)) == 12
    c6 = make_named_graph("cycle", [6])
    assert sum(1 for _ in enumerate_hamiltonian_cycles(c6)) == 1


def test_lay_out_along_a_cycle_of_k5():
    """L(K5) vertex ids: (0,1)=0 (0,2)=1 (0,3)=2 (0,4)=3 (1,2)=4 (1,3)=5
    (1,4)=6 (2,3)=7 (2,4)=8 (3,4)=9.  The cycle 0-1-2-3-4 enters 0 by 3,
    1 by 0, 2 by 4, 3 by 7 and 4 by 9."""
    lgm = build_line_graph(make_named_graph("complete", [5]))
    trail = _cycle_trail(lgm, closed([0, 1, 2, 3, 4]))
    assert trail == [3, 0, 4, 7, 9]
    # at 0 the lone (entry, exit) pair (3, 0) is the whole segment; at 1
    # the off-trail pair (5, 6) comes in ascending order; at 2 the entry's
    # partner comes first (4, 1) and the exit's last (8, 7); at 3 the
    # exit's partner comes before the exit (2, 9)
    m = make_matching(lgm.lg, [(0, 3), (5, 6), (1, 4), (7, 8), (2, 9)])
    walk = _lay_out(lgm, m, trail)
    assert walk.vertices == (3, 0, 5, 6, 4, 1, 8, 7, 2, 9, 3)
    # pairs written high end first are the same 2-paths
    flipped = Matching(frozenset((b, a) for a, b in m.edges), m.host_n)
    assert _lay_out(lgm, flipped, trail) == walk
    assert extend_matching_complete(lgm, flipped).outcome == "found"
    # the cycle's two edges at 0 paired beside the 2-path (0,2)-(0,3) at 0:
    # the one segment at 0 is filled, so that 2-path has nowhere to go
    misfit = make_matching(lgm.lg, [(0, 3), (1, 2), (4, 5), (6, 8), (7, 9)])
    with pytest.raises(WitnessError):
        _lay_out(lgm, misfit, trail)


def test_each_constructed_cycle_is_rechecked_by_the_kernel(monkeypatch):
    """`_lay_out`, the second cycle of `kotzig_partition` and
    `find_pc_hamiltonian_cycle` each raise WitnessError when
    `_kernel.is_cycle` refuses their cycle."""
    k5 = build_line_graph(make_named_graph("complete", [5]))
    m = make_matching(k5.lg, [(0, 3), (5, 6), (1, 4), (7, 8), (2, 9)])
    trail = _cycle_trail(k5, closed([0, 1, 2, 3, 4]))
    colouring = colouring_from_matching(k5, m)
    cube = build_line_graph(make_named_graph("cube", []))
    mc = next(enumerate_perfect_matchings(cube.lg))
    real = _kernel.is_cycle
    # each passes while the kernel accepts
    _lay_out(k5, m, trail)
    assert find_pc_hamiltonian_cycle(k5.base, colouring)
    kotzig_partition(cube, mc)
    asked = []

    def refuse(n, edges, cyc, forced=()):
        asked.append((n, len(cyc), sorted(forced)))
        return False

    monkeypatch.setattr(_kernel, "is_cycle", refuse)
    with pytest.raises(WitnessError):
        _lay_out(k5, m, trail)
    assert asked == [(10, 10, sorted(m.edges))]
    with pytest.raises(WitnessError):
        find_pc_hamiltonian_cycle(k5.base, colouring)
    assert asked[1:] == [(5, 5, [])]
    # the base search and the first cycle pass; the second cycle, the only
    # check on L(cube) with no forced pair, is refused
    monkeypatch.setattr(_kernel, "is_cycle", lambda n, edges, cyc, forced=():
                        (n != cube.lg.n or bool(forced))
                        and real(n, edges, cyc, forced))
    with pytest.raises(WitnessError):
        kotzig_partition(cube, mc)


@pytest.mark.parametrize("impl", KERNELS, ids=lambda k: k.BACKEND)
@pytest.mark.parametrize("base", [("complete", [5]), ("bipartite", [6, 6])],
                         ids=["L(K5)", "L(K6,6)"])
def test_laid_out_cycle_with_two_vertices_swapped_is_refused(impl, base,
                                                             monkeypatch):
    """The partner of a laid-out cycle's first vertex is swapped with the
    vertex half way round, so the matching pair is no step: each twin
    refuses it, on a sparse host (L(K5), 3 edges per vertex) and on a
    denser one (L(K_{6,6}), 5 per vertex)."""
    on_twin(monkeypatch, impl)
    lgm = build_line_graph(make_named_graph(*base))
    m = euler_matching(lgm, random.Random(6))
    route = (extend_matching_complete if base[0] == "complete"
             else extend_matching_bipartite)
    res = route(lgm, m)
    assert res.outcome == FOUND
    cyc = list(res.walk.vertices[:-1])
    assert hamiltonian_walk(lgm.lg, cyc, m.edges) == \
        closed(cyc, kinds={"cycle", "tour", "hamiltonian", "dominating"})
    partner = {a: b for e in m.edges for a, b in (e, e[::-1])}
    i, j = cyc.index(partner[cyc[0]]), len(cyc) // 2
    cyc[i], cyc[j] = cyc[j], cyc[i]
    assert not impl.is_cycle(lgm.lg.n, lgm.lg.edges, cyc, m.edges)
    with pytest.raises(WitnessError):
        hamiltonian_walk(lgm.lg, cyc, m.edges)


def test_bipartite_route_in_the_k50_regime(lk50):
    """Case (iii) at its smallest k: the route answers `found` on three
    Euler-tour matchings of L(K_{50,50})."""
    rng = random.Random(50)
    for _ in range(3):
        m = euler_matching(lk50, rng)
        res = extend_matching_bipartite(lk50, m)
        assert res.outcome == FOUND
        assert validate_walk(lk50.lg, res.walk)
        assert res.walk.contains_edges(m.edges)


def test_matching_centres_are_those_of_the_decomposition():
    """`_matching_centers` reads `lgm.centre`: the centres of
    `matching_to_p3`, and its errors for a matching that is not perfect or
    holds a pair that is no edge."""
    for name, params in (("complete", [4]), ("cube", []), ("complete", [5])):
        lgm = build_line_graph(make_named_graph(name, params))
        for m in islice(enumerate_perfect_matchings(lgm.lg), 40):
            flipped = Matching(frozenset(e[::-1] for e in m.edges), m.host_n)
            want = {c for c, _pair in matching_to_p3(lgm, m).paths}
            assert _matching_centers(lgm, m) == want
            assert _matching_centers(lgm, flipped) == want
    k4 = build_line_graph(make_named_graph("complete", [4]))
    for bad in (Matching(frozenset({(0, 1)}), 6),
                Matching(frozenset({(0, 1), (2, 4), (3, 5)}), 7),
                Matching(frozenset({(5, 0), (1, 4), (2, 3)}), 6),
                Matching(frozenset({(0, 5), (4, 1), (3, 2)}), 6)):
        with pytest.raises(PreconditionError) as want:
            matching_to_p3(k4, bad)
        with pytest.raises(PreconditionError) as got:
            _matching_centers(k4, bad)
        assert str(got.value) == str(want.value)


def test_matching_pair_that_is_no_line_graph_edge():
    """On L(K4) the pair (0, 5) joins the base edges (0,1) and (2,3), which
    share no vertex: every route refuses it before searching."""
    lgm = build_line_graph(make_named_graph("complete", [4]))
    m = Matching(frozenset({(0, 5), (1, 4), (2, 3)}), 6)
    for route in (matching_to_p3, extend_matching_subcubic,
                  extend_matching_complete, kotzig_partition,
                  remark1_reduction):
        with pytest.raises(PreconditionError, match=r"\(0,5\)"):
            route(lgm, m)


def test_overlapping_pairs_are_no_perfect_matching():
    """The first perfect matching of L(cube) plus one more edge of L(cube)
    is 7 pairs covering all 12 vertices: each route refuses it before
    searching, naming a vertex on two pairs."""
    lgm = build_line_graph(make_named_graph("cube", []))
    m = next(enumerate_perfect_matchings(lgm.lg))
    a, b = min(lgm.lg.edges - m.edges)
    bad = Matching(m.edges | {(a, b)}, lgm.lg.n)
    assert len(bad.edges) == 7 and len(bad.covered()) == 12
    assert not bad.is_perfect()
    for route in (matching_to_p3, extend_matching_subcubic, kotzig_partition,
                  remark1_reduction):
        with pytest.raises(PreconditionError,
                           match=f"^matching edges collide at vertex {a}$"):
            route(lgm, bad)


def test_extend_complete():
    lgm = build_line_graph(make_named_graph("complete", [5]))
    for m in enumerate_perfect_matchings(lgm.lg):
        walk = extend_matching_complete(lgm, m).walk
        assert validate_walk(lgm.lg, walk) and walk.contains_edges(m.edges)
        break
    with pytest.raises(ParityError):
        extend_matching_complete(
            build_line_graph(make_named_graph("complete", [6])), m)
    # the base must be K_n itself: K_5 minus an edge is refused
    k5_minus = Graph.from_edges(5, set(lgm.base.edges) - {(0, 1)})
    with pytest.raises(PreconditionError):
        extend_matching_complete(build_line_graph(k5_minus), m)
    # the shape comes first: C6 is refused as no K_6, not for K_6's parity
    c6 = build_line_graph(make_named_graph("cycle", [6]))
    with pytest.raises(PreconditionError, match="base graph is not K_6$"):
        extend_matching_complete(c6, next(enumerate_perfect_matchings(c6.lg)))


def test_extend_bipartite():
    lgm = build_line_graph(make_named_graph("bipartite", [2, 2]))
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_bipartite(lgm, m)
        assert res and res.walk.contains_edges(m.edges)
    with pytest.raises(ParityError):
        extend_matching_bipartite(
            build_line_graph(make_named_graph("bipartite", [3, 3])), m)
    # 4 vertices and 4 edges like K_{2,2}, but a triangle with a pendant edge
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        extend_matching_bipartite(build_line_graph(paw), m)
    # the shape comes first: C6 is refused as no K_{3,3}, not for its parity
    c6 = build_line_graph(make_named_graph("cycle", [6]))
    with pytest.raises(PreconditionError,
                       match=r"base graph is not K_\{3,3\}$"):
        extend_matching_bipartite(c6, next(enumerate_perfect_matchings(c6.lg)))


def test_extend_arb_traceable_bowtie():
    g = make_named_graph("bowtie", [])
    lgm = build_line_graph(g)
    outcomes = []
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, m)
        outcomes.append(res.outcome)
        assert res.walk.contains_edges(m.edges)
    assert outcomes == ["found"] * 4


def test_extend_arb_traceable_matches_oracle_on_two_squares():
    g = two_squares()
    lgm = build_line_graph(g)
    agree = []
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, m)
        oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
        assert res.outcome == oracle.outcome
        agree.append(res.outcome)
    assert agree.count("found") == 3 and agree.count("absent") == 3


def test_extend_arb_traceable_budget_on_two_squares():
    """A disconnected split graph is a certified absence under any budget;
    a tour the budget cannot lay is inconclusive."""
    lgm = build_line_graph(two_squares())
    outcomes = [extend_matching_arb_traceable(lgm, m, max_nodes=1).outcome
                for m in enumerate_perfect_matchings(lgm.lg)]
    assert sorted(outcomes) == ["absent"] * 3 + ["inconclusive"] * 3


def _base_tour(lgm, walk):
    """The closed walk of the base whose edges a line-graph walk lists."""
    es = [set(lgm.from_lg[x]) for x in walk.vertices[:-1]]
    joints = [es[i - 1] & es[i] for i in range(len(es))]
    assert all(len(j) == 1 for j in joints)
    xs = [min(j) for j in joints]
    assert all({xs[i - 1], xs[i]} == es[i - 1] for i in range(len(xs)))
    return closed(xs, kinds={"tour", "euler"})


def test_extend_arb_traceable_sweep_small_graphs():
    """Every connected even-size graph up to 7 vertices that is arbitrarily
    traceable from some vertex, with every perfect matching."""
    outcomes = []
    graphs = 0
    for g in connected_graphs_upto(7):
        if g.n < 3 or len(g.edges) % 2 or not any(
                is_arbitrarily_traceable(g, v) for v in range(g.n)):
            continue
        graphs += 1
        lgm = build_line_graph(g)
        for m in enumerate_perfect_matchings(lgm.lg):
            res = extend_matching_arb_traceable(lgm, m)
            outcomes.append(res.outcome)
            if res.outcome == "found":
                assert res.walk.contains_edges(m.edges)
                assert validate_walk(g, _base_tour(lgm, res.walk))
                assert find_hamiltonian_cycle(
                    lgm.lg, forced=sorted(m.edges)).outcome == "found"
    assert graphs == 8 and len(outcomes) == 90
    assert outcomes.count("found") == 64 and outcomes.count("absent") == 26


def test_extend_arb_traceable_preconditions():
    # K5 is eulerian, but K5 - v = K4 has cycles for every vertex v
    lgm = build_line_graph(make_named_graph("complete", [5]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(PreconditionError, match="any vertex"):
        extend_matching_arb_traceable(lgm, m)


def test_sufficient_conditions():
    assert haggkvist_condition(make_named_graph("complete", [4]))
    assert not haggkvist_condition(make_named_graph("cube", []))
    with pytest.raises(StructureError):
        haggkvist_condition(make_named_graph("cycle", [5]))
    assert lasvergnas_condition(make_named_graph("bipartite", [3, 3]))
    assert not lasvergnas_condition(make_named_graph("cycle", [6]))
    # the n/2 + 1 bound would wrongly accept this non-PMH graph
    trap = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 5),
                                (2, 4), (2, 5)])
    assert not lasvergnas_condition(trap)
    assert not is_pmh(trap).is_pmh
    with pytest.raises(StructureError):
        lasvergnas_condition(make_named_graph("complete", [4]))
    with pytest.raises(StructureError):
        lasvergnas_condition(make_named_graph("bipartite", [2, 3]))
