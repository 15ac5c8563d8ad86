from itertools import islice, permutations

import pytest

from pmhgraph import _kernel, pmh
from pmhgraph._kernel import purecore
from pmhgraph.cli import _candidate
from pmhgraph.constructions import prop6_construct
from pmhgraph.corpus import connected_graphs_upto, connected_subcubic_upto
from pmhgraph.cycles import (FOUND, closed, find_hamiltonian_cycle,
                             is_arbitrarily_traceable, validate_walk)
from pmhgraph.errors import ParityError, PreconditionError, StructureError
from pmhgraph.graph_core import Graph, make_named_graph, parse_graph6
from pmhgraph.line_graph import build_line_graph, canonical_partition
from pmhgraph.matching import enumerate_perfect_matchings, make_matching
from pmhgraph.pmh import (EdgeColouring, _checked_extension,
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
                          kotzig_partition, lasvergnas_condition,
                          stitch_clique_path)

from conftest import two_squares


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


def _walk_from_trail(lgm, segments, pairs, m):
    """The hamiltonian cycle of L(G) through m that a trail hit promises,
    laid out from the trail record alone: the record's (entry, exit) pairs
    chain the trail's edges into one cycle, and each segment at c is its
    entry, the entry's partner if centred at c, the off-trail 2-paths at c
    (in the first segment at c that a 2-path of trail edges does not fill),
    the exit's partner if centred at c, its exit.  `pairs` are line-graph
    edges."""
    def shared(a, b):
        (c,) = set(lgm.from_lg[a]) & set(lgm.from_lg[b])
        return c

    on = {x for pair in pairs for x in pair}
    partner, centre, off = {}, {}, {}
    for a, b in sorted(m.edges):
        partner[a], partner[b] = b, a
        centre[a] = centre[b] = shared(a, b)
        if a not in on and b not in on:
            off.setdefault(centre[a], []).extend((a, b))
    kinds = {"cycle", "tour", "hamiltonian"}
    if not on:
        (c,) = segments
        return closed(off[c], kinds=kinds)
    nbrs = {}
    for a, b in pairs:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    order = [min(on)]
    while len(order) < len(on):
        order.append(next(y for y in nbrs[order[-1]]
                          if len(order) < 2 or y != order[-2]))
    verts = []
    for entry, exit_ in zip(order, order[1:] + order[:1]):
        c = shared(entry, exit_)
        verts.append(entry)
        if partner[entry] == exit_:
            continue
        if centre[entry] == c:
            verts.append(partner[entry])
        verts.extend(off.pop(c, ()))
        if centre[exit_] == c:
            verts.append(partner[exit_])
    return closed(verts, kinds=kinds)


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
    turned into its cycle by `_walk_from_trail` and re-checked by
    `_checked_extension`, so no hit goes uncertified."""
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
            for _refused, _off, pairs, segments in fits:
                pairs = [edges[e] for e in purecore._bits(pairs)]
                _checked_extension(lgm, m, _walk_from_trail(lgm, segments,
                                                            pairs, m))
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


def test_subcubic_memo_changes_no_outcome():
    """One base graph object per base, whose dominating-cycle searches are
    kept across its matchings, gives each matching the outcome and walk of
    a fresh base graph, at no more nodes."""
    bases = connected_subcubic_upto(9, even_size_only=True)
    assert len(bases) == 418
    matchings = 0
    for g in bases:
        shared = build_line_graph(Graph(g.n, g.edges))
        for m in enumerate_perfect_matchings(shared.lg):
            kept = extend_matching_subcubic(shared, m)
            fresh = extend_matching_subcubic(
                build_line_graph(Graph(g.n, g.edges)), m)
            assert (kept.outcome, kept.walk) == (fresh.outcome, fresh.walk)
            assert kept.nodes <= fresh.nodes
            matchings += 1
    assert matchings == 3013


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
            h1, h2, nodes = kotzig_partition(g, m, lgm)
            assert nodes == find_hamiltonian_cycle(g).nodes > 0
            assert validate_walk(lgm.lg, h1) and validate_walk(lgm.lg, h2)
            assert h1.contains_edges(m.edges)
            e1, e2 = set(h1.edge_seq), set(h2.edge_seq)
            assert e1.isdisjoint(e2) and e1 | e2 == set(lgm.lg.edges)


def test_kotzig_preconditions(petersen):
    lgm = build_line_graph(make_named_graph("cube", []))
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(ParityError):
        kotzig_partition(make_named_graph("prism", []), m)  # odd size
    with pytest.raises(PreconditionError):
        kotzig_partition(make_named_graph("cycle", [6]), m)  # not cubic
    with pytest.raises(PreconditionError, match="not the line graph"):
        kotzig_partition(make_named_graph("complete", [4]), m, lgm)


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


def test_pc_cycle_search():
    lgm = build_line_graph(make_named_graph("complete", [5]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    c = colouring_from_matching(lgm, m)
    res = find_pc_hamiltonian_cycle(lgm.base, c)
    assert res and is_properly_coloured(res.walk, c)
    assert count_pc_hamiltonian_cycles(lgm.base, c, limit=2) >= 2
    res = find_pc_hamiltonian_cycle(lgm.base, c, max_nodes=1)
    assert res.outcome == "inconclusive" and res.walk is None


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


def test_stitch_clique_path():
    members = frozenset({0, 1, 2, 3, 4, 5})
    path = stitch_clique_path(members, 0, 5, [(1, 2), (3, 4)])
    assert path[0] == 0 and path[-1] == 5
    assert path == [0, 1, 2, 3, 4, 5]
    # entry matched inside the clique: its edge must come first
    path = stitch_clique_path(members, 1, 5, [(1, 2), (3, 4)])
    assert path[:2] == [1, 2]
    # a lone matching edge joining entry and exit is the whole path ...
    assert stitch_clique_path(members, 0, 5, [(0, 5)]) == [0, 5]
    # ... and no path holds it beside another matching edge of the clique
    with pytest.raises(PreconditionError):
        stitch_clique_path(members, 0, 5, [(0, 5), (1, 2)])
    with pytest.raises(PreconditionError):
        stitch_clique_path(members, 0, 5, [(1, 9)])  # leaves the clique
    with pytest.raises(PreconditionError):
        stitch_clique_path(members, 0, 0, [])


def test_extend_complete():
    lgm = build_line_graph(make_named_graph("complete", [5]))
    for m in enumerate_perfect_matchings(lgm.lg):
        walk = extend_matching_complete(5, m, lgm).walk
        assert validate_walk(lgm.lg, walk) and walk.contains_edges(m.edges)
        break
    with pytest.raises(ParityError):
        extend_matching_complete(6, m)
    # the base must be K_n itself: K_5 minus an edge is refused
    k5_minus = Graph.from_edges(5, set(lgm.base.edges) - {(0, 1)})
    with pytest.raises(PreconditionError):
        extend_matching_complete(5, m, build_line_graph(k5_minus))


def test_extend_bipartite():
    lgm = build_line_graph(make_named_graph("bipartite", [2, 2]))
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_bipartite(2, m, lgm)
        assert res and res.walk.contains_edges(m.edges)
    with pytest.raises(ParityError):
        extend_matching_bipartite(3, m)
    # 4 vertices and 4 edges like K_{2,2}, but a triangle with a pendant edge
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        extend_matching_bipartite(2, m, build_line_graph(paw))


def test_extend_arb_traceable_bowtie():
    g = make_named_graph("bowtie", [])
    lgm = build_line_graph(g)
    outcomes = []
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, 2, m)
        outcomes.append(res.outcome)
        assert res.walk.contains_edges(m.edges)
    assert outcomes == ["found"] * 4


def test_extend_arb_traceable_matches_oracle_on_two_squares():
    g = two_squares()
    lgm = build_line_graph(g)
    agree = []
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, 0, m)
        oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
        assert res.outcome == oracle.outcome
        agree.append(res.outcome)
    assert agree.count("found") == 3 and agree.count("absent") == 3


def test_extend_arb_traceable_budget_on_two_squares():
    """A disconnected split graph is a certified absence under any budget;
    a tour the budget cannot lay is inconclusive."""
    lgm = build_line_graph(two_squares())
    outcomes = [extend_matching_arb_traceable(lgm, 0, m, max_nodes=1).outcome
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
    """Every connected even-size graph up to 7 vertices, from every vertex
    it is arbitrarily traceable from, with every perfect matching."""
    outcomes = []
    for g in connected_graphs_upto(7):
        if g.n < 3 or len(g.edges) % 2:
            continue
        vs = [v for v in range(g.n) if is_arbitrarily_traceable(g, v)]
        lgm = build_line_graph(g) if vs else None
        for v in vs:
            for m in enumerate_perfect_matchings(lgm.lg):
                res = extend_matching_arb_traceable(lgm, v, m)
                outcomes.append(res.outcome)
                if res.outcome == "found":
                    assert res.walk.contains_edges(m.edges)
                    assert validate_walk(g, _base_tour(lgm, res.walk))
                    assert find_hamiltonian_cycle(
                        lgm.lg, forced=sorted(m.edges)).outcome == "found"
    assert len(outcomes) == 134
    assert outcomes.count("found") == 97 and outcomes.count("absent") == 37


def test_extend_arb_traceable_preconditions():
    g = make_named_graph("bowtie", [])
    lgm = build_line_graph(g)
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(PreconditionError):
        extend_matching_arb_traceable(lgm, 0, m)  # not traceable from 0


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
