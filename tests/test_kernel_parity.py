"""The compiled kernel must be bit-for-bit equivalent to the pure fallback:
same status, same witness, same node count.  Both are also checked against
naive permutation oracles on small random graphs.
"""

import signal
import time
from itertools import combinations, islice

import pytest

from pmhgraph import _kernel
from pmhgraph._kernel import BACKEND, purecore
from pmhgraph.cli import _candidate
from pmhgraph.corpus import connected_graphs_upto
from pmhgraph.cycles import FOUND, _hamiltonian_search
from pmhgraph.graph_core import Graph, make_named_graph, parse_graph6
from pmhgraph.matching import enumerate_perfect_matchings
from pmhgraph.line_graph import build_line_graph
from pmhgraph.pmh import _centres, enumerate_hamiltonian_cycles

from conftest import naive_ham_cycle, naive_longest_cycle_length, random_graph

try:
    from pmhgraph._kernel import _fastcore
except ImportError:
    _fastcore = None

needs_compiled = pytest.mark.skipif(_fastcore is None,
                                    reason="compiled kernel not built")


def _adj(g):
    return [list(a) for a in g.adjacency]


def _random_forced(rng, g, k):
    """Up to k random edges of g, no vertex on more than two of them, each
    in a random orientation."""
    es = sorted(g.edges)
    rng.shuffle(es)
    deg = [0] * g.n
    forced = []
    for u, v in es[:k]:
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            forced.append((u, v) if rng.random() < 0.5 else (v, u))
    return forced


def _grid(rows, cols):
    return Graph.from_edges(rows * cols, [
        (r * cols + c, r * cols + c + d)
        for r in range(rows) for c in range(cols)
        for d in (1, cols)
        if (d == 1 and c + 1 < cols) or (d == cols and r + 1 < rows)])


def _assert_same(kind, adj, *args):
    p = getattr(purecore, kind)(adj, *args)
    c = getattr(_fastcore, kind)(adj, *args)
    assert p == c, (kind, args)


def test_backend_reports_itself():
    assert BACKEND in ("pure", "compiled")
    if _fastcore is not None:
        assert _fastcore.BACKEND == "compiled"
    assert purecore.BACKEND == "pure"


@needs_compiled
def test_ham_cycle_parity_random(rng):
    for _ in range(300):
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
        forced = _random_forced(rng, g, rng.randint(0, 3))
        _assert_same("ham_cycle", _adj(g), forced, 0)


@needs_compiled
def test_ham_cycle_parity_under_budget(rng):
    g = make_named_graph("petersen", [])
    for cap in (1, 5, 50, 1000):
        _assert_same("ham_cycle", _adj(g), [], cap)
    for _ in range(100):
        g = random_graph(rng, rng.randint(6, 12), 0.4)
        forced = _random_forced(rng, g, rng.randint(0, 3))
        _assert_same("ham_cycle", _adj(g), forced, rng.choice([1, 7, 40]))


@needs_compiled
def test_longest_cycle_parity_random(rng):
    for _ in range(100):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.choice([0.3, 0.5]))
        _assert_same("longest_cycle", _adj(g), 0)


@needs_compiled
def test_longest_cycle_parity_under_budget(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(5, 11), rng.choice([0.3, 0.5]))
        _assert_same("longest_cycle", _adj(g), rng.choice([1, 5, 30, 200]))


@needs_compiled
def test_parity_on_tiny_graphs():
    for g in (Graph(0), Graph(1), Graph(2), Graph.from_edges(2, [(0, 1)])):
        _assert_same("ham_cycle", _adj(g), [], 0)
        _assert_same("longest_cycle", _adj(g), 0)


@needs_compiled
def test_ham_cycle_parity_on_coxeter_matchings(rng):
    """200 seeded perfect matchings of L(Coxeter), the inner step of
    is_pmh(L(Coxeter))."""
    lg = build_line_graph(make_named_graph("coxeter", [])).lg
    ms = list(enumerate_perfect_matchings(lg))
    for m in rng.sample(ms, 200):
        _assert_same("ham_cycle", _adj(lg), sorted(m.edges), 0)


def _seeded_perfect_matching(rng, g):
    """A perfect matching of g: the first one enumerated on g under a random
    relabelling, mapped back to g's labels."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    back = {p: v for v, p in enumerate(perm)}
    m = next(iter(enumerate_perfect_matchings(h)))
    return sorted((back[u], back[v]) for u, v in m.edges)


@needs_compiled
def test_parity_beyond_one_word(rng):
    """L(K_{10,10}) has 100 vertices and the 5x14 grid 70, so their vertex
    sets take two words."""
    lg = build_line_graph(make_named_graph("bipartite", [10, 10])).lg
    assert lg.n > 64
    for _ in range(20):
        _assert_same("ham_cycle", _adj(lg), _seeded_perfect_matching(rng, lg), 0)
    _assert_same("ham_cycle", _adj(lg), [], 0)
    for cap in (1, 100, 3000):
        _assert_same("longest_cycle", _adj(lg), cap)
    grid = _grid(5, 14)
    _assert_same("ham_cycle", _adj(grid), [], 5000)
    for _ in range(20):
        forced = _random_forced(rng, grid, rng.randint(1, 6))
        _assert_same("ham_cycle", _adj(grid), forced, rng.choice([50, 500, 5000]))


@needs_compiled
def test_compiled_rejects_graphs_deeper_than_its_stack():
    """The compiled kernel's bound is the one the library checks first."""
    assert _fastcore.ham_cycle([[]] * _kernel.MAX_VERTICES, [], 0)[0] == _kernel.ABSENT
    with pytest.raises(ValueError, match="too large"):
        _fastcore.ham_cycle([[]] * (_kernel.MAX_VERTICES + 1), [], 0)


def _bench_instances():
    """Representative searches: absent and found hamiltonian cycles, forced
    searches on L(Coxeter), longest cycles."""
    pet = make_named_graph("petersen", [])
    yield "ham_cycle", pet, ()
    yield "ham_cycle", make_named_graph("complete", [8]), ()
    lg = build_line_graph(make_named_graph("coxeter", [])).lg
    for _, m in zip(range(3), enumerate_perfect_matchings(lg)):
        yield "ham_cycle", lg, tuple(m.edges)
    yield "longest_cycle", pet, ()
    yield "longest_cycle", make_named_graph("bipartite", [4, 4]), ()


@needs_compiled
def test_parity_on_representative_searches():
    for kind, g, forced in _bench_instances():
        if kind == "ham_cycle":
            _assert_same(kind, _adj(g), list(forced), 0)
        else:
            _assert_same(kind, _adj(g), 0)


def _scan_both(lgm, extra=0):
    """Run the compiled and the pure scan of L(G) side by side, as
    `is_pmh_line` does, and check that they yield the same pairs with the
    same `tested` and give the same `add` results.  At each miss, `extra`
    more hamiltonian cycles of L(G), most of which the matching does not
    fit, join the scan.  Returns (tested, adds)."""
    h = lgm.lg
    adj, centre = _adj(h), _centres(lgm)
    fast, ref = _fastcore.pm_scan(adj, centre), purecore.pm_scan(adj, centre)
    more = ((*p, p[0]) for p in enumerate_hamiltonian_cycles(h))
    adds = 0
    for pairs in ref:
        assert (next(fast), fast.tested) == (pairs, ref.tested)
        res = _hamiltonian_search(h, pairs, 0)
        cycles = [res.walk.vertices] if res.outcome == FOUND else []
        for cycle in cycles + list(islice(more, extra)):
            assert fast.add(cycle) == ref.add(cycle)
            adds += 1
    assert next(fast, None) is None and fast.tested == ref.tested
    return ref.tested, adds


@needs_compiled
def test_pm_scan_parity(rng):
    """L(K4), L(cube), L(K5), L(K_{4,4}) (over 64 trails), the two order-8
    graphs whose line graphs are not PMH, all with extra cycles; then
    L(Coxeter), the 66 survey graphs, and random graphs whose line graphs
    have over 64 edges."""
    random_bases = []
    while len(random_bases) < 3:
        n = rng.randint(6, 8)
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < 0.6])
        if (g.is_connected() and len(g.edges) % 2 == 0
                and len(g.edges) <= 18
                and len(build_line_graph(g).lg.edges) > 64):
            random_bases.append(g)
    # (base, extra cycles per miss, matchings, cycles added)
    for g, extra, tested, adds in [
            (make_named_graph("complete", [4]), 3, 8, 4),
            (make_named_graph("cube", []), 3, 32, 4),
            (make_named_graph("complete", [5]), 3, 144, 8),
            (make_named_graph("bipartite", [4, 4]), 6, 2016, 105),
            # the scans go on past the matching no hamiltonian cycle contains
            (parse_graph6("G?qaf_"), 3, 10, 7),
            (parse_graph6("G?ovf_"), 3, 52, 10),
            (make_named_graph("coxeter", []), 0, 32768, 16)]:
        assert _scan_both(build_line_graph(g), extra) == (tested, adds)
    survey = [g for g in connected_graphs_upto(7)
              if _candidate(g, "maxdeg4", 0) == FOUND]
    assert [_scan_both(build_line_graph(g))[0] for g in random_bases] == \
        [19416, 25344, 24192]
    assert sum(_scan_both(build_line_graph(g))[0] for g in survey) == 6580


@needs_compiled
def test_pm_scan_edge_cases():
    """Both scans: the empty graph has one empty perfect matching and an
    odd order none; a wrong centre table, an `add` before a yield and a
    walk with a step that is not an edge are refused."""
    p4 = build_line_graph(make_named_graph("path", [4]))   # L(P4) = P3
    for impl in (_fastcore, purecore):
        scan = impl.pm_scan([], [])
        assert (list(scan), scan.tested) == ([[]], 1)
        scan = impl.pm_scan(_adj(p4.lg), _centres(p4))
        assert (list(scan), scan.tested) == ([], 0)
        with pytest.raises(ValueError):
            impl.pm_scan(_adj(p4.lg), [1])
        k4 = build_line_graph(make_named_graph("complete", [4]))
        scan = impl.pm_scan(_adj(k4.lg), _centres(k4))
        with pytest.raises(ValueError):
            scan.add((0, 1, 2, 0))
        assert next(iter(scan)) == [(0, 1), (2, 4), (3, 5)]
        for walk in [(0, 5, 1, 0), (0,), (0, 1, 2, 3, 4, 99, 0)]:
            with pytest.raises(ValueError):
                scan.add(walk)


class _Alarm(Exception):
    pass


def test_signal_interrupts_a_long_search():
    """The 7x9 grid is bipartite with odd order, so it has no hamiltonian
    cycle; the unbounded search exhausts 167,690,380 nodes (about 16 s on
    the compiled kernel).  A raising SIGALRM handler must end it early."""
    g = _grid(7, 9)

    def handler(signum, frame):
        raise _Alarm()

    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        t0 = time.perf_counter()
        with pytest.raises(_Alarm):
            _kernel.ham_cycle(_adj(g), [], 0)
        assert time.perf_counter() - t0 < 2.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # the kernel is usable again and counts nodes as before
    assert _kernel.ham_cycle(_adj(g), [], 2000) == \
        purecore.ham_cycle(_adj(g), [], 2000)


def test_pure_ham_against_naive(rng):
    for _ in range(80):
        g = random_graph(rng, 7, 0.4)
        status, cyc, _n = purecore.ham_cycle(_adj(g), [], 0)
        naive = naive_ham_cycle(g)
        assert (status == purecore.FOUND) == (naive is not None)
        if cyc is not None:
            assert len(set(cyc)) == g.n
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % g.n])
                       for i in range(g.n))


def test_pure_ham_forced_against_naive(rng):
    lgm = build_line_graph(make_named_graph("complete", [4]))
    adj = _adj(lgm.lg)
    for m in enumerate_perfect_matchings(lgm.lg):
        forced = sorted(m.edges)
        status, cyc, _n = purecore.ham_cycle(adj, forced, 0)
        naive = naive_ham_cycle(lgm.lg, forced)
        assert (status == purecore.FOUND) == (naive is not None)
        if cyc is not None:
            es = {(min(cyc[i], cyc[(i + 1) % len(cyc)]),
                   max(cyc[i], cyc[(i + 1) % len(cyc)]))
                  for i in range(len(cyc))}
            assert set(forced) <= es


def test_pure_longest_against_naive(rng):
    for _ in range(50):
        g = random_graph(rng, 7, 0.35)
        status, cyc, _n = purecore.longest_cycle(_adj(g), 0)
        want = naive_longest_cycle_length(g)
        got = len(cyc) if cyc is not None else 0
        assert got == want


def test_pure_searches_on_a_long_cycle():
    """A 1,200-vertex path is deeper than Python's default recursion limit."""
    adj = _adj(make_named_graph("cycle", [1200]))
    ham = purecore.ham_cycle(adj, [], 0)
    longest = purecore.longest_cycle(adj, 0)
    assert ham[0] == longest[0] == purecore.FOUND
    assert len(ham[1]) == len(longest[1]) == 1200
    if _fastcore is not None:
        assert ham == _fastcore.ham_cycle(adj, [], 0)
        assert longest == _fastcore.longest_cycle(adj, 0)


def test_budget_status_never_claims_absence():
    g = make_named_graph("petersen", [])
    status, cyc, _nodes = purecore.ham_cycle(_adj(g), [], 3)
    assert status == purecore.BUDGET and cyc is None
