"""The compiled kernel must be bit-for-bit equivalent to the pure fallback:
same status, same witness, same node count.  Both are also checked against
naive permutation oracles on small random graphs.
"""

import hashlib
import random
import signal
import time
from itertools import combinations, islice

import pytest

from pmhgraph import _kernel
from pmhgraph._kernel import BACKEND, purecore
from pmhgraph.cli import _candidate
from pmhgraph.constructions import prop6_construct
from pmhgraph.corpus import connected_graphs_upto, generate_all_graphs
from pmhgraph.cycles import FOUND, find_hamiltonian_cycle, hamiltonian_walk
from pmhgraph.errors import CapacityError, WitnessError
from pmhgraph.graph_core import (ISO_SIZE_BOUND, Graph, canonical_form,
                                 make_named_graph, parse_graph6)
from pmhgraph.matching import enumerate_perfect_matchings
from pmhgraph.line_graph import build_line_graph
from pmhgraph.pmh import (_centres, enumerate_hamiltonian_cycles,
                          extend_matching_bipartite)

from conftest import (euler_matching, naive_ham_cycle,
                      naive_longest_cycle_length, on_twin, random_graph,
                      relabelled)

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
    """Both backends agree, and a search stopped by its budget (the last
    argument) reports one node past it.  Returns the common result."""
    p = getattr(purecore, kind)(adj, *args)
    c = getattr(_fastcore, kind)(adj, *args)
    assert p == c, (kind, args)
    assert p[0] != purecore.BUDGET or p[2] == args[-1] + 1, (kind, args, p)
    return p


def _witness_digest(results):
    """sha256 of the (status, witness) pairs of search results, in order.
    The pinned digests were taken before the leaf test on required edges:
    a pruning test may change node counts, never a status or a witness."""
    h = hashlib.sha256()
    for status, witness, _nodes in results:
        h.update(repr((status, witness)).encode())
    return h.hexdigest()


def _gp(n, k):
    """The generalised Petersen graph GP(n, k): an outer n-cycle, an inner
    cycle of step k and n spokes."""
    return Graph.from_edges(2 * n, [(i, (i + 1) % n) for i in range(n)]
                            + [(n + i, n + (i + k) % n) for i in range(n)]
                            + [(i, n + i) for i in range(n)])


def test_backend_reports_itself():
    assert BACKEND in ("pure", "compiled")
    if _fastcore is not None:
        assert _fastcore.BACKEND == "compiled"
    assert purecore.BACKEND == "pure"


@needs_compiled
def test_ham_cycle_parity_random(rng):
    results = []
    for _ in range(300):
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
        forced = _random_forced(rng, g, rng.randint(0, 3))
        results.append(_assert_same("ham_cycle", _adj(g), forced, 0))
    assert _witness_digest(results) == (
        "862bc503f24d5771bf7f61fcd43810736907874b685f7187c55bd06401b61452")


def _assert_same_at_every_cap(adj, forced, cap):
    """Parity uncapped, at `cap`, at the uncapped search's node count (it
    finishes) and one below it (it stops at its last node)."""
    status, cycle, nodes = _assert_same("ham_cycle", adj, forced, 0)
    _assert_same("ham_cycle", adj, forced, cap)
    assert _assert_same("ham_cycle", adj, forced, nodes) == (status, cycle, nodes)
    if nodes > 1:
        assert _assert_same("ham_cycle", adj, forced, nodes - 1) == (
            purecore.BUDGET, None, nodes)


@needs_compiled
def test_ham_cycle_parity_under_budget(rng):
    """Random graphs, and GP(35,2), whose 70 vertices take two words a set,
    so that the sets of the leaf test on required edges straddle the word
    boundary; its forced sets are the spokes and random sets of 15 to 25
    edges (GP(35,2) has no hamiltonian cycle, and with fewer forced edges a
    search takes about 10^5 nodes)."""
    g = make_named_graph("petersen", [])
    for cap in (1, 5, 50, 1000):
        _assert_same("ham_cycle", _adj(g), [], cap)
    for _ in range(100):
        g = random_graph(rng, rng.randint(6, 12), 0.4)
        forced = _random_forced(rng, g, rng.randint(0, 3))
        _assert_same_at_every_cap(_adj(g), forced, rng.choice([1, 7, 40]))
    gp = _gp(35, 2)
    _assert_same_at_every_cap(_adj(gp), [(i, 35 + i) for i in range(35)], 7)
    for _ in range(20):
        _assert_same_at_every_cap(_adj(gp), _random_forced(rng, gp, rng.randint(15, 25)),
                                  rng.choice([1, 7, 40]))


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
    results = [_assert_same("ham_cycle", _adj(lg), sorted(m.edges), 0)
               for m in rng.sample(ms, 200)]
    assert _witness_digest(results) == (
        "428d62ab85abfc96205bc46a6dc51cde60be7f6d22f1bdd52661e2f37612728a")


def _seeded_perfect_matching(rng, g):
    """A perfect matching of g: the first one enumerated on g under a random
    relabelling, mapped back to g's labels."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    back = {p: v for v, p in enumerate(perm)}
    m = next(iter(enumerate_perfect_matchings(h)))
    return sorted((back[u], back[v]) for u, v in m.edges)


def _bridged(g, k):
    """k copies of g in a row, vertex 1 of each copy joined to vertex 0 of
    the next by a bridge."""
    edges = [(u + i * g.n, v + i * g.n) for i in range(k) for u, v in g.edges]
    edges += [(i * g.n + 1, (i + 1) * g.n) for i in range(k - 1)]
    return Graph.from_edges(k * g.n, edges)


@needs_compiled
def test_parity_beyond_one_word(rng):
    """L(K_{10,10}) has 100 vertices, the 5x14 grid 70 and seven bridged
    Petersen graphs 70, so their vertex sets take two words.  The longest
    cycle searches also run to the end: on L(K_{10,10}) to a hamiltonian
    cycle, and on the Petersen row through every root, where each search
    that crosses a bridge is cut at once (the seventh copy straddles the
    word boundary)."""
    lg = build_line_graph(make_named_graph("bipartite", [10, 10])).lg
    assert lg.n > 64
    results = [_assert_same("ham_cycle", _adj(lg),
                            _seeded_perfect_matching(rng, lg), 0)
               for _ in range(20)]
    assert _witness_digest(results) == (
        "ce83b5be11b93cf06da0e05e8024bd20ff8e346856dfeed43e66e865e28a8768")
    _assert_same("ham_cycle", _adj(lg), [], 0)
    # a cap above the finished search's nodes first, so that a kernel
    # that strays fails here rather than searching on without end
    for cap in (1, 100, 5000, 0):
        _assert_same("longest_cycle", _adj(lg), cap)
    assert _fastcore.longest_cycle(_adj(lg), 0)[::2] == (purecore.FOUND, 901)
    row = _bridged(make_named_graph("petersen", []), 7)
    for cap in (50, 5000, 0):
        _assert_same("longest_cycle", _adj(row), cap)
    status, cycle, nodes = _fastcore.longest_cycle(_adj(row), 0)
    assert (status, len(cycle), nodes) == (purecore.FOUND, 9, 1314)
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


def _naive_is_cycle(g, cyc, forced):
    """The re-check spelt out step by step, sharing no code with the twins."""
    if len(cyc) < 3 or len(set(cyc)) < len(cyc):
        return False
    steps = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    return (all(g.has_edge(a, b) for a, b in steps)
            and all((a, b) in steps or (b, a) in steps for a, b in forced))


def _corrupted(rng, g, cyc, forced):
    """(name, cycle, forced) cases around the cycle `cyc` of g through
    `forced`: itself rotated, reversed and with forced pairs reversed, and
    the corruptions the re-check must refuse."""
    k = len(cyc)
    i, j = rng.sample(range(k), 2)
    r = rng.randrange(k)
    rotated = cyc[r:] + cyc[:r]
    steps = {frozenset(p) for p in zip(cyc, cyc[1:] + cyc[:1])}
    off = [e for e in sorted(g.edges) if frozenset(e) not in steps]
    swapped = list(cyc)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield "valid", cyc, forced
    yield "rotated and reversed", rotated[::-1], forced
    yield "forced pairs reversed", cyc, [(b, a) for a, b in forced]
    yield "forced pair repeated", cyc, forced + forced[:1]
    yield "repeated vertex", cyc[:i] + [cyc[j]] + cyc[i + 1:], forced
    yield "vertex out of range", cyc[:i] + [rng.choice([g.n, g.n + 7, -1])] + \
        cyc[i + 1:], forced
    yield "two vertices swapped", swapped, forced
    yield "closing step dropped", cyc[:-1], forced
    yield "forced pair missing", cyc, forced + off[:1]
    yield "fewer than three", cyc[:rng.randint(0, 2)], []


@needs_compiled
def test_is_cycle_twins_agree(rng):
    """The compiled `is_cycle` answers as the pure one and as a naive
    re-check on cycles the search found, on 200 seeded graphs with forced
    edges, and on each corruption of them."""
    seen = set()
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 12), rng.choice([0.4, 0.6]))
        forced = _random_forced(rng, g, rng.randint(0, 3))
        status, cyc, _nodes = purecore.ham_cycle(_adj(g), forced, 0)
        if status != purecore.FOUND:
            continue
        for name, c, f in _corrupted(rng, g, cyc, forced):
            want = _naive_is_cycle(g, c, f)
            assert purecore.is_cycle(g.n, g.edges, c, f) == want, (name, g)
            assert _fastcore.is_cycle(g.n, g.edges, c, f) == want, (name, g)
            seen.add((name, want))
    # every corruption was refused somewhere, and the valid cases all pass
    assert {name for name, want in seen if not want} == {
        "repeated vertex", "vertex out of range", "two vertices swapped",
        "closing step dropped", "forced pair missing", "fewer than three"}
    assert {name for name, want in seen if want} >= {
        "valid", "rotated and reversed", "forced pairs reversed",
        "forced pair repeated"}
    assert ("valid", False) not in seen


def test_is_cycle_refuses_a_malformed_forced_entry():
    """Each twin reads every forced entry first, as the search does."""
    k4 = make_named_graph("complete", [4])
    for impl in (purecore,) if _fastcore is None else (purecore, _fastcore):
        assert impl.is_cycle(4, k4.edges, [0, 1, 2, 3], [(1, 0), [3, 2]])
        assert impl.is_cycle(3, k4.edges, [0, 1, 2])
        assert not impl.is_cycle(4, k4.edges, [0, 1, 2], [(0, 9)])
        for cyc in ([0, 1, 2, 3], [0, 1]):
            with pytest.raises(ValueError, match=r"forced edge \(0, 1, 2\) is "
                               r"not a pair of ints"):
                impl.is_cycle(4, k4.edges, cyc, [(0, 1), (0, 1, 2)])


def _dense_cases(g, cyc, forced):
    """(case, cycle, forced) around the cycle `cyc` of g through `forced`:
    itself, and one vertex list for each way the re-check refuses, each
    breaking that condition alone where it can.  `prefix` is the shortest
    head of cyc whose closing step is no edge of g."""
    k = next(k for k in range(3, len(cyc)) if not g.has_edge(cyc[k - 1], cyc[0]))
    prefix = cyc[:k]
    steps = {frozenset(p) for p in zip(cyc, cyc[1:] + cyc[:1])}
    unused = next(e for e in sorted(g.edges) if frozenset(e) not in steps)
    yield "valid", cyc, forced
    yield "valid, reversed", cyc[::-1], forced
    yield "repeated vertex", cyc + cyc[-2:], forced
    yield "out-of-range vertex", cyc[:2] + [g.n] + cyc[3:], forced
    yield "non-edge step", prefix[1:] + prefix[:1], []
    yield "non-edge closing step", prefix, []
    yield "forced pair missing", cyc, forced + [unused]


@pytest.fixture(scope="module")
def dense_hosts(lk50):
    """(name, host, hamiltonian cycle, forced pairs) on hosts with more than
    three edges per cycle vertex, whose EdgeTable rows are long:
    L(K_{10,10}) and L(K_{50,50}) with a cycle the bipartite route lays out
    through a sampled matching, and K_{50,50} with its cycle 0, 50, 1, 51, ...
    through three of its steps."""
    out = []
    rng = random.Random(10)
    for name, lgm in (("L(K10,10)", build_line_graph(
            make_named_graph("bipartite", [10, 10]))), ("L(K50,50)", lk50)):
        m = euler_matching(lgm, rng)
        walk = extend_matching_bipartite(lgm, m).walk
        out.append((name, lgm.lg, list(walk.vertices[:-1]), sorted(m.edges)))
    cyc = [v for i in range(50) for v in (i, 50 + i)]
    out.append(("K50,50", lk50.base, cyc, [(0, 50), (51, 2), (49, 99)]))
    return out


def test_is_cycle_twins_agree_on_dense_hosts(dense_hosts, monkeypatch):
    """On dense hosts the twins answer as the naive re-check on each case
    of BAD_HAMILTONIAN_WITNESS, with a vertex out of range added, and
    `hamiltonian_walk` refuses every refused case through either twin."""
    impls = [purecore] + ([] if _fastcore is None else [_fastcore])
    for name, g, cyc, forced in dense_hosts:
        assert len(g.edges) > 3 * len(cyc), name
        for impl in impls:
            (h,) = on_twin(monkeypatch, impl, g)
            for case, c, f in _dense_cases(g, cyc, forced):
                want = case.startswith("valid")
                assert _naive_is_cycle(g, c, f) == want, (name, case)
                assert impl.is_cycle(g.n, g.edges, c, f) == want, \
                    (name, case, impl.BACKEND)
                if want:
                    assert hamiltonian_walk(h, c, f).vertices == (*c, c[0])
                else:
                    with pytest.raises(WitnessError):
                        hamiltonian_walk(h, c, f)


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
        res = find_hamiltonian_cycle(h, pairs)
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


def _has_induced_claw(g):
    """Does g have an induced K_{1,3}?  Then g is not a line graph."""
    return any(not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
               for v in range(g.n) for a, b, c in combinations(g.adjacency[v], 3))


@needs_compiled
def test_pm_scan_without_centres_parity(rng):
    """Without centres both scans yield every perfect matching: the same
    lists in the same order, with the same `tested`, on random graphs that
    are not line graphs.  The compiled scan puts one tuple per edge in
    every list."""
    counts = []
    while len(counts) < 12:
        g = random_graph(rng, rng.choice([7, 8, 10, 12]), 0.5)
        if not _has_induced_claw(g):
            continue
        adj = _adj(g)
        fast, ref = _fastcore.pm_scan(adj), purecore.pm_scan(adj)
        got = list(fast)
        assert got == list(ref) and fast.tested == ref.tested == len(got)
        assert len({id(p) for pairs in got for p in pairs}) == \
            len({p for pairs in got for p in pairs})
        counts.append((g.n, len(got)))
    assert [k for n, k in counts if n % 2] == [0] * 3
    assert sum(k for _n, k in counts) == 813


def test_pm_scan_without_centres_edge_cases():
    """Each backend: the empty graph has one empty perfect matching and an
    odd order none; `add` is refused before and after a yield."""
    k4 = make_named_graph("complete", [4])
    for impl in (purecore,) if _fastcore is None else (purecore, _fastcore):
        scan = impl.pm_scan([])
        assert (list(scan), scan.tested) == ([[]], 1)
        scan = impl.pm_scan(_adj(make_named_graph("complete", [5])))
        assert (list(scan), scan.tested) == ([], 0)
        scan = impl.pm_scan(_adj(k4), None)
        with pytest.raises(ValueError):
            scan.add((0, 1, 2, 3, 0))
        assert next(iter(scan)) == [(0, 1), (2, 3)]
        with pytest.raises(ValueError):
            scan.add((0, 1, 2, 3, 0))
        assert (list(scan), scan.tested) == ([[(0, 2), (1, 3)],
                                              [(0, 3), (1, 2)]], 3)


def _flower(petals, length):
    """`petals` copies of the cycle C_length sharing vertex 0."""
    edges = []
    for p in range(petals):
        ring = [0] + [1 + p * (length - 1) + i for i in range(length - 1)]
        edges += zip(ring, ring[1:] + ring[:1])
    return Graph.from_edges(1 + petals * (length - 1), edges)


@needs_compiled
def test_canonical_form_parity(rng):
    """Both backends give the same form and labelling on every graph on 0-7
    vertices; on vertex-transitive and twin-rich graphs, where the search
    tree is widest, each also under 5 seeded relabellings; and on a path of
    ISO_SIZE_BOUND vertices."""
    cox = make_named_graph("coxeter", [])
    named = [cox, build_line_graph(cox).lg, make_named_graph("petersen", []),
             make_named_graph("cube", []), make_named_graph("complete", [8]),
             make_named_graph("bipartite", [4, 4]),
             make_named_graph("cycle", [40]), _flower(3, 4)]
    graphs = [Graph(0)] + [g for n in range(1, 8) for g in generate_all_graphs(n)]
    graphs += named + [relabelled(g, rng) for g in named for _ in range(5)]
    graphs.append(make_named_graph("path", [ISO_SIZE_BOUND]))
    assert len(graphs) == 1253 + 6 * len(named) + 1
    for g in graphs:
        assert _fastcore.canonical_form(g.n, g.edges) == \
            purecore.canonical_form(g.n, g.edges), g


def test_canonical_form_refuses_malformed_input(monkeypatch):
    """Each kernel refuses an edge out of range, not ordered u < v, or
    repeated, and more than 64 vertices; through graph_core a graph above
    ISO_SIZE_BOUND gets CapacityError before the kernel runs."""
    big = make_named_graph("path", [ISO_SIZE_BOUND + 1])
    for impl in (purecore,) if _fastcore is None else (purecore, _fastcore):
        for n, edges in [(3, [(0, 3)]), (3, [(-1, 2)]), (3, [(1, 0)]),
                         (3, [(1, 1)]), (3, [(0, 1), (0, 2), (0, 1)]),
                         (3, [(0, 1, 2)]), (65, []), (-1, [])]:
            with pytest.raises(ValueError):
                impl.canonical_form(n, edges)
        monkeypatch.setattr(_kernel, "canonical_form", impl.canonical_form)
        with pytest.raises(CapacityError):
            canonical_form(big)


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


def _backends():
    return (purecore,) if _fastcore is None else (purecore, _fastcore)


def test_longest_cycle_against_naive_on_every_small_graph():
    """Each backend finds the circumference of every graph on 3 to 7
    vertices (0 for a forest), and the two agree on status, witness and
    nodes."""
    graphs = [g for n in range(3, 8) for g in generate_all_graphs(n)]
    assert len(graphs) == 1249
    for g in graphs:
        want = naive_longest_cycle_length(g)
        results = [impl.longest_cycle(_adj(g), 0) for impl in _backends()]
        for status, cyc, _nodes in results:
            assert (status == purecore.FOUND) == (want > 0), g
            assert (len(cyc) if cyc else 0) == want, g
            assert cyc is None or all(g.has_edge(a, b)
                                      for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert results[0] == results[-1], g


# The longest cycle each search finds, as it found it before its bound took
# in the closable core, and the node counts with that bound
LONGEST = {
    "coxeter": ([0, 1, 2, 3, 4, 5, 6, 27, 13, 8, 22, 15, 19, 26, 12, 10, 24,
                 17, 20, 16, 23, 9, 11, 25, 18, 14, 21], 10582),
    "petersen": ([0, 1, 2, 3, 4, 9, 6, 8, 5], 144),
    "K5,6": ([0, 5, 1, 6, 2, 7, 3, 8, 4, 9], 39391),
    "prop6": ([1, 10, 13, 2, 12, 22, 7, 23, 18, 5, 19, 25, 8, 24, 15, 3, 14,
               17, 4, 16, 26, 9, 27, 20, 6, 21, 11], 13383),
}


@pytest.mark.parametrize("name", sorted(LONGEST))
def test_longest_cycle_pinned(name):
    """The witness of the longest cycle search and its node count, on both
    backends.  K_{5,6} is where the bound does not bite: of its 39,401
    nodes before the core bound, only the root loop's early stop saves 10."""
    pet = make_named_graph("petersen", [])
    g = {"coxeter": make_named_graph("coxeter", []), "petersen": pet,
         "K5,6": make_named_graph("bipartite", [5, 6]),
         "prop6": prop6_construct(pet, 0)[0]}[name]
    witness, nodes = LONGEST[name]
    for impl in _backends():
        assert impl.longest_cycle(_adj(g), 0) == (purecore.FOUND, witness, nodes)


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


def _bad_forced(rng, g):
    """A forced set `ham_cycle` refuses: a non-edge, or three edges at one
    vertex when g has such a vertex."""
    hub = next((v for v in range(g.n) if len(g.adjacency[v]) >= 3), None)
    if hub is not None and rng.random() < 0.5:
        return [(hub, w) for w in g.adjacency[hub][:3]]
    return [(0, g.n)]


def _alarmed(search, *args):
    """Run search(*args) under a 20 ms SIGALRM whose handler raises _Alarm;
    returns what it returned, or None when the alarm ended it."""
    def handler(signum, frame):
        raise _Alarm()

    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        return search(*args)
    except _Alarm:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("impl", _backends(), ids=lambda k: k.BACKEND)
def test_search_graph_reuse_matches_fresh_calls(impl, rng):
    """Calls on one SearchGraph per graph, interleaved across 13 graphs,
    equal fresh calls on the raw adjacency (status, witness and nodes),
    including the call right after a refused forced set, a BUDGET stop and
    an interrupt by a raising SIGALRM handler."""
    graphs = [random_graph(rng, rng.randint(3, 13), rng.choice([0.3, 0.5, 0.8]))
              for _ in range(12)] + [_grid(7, 9)]
    cached = [impl.SearchGraph(_adj(g)) for g in graphs]
    kinds = []
    for _ in range(400):
        i = rng.randrange(len(graphs))
        g, graph = graphs[i], cached[i]
        kind = rng.choice(["ham", "ham", "budget", "longest", "refused",
                           "alarm" if g.n == 63 else "ham"])
        forced = _random_forced(rng, g, rng.randint(0, 4))
        if kind == "refused":
            with pytest.raises(ValueError):
                impl.ham_cycle(graph, _bad_forced(rng, g), 0)
        elif kind == "alarm":
            # the 7x9 grid has no hamiltonian cycle, and its unforced search
            # runs 167,690,380 nodes
            assert _alarmed(impl.ham_cycle, graph, [], 0) is None
        elif kind == "longest":
            cap = rng.choice([0, 0, 7, 100]) if g.n < 63 else 500
            assert impl.longest_cycle(graph, cap) == \
                impl.longest_cycle(_adj(g), cap)
        else:
            cap = 0 if kind == "ham" and g.n < 63 else rng.choice([1, 5, 60])
            assert impl.ham_cycle(graph, forced, cap) == \
                impl.ham_cycle(_adj(g), forced, cap)
        kinds.append(kind)
        # the next call on the same graph, whatever happened above
        cap = 0 if g.n < 63 else 2000
        assert impl.ham_cycle(graph, forced, cap) == \
            impl.ham_cycle(_adj(g), forced, cap), (kind, g, forced)
    assert set(kinds) == {"ham", "budget", "longest", "refused", "alarm"}


@pytest.mark.parametrize("impl", _backends(), ids=lambda k: k.BACKEND)
def test_search_of_a_busy_search_graph_is_refused(impl):
    """A signal handler that searches the SearchGraph under search gets
    RuntimeError from either search, and may search another graph; the
    interrupted graph then searches as a fresh one."""
    grid, small = _grid(7, 9), _grid(3, 4)
    busy, other = impl.SearchGraph(_adj(grid)), impl.SearchGraph(_adj(small))
    seen = []

    def nested(signum, frame):
        for search, graph in ((impl.ham_cycle, busy), (impl.longest_cycle, busy),
                              (impl.ham_cycle, other)):
            try:
                args = ([], 50) if search is impl.ham_cycle else (50,)
                seen.append(search(graph, *args))
            except RuntimeError as exc:
                seen.append(str(exc))
        raise _Alarm()

    old = signal.signal(signal.SIGALRM, nested)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        with pytest.raises(_Alarm):
            impl.ham_cycle(busy, [], 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    refusal = "the SearchGraph is already searching"
    assert seen == [refusal, refusal, impl.ham_cycle(_adj(small), [], 50)]
    assert impl.ham_cycle(busy, [], 2000) == impl.ham_cycle(_adj(grid), [], 2000)


def test_is_cycle_reads_its_edge_table_as_the_raw_set(rng):
    """Each twin's `is_cycle` answers on its own EdgeTable as on the raw
    edge set, and an EdgeTable is made from a set only."""
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 10), 0.5)
        forced = _random_forced(rng, g, 2)
        for impl in _backends():
            table = impl.EdgeTable(g.n, g.edges)
            status, cyc, _nodes = impl.ham_cycle(_adj(g), forced, 0)
            for c in ([cyc] if cyc else []) + [list(range(g.n))]:
                assert impl.is_cycle(g.n, table, c, forced) == \
                    impl.is_cycle(g.n, g.edges, c, forced)
    for impl in _backends():
        with pytest.raises(TypeError, match="edges must be a set"):
            impl.EdgeTable(3, [(0, 1)])


def _first_bad_forced_entry(g, forced):
    """The ValueError text `ham_cycle` gives for `forced` on g, or None when
    it takes the set: the entries read in order, spelt out apart from either
    twin, the first bad one named."""
    taken = []
    for entry in forced:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and all(isinstance(x, int) for x in entry)):
            return f"forced edge {entry!r} is not a pair of ints"
        a, b = sorted(entry)
        if (a, b) not in g.edges:
            return f"forced edge ({a},{b}) not in the graph"
        if (a, b) in taken:
            continue
        for v in (a, b):
            if sum(v in e for e in taken) == 2:
                return f"vertex {v} has 3 forced incidences (max 2)"
        taken.append((a, b))
    return None


def _mixed_forced(rng, g, out_of_graph):
    """Up to 9 forced entries for g: edges in either order, most among a few
    low vertices (so repeats, reversals and overloads), earlier entries
    again, pairs of ints that are not edges (self pairs, non-edges,
    negative, out of range, beyond 64 bits) and entries that are not pairs
    of ints."""
    low = rng.randint(3, 12)
    edges = sorted(e for e in g.edges if e[1] < low) or sorted(g.edges)
    bad = rng.choice([0, 0.1, 0.3])     # the share of entries drawn bad
    out = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if edges and rng.random() >= bad:
            entry = rng.choice(edges)[::rng.choice([1, -1])]
            if out and kind < 0.2:
                entry = rng.choice(out)
                if isinstance(entry, (tuple, list)) and kind < 0.1:
                    entry = entry[::-1]
        elif kind < 0.4:
            entry = (rng.randint(-1, g.n), rng.choice(out_of_graph + [g.n]))
        elif kind < 0.7:
            entry = (rng.randint(-1, g.n + 1), rng.randint(-1, g.n + 1))
        else:
            entry = rng.choice([(0,), (0, 1, 2), "01", 5, None, (0, "1"),
                                [1, 2.0], (1.5, 2)])
        if isinstance(entry, tuple) and len(entry) == 2 and rng.random() < 0.2:
            entry = list(entry)
        out.append(entry)
    return out


def test_forced_set_check_matches_a_first_failing_entry_reference(rng):
    """On 600 seeded graphs of 0 to 12 vertices with forced lists that mix
    good and bad entries, each twin raises the reference's ValueError text,
    or both return the same result when the reference takes the set."""
    out_of_graph = [-1, 2**63, 2**70, -2**64]
    seen = set()
    for _ in range(600):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.3, 0.6, 0.9]))
        forced = _mixed_forced(rng, g, out_of_graph)
        want = _first_bad_forced_entry(g, forced)
        results = []
        for impl in _backends():
            if want is None:
                results.append(impl.ham_cycle(_adj(g), forced, 0))
            else:
                with pytest.raises(ValueError) as raised:
                    impl.ham_cycle(_adj(g), forced, 0)
                assert str(raised.value) == want, (g, forced, impl.BACKEND)
        assert results[1:] == results[:-1], (g, forced)
        seen.add("good" if want is None else want.split()[-1])
    assert seen == {"good", "ints", "graph", "2)"}
