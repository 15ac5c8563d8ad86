import copy
import os
import pickle
import subprocess
import sys
import textwrap
from itertools import chain, combinations
from pathlib import Path

import pytest

import pmhgraph
from pmhgraph import _kernel, cycles
from pmhgraph.cycles import (CycleWalk, SearchResult, circumference, closed,
                             euler_tour, find_dominating_cycle,
                             find_hamiltonian_cycle, has_dominating_tour,
                             is_arbitrarily_traceable, is_hypohamiltonian,
                             longest_cycle_search, validate_walk)
from pmhgraph._kernel import purecore
from pmhgraph.corpus import connected_subcubic_upto, generate_all_graphs
from pmhgraph.errors import (BudgetError, CapacityError, PreconditionError,
                             StructureError, WitnessError)
from pmhgraph.graph_core import Graph, make_named_graph
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import enumerate_perfect_matchings, matching_to_p3

from conftest import (naive_ham_cycle, naive_longest_cycle_length, on_twin,
                      random_graph, two_squares)

try:
    from pmhgraph._kernel import _fastcore
except ImportError:
    _fastcore = None


def test_hamiltonian_basic(petersen, k4):
    assert find_hamiltonian_cycle(make_named_graph("cycle", [5])).outcome == "found"
    assert find_hamiltonian_cycle(k4).outcome == "found"
    res = find_hamiltonian_cycle(petersen)
    assert res.outcome == "absent" and res.walk is None and res.nodes > 0
    assert not res and bool(find_hamiltonian_cycle(k4))


def test_hamiltonian_forced_edges():
    c6 = make_named_graph("cycle", [6])
    res = find_hamiltonian_cycle(c6, forced=[(0, 1), (3, 4)])
    assert res and res.walk.contains_edges([(0, 1), (3, 4)])
    k4 = make_named_graph("complete", [4])
    # forcing a perfect matching of K4 leaves a unique cycle shape
    res = find_hamiltonian_cycle(k4, forced=[(0, 1), (2, 3)])
    assert res and res.walk.contains_edges([(0, 1), (2, 3)])
    # an edge listed twice is one forced edge, not a false "absent"
    g = Graph.from_edges(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3),
                             (2, 5), (3, 5), (4, 5)])
    res = find_hamiltonian_cycle(g, forced=[(1, 2), (2, 1), (0, 4)])
    assert res and res.walk.contains_edges([(1, 2), (0, 4)])


def test_forced_edge_validation():
    c6 = make_named_graph("cycle", [6])
    with pytest.raises(PreconditionError):
        find_hamiltonian_cycle(c6, forced=[(0, 2)])
    k4 = make_named_graph("complete", [4])
    with pytest.raises(PreconditionError):
        find_hamiltonian_cycle(k4, forced=[(0, 1), (0, 2), (0, 3)])


_K4, _K5 = make_named_graph("complete", [4]), make_named_graph("complete", [5])

# (graph, forced set, the message of its PreconditionError): each kernel
# checks the forced set in one pass before it searches, for any order, and
# the first bad entry raises
BAD_FORCED = {
    "not a pair": (_K4, [(0, 1, 2)], "forced edge (0, 1, 2) is not a pair of ints"),
    "one vertex": (_K4, [(0, 1), (3,)], "forced edge (3,) is not a pair of ints"),
    "not ints": (_K4, [(0, "1")], "forced edge (0, '1') is not a pair of ints"),
    "a float": (_K4, [[0, 1.0]], "forced edge [0, 1.0] is not a pair of ints"),
    "out of range": (_K4, [(4, 0)], "forced edge (0,4) not in the graph"),
    "negative": (_K4, [(-1, 2)], "forced edge (-1,2) not in the graph"),
    "beyond 64 bits": (_K4, [(1, 2**70)],
                       f"forced edge (1,{2**70}) not in the graph"),
    "self pair": (_K4, [(2, 2)], "forced edge (2,2) not in the graph"),
    "non-edge": (make_named_graph("cycle", [6]), [(2, 0)],
                 "forced edge (0,2) not in the graph"),
    "three at a vertex": (_K4, [(0, 1), (2, 0), (0, 3)],
                          "vertex 0 has 3 forced incidences (max 2)"),
    # the third distinct pair at vertex 0 raises; the fourth is never read
    "four at a vertex": (_K5, [(0, 1), (0, 2), (1, 0), (0, 3), (4, 0)],
                         "vertex 0 has 3 forced incidences (max 2)"),
    # (0, 2) overloads vertex 0 before (1, 4) overloads vertex 1
    "first overloaded vertex": (_K5, [(1, 2), (0, 3), (0, 4), (0, 2), (1, 3),
                                      (1, 4)],
                                "vertex 0 has 3 forced incidences (max 2)"),
    # the overload comes first, so the non-edge after it is never read
    "non-edge after an overload": (_K4, [(0, 1), (0, 2), (0, 3), (1, 1)],
                                   "vertex 0 has 3 forced incidences (max 2)"),
    # the lower end is named when both ends are full
    "both ends full": (_K5, [(0, 1), (0, 2), (3, 1), (3, 2), (3, 0)],
                       "vertex 0 has 3 forced incidences (max 2)"),
    "order 2": (Graph.from_edges(2, [(0, 1)]), [(0, 1), (1, 2)],
                "forced edge (1,2) not in the graph"),
    "order 1": (Graph(1), [(0, 0)], "forced edge (0,0) not in the graph"),
    "order 0": (Graph(0), [(0, 1, 2)],
                "forced edge (0, 1, 2) is not a pair of ints"),
}

KERNELS = [purecore] + ([] if _fastcore is None else [_fastcore])


@pytest.mark.parametrize("impl", KERNELS, ids=lambda k: k.BACKEND)
@pytest.mark.parametrize("case", sorted(BAD_FORCED))
def test_bad_forced_set_is_a_precondition_error(case, impl, monkeypatch):
    g, forced, message = BAD_FORCED[case]
    with pytest.raises(ValueError) as raised:
        impl.ham_cycle([list(a) for a in g.adjacency], forced, 0)
    assert str(raised.value) == message
    (g,) = on_twin(monkeypatch, impl, g)
    with pytest.raises(PreconditionError) as raised:
        find_hamiltonian_cycle(g, forced=forced)
    assert str(raised.value) == message


@pytest.mark.parametrize("impl", KERNELS, ids=lambda k: k.BACKEND)
def test_repeated_and_reversed_forced_pairs_count_once(impl, monkeypatch):
    (k5,) = on_twin(monkeypatch, impl, _K5)
    once = find_hamiltonian_cycle(k5, forced=[(0, 1), (2, 3)])
    assert once and once.walk.contains_edges([(0, 1), (2, 3)])
    for forced in ([(1, 0), (3, 2)], [(0, 1), (1, 0), (2, 3), (0, 1)],
                   [[3, 2], (0, 1), (2, 3)], iter([(0, 1), (2, 3), (3, 2)])):
        assert find_hamiltonian_cycle(k5, forced=forced) == once
    # order 2 checks and then searches nothing
    k2 = Graph.from_edges(2, [(0, 1)])
    assert find_hamiltonian_cycle(k2, forced=[(0, 1), (1, 0)]) == \
        SearchResult("absent", None, 0)


def test_hamiltonian_matches_naive_oracle(rng):
    for _ in range(60):
        g = random_graph(rng, 7, 0.4)
        res = find_hamiltonian_cycle(g)
        naive = naive_ham_cycle(g)
        assert (res.outcome == "found") == (naive is not None)
        if res:
            assert validate_walk(g, res.walk)


def test_budget_reports_inconclusive():
    g = make_named_graph("petersen", [])
    res = find_hamiltonian_cycle(g, max_nodes=3)
    assert res.outcome == "inconclusive" and res.walk is None
    assert res.nodes == 4   # the search stops at the first node past 3


def test_dominating_cycle(petersen):
    # hypohamiltonian: a cycle through all but any chosen vertex exists
    res = find_dominating_cycle(petersen, allowed_untouched={0})
    assert res and res.walk.touched == set(range(1, 10))
    assert validate_walk(petersen, res.walk)
    # with nothing allowed untouched this demands a hamiltonian cycle
    assert find_dominating_cycle(petersen).outcome == "absent"
    with pytest.raises(PreconditionError):
        find_dominating_cycle(petersen, allowed_untouched={10})


def test_dominating_cycle_prefers_fewer_untouched():
    c6 = make_named_graph("cycle", [6])
    res = find_dominating_cycle(c6, allowed_untouched={0, 1})
    assert res and res.walk.touched == set(range(6))


def unpruned_dominating_cycle(g, allowed):
    """find_dominating_cycle's candidate order with no pruning beyond the
    undominated-edge test: one hamiltonian search per remaining untouched
    set, on an induced graph built here."""
    nodes = 0
    for size in range(len(allowed) + 1):
        for untouched in combinations(sorted(allowed), size):
            off = set(untouched)
            if g.n - size < 3 or any(u in off and v in off for u, v in g.edges):
                continue
            keep = [v for v in range(g.n) if v not in off]
            pos = {v: i for i, v in enumerate(keep)}
            sub = Graph.from_edges(len(keep), [(pos[u], pos[v]) for u, v in g.edges
                                               if u in pos and v in pos])
            res = find_hamiltonian_cycle(sub)
            nodes += res.nodes
            if res:
                return "found", [keep[v] for v in res.walk.vertices], nodes
    return "absent", None, nodes


def subcubic_allowed_sets():
    """The untouched set extend_matching_subcubic allows for every perfect
    matching of every connected subcubic even-size base up to 8 vertices."""
    for g in connected_subcubic_upto(8, even_size_only=True):
        lgm = build_line_graph(g)
        for m in enumerate_perfect_matchings(lgm.lg):
            centres = {c for c, _ in matching_to_p3(lgm, m).paths}
            yield g, {v for v in range(g.n) if g.degree(v) == 1
                      or (g.degree(v) >= 2 and v not in centres)}


def small_allowed_sets():
    for name in ("petersen", "cube"):
        g = make_named_graph(name, [])
        for size in range(3):
            for allowed in combinations(range(g.n), size):
                yield g, set(allowed)


def test_dominating_cycle_pruning_is_exact():
    """Skipping impossible untouched sets changes no outcome or walk, and
    never costs nodes."""
    checked = 0
    for g, allowed in chain(subcubic_allowed_sets(), small_allowed_sets()):
        outcome, walk, nodes = unpruned_dominating_cycle(g, allowed)
        res = find_dominating_cycle(g, allowed_untouched=allowed)
        assert res.outcome == outcome, (g.edges, allowed)
        assert (res.walk and list(res.walk.vertices)) == walk, (g.edges, allowed)
        assert res.nodes <= nodes
        checked += 1
    assert checked > 600


def test_impossible_untouched_sets_never_reach_the_kernel(kernel_calls):
    p5 = make_named_graph("path", [5])
    for max_nodes in (0, 1):
        res = find_dominating_cycle(p5, allowed_untouched=set(range(5)),
                                    max_nodes=max_nodes)
        assert res == SearchResult("absent", None, 0)
    assert kernel_calls == []
    # C6 with a pendant vertex 6 at 0: the pendant must stay untouched
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
    assert find_dominating_cycle(g, allowed_untouched=set(range(6))).outcome == "absent"
    assert kernel_calls == []
    res = find_dominating_cycle(g, allowed_untouched={6})
    assert res and res.walk.touched == set(range(6))
    assert kernel_calls == [6]


def test_dominating_memo_keeps_only_certified_outcomes(kernel_calls):
    petersen = make_named_graph("petersen", [])
    # U = {} and U = {0} both stop at the budget, so neither is kept
    capped = find_dominating_cycle(petersen, allowed_untouched={0}, max_nodes=1)
    assert capped.outcome == "inconclusive" and kernel_calls == [10, 9]
    res = find_dominating_cycle(petersen, allowed_untouched={0})
    assert res and res.walk.touched == set(range(1, 10))
    assert kernel_calls == [10, 9, 10, 9] and res.nodes > 0
    # both outcomes are kept now: no search, no nodes, under any budget
    again = find_dominating_cycle(petersen, allowed_untouched={0}, max_nodes=1)
    assert again == SearchResult("found", res.walk, 0)
    assert find_dominating_cycle(petersen) == SearchResult("absent", None, 0)
    assert len(kernel_calls) == 4
    # the memo lives on the graph object: an equal graph searches again
    fresh = make_named_graph("petersen", [])
    assert find_dominating_cycle(fresh, allowed_untouched={0}) == res
    assert len(kernel_calls) == 6


def test_dominating_tour():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert has_dominating_tour(star)            # trivial tour at the hub
    assert has_dominating_tour(make_named_graph("cycle", [6]))
    assert has_dominating_tour(make_named_graph("petersen", []))
    # path of length 4: middle edge has no dominating closed trail
    assert not has_dominating_tour(make_named_graph("path", [6]))
    with pytest.raises(StructureError):
        has_dominating_tour(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_dominating_tour_small_path_caveat():
    # P3 has a trivial dominating tour at its hub even though L(P3) = K2 has
    # no hamiltonian cycle; the tour criterion needs size >= 3
    p3 = make_named_graph("path", [3])
    assert has_dominating_tour(p3)
    lgm = build_line_graph(p3)
    assert find_hamiltonian_cycle(lgm.lg).outcome == "absent"


def _brute_spanning_even(g):
    """Some edge subset of g meets every vertex an even, positive number
    of times and spans a connected graph."""
    es = sorted(g.edges)
    for k in range(1, len(es) + 1):
        for sel in combinations(es, k):
            sub = Graph(g.n, frozenset(sel))
            if (all(a and len(a) % 2 == 0 for a in sub.adjacency)
                    and sub.is_connected()):
                return True
    return False


def test_cycle_space_walk_against_every_edge_subset():
    """The cycle-space walk behind has_dominating_tour against all edge
    subsets, on every graph up to 5 vertices (disconnected ones included)."""
    checked, found = 0, 0
    for n in range(1, 6):
        for g in generate_all_graphs(n):
            want = _brute_spanning_even(g)
            assert cycles._spanning_even_subgraph_exists(g) == want, g
            checked += 1
            found += want
    assert (checked, found) == (52, 14)


def test_cycle_space_above_the_cap_is_refused():
    """K_{2,26} is connected with 52 edges on 28 vertices: dimension 25."""
    assert cycles.CYCLE_SPACE_DIM_CAP == 24
    with pytest.raises(CapacityError,
                       match="^cycle space dimension 25 exceeds cap$"):
        cycles._spanning_even_subgraph_exists(
            make_named_graph("bipartite", [2, 26]))


def test_euler_tour():
    octa = make_named_graph("octahedron", [])
    walk = euler_tour(octa)
    assert walk is not None and validate_walk(octa, walk)
    assert euler_tour(make_named_graph("cube", [])) is None
    with pytest.raises(StructureError):
        euler_tour(Graph.from_edges(4, [(0, 1), (2, 3)]))
    # one vertex is a closed walk of length 0; the null graph has no walk
    assert euler_tour(Graph(1)).vertices == (0,)
    assert euler_tour(Graph(0)) is None


def test_arbitrarily_traceable():
    bow = make_named_graph("bowtie", [])
    assert is_arbitrarily_traceable(bow, 2)
    assert not is_arbitrarily_traceable(bow, 0)
    c4 = make_named_graph("cycle", [4])
    assert all(is_arbitrarily_traceable(c4, v) for v in range(4))
    sq = two_squares()
    assert is_arbitrarily_traceable(sq, 0)
    assert not is_arbitrarily_traceable(sq, 1)
    assert not is_arbitrarily_traceable(make_named_graph("cube", []), 0)
    with pytest.raises(PreconditionError):
        is_arbitrarily_traceable(bow, 5)


def _every_edge_off_v_is_a_bridge(g, v):
    """Arbitrary traceability from v read off its definition: g connected
    and eulerian, and every edge of g - v a bridge of g - v (no path of
    g - v joins its ends without it)."""
    if not g.is_connected() or any(g.degree(u) % 2 for u in range(g.n)):
        return False
    for a, b in g.edges:
        if v in (a, b):
            continue
        reach, stack = {v, a}, [a]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y not in reach and (x, y) != (a, b):
                    reach.add(y)
                    stack.append(y)
        if b in reach:
            return False
    return True


def test_arbitrarily_traceable_against_bridges():
    """Ore's forest count against the bridge definition, from every vertex
    of every graph up to 7 vertices and every connected subcubic graph up
    to 9 vertices."""
    graphs = [g for n in range(1, 8) for g in generate_all_graphs(n)]
    checked, found = 0, 0
    for g in graphs + connected_subcubic_upto(9):
        for v in range(g.n):
            want = _every_edge_off_v_is_a_bridge(g, v)
            assert is_arbitrarily_traceable(g, v) == want, (g, v)
            checked += 1
            found += want
    assert (checked, found) == (15508, 89)


def test_hypohamiltonian(petersen, k4):
    assert is_hypohamiltonian(petersen)
    assert not is_hypohamiltonian(k4)               # hamiltonian
    assert not is_hypohamiltonian(make_named_graph("path", [5]))
    # a capped search certifies nothing, unless another search settles it
    with pytest.raises(BudgetError):
        is_hypohamiltonian(petersen, max_nodes=3)
    assert not is_hypohamiltonian(make_named_graph("path", [5]), max_nodes=1)


def test_longest_cycle_matches_naive(rng):
    for _ in range(40):
        g = random_graph(rng, 7, 0.35)
        res = longest_cycle_search(g)
        want = naive_longest_cycle_length(g)
        got = res.walk.length() if res.walk is not None else 0
        assert got == want
        if res.walk is not None:
            assert validate_walk(g, res.walk)


def test_circumference():
    assert circumference(make_named_graph("petersen", [])) == 9
    assert circumference(make_named_graph("complete", [5])) == 5
    with pytest.raises(StructureError):
        circumference(make_named_graph("path", [4]))


def test_validate_walk_rejects_defects():
    c4 = make_named_graph("cycle", [4])
    good = closed([0, 1, 2, 3], kinds={"cycle", "hamiltonian"})
    assert validate_walk(c4, good)
    assert not validate_walk(c4, closed([0, 2, 1, 3], kinds={"cycle"}))
    assert not validate_walk(c4, closed([0, 1, 2], kinds={"hamiltonian"}))
    open_walk = CycleWalk(vertices=(0, 1, 2), kinds=frozenset({"cycle"}))
    assert not validate_walk(c4, open_walk)
    k4 = make_named_graph("complete", [4])
    assert not validate_walk(k4, closed([0, 1, 2, 3], kinds={"euler"}))
    # a one-vertex walk must be at a vertex of the graph
    assert validate_walk(k4, CycleWalk((3,), frozenset({"tour"})))
    for v in (4, 7, -1):
        assert not validate_walk(k4, CycleWalk((v,), frozenset({"tour"})))
    assert not validate_walk(Graph(0), CycleWalk((0,), frozenset({"tour"})))


def test_validate_walk_each_check():
    """Each walk breaks exactly one check of a hamiltonian-cycle witness."""
    kinds = {"cycle", "tour", "hamiltonian", "dominating"}
    c5 = make_named_graph("cycle", [5])
    assert validate_walk(c5, closed([0, 1, 2, 3, 4], kinds=kinds))
    open_walk = CycleWalk(vertices=(0, 1, 2, 3, 4), kinds=frozenset(kinds))
    assert not validate_walk(c5, open_walk)
    assert not validate_walk(c5, closed([0, 1, 2, 4, 3], kinds=kinds))  # 2-4
    assert not validate_walk(c5, closed([0, 1, 2], kinds=kinds))  # misses 3, 4
    bow = make_named_graph("bowtie", [])   # triangles 0-1-2 and 2-3-4
    assert validate_walk(bow, closed([0, 1, 2, 3, 4, 2], kinds={"tour"}))
    assert not validate_walk(bow, closed([0, 1, 2, 3, 4, 2], kinds={"cycle"}))
    tri = closed([0, 1, 2], kinds={"cycle", "dominating"})
    pendant = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert validate_walk(pendant, tri)
    tail = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert not validate_walk(tail, tri)                     # 3-4 undominated
    walk = closed([0, 1, 2, 3], kinds=kinds)
    assert validate_walk(make_named_graph("complete", [4]), walk)
    assert walk.contains_edges([(1, 0), (3, 2)])
    assert not walk.contains_edges([(0, 2)])                # forced 0-2 missing


# C4 and a kernel answer that is not a cycle of it (0-2 and 1-3 are chords).
C4_BAD_CYCLE = [0, 2, 1, 3]


def test_bad_kernel_witness_raises(monkeypatch):
    c4 = make_named_graph("cycle", [4])
    monkeypatch.setattr(_kernel, "ham_cycle",
                        lambda adj, forced, max_nodes: (_kernel.FOUND, C4_BAD_CYCLE, 1))
    with pytest.raises(WitnessError):
        find_hamiltonian_cycle(c4)
    with pytest.raises(WitnessError):
        find_dominating_cycle(c4)
    monkeypatch.setattr(_kernel, "longest_cycle",
                        lambda adj, max_nodes: (_kernel.FOUND, C4_BAD_CYCLE, 1))
    with pytest.raises(WitnessError):
        longest_cycle_search(c4)
    # a hamiltonian cycle without the forced edge
    monkeypatch.setattr(_kernel, "ham_cycle",
                        lambda adj, forced, max_nodes: (_kernel.FOUND, [0, 1, 2, 3], 1))
    with pytest.raises(WitnessError):
        find_hamiltonian_cycle(make_named_graph("complete", [4]), forced=[(0, 2)])


# (graph, forced edges, kernel answer): each breaks one condition of
# find_hamiltonian_cycle's re-check and no other; only "too few vertices" is
# a cycle, which the length check refuses and not `is_cycle`
BAD_HAMILTONIAN_WITNESS = {
    "too few vertices": (make_named_graph("complete", [4]), [], [0, 1, 2]),
    "fewer than three": (Graph.from_edges(2, [(0, 1)]), [], [0, 1]),
    "repeated vertex": (make_named_graph("complete", [4]), [], [0, 1, 0, 2]),
    "every vertex, one twice": (make_named_graph("complete", [4]), [],
                                [0, 1, 2, 3, 1]),
    "non-edge step": (make_named_graph("cycle", [5]), [], [0, 1, 3, 2, 4]),
    "non-edge closing step": (make_named_graph("path", [4]), [], [0, 1, 2, 3]),
    "forced edge missing": (make_named_graph("complete", [4]), [(2, 0)],
                            [0, 1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(BAD_HAMILTONIAN_WITNESS))
def test_each_hamiltonian_witness_check(case, monkeypatch):
    """Refused through each `is_cycle` twin, and by the twin itself."""
    g, forced, cyc = BAD_HAMILTONIAN_WITNESS[case]
    for impl in KERNELS:
        assert impl.is_cycle(g.n, g.edges, cyc, forced) == \
            (case == "too few vertices")
        (h,) = on_twin(monkeypatch, impl, g)
        monkeypatch.setattr(_kernel, "ham_cycle",
                            lambda adj, forced, max_nodes: (_kernel.FOUND, cyc, 1))
        with pytest.raises(WitnessError):
            find_hamiltonian_cycle(h, forced=forced)


def test_hamiltonian_witness_is_the_closed_cycle(monkeypatch):
    k4 = make_named_graph("complete", [4])
    monkeypatch.setattr(_kernel, "ham_cycle",
                        lambda adj, forced, max_nodes: (_kernel.FOUND, [0, 2, 1, 3], 7))
    res = find_hamiltonian_cycle(k4, forced=[(1, 2)])
    assert res == SearchResult("found", closed([0, 2, 1, 3], kinds={
        "cycle", "tour", "hamiltonian", "dominating"}), 7)
    assert validate_walk(k4, res.walk)


@pytest.mark.parametrize("impl", KERNELS, ids=lambda k: k.BACKEND)
def test_search_refuses_a_graph_above_the_kernel_bound(impl, monkeypatch):
    """Refused as a CapacityError before either backend runs (the compiled
    one raises ValueError, the pure one RecursionError)."""
    monkeypatch.setattr(_kernel, "ham_cycle", impl.ham_cycle)
    monkeypatch.setattr(_kernel, "longest_cycle", impl.longest_cycle)
    n = _kernel.MAX_VERTICES + 1      # above the named generators' bound too
    big = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(CapacityError, match="above the search bound"):
        find_hamiltonian_cycle(big)
    with pytest.raises(CapacityError, match="above the search bound"):
        longest_cycle_search(big)


def test_bad_dominating_witness_raises(monkeypatch):
    """The dominating cycle is re-checked on the whole graph too."""
    def search(sub, max_nodes):
        return SearchResult("found", closed(C4_BAD_CYCLE, kinds={"cycle"}), 1)

    monkeypatch.setattr(cycles, "find_hamiltonian_cycle", search)
    with pytest.raises(WitnessError):
        find_dominating_cycle(make_named_graph("cycle", [4]))


def test_witness_checks_survive_python_O():
    script = textwrap.dedent(f"""
        import sys
        from pmhgraph import _kernel, cycles
        from pmhgraph.errors import WitnessError
        from pmhgraph.graph_core import Graph, make_named_graph
        print(sys.flags.optimize)
        bad = {C4_BAD_CYCLE}
        _kernel.ham_cycle = lambda adj, forced, max_nodes: (_kernel.FOUND, bad, 1)
        _kernel.longest_cycle = lambda adj, max_nodes: (_kernel.FOUND, bad, 1)
        for search in (cycles.find_hamiltonian_cycle, cycles.find_dominating_cycle,
                       cycles.longest_cycle_search):
            try:
                search(make_named_graph("cycle", [4]))
            except WitnessError:
                print("raised")
        # every Euler tour, the one-vertex tour included, passes validate_walk
        cycles.validate_walk = lambda g, walk: False
        for g in (make_named_graph("cycle", [4]), Graph(1)):
            try:
                cycles.euler_tour(g)
            except WitnessError:
                print("raised")
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(pmhgraph.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"] + ["raised"] * 5


def test_a_searched_graph_still_pickles_and_copies():
    """A graph keeps its kernel objects and its dominating-cycle memo once
    searched; a pickle, deep copy or copy of it leaves them out, equals and
    hashes as the original, and searches to the same results with state of
    its own."""
    lg = build_line_graph(make_named_graph("cube", [])).lg
    forced = sorted(next(enumerate_perfect_matchings(lg)).edges)
    ham = find_hamiltonian_cycle(lg, forced)
    longest = longest_cycle_search(lg)
    dominating = find_dominating_cycle(lg, allowed_untouched={0, 1})
    kept = (lg._search_graph, lg._edge_table, lg._dominating_cache)
    assert None not in kept
    for twin in (pickle.loads(pickle.dumps(lg)), copy.deepcopy(lg),
                 copy.copy(lg)):
        assert twin == lg and hash(twin) == hash(lg)
        assert (twin._search_graph, twin._edge_table,
                twin._dominating_cache) == (None, None, None)
        assert find_hamiltonian_cycle(twin, forced) == ham
        assert longest_cycle_search(twin) == longest
        assert find_dominating_cycle(twin, allowed_untouched={0, 1}) \
            == dominating
        assert twin._search_graph is not kept[0]
        assert twin._dominating_cache is not kept[2]
    assert (lg._search_graph, lg._edge_table, lg._dominating_cache) == kept
    assert find_hamiltonian_cycle(lg, forced) == ham
