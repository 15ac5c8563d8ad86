from itertools import combinations

import pytest

from pmhgraph._kernel import MAX_VERTICES
from pmhgraph.corpus import generate_all_graphs
from pmhgraph.errors import CapacityError, ParityError, PreconditionError
from pmhgraph.graph_core import Graph, make_named_graph
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import (P3Decomposition, count_perfect_matchings,
                               enumerate_perfect_matchings,
                               find_p3_decomposition,
                               has_perfect_matching_with, make_matching,
                               matching_to_p3, one_extendability_check,
                               p3_to_matching, validate_p3_decomposition)

from conftest import random_graph


def test_make_matching_validation():
    g = make_named_graph("cycle", [4])
    m = make_matching(g, [(1, 0), (2, 3)])
    assert m.is_perfect() and m.edges == {(0, 1), (2, 3)}
    with pytest.raises(PreconditionError):
        make_matching(g, [(0, 2)])                 # not an edge
    with pytest.raises(PreconditionError):
        make_matching(g, [(0, 1), (1, 2)])         # collide at 1


def test_known_matching_counts():
    assert count_perfect_matchings(make_named_graph("complete", [4])) == 3
    assert count_perfect_matchings(make_named_graph("complete", [6])) == 15
    assert count_perfect_matchings(make_named_graph("cycle", [6])) == 2
    assert count_perfect_matchings(make_named_graph("petersen", [])) == 6
    assert count_perfect_matchings(make_named_graph("cycle", [5])) == 0
    # deeper than Python's recursion limit
    assert count_perfect_matchings(make_named_graph("cycle", [2000])) == 2
    lgm = build_line_graph(make_named_graph("coxeter", []))
    assert count_perfect_matchings(lgm.lg) == 32768
    # K_{2k} has (2k - 1)!! (one, the empty matching, for k = 0)
    odd_factorial = 1
    for k in range(7):
        odd_factorial *= max(2 * k - 1, 1)
        k2k = Graph.from_edges(2 * k, combinations(range(2 * k), 2))
        assert count_perfect_matchings(k2k) == odd_factorial


def test_enumeration_is_deterministic_and_valid(rng):
    for _ in range(20):
        g = random_graph(rng, 8, 0.45)
        first = [sorted(m.edges) for m in enumerate_perfect_matchings(g)]
        second = [sorted(m.edges) for m in enumerate_perfect_matchings(g)]
        assert first == second == sorted(first)
        for edges in first:
            flat = [v for e in edges for v in e]
            assert sorted(flat) == list(range(8))
            assert all(tuple(e) in g.edges for e in edges)
        assert len({tuple(map(tuple, e)) for e in map(tuple, first)}) == len(first)


def test_has_perfect_matching_with():
    c6 = make_named_graph("cycle", [6])
    assert has_perfect_matching_with(c6, [(0, 1)])
    assert has_perfect_matching_with(c6, [(0, 1), (2, 3)])
    assert not has_perfect_matching_with(c6, [(0, 1), (1, 2)])
    assert not has_perfect_matching_with(c6, [(0, 2)])
    assert not has_perfect_matching_with(c6, [(1, 1)])
    c2000 = make_named_graph("cycle", [2000])
    assert has_perfect_matching_with(c2000, [(1, 2)])
    assert not has_perfect_matching_with(c2000, [(1, 2), (4, 5)])


def _brute_perfect_matchings(g):
    """Every set of n/2 pairwise disjoint edges of g."""
    if g.n % 2:
        return []
    return [set(ms) for ms in combinations(sorted(g.edges), g.n // 2)
            if len({v for e in ms for v in e}) == g.n]


def test_has_perfect_matching_with_against_brute_force():
    """Every graph on 1 to 6 vertices, with no required edge, each edge,
    and each pair of disjoint edges, in either orientation."""
    checked, found = 0, 0
    for n in range(1, 7):
        for g in generate_all_graphs(n):
            brute = _brute_perfect_matchings(g)
            es = sorted(g.edges)
            asks = [[]] + [[e] for e in es] + [
                [e, f[::-1]] for e, f in combinations(es, 2)
                if not set(e) & set(f)]
            for req in asks:
                want = any({tuple(sorted(e)) for e in req} <= m for m in brute)
                assert has_perfect_matching_with(g, req) == want, (g, req)
                checked += 1
                found += want
    assert (checked, found) == (3559, 1790)


def test_matching_functions_refuse_a_graph_above_the_kernel_bound():
    n = MAX_VERTICES + 2
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    bound = f"{n} vertices, above the search bound {MAX_VERTICES}"
    with pytest.raises(CapacityError, match=bound):
        next(enumerate_perfect_matchings(g))
    with pytest.raises(CapacityError, match=bound):
        count_perfect_matchings(g)
    with pytest.raises(CapacityError, match=bound):
        has_perfect_matching_with(g, [(0, 1)])


def test_p3_bijection_roundtrip():
    for name, params in [("complete", [4]), ("cube", []), ("cycle", [8])]:
        lgm = build_line_graph(make_named_graph(name, params))
        for m in enumerate_perfect_matchings(lgm.lg):
            decomp = matching_to_p3(lgm, m)
            assert validate_p3_decomposition(lgm.base, decomp)
            back = p3_to_matching(lgm, decomp)
            assert back.edges == m.edges


def test_matching_to_p3_requires_perfect():
    lgm = build_line_graph(make_named_graph("complete", [4]))
    partial = make_matching(lgm.lg, [(0, 1)])
    with pytest.raises(PreconditionError):
        matching_to_p3(lgm, partial)


def test_validate_p3_rejects_defects():
    g = make_named_graph("cycle", [4])
    good = find_p3_decomposition(g)
    assert validate_p3_decomposition(g, good)
    # wrong center
    (c, (e1, e2)), other = good.paths
    bad = P3Decomposition(paths=((1 - c if c == 0 else 0, (e1, e2)), other))
    assert not validate_p3_decomposition(g, bad)
    # dropped path
    assert not validate_p3_decomposition(g, P3Decomposition(paths=(good.paths[0],)))


def test_find_p3_decomposition_on_even_corpus(rng):
    found = 0
    while found < 15:
        g = random_graph(rng, 7, 0.5)
        if not g.is_connected() or len(g.edges) % 2:
            continue
        found += 1
        decomp = find_p3_decomposition(g)
        assert validate_p3_decomposition(g, decomp)


def test_find_p3_decomposition_errors():
    with pytest.raises(ParityError):
        find_p3_decomposition(make_named_graph("cycle", [5]))
    from pmhgraph.errors import StructureError
    with pytest.raises(StructureError):
        find_p3_decomposition(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_one_extendability():
    ok, witness = one_extendability_check(make_named_graph("complete", [4]))
    assert ok and witness is None
    ok, witness = one_extendability_check(make_named_graph("path", [4]))
    assert not ok and witness == (1, 2)
