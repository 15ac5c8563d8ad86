"""Acceptance criteria: one test per criterion, exercising the constructive
routines against independent oracles on exhaustive small corpora.

Criterion 9 carries a documented deviation: the two-squares graph refutes the
claimed universal extension (see test_criterion_09 docstrings); the
construction's verdicts still match the brute-force oracle exactly.
"""

import time
from itertools import combinations, islice

import pytest

from pmhgraph.corpus import (connected_graphs_upto, connected_subcubic_upto,
                             generate_all_graphs, _dedup)
from pmhgraph.cycles import (circumference, find_hamiltonian_cycle,
                             has_dominating_tour, is_arbitrarily_traceable,
                             is_hypohamiltonian, validate_walk)
from pmhgraph.errors import StructureError
from pmhgraph.graph_core import Graph, are_isomorphic, make_named_graph
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import (count_perfect_matchings,
                               enumerate_perfect_matchings)
from pmhgraph.pmh import (colouring_from_matching, count_pc_hamiltonian_cycles,
                          enumerate_hamiltonian_cycles,
                          extend_matching_arb_traceable,
                          extend_matching_bipartite, extend_matching_complete,
                          extend_matching_subcubic, haggkvist_condition,
                          is_pmh, kotzig_partition, lasvergnas_condition)
from pmhgraph.constructions import prop6_construct, remark1_reduction

from conftest import two_squares


def test_criterion_01_line_graph_of_cycle_is_cycle():
    t0 = time.time()
    for n in range(3, 11):
        cn = make_named_graph("cycle", [n])
        assert are_isomorphic(build_line_graph(cn).lg, cn)
    assert time.time() - t0 < 1.0


def test_criterion_02_line_graph_of_k4():
    t0 = time.time()
    g = make_named_graph("complete", [4])
    lgm = build_line_graph(g)
    matchings = list(enumerate_perfect_matchings(lgm.lg))
    assert len(matchings) == 8
    assert is_pmh(lgm.lg).is_pmh
    for m in matchings:
        direct = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
        via_construction = extend_matching_subcubic(lgm, m)
        assert direct.outcome == via_construction.outcome == "found"
        assert via_construction.walk.contains_edges(m.edges)
        assert validate_walk(lgm.lg, via_construction.walk)
    assert time.time() - t0 < 1.0


def test_criterion_03_k5_pipeline():
    t0 = time.time()
    k5 = make_named_graph("complete", [5])
    assert sum(1 for _ in enumerate_hamiltonian_cycles(k5)) == 12
    lgm = build_line_graph(k5)
    count = 0
    for m in enumerate_perfect_matchings(lgm.lg):
        count += 1
        c = colouring_from_matching(lgm, m)
        assert count_pc_hamiltonian_cycles(k5, c, limit=2) >= 2
        walk = extend_matching_complete(lgm, m).walk
        assert validate_walk(lgm.lg, walk) and walk.contains_edges(m.edges)
    assert count == 144
    assert is_pmh(lgm.lg).is_pmh
    assert time.time() - t0 < 30.0


def test_criterion_04_dominating_cycle_equivalence():
    graphs = [g for g in connected_subcubic_upto(8, even_size_only=True)
              if g.n >= 3]
    checked = 0
    for g in graphs:
        lgm = build_line_graph(g)
        for m in enumerate_perfect_matchings(lgm.lg):
            constructed = extend_matching_subcubic(lgm, m)
            oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
            assert constructed.outcome == oracle.outcome, (g.edges, m.edges)
            checked += 1
    assert checked > 500


def test_criterion_05_two_cycle_partition_cubic_hamiltonian():
    nonvacuous = {}
    for name, params in [("complete", [4]), ("bipartite", [3, 3]),
                         ("prism", []), ("cube", [])]:
        g = make_named_graph(name, params)
        assert all(g.degree(v) == 3 for v in range(g.n))
        assert find_hamiltonian_cycle(g).outcome == "found"
        lgm = build_line_graph(g)
        count = 0
        for m in enumerate_perfect_matchings(lgm.lg):
            h1, h2, _nodes = kotzig_partition(lgm, m)
            assert h1.contains_edges(m.edges)
            e1, e2 = set(h1.edge_seq), set(h2.edge_seq)
            assert e1.isdisjoint(e2) and e1 | e2 == set(lgm.lg.edges)
            count += 1
        nonvacuous[name] = count
    # odd-size bases (9 edges) have no perfect matchings in their line graphs
    assert nonvacuous == {"complete": 8, "bipartite": 0, "prism": 0,
                          "cube": 32}


def test_criterion_06_dominating_tour_criterion():
    mismatches = 0
    checked = 0
    for g in connected_graphs_upto(7):
        if len(g.edges) < 3:
            continue  # the published equivalence assumes size >= 3
        lgm = build_line_graph(g)
        tour = has_dominating_tour(g)
        ham = find_hamiltonian_cycle(lgm.lg).outcome == "found"
        mismatches += tour != ham
        checked += 1
    assert checked > 900 and mismatches == 0


def test_criterion_07_circumference_counterexample():
    pet = make_named_graph("petersen", [])
    out, keep, _tmap = prop6_construct(pet, 0)
    assert out.n == 28 and len(out.edges) == 42
    assert circumference(out) == 27
    lgm = build_line_graph(out)
    matching = next(m for m in enumerate_perfect_matchings(lgm.lg)
                    if any(lgm.centre[e] == keep for e in m.edges))
    res = find_hamiltonian_cycle(lgm.lg, forced=sorted(matching.edges))
    assert res.outcome == "absent"        # certified by exhaustion
    assert not is_pmh(lgm.lg).is_pmh


def test_criterion_08_hypohamiltonian_even_size():
    g = make_named_graph("coxeter", [])
    assert all(g.degree(v) == 3 for v in range(g.n))
    assert len(g.edges) % 2 == 0
    assert is_hypohamiltonian(g)
    verdict = is_pmh(build_line_graph(g).lg)
    assert verdict.is_pmh and not verdict.vacuous
    assert verdict.matchings_tested == 32768
    # the kernel's search-tree size, the same on both backends (10,211,097
    # before the leaf test on required edges)
    assert verdict.nodes == 5_088_808


def test_criterion_09_constrained_tour_matches_oracle():
    """The construction's verdict equals the brute-force oracle's on every
    perfect matching of both named graphs, and the bowtie extends fully."""
    t0 = time.time()
    bow = make_named_graph("bowtie", [])
    lgm = build_line_graph(bow)
    assert is_arbitrarily_traceable(bow, 2)
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, m)
        oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
        assert res.outcome == oracle.outcome == "found"
        assert res.walk.contains_edges(m.edges)

    sq = two_squares()
    lgm = build_line_graph(sq)
    assert is_arbitrarily_traceable(sq, 0)
    outcomes = []
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_arb_traceable(lgm, m)
        oracle = find_hamiltonian_cycle(lgm.lg, forced=sorted(m.edges))
        assert res.outcome == oracle.outcome
        if res.walk is not None:
            assert res.walk.contains_edges(m.edges)
        outcomes.append(res.outcome)
    assert sorted(outcomes) == ["absent"] * 3 + ["found"] * 3
    assert time.time() - t0 < 10.0


@pytest.mark.xfail(strict=True, reason=(
    "the two-squares graph is arbitrarily traceable from vertex 0 with even "
    "size, yet three of the six perfect matchings of its line graph are "
    "non-extendable (certified by exhaustive search and by full enumeration "
    "of the line graph's hamiltonian cycles), so universal extension is "
    "impossible on this input"))
def test_criterion_09_two_squares_universal_extension_refuted():
    sq = two_squares()
    lgm = build_line_graph(sq)
    for m in enumerate_perfect_matchings(lgm.lg):
        assert extend_matching_arb_traceable(lgm, m).outcome == "found"


def test_criterion_10_reduction_reconstructs_base():
    nonvacuous = {}
    for name, params in [("complete", [4]), ("prism", []), ("cube", [])]:
        g = make_named_graph(name, params)
        count = 0
        lgm = build_line_graph(g)
        if len(g.edges) % 2 == 0:
            for m in enumerate_perfect_matchings(lgm.lg):
                _reduced, same = remark1_reduction(lgm, m)
                assert same
                count += 1
        nonvacuous[name] = count
    assert nonvacuous == {"complete": 8, "prism": 0, "cube": 32}


def _passes_sufficient_condition(g):
    try:
        if haggkvist_condition(g):
            return True
    except StructureError:
        pass
    try:
        return lasvergnas_condition(g)
    except StructureError:
        return False


def test_criterion_11_sufficient_conditions_imply_pmh():
    qualifying = []
    for n in (4, 6):
        qualifying += [g for g in generate_all_graphs(n)
                       if _passes_sufficient_condition(g)]
    # all 8-vertex graphs arise as a 7-vertex corpus graph plus one vertex;
    # the sparse majority is filtered out before the isomorphism dedup
    survivors = []
    for g in generate_all_graphs(7):
        base = list(g.edges)
        for k in range(8):
            for subset in combinations(range(7), k):
                h = Graph.from_edges(8, base + [(v, 7) for v in subset])
                if _passes_sufficient_condition(h):
                    survivors.append(h)
    qualifying += _dedup(survivors)
    assert len(qualifying) > 100
    violations = [g for g in qualifying if not is_pmh(g).is_pmh]
    assert violations == []


def test_criterion_12_bipartite_pipeline_at_desk_scale():
    lgm = build_line_graph(make_named_graph("bipartite", [2, 2]))
    count = 0
    for m in enumerate_perfect_matchings(lgm.lg):
        res = extend_matching_bipartite(lgm, m)
        assert res.outcome == "found"
        assert validate_walk(lgm.lg, res.walk)
        assert res.walk.contains_edges(m.edges)
        count += 1
    assert count == count_perfect_matchings(lgm.lg) > 0

    lgm = build_line_graph(make_named_graph("bipartite", [4, 4]))
    sampled = 0
    for m in islice(enumerate_perfect_matchings(lgm.lg), 120):
        res = extend_matching_bipartite(lgm, m)
        assert res.outcome in ("found", "inconclusive")  # never invalid
        if res.outcome == "found":
            assert validate_walk(lgm.lg, res.walk)
            assert res.walk.contains_edges(m.edges)
        sampled += 1
    assert sampled >= 100
