import pytest

from pmhgraph.errors import PreconditionError
from pmhgraph.graph_core import Graph, are_isomorphic, make_named_graph
from pmhgraph.line_graph import (build_line_graph, canonical_partition,
                                 clique_of_lg_edge)


def test_line_graph_of_path3_is_single_edge():
    lgm = build_line_graph(make_named_graph("path", [3]))
    assert lgm.lg.n == 2 and lgm.lg.edges == frozenset({(0, 1)})
    cp = canonical_partition(lgm)
    assert len(cp.cliques) == 1
    (center, members), = cp.cliques
    assert center == 1 and members == frozenset({0, 1})


def test_line_graph_vertex_ids_are_dense_edge_ids():
    g = make_named_graph("bowtie", [])
    lgm = build_line_graph(g)
    assert lgm.from_lg == tuple(g.edge_list())
    for i, (u, v) in enumerate(lgm.from_lg):
        assert lgm.lg_vertex(u, v) == i == lgm.lg_vertex(v, u)


def test_line_graph_of_k4_is_octahedron():
    lgm = build_line_graph(make_named_graph("complete", [4]))
    assert are_isomorphic(lgm.lg, make_named_graph("octahedron", []))


def test_line_graph_adjacency_is_edge_incidence():
    g = make_named_graph("petersen", [])
    lgm = build_line_graph(g)
    for a in range(lgm.lg.n):
        for b in range(a + 1, lgm.lg.n):
            shares = bool(set(lgm.from_lg[a]) & set(lgm.from_lg[b]))
            assert lgm.lg.has_edge(a, b) == shares


def test_preconditions():
    with pytest.raises(PreconditionError):
        build_line_graph(Graph.from_edges(2, [(0, 1)]))
    with pytest.raises(PreconditionError):
        build_line_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_canonical_partition_partitions_lg_edges():
    for name, params in [("complete", [4]), ("cube", []), ("bowtie", []),
                         ("cycle", [4])]:
        g = make_named_graph(name, params)
        lgm = build_line_graph(g)
        cp = canonical_partition(lgm)
        assert [c for c, _m in cp.cliques] == [v for v in range(g.n)
                                               if g.degree(v) >= 2]
        covered = []
        for _center, members in cp.cliques:
            ms = sorted(members)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    assert lgm.lg.has_edge(ms[i], ms[j])  # members form a clique
                    covered.append((ms[i], ms[j]))
        assert len(covered) == len(set(covered)) == len(lgm.lg.edges)
        assert set(covered) == set(lgm.lg.edges)


def test_subcubic_partition_has_small_cliques():
    g = make_named_graph("petersen", [])
    cp = canonical_partition(build_line_graph(g))
    assert all(len(members) in (2, 3) for _v, members in cp.cliques)


def test_c4_partition_contributes_one_edge_per_clique():
    cp = canonical_partition(build_line_graph(make_named_graph("cycle", [4])))
    assert len(cp.cliques) == 4
    assert all(len(members) == 2 for _v, members in cp.cliques)


def test_clique_of_lg_edge():
    g = make_named_graph("bowtie", [])
    lgm = build_line_graph(g)
    cp = canonical_partition(lgm)
    for a, b in lgm.lg.edge_list():
        v = clique_of_lg_edge(cp, (a, b))
        assert {a, b} <= cp.clique_of(v)
    with pytest.raises(KeyError):
        non_edge = next((a, b) for a in range(lgm.lg.n)
                        for b in range(a + 1, lgm.lg.n)
                        if not lgm.lg.has_edge(a, b))
        clique_of_lg_edge(cp, non_edge)
