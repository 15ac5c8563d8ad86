import pytest

from pmhgraph.errors import PreconditionError
from pmhgraph.graph_core import Graph, are_isomorphic, make_named_graph
from pmhgraph.line_graph import build_line_graph


def test_line_graph_of_path3_is_single_edge():
    lgm = build_line_graph(make_named_graph("path", [3]))
    assert lgm.lg.n == 2 and lgm.lg.edges == frozenset({(0, 1)})
    assert lgm.centre == {(0, 1): 1}


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
            shared = set(lgm.from_lg[a]) & set(lgm.from_lg[b])
            assert lgm.lg.has_edge(a, b) == bool(shared)
            if shared:
                assert {lgm.centre[(a, b)]} == shared


def test_preconditions():
    with pytest.raises(PreconditionError):
        build_line_graph(Graph.from_edges(2, [(0, 1)]))
    with pytest.raises(PreconditionError):
        build_line_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_canonical_partition_partitions_lg_edges():
    """The clique partition of E(L(G)): each edge of L(G) has one centre,
    and the d(d-1)/2 edges centred at a base vertex of degree d join the
    lg vertices of its edges pairwise."""
    for name, params in [("complete", [4]), ("complete", [5]), ("cube", []),
                         ("bowtie", []), ("path", [4])]:
        g = make_named_graph(name, params)
        lgm = build_line_graph(g)
        assert set(lgm.centre) == lgm.lg.edges   # keys (a, b), a < b
        for v in range(g.n):
            star = sorted(lgm.lg_vertex(v, w) for w in g.adjacency[v])
            assert {e for e, c in lgm.centre.items() if c == v} == {
                (a, b) for i, a in enumerate(star) for b in star[i + 1:]}


def _centred_at(lgm):
    """The number of L(G) edges centred at each base vertex."""
    at = [0] * lgm.base.n
    for c in lgm.centre.values():
        at[c] += 1
    return at


def test_subcubic_partition_has_small_cliques():
    # a triangle of 3 edges at every vertex of the cubic Petersen graph
    at = _centred_at(build_line_graph(make_named_graph("petersen", [])))
    assert at == [3] * 10


def test_c4_partition_contributes_one_edge_per_clique():
    at = _centred_at(build_line_graph(make_named_graph("cycle", [4])))
    assert at == [1] * 4
