import pytest

from pmhgraph.constructions import (prop6_construct, remark1_reduction,
                                    y_extension, y_reduction)
from pmhgraph.errors import ParityError, PreconditionError
from pmhgraph.graph_core import Graph, are_isomorphic, make_named_graph
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import enumerate_perfect_matchings


def test_y_extension_shape(petersen):
    out, s = y_extension(petersen, 0)
    assert out.n == 12 and len(out.edges) == 18
    assert out.degree_sequence() == (3,) * 12
    assert s.new_vertices == (0, 10, 11)
    a, b, c = s.new_vertices
    assert out.has_edge(a, b) and out.has_edge(a, c) and out.has_edge(b, c)
    # each corner keeps exactly one former neighbor of vertex 0
    former = sorted(petersen.adjacency[0])
    for corner, w in zip(s.new_vertices, former):
        assert out.has_edge(corner, w)


def test_y_extension_requires_degree_3():
    with pytest.raises(PreconditionError):
        y_extension(make_named_graph("cycle", [5]), 0)


def test_y_roundtrip(petersen):
    out, s = y_extension(petersen, 3)
    back, _s2 = y_reduction(out, s.new_vertices)
    assert are_isomorphic(back, petersen)


def test_y_reduction_preconditions():
    k4 = make_named_graph("complete", [4])
    with pytest.raises(PreconditionError):
        y_reduction(k4, (0, 1, 2))      # corners share outside neighbor 3
    with pytest.raises(PreconditionError):
        y_reduction(make_named_graph("cycle", [5]), (0, 1, 2))  # no triangle
    bow = make_named_graph("bowtie", [])
    with pytest.raises(PreconditionError):
        y_reduction(bow, (0, 1, 2))     # corner 2 has two outside neighbors


def test_prop6_construct(petersen):
    out, kept, tmap = prop6_construct(petersen, 0)
    assert out.n == 28 and len(out.edges) == 42
    assert len(out.edges) % 2 == 0
    assert out.degree_sequence() == (3,) * 28
    assert kept == 0 and set(tmap) == set(range(1, 10))
    corners = [c for t in tmap.values() for c in t]
    assert len(corners) == len(set(corners)) == 27


def test_prop6_preconditions():
    with pytest.raises(PreconditionError):
        prop6_construct(make_named_graph("cycle", [6]), 0)   # not cubic
    with pytest.raises(ParityError):
        prop6_construct(make_named_graph("complete", [4]), 0)  # even size
    with pytest.raises(PreconditionError):
        prop6_construct(make_named_graph("prism", []), 0)    # not hypoham


def test_remark1_reduction():
    g = make_named_graph("complete", [4])
    lgm = build_line_graph(g)
    for m in enumerate_perfect_matchings(lgm.lg):
        reduced, same = remark1_reduction(lgm, m)
        assert same and are_isomorphic(reduced, g)


def test_remark1_preconditions():
    lgm = build_line_graph(make_named_graph("cube", []))
    m = next(enumerate_perfect_matchings(lgm.lg))
    with pytest.raises(PreconditionError):
        remark1_reduction(build_line_graph(make_named_graph("cycle", [6])),
                          m)  # not cubic
    with pytest.raises(ParityError):
        remark1_reduction(build_line_graph(make_named_graph("prism", [])),
                          m)  # odd size
