import time

import pytest

from pmhgraph.errors import FormatError, ParameterError
from pmhgraph.graph_core import (Graph, are_isomorphic, generator_tags,
                                 make_named_graph, parse_graph6, write_graph6)

from conftest import random_graph


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)
    assert g.degree(1) == 2 and g.degree_sequence() == (1, 1, 2, 2)
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]
    assert g.is_connected()
    assert not Graph.from_edges(3, [(0, 1)]).is_connected()


def test_edge_normalization_rejects_bad_edges():
    with pytest.raises(Exception):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(Exception):
        Graph.from_edges(3, [(0, 5)])


def test_named_generators():
    assert set(generator_tags()) >= {"complete", "bipartite", "cycle", "path",
                                     "petersen", "prism", "cube", "bowtie"}
    k5 = make_named_graph("complete", [5])
    assert k5.n == 5 and len(k5.edges) == 10
    b = make_named_graph("bipartite", [2, 3])
    assert b.n == 5 and len(b.edges) == 6
    pet = make_named_graph("petersen", [])
    assert pet.n == 10 and pet.degree_sequence() == (3,) * 10
    cube = make_named_graph("cube", [])
    assert cube.n == 8 and len(cube.edges) == 12
    octa = make_named_graph("octahedron", [])
    assert octa.degree_sequence() == (4,) * 6
    cox = make_named_graph("coxeter", [])
    assert cox.n == 28 and len(cox.edges) == 42
    assert cox.degree_sequence() == (3,) * 28 and cox.is_connected()


def test_named_generator_errors():
    with pytest.raises(ParameterError):
        make_named_graph("nope", [])
    with pytest.raises(ParameterError):
        make_named_graph("complete", [])
    with pytest.raises(ParameterError):
        make_named_graph("cycle", [0])
    with pytest.raises(ParameterError):
        make_named_graph("cycle", [2])
    with pytest.raises(ParameterError):
        make_named_graph("bipartite", [129, 128])    # 16,512 edges


def test_graph6_roundtrip_known():
    # K4 in graph6 is "C~"
    k4 = make_named_graph("complete", [4])
    assert write_graph6(k4) == "C~"
    assert parse_graph6("C~").edges == k4.edges


def test_graph6_roundtrip_random(rng):
    """Both ways, byte for byte, also with the 4-byte order field (n > 62)."""
    for n in [*range(80), 120, 200, 259]:
        for p in (0.0, 0.3, 1.0):
            g = random_graph(rng, n, p)
            text = write_graph6(g)
            assert parse_graph6(text).edges == g.edges
            assert write_graph6(parse_graph6(text)) == text


def test_graph6_parse_is_linear():
    n = 2000
    text = write_graph6(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    t0 = time.perf_counter()
    g = parse_graph6(text)
    assert time.perf_counter() - t0 < 1
    assert g.n == n and len(g.edges) == n and g.degree_sequence() == (2,) * n


def test_graph6_format_errors():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("C~!")        # trailing junk
    with pytest.raises(FormatError):
        parse_graph6("C")          # truncated bit field
    err = pytest.raises(FormatError, parse_graph6, "C\x19").value
    assert err.offset is not None
    # non-ASCII text is not graph6, even where "?" would be: "C?" is a graph
    err = pytest.raises(FormatError, parse_graph6, "C\u00e9").value
    assert err.offset == 1


def test_isomorphism():
    c6 = make_named_graph("cycle", [6])
    shuffled = Graph.from_edges(6, [(3, 5), (5, 1), (1, 0), (0, 4), (4, 2),
                                    (2, 3)])
    assert are_isomorphic(c6, shuffled)
    ok, mapping = are_isomorphic(c6, shuffled, witness=True)
    assert ok and sorted(mapping) == list(range(6))
    # same degree sequence, different structure: C6 vs two triangles
    two_tri = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                   (3, 5)])
    assert not are_isomorphic(c6, two_tri)
    assert not are_isomorphic(c6, make_named_graph("cycle", [5]))

