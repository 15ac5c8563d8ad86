import time

import pytest

from pmhgraph.errors import CapacityError, FormatError, ParameterError
from pmhgraph.graph_core import (ISO_SIZE_BOUND, Graph, are_isomorphic,
                                 canonical_form, generator_tags,
                                 make_named_graph, parse_graph6, write_graph6)

from conftest import random_graph, relabelled


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


def _same_graph(got, want):
    return (got == want and hash(got) == hash(want)
            and got.adjacency == want.adjacency)


def test_graph6_decodes_every_small_graph():
    """Every graph6 body of every order up to 6, its padding bits cycling
    through all their patterns, decodes to the graph from_edges builds:
    equal, hashed alike and with the same adjacency rows."""
    for n in range(7):
        pairs = [(u, v) for v in range(n) for u in range(v)]    # bit order
        nbytes = (len(pairs) + 5) // 6
        pad = 6 * nbytes - len(pairs)
        for mask in range(1 << len(pairs)):
            # pair i is bit i from the top of the body; padding at the bottom
            body = mask << pad | mask % (1 << pad)
            text = chr(n + 63) + "".join(
                chr((body >> 6 * (nbytes - 1 - i) & 63) + 63)
                for i in range(nbytes))
            want = Graph.from_edges(n, [e for i, e in enumerate(pairs)
                                        if mask >> (len(pairs) - 1 - i) & 1])
            assert _same_graph(parse_graph6(text), want), text


def test_graph6_decodes_the_four_byte_order_field(rng):
    for n in range(63, 71):
        for p in (0.1, 0.5, 0.9):
            want = random_graph(rng, n, p)
            assert _same_graph(parse_graph6(write_graph6(want)), want)


# malformed graph6 text -> (error message, byte offset); the offset counts
# from after a ">>graph6<<" header
MALFORMED = {
    "": ("empty graph6 string", 0),
    " \n": ("empty graph6 string", 0),
    ">>graph6<<": ("empty graph6 string", 0),
    "C~!": ("byte 33 outside graph6 range 63..126", 2),
    ">>graph6<<C~!": ("byte 33 outside graph6 range 63..126", 2),
    "C\x19": ("byte 25 outside graph6 range 63..126", 1),
    "C\u00e9": ("byte 195 outside graph6 range 63..126", 1),
    "\udcff": ("byte 237 outside graph6 range 63..126", 0),
    "C": ("bit vector length 0 bytes, expected 1", 1),
    "C~~": ("bit vector length 2 bytes, expected 1", 1),
    "@?": ("bit vector length 1 bytes, expected 0", 1),
    "~": ("truncated 4-byte order field", 1),
    "~?": ("truncated 4-byte order field", 2),
    "~??~": ("bit vector length 0 bytes, expected 326", 4),
    "~~": ("truncated 8-byte order field", 2),
    "~~?????": ("truncated 8-byte order field", 7),
}


@pytest.mark.parametrize("text", MALFORMED, ids=map(ascii, MALFORMED))
def test_graph6_malformed_input_errors(text):
    message, offset = MALFORMED[text]
    err = pytest.raises(FormatError, parse_graph6, text).value
    assert (str(err), err.offset) == (f"{message} (byte {offset})", offset)


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


def _is_isomorphism(g, h, mapping):
    return (sorted(mapping) == list(range(g.n)) and
            {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges} == h.edges)


def test_isomorphism():
    c6 = make_named_graph("cycle", [6])
    shuffled = Graph.from_edges(6, [(3, 5), (5, 1), (1, 0), (0, 4), (4, 2),
                                    (2, 3)])
    assert are_isomorphic(c6, shuffled)
    ok, mapping = are_isomorphic(c6, shuffled, witness=True)
    assert ok and _is_isomorphism(c6, shuffled, mapping)
    c5 = make_named_graph("cycle", [5])
    assert not are_isomorphic(c6, c5)
    assert are_isomorphic(c6, c5, witness=True) == (False, None)
    big = make_named_graph("path", [ISO_SIZE_BOUND + 1])
    with pytest.raises(CapacityError):
        are_isomorphic(big, big)


# Regular pairs of equal order and degree: refinement alone leaves each graph
# one cell, so only individualisation tells the pair apart.
REGULAR_PAIRS = {
    "C6 vs 2K3": (make_named_graph("cycle", [6]),
                  Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                       (3, 5)])),
    "cube vs Wagner": (make_named_graph("cube", []),
                       Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                                        + [(i, i + 4) for i in range(4)])),
    "Petersen vs pentagonal prism": (
        make_named_graph("petersen", []),
        Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                         + [(i, 5 + i) for i in range(5)])),
}


@pytest.mark.parametrize("pair", REGULAR_PAIRS.values(), ids=REGULAR_PAIRS)
def test_canonical_form_beyond_refinement(pair, rng):
    g, h = pair
    assert canonical_form(g)[0] != canonical_form(h)[0]
    assert not are_isomorphic(g, h)
    for x in (g, h):
        form, lab = canonical_form(x)
        assert form == (x.n, tuple(sorted(tuple(sorted((lab[u], lab[v])))
                                          for u, v in x.edges)))
        for _ in range(5):
            y = relabelled(x, rng)
            assert canonical_form(y)[0] == form
            ok, mapping = are_isomorphic(x, y, witness=True)
            assert ok and _is_isomorphism(x, y, mapping)
