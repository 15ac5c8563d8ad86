from itertools import combinations

from pmhgraph.corpus import (connected_graphs_upto, connected_subcubic_upto,
                             generate_all_graphs, generate_connected_graphs,
                             generate_subcubic_graphs)
from pmhgraph.graph_core import Graph, canonical_form

from conftest import naive_canonical_form, relabelled


def test_counts_match_known_sequence():
    # numbers of graphs on n unlabeled vertices
    want = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in want.items():
        assert len(generate_all_graphs(n)) == count


def test_connected_counts():
    # connected graphs on n unlabeled vertices: 1, 1, 2, 6, 21, 112, 853
    want = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in want.items():
        assert len(generate_connected_graphs(n)) == count
    assert len(connected_graphs_upto(7)) == sum(want.values())


def test_corpus_is_pairwise_nonisomorphic_by_naive_forms():
    graphs = [g for n in range(1, 7) for g in generate_all_graphs(n)]
    assert len(graphs) == 208
    assert len({(g.n, naive_canonical_form(g)) for g in graphs}) == len(graphs)


def test_canonical_form_ignores_labels(rng):
    for n in range(1, 7):
        for g in generate_all_graphs(n):
            assert canonical_form(relabelled(g, rng))[0] == canonical_form(g)[0]


def test_subcubic_agrees_with_filtering():
    """The subcubic augmentation gives the filtered full corpus, graph for
    graph and in its order."""
    for n in range(0, 8):
        direct = generate_subcubic_graphs(n)
        filtered = [g for g in generate_all_graphs(n) if g.max_degree() <= 3]
        assert [(g.n, g.edges) for g in direct] == \
            [(g.n, g.edges) for g in filtered]


def test_subcubic_augmentation_beyond_filter_range():
    graphs = generate_subcubic_graphs(8)
    assert all(g.max_degree() <= 3 for g in graphs)
    # the augmentation is checked against direct filtering for n <= 7
    # (test above); this pins the n = 8 output against regressions
    assert len(graphs) == 424


def test_connected_subcubic_upto_filters():
    graphs = connected_subcubic_upto(7, even_size_only=True)
    assert all(g.is_connected() for g in graphs)
    assert all(len(g.edges) % 2 == 0 for g in graphs)
    assert all(g.max_degree() <= 3 for g in graphs)


def _grown_over_every_subset(n, max_degree=None):
    """The corpus of order n as the augmentation over every subset of the
    vertices with room (degree below `max_degree`, or below the new
    vertex's largest possible degree), keeping the first graph of each
    form: the reference for skipping twin-swapped subsets."""
    graphs = [Graph(1)] if n >= 1 else []
    for order in range(2, n + 1):
        cap = order - 1 if max_degree is None else max_degree
        reps = {}
        for g in graphs:
            room = [v for v in range(g.n) if g.degree(v) < cap]
            for k in range(min(cap, len(room)) + 1):
                for subset in combinations(room, k):
                    child = Graph.from_edges(
                        g.n + 1, list(g.edges) + [(v, g.n) for v in subset])
                    reps.setdefault(canonical_form(child)[0], child)
        graphs = list(reps.values())
    return graphs


def test_twin_pruned_augmentation_keeps_every_graph_in_order():
    for n in range(0, 7):
        assert [(g.n, g.edges) for g in generate_all_graphs(n)] == \
            [(g.n, g.edges) for g in _grown_over_every_subset(n)]
    for n in range(0, 9):
        assert [(g.n, g.edges) for g in generate_subcubic_graphs(n)] == \
            [(g.n, g.edges) for g in _grown_over_every_subset(n, 3)]
