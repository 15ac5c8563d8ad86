"""Exhaustive small-graph corpora, generated by vertex augmentation and
deduplicated by canonical form.  Known counts (1, 2, 4, 11, 34, 156, 1044
graphs on 1..7 vertices; 853 connected on <= 7) are asserted in the test
suite as a correctness cross-check.  On 8 vertices the corpus holds the
known 12,346 graphs, 11,117 of them connected (checked outside the test
suite; 11-15 s with Python 3.11 on a 2-vCPU Xeon VM).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graph_core import Graph, canonical_form


def _dedup(graphs):
    """The first graph of each isomorphism class, in input order."""
    reps = {}
    for g in graphs:
        reps.setdefault(canonical_form(g)[0], g)
    return tuple(reps.values())


def _augmented(graphs, max_degree):
    """Each graph of `graphs` with a new vertex joined to a set of its
    vertices, keeping the maximum degree at most `max_degree`."""
    for g in graphs:
        room = [v for v in range(g.n) if g.degree(v) < max_degree]
        for k in range(min(max_degree, len(room)) + 1):
            for subset in combinations(room, k):
                edges = list(g.edges) + [(v, g.n) for v in subset]
                yield Graph.from_edges(g.n + 1, edges)


@lru_cache(maxsize=None)
def _add_vertex(graphs, max_degree):
    """The augmented graphs up to isomorphism.  Memoised on the input tuple,
    so a corpus of order n reuses the one of order n - 1."""
    return _dedup(_augmented(graphs, max_degree))


def generate_all_graphs(n):
    """All graphs on exactly n vertices, up to isomorphism (disconnected
    included)."""
    graphs = (Graph.from_edges(1, []),) if n >= 1 else ()
    for k in range(2, n + 1):
        graphs = _add_vertex(graphs, k - 1)
    return graphs


@lru_cache(maxsize=None)
def generate_connected_graphs(n):
    return tuple(g for g in generate_all_graphs(n) if g.is_connected())


def connected_graphs_upto(n):
    out = []
    for k in range(1, n + 1):
        out.extend(generate_connected_graphs(k))
    return out


def generate_subcubic_graphs(n):
    """All graphs with maximum degree <= 3 on n vertices, up to isomorphism.

    Each order augments the (n-1)-vertex subcubic corpus, so the full corpus
    is never built; the output equals the full corpus filtered by maximum
    degree, graph for graph and in its order.
    """
    graphs = (Graph.from_edges(1, []),) if n >= 1 else ()
    for _ in range(2, n + 1):
        graphs = _add_vertex(graphs, 3)
    return graphs


def connected_subcubic_upto(n, even_size_only=False):
    out = []
    for k in range(3, n + 1):
        for g in generate_subcubic_graphs(k):
            if not g.is_connected():
                continue
            if even_size_only and len(g.edges) % 2:
                continue
            out.append(g)
    return out
