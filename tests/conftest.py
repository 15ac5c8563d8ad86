"""Shared helpers: naive reference oracles and common graphs.

The naive oracles are deliberately dumb (permutation sweeps) so they share
no code or pruning ideas with the search kernels they validate.
"""

import copy
import random
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import combinations, permutations
from pathlib import Path

import pytest

import pmhgraph
from pmhgraph import _kernel
from pmhgraph.cycles import euler_tour
from pmhgraph.graph_core import Graph, make_named_graph
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import make_matching


BACKEND_LINE = f"pmhgraph kernel backend: {pmhgraph.kernel_backend}"


def pytest_sessionstart(session):
    """Stop when the compiled kernel beside `_fastcore.c` was built from an
    older source or does not load, so the tests never pass against a stale
    binary."""
    source = Path(_kernel.__file__).with_name("_fastcore.c")
    try:
        from pmhgraph._kernel import _fastcore
    except ImportError as exc:
        stale = (any(source.with_name("_fastcore" + suffix).exists()
                     for suffix in EXTENSION_SUFFIXES)
                 and f"the compiled kernel does not load: {exc}")
    else:
        so = Path(_fastcore.__file__)
        # setuptools copies the binary with its mtime cut to whole seconds
        stale = (so.parent == source.parent and source.exists()
                 and so.stat().st_mtime < int(source.stat().st_mtime)
                 and f"{so.name} is older than {source.name}")
    if stale:
        pytest.exit(f"{stale}; rebuild: python setup.py build_ext --inplace",
                    returncode=1)


def pytest_report_header(config):
    return BACKEND_LINE


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so the summary repeats the line for quiet logs.
    terminalreporter.write_line(BACKEND_LINE)


def naive_ham_cycle(g, forced=()):
    """Permutation-sweep hamiltonian cycle containing the forced edges, or
    None.  Exponential; callers keep n small."""
    if g.n < 3:
        return None
    need = {(min(u, v), max(u, v)) for u, v in forced}
    for perm in permutations(range(1, g.n)):
        cyc = (0,) + perm
        es = {(min(cyc[i], cyc[(i + 1) % g.n]),
               max(cyc[i], cyc[(i + 1) % g.n])) for i in range(g.n)}
        if need <= es and all(e in g.edges for e in es):
            return cyc
    return None


def naive_longest_cycle_length(g):
    """Longest cycle length by sweeping vertex subsets, or 0 if acyclic."""
    for k in range(g.n, 2, -1):
        for sub in combinations(range(g.n), k):
            for perm in permutations(sub[1:]):
                cyc = (sub[0],) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    return k
    return 0


def naive_canonical_form(g):
    """The least sorted edge tuple over all n! relabellings of g."""
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v]))
                            for u, v in g.edges))
               for p in permutations(range(g.n)))


def relabelled(g, rng):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def euler_matching(lgm, rng):
    """A perfect matching of L(G), for G eulerian of even size: relabel G
    by a seeded permutation, take `euler_tour` of the copy and pair its
    edges in tour order.  Consecutive edges of a tour share a vertex, so
    each pair, read back in G's labels, is an edge of L(G)."""
    g = lgm.base
    perm = list(range(g.n))
    rng.shuffle(perm)
    back = {p: v for v, p in enumerate(perm)}
    tour = euler_tour(Graph.from_edges(g.n, [(perm[u], perm[v])
                                             for u, v in g.edges]))
    steps = [lgm.lg_vertex(back[a], back[b]) for a, b in tour.edge_seq]
    return make_matching(lgm.lg, zip(steps[::2], steps[1::2]))


@pytest.fixture(scope="session")
def lk50():
    """L(K_{50,50}), case (iii)'s smallest base: 2,500 vertices of degree
    98."""
    return build_line_graph(make_named_graph("bipartite", [50, 50]))


def random_graph(rng, n, p):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng():
    return random.Random(20260823)


def two_squares():
    """Two 4-cycles sharing vertex 0; arbitrarily traceable from 0."""
    return Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                (0, 4), (4, 5), (5, 6), (6, 0)])


@pytest.fixture
def petersen():
    return make_named_graph("petersen", [])


@pytest.fixture
def k4():
    return make_named_graph("complete", [4])


def on_twin(monkeypatch, impl, *graphs):
    """Route the package's searches and re-checks to the kernel twin `impl`,
    its per-graph objects included, since neither twin reads the other's.
    Returns copies of `graphs`, which keep no kernel object made before."""
    for name in ("SearchGraph", "EdgeTable", "ham_cycle", "is_cycle",
                 "longest_cycle"):
        monkeypatch.setattr(_kernel, name, getattr(impl, name))
    return [copy.copy(g) for g in graphs]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The order (vertex count) of each graph handed to the hamiltonian
    kernel while the test runs."""
    calls = []
    search = _kernel.ham_cycle

    def counted(adj, forced, max_nodes):
        calls.append(len(adj))
        return search(adj, forced, max_nodes)

    monkeypatch.setattr(_kernel, "ham_cycle", counted)
    return calls
