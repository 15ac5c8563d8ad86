"""Simple-graph substrate: construction, named generators, graph6 codec and
canonical forms, which decide isomorphism.

Vertices are dense ids 0..n-1.  Graphs are immutable after construction and
every operation here is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from math import isqrt

from . import _kernel
from .errors import CapacityError, FormatError, ParameterError

# the compiled canonical form keeps one 64-bit neighbour mask per vertex
ISO_SIZE_BOUND = 64
# Largest named instance, in edges: its line graph has one vertex per edge,
# and the search kernels take at most MAX_VERTICES vertices.
GEN_SIZE_BOUND = _kernel.MAX_VERTICES


# what Graph.drop_kernel_state frees and a pickle or copy leaves out
_KEPT_STATE = ("_search_graph", "_edge_table", "_dominating_cache")


def _norm_edge(u, v):
    if u == v:
        raise ParameterError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    # The state that cycles keeps on a graph once it is searched or
    # re-checked (cycles._search_graph, cycles._edge_table,
    # cycles._dominating_memo); class-level None until then, so a first use
    # reads no missing attribute.
    _search_graph = None
    _edge_table = None
    _dominating_cache = None

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n, edges):
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @classmethod
    def _trusted(cls, n, edges, adjacency):
        """The graph with these fields, unchecked: only for a caller that
        guarantees 0 <= u < v < n for every edge and `adjacency` as the
        property builds it (the graph6 decoder)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_adj_cache", adjacency)
        return g

    @property
    def adjacency(self):
        # Not a cached_property: on CPython 3.11 its write through __dict__
        # gives each Graph a dict, which makes reads of n and edges 5x slower.
        try:
            return self._adj_cache
        except AttributeError:
            adj = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            adj = tuple(tuple(sorted(a)) for a in adj)
            object.__setattr__(self, "_adj_cache", adj)
            return adj

    def drop_kernel_state(self):
        """Free the kernel objects and the dominating-cycle memo kept on
        the graph; a later search or re-check makes them again.  For a caller that holds many graphs and is done
        with each, as the CLI runner is."""
        for name in _KEPT_STATE:
            self.__dict__.pop(name, None)

    def __getstate__(self):
        # A pickle or copy leaves out the kept state (the compiled kernel
        # objects cannot be pickled); the copy makes its own on first use.
        return {k: v for k, v in self.__dict__.items() if k not in _KEPT_STATE}

    def degree(self, v):
        return len(self.adjacency[v])

    def max_degree(self):
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u, v):
        return _norm_edge(u, v) in self.edges

    def edge_list(self):
        """Edges in lexicographic order; position = dense edge id."""
        return sorted(self.edges)

    def is_connected(self):
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def degree_sequence(self):
        return tuple(sorted(len(a) for a in self.adjacency))


# ---------------------------------------------------------------------------
# Named generators


def _complete(n):
    return Graph.from_edges(n, combinations(range(n), 2))


def _bipartite(a, b):
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def _cycle(n):
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def _path(n):
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def _petersen():
    # Kneser graph K(5,2): outer 5-cycle, inner pentagram, spokes.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def _prism():
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def _cube():
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return Graph.from_edges(8, edges)


def _bowtie():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _octahedron():
    # K_{2,2,2}: all pairs except the three antipodal ones
    return Graph.from_edges(6, ((u, v) for u, v in combinations(range(6), 2)
                                if v - u != 3))


def _coxeter():
    # three heptagonal rings with steps 1, 2, 3 and seven hub spokes
    edges = []
    for i in range(7):
        edges += [(i, (i + 1) % 7), (7 + i, 7 + (i + 2) % 7),
                  (14 + i, 14 + (i + 3) % 7)]
        edges += [(21 + i, i), (21 + i, 7 + i), (21 + i, 14 + i)]
    return Graph.from_edges(28, edges)


# tag -> (parameter count, builder, edge count from the parameters or None
# for a fixed instance)
_GENERATORS = {
    "complete": (1, _complete, lambda n: n * (n - 1) // 2),
    "bipartite": (2, _bipartite, lambda a, b: a * b),
    "cycle": (1, _cycle, lambda n: n),
    "path": (1, _path, lambda n: n - 1),
    "petersen": (0, _petersen, None),
    "prism": (0, _prism, None),
    "cube": (0, _cube, None),
    "bowtie": (0, _bowtie, None),
    "octahedron": (0, _octahedron, None),
    "coxeter": (0, _coxeter, None),
}


def make_named_graph(name, params=()):
    """Build the canonical labeled instance of a named family; an instance
    above GEN_SIZE_BOUND edges is refused before any edge is built."""
    if name not in _GENERATORS:
        raise ParameterError(f"unknown generator tag {name!r}")
    arity, fn, size = _GENERATORS[name]
    params = list(params)
    if len(params) != arity:
        raise ParameterError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if any(p < 1 for p in params):
        raise ParameterError(f"{name}: parameters must be positive")
    edges = size(*params) if size else 0
    if edges > GEN_SIZE_BOUND:
        raise ParameterError(f"{name} {' '.join(map(str, params))} has {edges} "
                             f"edges, above the bound {GEN_SIZE_BOUND}")
    return fn(*params)


def generator_tags():
    return sorted(_GENERATORS)


# ---------------------------------------------------------------------------
# graph6 codec (dense format only)

_G6_BYTES = bytes(range(63, 127))
_NONZERO = re.compile(rb"[^?]+")
# the set bits of each six-bit value, as offsets from its high bit
_BITS = [tuple(b for b in range(6) if x & 32 >> b) for x in range(64)]


def parse_graph6(text):
    """Decode one graph6 string into a Graph."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string", 0)
    # non-ASCII text encodes to bytes above 126, which the range check rejects
    data = s.encode("utf-8", errors="surrogatepass")
    bad = data.translate(None, _G6_BYTES)
    if bad:
        # the first bad byte is the first byte of its value
        raise FormatError(f"byte {bad[0]} outside graph6 range 63..126",
                          data.index(bad[0]))
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise FormatError("truncated 8-byte order field", len(data))
            n = 0
            for b in data[2:8]:
                n = (n << 6) | (b - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise FormatError("truncated 4-byte order field", len(data))
            n = 0
            for b in data[1:4]:
                n = (n << 6) | (b - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise FormatError(
            f"bit vector length {len(data) - pos} bytes, expected {nbytes}", pos)
    # The inverse of write_graph6: bit k of the body (six bits a byte, high
    # bit first) is edge (u, v), u < v, with k = v * (v - 1) / 2 + u; the
    # padding bits past nbits are ignored.  Only runs of bytes other than
    # "?" hold a bit.  Column v (its u < v) follows column v - 1, so each
    # adjacency row is built in ascending order: first the u < v of its own
    # column, then the v of later columns.
    edges = []
    adj = [[] for _ in range(n)]
    for run in _NONZERO.finditer(data, pos):
        k = 6 * (run.start() - pos)
        v = (isqrt(8 * k + 1) + 1) // 2    # the column of bit k
        base = v * (v - 1) // 2            # its first bit
        for x in run.group():
            for b in _BITS[x - 63]:
                if k + b >= nbits:
                    break
                u = k + b - base
                while u >= v:    # bit k + b lies in a later column
                    u -= v
                    base += v
                    v += 1
                edges.append((u, v))
                adj[u].append(v)
                adj[v].append(u)
            k += 6
    return Graph._trusted(n, frozenset(edges), tuple(map(tuple, adj)))


def write_graph6(g: Graph):
    """Encode a Graph in canonical graph6 (labeled, order preserved)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        head = bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    # edge (u, v), u < v, is bit v * (v - 1) / 2 + u; six bits a byte, high
    # bit first, each byte offset by 63 ("?")
    body = bytearray(b"?") * ((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        body[k // 6] += 32 >> k % 6
    return (head + bytes(body)).decode("ascii")


# ---------------------------------------------------------------------------
# Canonical forms (individualisation-refinement, after McKay 1981)


def canonical_form(g: Graph):
    """(form, labelling): form = (n, sorted edges relabelled by labelling),
    with labelling[v] the new label of v.  Two graphs are isomorphic exactly
    when their forms are equal.  The search is a kernel
    (`_kernel.purecore.canonical_form` is the reference, and its docstring
    the method), so both backends give the same form and labelling.  Above
    ISO_SIZE_BOUND vertices: CapacityError.
    """
    if g.n > ISO_SIZE_BOUND:
        raise CapacityError(f"isomorphism bound {ISO_SIZE_BOUND} vertices exceeded")
    return _kernel.canonical_form(g.n, g.edges)


def are_isomorphic(g1: Graph, g2: Graph, witness=False):
    """Edge-preserving vertex bijection test: equal canonical forms.

    With witness=True returns (bool, mapping-or-None) where mapping[v1] = v2.
    """
    form1, lab1 = canonical_form(g1)
    form2, lab2 = canonical_form(g2)
    if form1 != form2:
        return (False, None) if witness else False
    if not witness:
        return True
    at = [0] * g2.n
    for v, pos in enumerate(lab2):
        at[pos] = v
    return True, [at[pos] for pos in lab1]
