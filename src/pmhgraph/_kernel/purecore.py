"""Pure-python search kernels.

Same contract as the compiled extension in ``_fastcore.c``: exhaustive
backtracking for hamiltonian cycles with forced edges, `is_cycle`, the
re-check of the cycle a search returns, exact longest cycle search, the
per-graph objects they take (`SearchGraph`, `EdgeTable`),
`pm_scan`, the perfect-matching scan over the enumeration of
`_completions` (it tests the matchings of a line graph against held trails
or, without centres, yields every perfect matching of any graph), and
`canonical_form`, the individualisation-refinement search that decides
isomorphism.  Both backends must produce identical verdicts and identical
witnesses (candidate orderings match line for line), and the same form and
labelling.

Status codes: 0 = FOUND, 1 = ABSENT, 2 = BUDGET (node cap hit before the
search tree was exhausted).
"""

FOUND = 0
ABSENT = 1
BUDGET = 2

BACKEND = "pure"


def _masks(adj):
    """Neighbour bitmask of every vertex (neighbours are distinct, so the sum
    is the bitwise or)."""
    return [sum(1 << w for w in nbrs) for nbrs in adj]


class SearchGraph:
    """The search state of one graph, made once from its adjacency `adj` (a
    sequence of neighbour sequences) and passed to `ham_cycle` and
    `longest_cycle` in place of it, so that searches of one graph share it.
    Here it holds the rows and their neighbour bitmasks; the compiled twin
    holds its CSR copy, bitset rows and scratch sets, about n^2/4 bytes
    (67 MB at 16,384 vertices).  len() of either is the order.  A search
    given anything else loads it into a temporary SearchGraph.  A search of
    a SearchGraph that is searching already (from a signal handler run
    during the search) raises RuntimeError."""

    def __init__(self, adj):
        self._rows = tuple(tuple(a) for a in adj)
        self._masks = _masks(self._rows)
        self._busy = False

    def __len__(self):
        return len(self._rows)


def _idle(adj):
    """The SearchGraph `adj`, or a temporary one loaded from it; RuntimeError
    when it is searching already.  The caller marks it busy inside the `try`
    whose `finally` clears the mark."""
    graph = adj if type(adj) is SearchGraph else SearchGraph(adj)
    if graph._busy:
        raise RuntimeError("the SearchGraph is already searching")
    return graph


def _flood(amask, u, allow):
    """Bitmask of the vertices reachable from u through `allow`, u included."""
    reach = frontier = 1 << u
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            nxt |= amask[b.bit_length() - 1]
        frontier = nxt & allow & ~reach
        reach |= frontier
    return reach


def _advance(opens, tries, path):
    """The next step of a depth-first search on an explicit stack, or None
    once the stack is empty.  Each expanded path vertex has a frame: in
    `opens` the bitmask of the vertices the path may still take, in `tries`
    the iterator over its candidates not yet tried.  A frame with no
    candidate left in its mask is popped with its path vertex."""
    while tries:
        for w in tries[-1]:
            if opens[-1] >> w & 1:
                return w
        opens.pop()
        tries.pop()
        path.pop()
    return None


def _pair(entry):
    """The two ints of a forced entry, a tuple or list of two ints; anything
    else raises ValueError."""
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        a, b = entry
        if isinstance(a, int) and isinstance(b, int):
            return a, b
    raise ValueError(f"forced edge {entry!r} is not a pair of ints")


def ham_cycle(adj, forced=(), max_nodes=0):
    """Search for a hamiltonian cycle containing every edge in `forced`.

    adj: a SearchGraph, or list of sorted neighbor lists (simple undirected
        graph) searched through a temporary one.
    forced: iterable of edges of the graph, each a tuple or list of two
        ints in either order; a repeated or reversed pair counts once.  The
        set is checked before anything else, for any n, in one pass: the
        entries are read in order, and the first that is not a pair of
        ints, is not an edge (a vertex out of range, a self pair, a
        non-edge), or is a new pair at a vertex already on two raises
        ValueError, with the text the compiled kernel gives; an overloaded
        vertex is named as having 3 forced incidences, the lower end when
        both ends are full.
    max_nodes: 0 = unlimited, else cap on visited search nodes.  The search
        stops at the first node past the cap and returns BUDGET with
        max_nodes + 1 nodes.

    Returns (status, cycle_or_None, nodes_expanded).  The cycle is a list
    of n distinct vertices (closure edge implied).

    Leaf rule.  A node whose path runs from the start s to u, with
    unvisited set F and allow = F | {s, u}, is expanded only when every
    vertex of F keeps two neighbours in allow, all of allow is reachable
    from u through it, and no vertex has more required partners than steps
    left.  The rest of a hamiltonian cycle through the node is a path from
    u through F to s inside allow, in which each vertex of F takes two
    steps and u and s one each (two at the root, where u = s).  So a vertex
    of F with exactly two neighbours in allow (the set D) takes both, and a
    forced edge is a step.  With fm(x) the forced partners of x, the
    required partners R(x) are N(x) & allow for x in D, (N(x) & D) |
    (fm(x) & allow) for the rest of F, and (N(x) & D) | (fm(x) & F) for u
    and s.  The node is a leaf when |R(x)| > 2 for some x in F, or R(u) or
    R(s) is larger than its steps left.  No subtree cut this way holds a
    hamiltonian cycle, and the children and their order are those of the
    search without the rule, so status and witness are too; only node
    counts fall.
    """
    graph = _idle(adj)
    try:
        graph._busy = True
        return _ham_cycle(graph._rows, graph._masks, forced, max_nodes)
    finally:
        graph._busy = False


def _ham_cycle(adj, amask, forced, max_nodes):
    """`ham_cycle` on the rows `adj` with neighbour bitmasks `amask`."""
    n = len(adj)

    fnbr = [[] for _ in range(n)]     # the distinct forced partners
    for entry in forced:
        a, b = _pair(entry)
        if a > b:
            a, b = b, a
        if not (0 <= a and b < n and a != b and amask[a] >> b & 1):
            raise ValueError(f"forced edge ({a},{b}) not in the graph")
        if b not in fnbr[a]:
            for v in (a, b):
                if len(fnbr[v]) == 2:
                    raise ValueError(f"vertex {v} has 3 forced incidences "
                                     f"(max 2)")
            fnbr[a].append(b)
            fnbr[b].append(a)
    nforced = sum(map(len, fnbr)) // 2
    if n < 3:
        return ABSENT, None, 0

    # Anchor at a forced vertex when there is one; min degree otherwise.
    anchored = [v for v in range(n) if fnbr[v]]
    if anchored:
        start = min(anchored, key=lambda v: (len(adj[v]), v))
    else:
        start = min(range(n), key=lambda v: (len(adj[v]), v))

    def edge_forced(a, b):
        return b in fnbr[a]

    fmask = _masks(fnbr)

    def feasible(free, u):
        # Every unvisited vertex keeps two neighbours among the unvisited
        # ones (`free`), the start and u, and all of those are reachable
        # from u through them (start allowed as endpoint).  The ones with
        # exactly two (`two`, the docstring's D) must take both, and no
        # vertex has more required partners than steps left.  A vertex of
        # `free` outside D with no neighbour in D has only its forced
        # partners, at most two, so only D's neighbours (`near`) are tested.
        allow = free | (1 << start) | (1 << u)
        two = near = 0
        rest = free
        while rest:
            b = rest & -rest
            rest ^= b
            m = amask[b.bit_length() - 1]
            k = (m & allow & ~b).bit_count()
            if k < 2:
                return False
            if k == 2:
                two |= b
                near |= m
        rest = near & free & ~two
        while rest:
            b = rest & -rest
            rest ^= b
            x = b.bit_length() - 1
            if (amask[x] & two | fmask[x] & allow).bit_count() > 2:
                return False
        steps = 2 if u == start else 1
        for x in (u, start):
            if (amask[x] & two | fmask[x] & free).bit_count() > steps:
                return False
        return (allow & ~_flood(amask, u, allow)) == 0

    # First move: with forced edges at the start, direction symmetry lets us
    # take the lowest forced neighbor as the first step.
    path = [start, min(fnbr[start])] if fnbr[start] else [start]
    free = (1 << n) - 1 - sum(1 << v for v in path)
    nodes = 0
    # The node counted is path[-1], with unvisited set `free`; a frame of
    # `_advance` keeps the free set of its vertex.
    frees, tries = [], []
    while True:
        u = path[-1]
        nodes += 1
        if max_nodes and nodes > max_nodes:
            return BUDGET, None, nodes
        if len(path) == n:
            # every forced edge must be a step of the cycle
            if (amask[u] >> start & 1 and nforced ==
                    sum(map(edge_forced, path, path[1:] + path[:1]))):
                return FOUND, path, nodes
            path.pop()
        else:
            # the forced edges at u not on the path: all but the step into u
            prev = path[-2] if len(path) > 1 else None
            pending = [w for w in fnbr[u] if w != prev]
            if len(pending) < 2 and feasible(free, u):
                frees.append(free)
                tries.append(iter(pending or adj[u]))
            else:
                path.pop()
        w = _advance(frees, tries, path)
        if w is None:
            return ABSENT, None, nodes
        path.append(w)
        free = frees[-1] ^ 1 << w


def EdgeTable(n, edges):
    """The table `is_cycle` reads for the graph on 0..n-1 with edge set
    `edges` (a set of pairs (u, v), u < v < n), made once per graph from
    the set alone.  Here it is the set itself, as a frozenset; the compiled
    twin keeps each vertex's higher neighbours in ascending order, O(n +
    |edges|) ints."""
    if not isinstance(edges, (set, frozenset)):
        raise TypeError("edges must be a set")
    return frozenset(edges)


def is_cycle(n, edges, cyc, forced=()):
    """Is the vertex list `cyc` a cycle of the graph on 0..n-1 with edge set
    `edges` (an EdgeTable, or a set of pairs (u, v), u < v < n), through
    every forced pair?

    True iff cyc has at least 3 vertices, all distinct, every step, the
    closing one included, is in `edges`, and every forced pair, in either
    order, is a step.  A forced entry that is not a pair of ints raises
    ValueError, as in `ham_cycle`.  Neither twin reads a SearchGraph, so
    the check is independent of the search whose cycle it re-checks."""
    need = {(a, b) if a < b else (b, a) for a, b in map(_pair, forced)}
    steps = {(u, v) if u < v else (v, u) for u, v in zip(cyc, cyc[1:] + cyc[:1])}
    return (len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            and all(step in edges for step in steps)
            and steps.issuperset(need))


def _closable_core(amask, u, root, region):
    """The vertices of `region` that a path from u may still take on its way
    to close a cycle at root, as a bitmask: the greatest subset reachable
    from u inside itself in which every vertex has two neighbours among the
    subset, u and root.  It is what is left of the vertices reachable from u
    once the vertices with fewer than two are peeled, in any order.  The
    peel keeps it reachable: a path of reachable vertices from u to a kept
    vertex gives each of its vertices two neighbours on itself, so it is
    kept too."""
    core = _flood(amask, u, region) & region
    anchors = 1 << u | 1 << root
    drop = True
    while drop:
        drop = 0
        keep = core | anchors
        for x in _bits(core):
            y = amask[x] & keep & ~(1 << x)
            if not y & (y - 1):
                drop |= 1 << x
        core ^= drop
    return core


def longest_cycle(adj, max_nodes=0):
    """Exact longest simple cycle by exhaustive branch and bound, on a
    SearchGraph or an adjacency, as `ham_cycle` takes them.

    Returns (status, best_cycle_or_None, nodes).  ABSENT means the graph is
    acyclic.  On BUDGET, which `max_nodes` bounds as in `ham_cycle`, the
    best cycle found so far (possibly None) is returned and must be treated
    as a lower bound only.

    The cycles with least vertex `root` are searched as paths (root, ..., u)
    from root, in increasing root order, and `best` changes only on a
    strictly longer cycle.  A node's subtree holds the cycles that extend
    its path by some u -> x1 -> ... -> xk -> root.  Every xi has two
    neighbours among the xs, u and root, and the xs are reachable from u
    through themselves, so they lie in the closable core of the vertices
    the path may still take (`_closable_core`).  The node records its own
    cycle, then is a leaf when plen + |core| <= len(best), or when u is not
    root and root has no neighbour in the core (no xk is left).  Its
    children are the neighbours of u in the core, and a child w may take
    the core minus w.  The root loop stops once n - root <= len(best).  A
    subtree cut this way holds no cycle longer than `best`, so the cuts
    change no status or witness, only the node count.
    """
    graph = _idle(adj)
    try:
        graph._busy = True
        return _longest_cycle(graph._rows, graph._masks, max_nodes)
    finally:
        graph._busy = False


def _longest_cycle(adj, amask, max_nodes):
    """`longest_cycle` on the rows `adj` with neighbour bitmasks `amask`."""
    n = len(adj)

    best = []
    nodes = 0
    above = (1 << n) - 1
    for root in range(n):
        if n - root <= len(best):
            break
        # Cycles whose minimum vertex is `root`: the path stays above it.
        above ^= 1 << root
        path, allow = [root], above
        # The node counted is path[-1], which may take the vertices in
        # `allow`; a frame of `_advance` keeps its vertex's closable core.
        cores, tries = [], []
        while True:
            u = path[-1]
            nodes += 1
            if max_nodes and nodes > max_nodes:
                return BUDGET, (best if best else None), nodes
            if len(path) >= 3 and (amask[u] >> root) & 1 and len(path) > len(best):
                best = list(path)
            core = _closable_core(amask, u, root, allow)
            if (len(path) + core.bit_count() > len(best)
                    and (u == root or amask[root] & core)):
                cores.append(core)
                tries.append(iter(adj[u]))
            else:
                path.pop()
            w = _advance(cores, tries, path)
            if w is None:
                break
            path.append(w)
            allow = cores[-1] ^ 1 << w

    if not best:
        return ABSENT, None, nodes
    return FOUND, best, nodes


def _completions(adj):
    """Yield the pairs (v, w), v < w, of each perfect matching of the graph
    with adjacency `adj`, once per matching, lexicographically by the dense
    edge ids of the pairs; nothing for an odd order.  The yielded list is
    sorted, and reused: copy it to keep it.

    The search is depth-first with an explicit stack, so its depth is not
    bounded by Python's recursion limit.  A frame is the lowest uncovered
    vertex, in `los`, and the iterator over its higher neighbours still to
    try, in `tries`.  Two lists and no tuple per frame: a frame tuple
    shares its allocator size class with the chosen pairs and spreads them
    out in memory; with one, later forced searches over the 32,768
    matchings of L(Coxeter) ran about 5% slower."""
    n = len(adj)
    if n % 2:
        return
    up = [[w for w in a if w > v] for v, a in enumerate(adj)]
    # one entry past the last vertex, never set, ends the scan for the
    # lowest uncovered vertex
    covered = [False] * (n + 1)
    chosen = []
    if n == 0:
        yield chosen
        return
    los, tries = [0], [iter(up[0])]
    while tries:
        for w in tries[-1]:
            # neighbours below lo are covered already (lo is lowest uncovered)
            if not covered[w]:
                break
        else:
            tries.pop()
            los.pop()
            if tries:
                covered[chosen.pop()[1]] = False
            continue
        covered[w] = True
        lo = los[-1]
        chosen.append((lo, w))
        lo += 1
        while covered[lo]:
            lo += 1
        if lo == n:
            yield chosen
            covered[w] = False
            chosen.pop()
        else:
            los.append(lo)
            tries.append(iter(up[lo]))


def _bits(x):
    """The positions of the set bits of x, lowest first."""
    while x:
        b = x & -x
        x ^= b
        yield b.bit_length() - 1


def _fits(trail, chosen, centre):
    """Does the perfect matching with edge-id bitset `chosen` lie in a
    hamiltonian cycle whose trail is `trail` (rules (a)-(c) of `pm_scan`)?"""
    refused, off, pairs, segments = trail
    if refused & chosen:
        return False
    filled = {}
    for e in _bits(pairs & chosen):
        filled[centre[e]] = filled.get(centre[e], 0) + 1
    return not filled or all(segments[centre[e]] > filled.get(centre[e], 0)
                             for e in _bits(off & chosen))


class pm_scan:
    """Resumable scan of the perfect matchings of a line graph L(G) against
    the closed trails of G that hamiltonian cycles of L(G) project to.

    `adj` is L(G)'s adjacency.  Edge ids number L(G)'s edges (v, w), v < w,
    by v, then in the order w appears in adj[v]; `centre[k]`, at most
    len(adj), is the base vertex that the two ends of edge k share.

    Iterating enumerates the perfect matchings in `_completions`' order and
    yields, as its list of pairs (v, w), each one that no held trail fits (a
    miss); `tested` counts the matchings enumerated so far, a yielded one
    included.  `add(cycle)` takes a hamiltonian cycle of L(G) as a closed
    vertex list, holds its trail, and returns whether the trail fits the
    matching just yielded.  A miss means that no held trail fits, so what
    the scan yields does not depend on the order the trails are tried in.

    Without `centre` the scan takes any graph, holds no trail (`add` raises
    ValueError) and yields every perfect matching.  The compiled scan makes
    one tuple per edge and puts that same tuple in every list it yields.

    The trail T of a cycle C: each step of C joins two edges of G at their
    shared vertex; a maximal run of steps at one vertex v is a segment at v,
    from its entry edge to its exit edge, and the edges where C passes from
    one segment to the next are the edges of T.  A perfect matching M is a
    set of 2-paths (x, y) of G, each an edge of L(G) centred at the vertex c
    that x and y share.  M lies in a hamiltonian cycle with trail T iff
    (a) every centre is on T;
    (b) a 2-path of two T edges is the entry and exit of one segment at c,
        which it then fills;
    (c) a centre of a 2-path of two off-T edges keeps a segment that (b)
        does not fill
    (README lays out the cycle).  A trail is held as the number of segments
    at each vertex and three edge-id bitsets: `pairs`, the (entry, exit) of
    each segment; `refused`, the 2-paths that break (a) or (b); `off`, the
    2-paths of two off-T edges centred on T, for (c)."""

    def __init__(self, adj, centre=None):
        self._eid = {}
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                if w > v:
                    self._eid[v, w] = len(self._eid)
        if centre is not None and len(centre) != len(self._eid):
            raise ValueError("one centre per edge required")
        self._centre = None if centre is None else list(centre)
        self._trails = []
        self._leaf = None     # edge-id bitset of the matching just yielded
        self.tested = 0
        self._walk = self._scan(adj)

    def __iter__(self):
        return self._walk

    def _scan(self, adj):
        for pairs in _completions(adj):
            self.tested += 1
            if self._centre is not None:
                chosen = sum(1 << self._eid[p] for p in pairs)
                if any(_fits(t, chosen, self._centre) for t in self._trails):
                    continue
                self._leaf = chosen
            yield list(pairs)
            self._leaf = None

    def add(self, cycle):
        if self._centre is None:
            raise ValueError("add needs the centre of each edge")
        if self._leaf is None:
            raise ValueError("add follows a yielded matching")
        self._trails.append(_trail(cycle, self._eid, self._centre))
        return _fits(self._trails[-1], self._leaf, self._centre)


def _trail(cycle, eid, centre):
    """The trail of the closed walk `cycle` as (refused, off, pairs,
    segments), for the edge ids `eid` ((v, w) -> id, v < w) of `pm_scan`."""
    cyc = list(cycle[:-1])
    try:
        at = [centre[eid[(a, b) if a < b else (b, a)]]
              for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        turns = [i for i in range(len(cyc)) if at[i - 1] != at[i]]
        # one segment starts at each turn; with none, C stays in one
        # clique: G is a star, and T is one segment at its centre
        segments = {} if turns else {at[0]: 1}
        for i in turns:
            segments[at[i]] = segments.get(at[i], 0) + 1
        t = [cyc[i] for i in turns]   # T's edges in C's order
        pairs = 0
        for a, b in zip(t, t[1:] + t[:1]):
            pairs |= 1 << eid[(a, b) if a < b else (b, a)]
    except (KeyError, IndexError):
        raise ValueError(f"{cycle} is not a closed walk of the graph") from None
    on = set(t)
    refused = off = 0
    for (a, b), e in eid.items():
        if a in on and b in on:
            if not pairs >> e & 1:
                refused |= 1 << e
        elif a not in on and b not in on:
            if centre[e] in segments:
                off |= 1 << e
            else:
                refused |= 1 << e
    return refused, off, pairs, segments


# ---------------------------------------------------------------------------
# Canonical form (individualisation-refinement, after McKay 1981)


def _refine(adj, cells):
    """Split every cell of the ordered partition `cells` by each vertex's
    neighbour counts into every cell, parts ordered by that count, until no
    cell splits.  The result depends on the labels only through the order of
    `cells`."""
    cell_of = [0] * len(adj)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts = {}
            for v in cell:
                key = tuple(sorted([cell_of[w] for w in adj[v]]))
                parts.setdefault(key, []).append(v)
            split += [parts[key] for key in sorted(parts)]
        if len(split) == len(cells):
            return split
        cells = split


def canonical_form(n, edges):
    """(form, labelling) of the graph on vertices 0..n-1 with `edges`, pairs
    (u, v) with u < v: form = (n, sorted edges relabelled by labelling), with
    labelling[v] the new label of v.  Two graphs are isomorphic exactly when
    their forms are equal.  At most 64 vertices (the compiled kernel keeps
    one 64-bit neighbour mask per vertex); more vertices, or an edge that is
    repeated or not such a pair, raise ValueError.

    Depth first over the search tree of individualisation-refinement, where
    each node individualises a vertex of the first non-singleton cell; the
    form is the least over the leaves, and the labelling that of the first
    leaf with it.  A vertex v is skipped when a vertex w tried before it in
    the same cell has N(v) - w == N(w) - v: the swap of v and w is then an
    automorphism that fixes the partition, so both subtrees give the same
    forms.  The search reads no neighbour order, only the neighbour sets.
    """
    if not 0 <= n <= 64:
        raise ValueError(f"canonical form takes 0..64 vertices, not {n}")
    edges = list(edges)
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if not 0 <= u < v < n or v in nbrs[u]:
            raise ValueError(f"edge ({u},{v}) is repeated or not a pair "
                             f"u < v of vertices below {n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    best = None
    stack = [_refine(nbrs, [list(range(n))])]
    while stack:
        cells = stack.pop()
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            lab = [0] * n
            for pos, (v,) in enumerate(cells):
                lab[v] = pos
            form = (n, tuple(sorted((lab[u], lab[v]) if lab[u] < lab[v]
                                    else (lab[v], lab[u]) for u, v in edges)))
            if best is None or form < best[0]:
                best = (form, tuple(lab))
            continue
        tried = []
        for v in cells[i]:
            if any(nbrs[v] - {w} == nbrs[w] - {v} for w in tried):
                continue
            tried.append(v)
            rest = [w for w in cells[i] if w != v]
            stack.append(_refine(nbrs, cells[:i] + [[v], rest] + cells[i + 1:]))
    return best
