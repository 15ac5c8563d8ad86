"""Pure-python search kernels.

Same contract as the compiled extension in ``_fastcore.c``: exhaustive
backtracking for hamiltonian cycles with forced edges, exact longest cycle
search, and the perfect-matching scan of line graphs, `pm_scan`, over the
enumeration of `_completions`.  Both backends must produce identical
verdicts and identical witnesses (candidate orderings match line for line).

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


def ham_cycle(adj, forced=(), max_nodes=0):
    """Search for a hamiltonian cycle containing every edge in `forced`.

    adj: list of sorted neighbor lists (simple undirected graph).
    forced: iterable of (u, v) pairs, each an edge of the graph, with no
        vertex incident to more than two forced edges (caller-validated).
    max_nodes: 0 = unlimited, else cap on visited search nodes.

    Returns (status, cycle_or_None, nodes_expanded).  The cycle is a list
    of n distinct vertices (closure edge implied).
    """
    n = len(adj)
    if n < 3:
        return ABSENT, None, 0

    amask = _masks(adj)

    fnbr = [[] for _ in range(n)]
    fset = set()
    for a, b in forced:
        fnbr[a].append(b)
        fnbr[b].append(a)
        fset.add((a, b) if a < b else (b, a))
    nforced = len(fset)

    # Anchor at a forced vertex when there is one; min degree otherwise.
    anchored = [v for v in range(n) if fnbr[v]]
    if anchored:
        start = min(anchored, key=lambda v: (len(adj[v]), v))
    else:
        start = min(range(n), key=lambda v: (len(adj[v]), v))

    full = (1 << n) - 1
    nodes = 0
    path = [start]
    used_edges = set()

    def edge_forced(a, b):
        return ((a, b) if a < b else (b, a)) in fset

    def reachable_ok(visited, u):
        # Every unvisited vertex and the start must be reachable from u
        # through unvisited vertices (start allowed as endpoint).
        allow = (~visited & full) | (1 << start) | (1 << u)
        return (allow & ~_flood(amask, u, allow)) == 0

    def degree_ok(visited, u):
        allow = (~visited & full) | (1 << start) | (1 << u)
        rest = ~visited & full
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            if (amask[v] & allow & ~b).bit_count() < 2:
                return False
        return True

    def visit(u, visited, used):
        """Count the search node at path end u.  Returns its status when it
        is a leaf, else None and the frame that walks its candidates:
        [u, visited, used, candidates, next index, saw_budget]."""
        nonlocal nodes
        nodes += 1
        if max_nodes and nodes > max_nodes:
            return BUDGET, None
        if len(path) == n:
            closing = edge_forced(u, start)
            if (amask[u] >> start) & 1 and used + (1 if closing else 0) == nforced:
                return FOUND, None
            return ABSENT, None
        pending = [w for w in fnbr[u]
                   if ((u, w) if u < w else (w, u)) not in used_edges]
        if len(pending) >= 2:
            return ABSENT, None
        if not degree_ok(visited, u) or not reachable_ok(visited, u):
            return ABSENT, None
        return None, [u, visited, used, pending or adj[u], 0, False]

    # First move: with forced edges at the start, direction symmetry lets us
    # take the lowest forced neighbor as the first step.
    visited0 = 1 << start
    if fnbr[start]:
        w = min(fnbr[start])
        used_edges.add((start, w) if start < w else (w, start))
        path.append(w)
        status, frame = visit(w, visited0 | (1 << w), 1)
    else:
        status, frame = visit(start, visited0, 0)
    # Depth-first with an explicit stack of frames, one per inner path
    # vertex; `status` is the result of the node just left, for the frame
    # below it.
    stack = []
    while True:
        if frame is not None:
            stack.append(frame)
        elif status == FOUND or not stack:
            break
        else:
            top = stack[-1]
            if status == BUDGET:
                top[5] = True
            w = path.pop()
            if edge_forced(top[0], w):
                used_edges.discard((top[0], w) if top[0] < w else (w, top[0]))
        top = stack[-1]
        u, visited, used, cands, i, saw_budget = top
        while i < len(cands) and visited >> cands[i] & 1:
            i += 1
        if i == len(cands):
            stack.pop()
            status, frame = (BUDGET if saw_budget else ABSENT), None
            continue
        top[4] = i + 1
        w = cands[i]
        f = edge_forced(u, w)
        if f:
            used_edges.add((u, w) if u < w else (w, u))
        path.append(w)
        status, frame = visit(w, visited | 1 << w, used + f)
    if status == FOUND:
        return FOUND, list(path), nodes
    return status, None, nodes


def longest_cycle(adj, max_nodes=0):
    """Exact longest simple cycle by exhaustive branch and bound.

    Returns (status, best_cycle_or_None, nodes).  ABSENT means the graph is
    acyclic.  On BUDGET the best cycle found so far (possibly None) is
    returned and must be treated as a lower bound only.
    """
    n = len(adj)
    amask = _masks(adj)

    best = []
    nodes = 0
    capped = False

    for root in range(n):
        if len(best) == n:
            break
        # Cycles whose minimum vertex is `root`: path explores ids > root.
        allow_root = 0
        for v in range(root + 1, n):
            allow_root |= 1 << v

        path = [root]

        def visit(u, visited):
            """Count the search node at path end u; True when its
            neighbours are to be tried."""
            nonlocal nodes, capped, best
            nodes += 1
            if max_nodes and nodes > max_nodes:
                capped = True
                return False
            if len(path) >= 3 and (amask[u] >> root) & 1 and len(path) > len(best):
                best = list(path)
            # Bound: vertices reachable from u through the unvisited region.
            allow = allow_root & ~visited
            reach = _flood(amask, u, allow)
            return len(path) + (reach & allow).bit_count() > len(best)

        # Depth-first with an explicit stack of [u, visited, next index],
        # one frame per path vertex whose neighbours are being tried.
        stack = [[root, 1 << root, 0]] if visit(root, 1 << root) else []
        while stack and not capped:
            top = stack[-1]
            u, visited, i = top
            nbrs = adj[u]
            while i < len(nbrs) and (nbrs[i] <= root or visited >> nbrs[i] & 1):
                i += 1
            if i == len(nbrs):
                stack.pop()
                path.pop()
                continue
            top[2] = i + 1
            w = nbrs[i]
            path.append(w)
            if visit(w, visited | 1 << w):
                stack.append([w, visited | 1 << w, 0])
            else:
                path.pop()
        if capped:
            break

    if capped:
        return BUDGET, (best if best else None), nodes
    if not best:
        return ABSENT, None, nodes
    return FOUND, best, nodes


def _completions(adj, covered):
    """Yield the pairs that complete a partial matching of the graph with
    adjacency `adj` to a perfect one, once per completion, lexicographically
    by the dense edge ids of the pairs.  `covered` marks the partial
    matching's vertices and has one more entry than the graph has vertices,
    False, which stops the scan for the lowest uncovered vertex.  The
    yielded list is reused: copy it to keep it.

    The search is depth-first with an explicit stack, so its depth is not
    bounded by Python's recursion limit.  A frame is the lowest uncovered
    vertex, in `los`, and the iterator over its higher neighbours still to
    try, in `tries`.  Two lists and no tuple per frame: a frame tuple
    shares its allocator size class with the chosen pairs and spreads them
    out in memory; with one, later forced searches over the 32,768
    matchings of L(Coxeter) ran about 5% slower."""
    n = len(adj)
    up = [[w for w in a if w > v] for v, a in enumerate(adj)]
    chosen = []
    lo = covered.index(False)
    if lo == n:
        yield chosen
        return
    los, tries = [lo], [iter(up[lo])]
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

    def __init__(self, adj, centre):
        self._eid = {}
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                if w > v:
                    self._eid[v, w] = len(self._eid)
        if len(centre) != len(self._eid):
            raise ValueError("one centre per edge required")
        self._centre = list(centre)
        self._trails = []
        self._leaf = None     # edge-id bitset of the matching just yielded
        self.tested = 0
        self._walk = self._scan(adj)

    def __iter__(self):
        return self._walk

    def _scan(self, adj):
        if len(adj) % 2:
            return
        for pairs in _completions(adj, [False] * (len(adj) + 1)):
            self.tested += 1
            chosen = sum(1 << self._eid[p] for p in pairs)
            if not any(_fits(t, chosen, self._centre) for t in self._trails):
                self._leaf = chosen
                yield list(pairs)
                self._leaf = None

    def add(self, cycle):
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
