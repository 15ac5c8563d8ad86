"""Pure-python search kernels.

Same contract as the compiled extension in ``_fastcore.c``: exhaustive
backtracking for hamiltonian cycles with forced edges, and exact longest
cycle search.  Both backends must produce identical verdicts and identical
witnesses (candidate orderings match line for line).

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
