/* Compiled search kernels: hamiltonian cycle with forced edges, is_cycle (the
 * re-check of a returned cycle), longest cycle, the perfect-matching scan of
 * a line graph against held trails, and the canonical form that decides
 * isomorphism; and the two per-graph objects the first three take.
 *
 * Mirrors purecore.py exactly (same start vertex, same candidate order, same
 * node counting, hence the same status, witness and node count; for the
 * canonical form the same partitions, stack order and twin test, hence the
 * same form and labelling); see that module for the contract.  ham_cycle
 * checks its forced set in one pass before it searches, for any n, and
 * raises purecore's ValueError text for the first bad entry.  A search
 * stops at the first node past its budget (max_nodes, 0 for none) and returns
 * BUDGET with max_nodes + 1 nodes.  The pruning tests decide what purecore's
 * decide, with less work (see prune_words and lc_core); the hamiltonian
 * search's leaf rule on required edges is stated in purecore.ham_cycle's
 * docstring.  Vertex sets are
 * bitsets of nw = ceil(n/64) uint64_t words, the same masks purecore builds
 * from Python ints; the canonical form keeps one word per vertex, so it takes
 * at most 64 vertices.
 *
 * A SearchGraph holds everything a search reads or writes for one graph: the
 * CSR copy, the bitset rows and the scratch sets.  ham_cycle and
 * longest_cycle search it, or a temporary one loaded the same way from a raw
 * adjacency, and reset at the start of each call what the call uses.  An
 * EdgeTable holds is_cycle's own copy of an edge set, each vertex's higher
 * neighbours in ascending order, loaded from the set alone; is_cycle loads a
 * raw set into a temporary one.  The search never reads a table and is_cycle
 * never reads a SearchGraph, so a bug in loading a graph or in a search
 * cannot pass its own re-check.
 *
 * A search polls PyErr_CheckSignals() every 2^14 nodes, the scan every 2^14
 * matchings and the canonical form every 2^14 partitions, so a signal handler
 * that raises (a SIGALRM timeout, Ctrl-C) interrupts it; the call then
 * raises.  A handler that searches a SearchGraph while a search of it runs
 * gets RuntimeError: the two would share its scratch.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

enum { FOUND = 0, ABSENT = 1, BUDGET = 2, FAILED = -1 };

#define SIGNAL_EVERY ((1LL << 14) - 1)
#define MAX_VERTICES (1 << 14)
#define INLINE static inline __attribute__((always_inline))

typedef uint64_t word;

#define BIT(v) ((word)1 << ((v) & 63))
#define HAS(set, v) (((set)[(v) >> 6] >> ((v) & 63)) & 1)
#define ADD(set, v) ((set)[(v) >> 6] |= BIT(v))
#define DEL(set, v) ((set)[(v) >> 6] &= ~BIT(v))
#define ROW(s, v) ((s)->amask + (size_t)(v) * (s)->nw)

typedef struct {
    int n, nw;
    int *off, *nbr;         /* adjacency in the caller's order (CSR) */
    int *path, *best;       /* current path; longest cycle found so far */
    int *fn;                /* two forced-neighbour slots per vertex (-1 when
                               empty) */
    int start, nforced, root, plen, blen;
    int busy;               /* a search of this state is running */
    word *amask;            /* bitset row per vertex; self-loops cleared
                               (no purecore check reads a vertex's own bit) */
    word *full, *visited, *free, *allow, *near, *target, *reach, *frontier,
         *next, *above;
    word *levels;           /* a set per path length: the hamiltonian search's
                               set D, the longest cycle's closable core */
    long long nodes, max_nodes;
} Search;

static void search_free(Search *s)
{
    PyMem_Free(s->off);
    PyMem_Free(s->amask);
    s->off = NULL;
    s->amask = NULL;
}

/* Copy `adj` (a sequence of neighbour sequences) into s->off and s->nbr
 * (CSR), with room for the searches' per-vertex arrays.  Returns 0, or -1
 * with an exception set. */
static int load_adj(Search *s, PyObject *adj)
{
    memset(s, 0, sizeof *s);
    PyObject *rows = PySequence_Fast(adj, "adj must be a sequence");
    if (rows == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(rows), m = 0;
    for (Py_ssize_t v = 0; v < n && m <= INT_MAX; v++) {
        Py_ssize_t d = PyObject_Length(PySequence_Fast_GET_ITEM(rows, v));
        if (d < 0)
            goto fail;
        m += d;
    }
    /* The searches recurse once per path vertex, about 200 bytes a level. */
    if (n > MAX_VERTICES || m > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "graph too large for the kernel "
                     "(%zd vertices, at most %d)", n, MAX_VERTICES);
        goto fail;
    }
    s->n = (int)n;
    s->off = PyMem_Calloc(5 * n + m + 1, sizeof(int));
    if (!s->off) {
        PyErr_NoMemory();
        goto fail;
    }
    s->nbr = s->off + n + 1;
    s->path = s->nbr + m;
    s->best = s->path + n;
    s->fn = s->best + n;
    Py_ssize_t k = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        s->off[v] = (int)k;
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, v),
                                        "adj rows must be sequences");
        if (row == NULL)
            goto fail;
        for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(row) && k < m; j++) {
            long w = PyLong_AsLong(PySequence_Fast_GET_ITEM(row, j));
            if (w < 0 || w >= n) {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError,
                                 "neighbour %ld of vertex %zd out of range", w, v);
                Py_DECREF(row);
                goto fail;
            }
            s->nbr[k++] = (int)w;
        }
        Py_DECREF(row);
    }
    s->off[n] = (int)k;
    Py_DECREF(rows);
    return 0;
fail:
    Py_DECREF(rows);
    search_free(s);
    return -1;
}

/* load_adj, then the searches' bitsets: the rows, the scratch sets and n + 1
 * level slots.  Returns 0, or -1 with an exception set. */
static int load_graph(Search *s, PyObject *adj)
{
    if (load_adj(s, adj) < 0)
        return -1;
    int n = s->n, nw = (n + 63) / 64;
    s->nw = nw;
    s->amask = PyMem_Calloc((2 * (size_t)n + 11) * nw + 1, sizeof(word));
    if (!s->amask) {
        search_free(s);
        PyErr_NoMemory();
        return -1;
    }
    word *w0 = s->amask + (size_t)n * nw;
    word **scratch[] = {&s->full, &s->visited, &s->free, &s->allow, &s->near,
                        &s->target, &s->reach, &s->frontier, &s->next,
                        &s->above, &s->levels};
    for (int i = 0; i < 11; i++)
        *scratch[i] = w0 + i * nw;
    for (int v = 0; v < n; v++) {
        ADD(s->full, v);
        for (int i = s->off[v]; i < s->off[v + 1]; i++)
            if (s->nbr[i] != v)
                ADD(ROW(s, v), s->nbr[i]);
    }
    return 0;
}

/* ------------------------------------------------------------------------ */
/* SearchGraph: the search state of one graph (see purecore.SearchGraph) */

typedef struct {
    PyObject_HEAD
    Search s;
} SearchGraph;

static PyTypeObject SearchGraphType;

static PyObject *graph_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", NULL};
    PyObject *adj;
    SearchGraph *g;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:SearchGraph", kwlist, &adj) ||
        (g = (SearchGraph *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    if (load_graph(&g->s, adj) < 0)
        Py_CLEAR(g);
    return (PyObject *)g;
}

static void graph_dealloc(SearchGraph *g)
{
    search_free(&g->s);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static Py_ssize_t graph_len(SearchGraph *g)
{
    return g->s.n;
}

static PySequenceMethods graph_as_sequence = {
    .sq_length = (lenfunc)graph_len,
};

static PyTypeObject SearchGraphType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pmhgraph._kernel._fastcore.SearchGraph",
    .tp_basicsize = sizeof(SearchGraph),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "See purecore.SearchGraph.",
    .tp_new = graph_new,
    .tp_dealloc = (destructor)graph_dealloc,
    .tp_as_sequence = &graph_as_sequence,
};

/* The search state for `graph`: its own when it is a SearchGraph, else *tmp
 * loaded from it as an adjacency; marked busy, with the visited set, the
 * forced slots, the counters and the budget reset.  Returns NULL with an
 * exception set, a RuntimeError when the SearchGraph is busy. */
static Search *search_begin(PyObject *graph, Search *tmp, long long max_nodes)
{
    Search *s = tmp;
    if (Py_IS_TYPE(graph, &SearchGraphType)) {
        s = &((SearchGraph *)graph)->s;
        if (s->busy) {
            PyErr_SetString(PyExc_RuntimeError,
                            "the SearchGraph is already searching");
            return NULL;
        }
    } else if (load_graph(tmp, graph) < 0) {
        return NULL;
    }
    s->busy = 1;
    memset(s->visited, 0, s->nw * sizeof(word));
    memset(s->fn, -1, 2 * (size_t)s->n * sizeof(int));
    s->start = s->nforced = s->root = s->plen = s->blen = 0;
    s->nodes = 0;
    s->max_nodes = max_nodes;
    return s;
}

/* The end of a search begun on s, with search_begin's `tmp`. */
static void search_end(Search *s, Search *tmp)
{
    s->busy = 0;
    if (s == tmp)
        search_free(tmp);
}

/* Count a node; FAILED on a pending exception, BUDGET past the cap. */
INLINE int count_node(Search *s)
{
    s->nodes++;
    if ((s->nodes & SIGNAL_EVERY) == 0 && PyErr_CheckSignals() < 0)
        return FAILED;
    if (s->max_nodes && s->nodes > s->max_nodes)
        return BUDGET;
    return 0;
}

/* reach := the vertices reachable from u through `allow` (u included), or
 * at least all of `target` (a subset of allow) among them; returns whether
 * every target vertex was reached.  The callers pass nw == 1 as a constant so
 * the one-word case compiles flat. */
INLINE int flood(Search *s, int u, const word *allow, const word *target,
                 int nw)
{
    word *reach = s->reach, *frontier = s->frontier, *next = s->next;
    word more = 1, left = 1;
    for (int i = 0; i < nw; i++)
        reach[i] = frontier[i] = 0;
    ADD(reach, u);
    ADD(frontier, u);
    /* Stop when nothing is new or no target is left. */
    while (more && left) {
        for (int i = 0; i < nw; i++)
            next[i] = 0;
        for (int j = 0; j < nw; j++)
            for (word x = frontier[j]; x; x &= x - 1) {
                const word *row = s->amask + (size_t)(j * 64 + __builtin_ctzll(x)) * nw;
                for (int i = 0; i < nw; i++)
                    next[i] |= row[i];
            }
        more = left = 0;
        for (int i = 0; i < nw; i++) {
            frontier[i] = next[i] & allow[i] & ~reach[i];
            reach[i] |= frontier[i];
            more |= frontier[i];
            left |= target[i] & ~reach[i];
        }
    }
    return !left;
}

/* ------------------------------------------------------------------------ */
/* Hamiltonian cycle through forced edges */

static int forced_to(const Search *s, int u, int w)
{
    return s->fn[2 * u] == w || s->fn[2 * u + 1] == w;
}

/* The number of set bits of y, or 3 when it is more. */
INLINE int upto3(word y)
{
    word a = y & (y - 1);
    return (y != 0) + (a != 0) + ((a & (a - 1)) != 0);
}

/* |R(x)| of purecore.ham_cycle, or 3 when it is more: x's neighbours in
 * `two` (the set D) and its forced partners in `within` outside it. */
INLINE int required(const Search *s, int x, const word *two, const word *within,
                    int nw)
{
    const word *row = s->amask + (size_t)x * nw;
    int cnt = 0;
    for (int i = 0; i < nw && cnt < 3; i++)
        cnt += upto3(row[i] & two[i]);
    for (int k = 0; k < 2; k++) {
        int f = s->fn[2 * x + k];
        cnt += f >= 0 && HAS(within, f) && !HAS(two, f);
    }
    return cnt;
}

/* purecore's feasible: every unvisited vertex keeps two neighbours among the
 * unvisited ones, the start and u, and all of those are reachable from u
 * through them; no vertex has more required partners than steps left.  It
 * writes the node's set D to `two`.  A node's usable set is its parent's
 * minus the parent, and the parent passed every test (it was expanded).  So
 * only the parent's unvisited neighbours need the degree test again, and the
 * set is still connected iff the parent's neighbours in it are reachable from
 * u: any other vertex reached the parent through one of them.  A vertex of
 * the parent's D (`had`) that is still unvisited keeps its two neighbours, and
 * only a neighbour of the parent can join D (newD).  R(x) of an unvisited x
 * outside D grows only by a neighbour in newD, so of the unvisited vertices
 * only the neighbours of newD outside D (`near`) need the required test
 * again, with u and the start.  parent < 0 tests all: every vertex is new
 * to D, and an x with no neighbour in D has at most its two forced
 * partners. */
INLINE int prune_words(Search *s, int u, int parent, const word *had, word *two,
                       int nw)
{
    word *free = s->free, *allow = s->allow, *near = s->near;
    for (int i = 0; i < nw; i++) {
        allow[i] = free[i] = ~s->visited[i] & s->full[i];
        two[i] = parent < 0 ? 0 : had[i] & free[i];
        near[i] = 0;
    }
    ADD(allow, s->start);
    ADD(allow, u);
    for (int i = 0; i < nw; i++) {
        word x = free[i];
        if (parent >= 0)
            x &= s->amask[(size_t)parent * nw + i];
        for (; x; x &= x - 1) {
            const word *row = s->amask + (size_t)(i * 64 + __builtin_ctzll(x)) * nw;
            int cnt = 0;
            for (int j = 0; j < nw && cnt < 3; j++)
                cnt += upto3(row[j] & allow[j]);
            if (cnt < 2)
                return 0;
            if (cnt == 2) {
                two[i] |= x & -x;
                for (int j = 0; j < nw; j++)
                    near[j] |= row[j];
            }
        }
    }
    for (int i = 0; i < nw; i++)
        for (word x = near[i] & free[i] & ~two[i]; x; x &= x - 1)
            if (required(s, i * 64 + __builtin_ctzll(x), two, allow, nw) > 2)
                return 0;
    int steps = u == s->start ? 2 : 1;
    if (required(s, u, two, free, nw) > steps ||
        required(s, s->start, two, free, nw) > steps)
        return 0;
    if (parent < 0)
        return flood(s, u, allow, allow, nw);
    for (int i = 0; i < nw; i++)
        s->target[i] = s->amask[(size_t)parent * nw + i] & allow[i];
    return flood(s, u, allow, s->target, nw);
}

static int ham_dfs(Search *s, int u, int parent, int count, int used)
{
    int r = count_node(s);
    if (r)
        return r;
    if (count == s->n)
        return HAS(ROW(s, u), s->start) &&
               used + forced_to(s, u, s->start) == s->nforced ? FOUND : ABSENT;
    /* The forced edges at u not on the path: all but the step into u. */
    int prev = count > 1 ? s->path[count - 2] : -1, pending = 0, pend0 = -1;
    for (int i = 0; i < 2; i++)
        if (s->fn[2 * u + i] >= 0 && s->fn[2 * u + i] != prev) {
            pending++;
            pend0 = s->fn[2 * u + i];
        }
    /* the node's D in the slot of its path length, its parent's in the one
     * before */
    int nw = s->nw;
    word *two = s->levels + (size_t)count * nw;
    if (pending >= 2 || !(nw == 1 ? prune_words(s, u, parent, two - 1, two, 1)
                                  : prune_words(s, u, parent, two - nw, two, nw)))
        return ABSENT;
    const int *cands = pending ? &pend0 : s->nbr + s->off[u];
    int ncands = pending ? 1 : s->off[u + 1] - s->off[u];
    for (int i = 0; i < ncands; i++) {
        int w = cands[i];
        if (HAS(s->visited, w))
            continue;
        ADD(s->visited, w);
        s->path[count] = w;
        r = ham_dfs(s, w, u, count + 1, used + pending);
        if (r != ABSENT)
            return r;
        DEL(s->visited, w);
    }
    return ABSENT;
}

/* The two ints of a forced entry, a tuple or list of two ints, borrowed
 * into e[0] and e[1] (purecore._pair).  Returns 0, or -1 with its
 * ValueError set. */
static int read_pair(PyObject *entry, PyObject **e)
{
    if ((PyTuple_Check(entry) && PyTuple_GET_SIZE(entry) == 2) ||
        (PyList_Check(entry) && PyList_GET_SIZE(entry) == 2)) {
        PyObject **items = PySequence_Fast_ITEMS(entry);
        if (PyLong_Check(items[0]) && PyLong_Check(items[1])) {
            e[0] = items[0];
            e[1] = items[1];
            return 0;
        }
    }
    PyErr_Format(PyExc_ValueError, "forced edge %R is not a pair of ints", entry);
    return -1;
}

/* The int v as a vertex below n, or -1 when it is not one. */
static int vertex_of(PyObject *v, int n)
{
    int overflow;
    long x = PyLong_AsLongAndOverflow(v, &overflow);
    return !overflow && x >= 0 && x < n ? (int)x : -1;
}

/* purecore's error for a forced pair of ints that is not an edge. */
static void raise_non_edge(PyObject **e)
{
    int swap = PyObject_RichCompareBool(e[0], e[1], Py_GT);
    if (swap >= 0)
        PyErr_Format(PyExc_ValueError, "forced edge (%S,%S) not in the graph",
                     e[swap], e[1 - swap]);
}

/* Check `forced` as purecore.ham_cycle does, in one pass, and read it into
 * the slots: a repeated or reversed pair counts once.  Returns 0, or -1 with
 * an exception set. */
static int load_forced(Search *s, PyObject *forced)
{
    PyObject *pairs = PySequence_Fast(forced, "forced must be iterable");
    if (pairs == NULL)
        return -1;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(pairs); k++) {
        PyObject *e[2];
        if (read_pair(PySequence_Fast_GET_ITEM(pairs, k), e) < 0)
            goto fail;
        int a = vertex_of(e[0], s->n), b = vertex_of(e[1], s->n);
        if (a < 0 || b < 0 || a == b || !HAS(ROW(s, a), b)) {
            raise_non_edge(e);
            goto fail;
        }
        if (forced_to(s, a, b))
            continue;
        if (a > b) {
            int t = a;
            a = b;
            b = t;
        }
        int full = s->fn[2 * a + 1] >= 0 ? a : s->fn[2 * b + 1] >= 0 ? b : -1;
        if (full >= 0) {
            PyErr_Format(PyExc_ValueError,
                         "vertex %d has 3 forced incidences (max 2)", full);
            goto fail;
        }
        s->fn[2 * a + (s->fn[2 * a] >= 0)] = b;
        s->fn[2 * b + (s->fn[2 * b] >= 0)] = a;
        s->nforced++;
    }
    Py_DECREF(pairs);
    return 0;
fail:
    Py_DECREF(pairs);
    return -1;
}

/* (status, list(path[:len]) or None, nodes), or NULL with an exception. */
static PyObject *result(int status, const int *path, int len, long long nodes)
{
    PyObject *witness = path ? PyList_New(len) : Py_NewRef(Py_None);
    for (int i = 0; path && witness && i < len; i++) {
        PyObject *v = PyLong_FromLong(path[i]);
        if (v == NULL)
            Py_CLEAR(witness);
        else
            PyList_SET_ITEM(witness, i, v);
    }
    return witness ? Py_BuildValue("(iNL)", status, witness, nodes) : NULL;
}

static PyObject *ham_cycle(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "forced", "max_nodes", NULL};
    PyObject *adj, *forced = NULL;
    long long max_nodes = 0;
    Search tmp, *s;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|OL:ham_cycle", kwlist,
                                     &adj, &forced, &max_nodes) ||
        (s = search_begin(adj, &tmp, max_nodes)) == NULL)
        return NULL;
    int n = s->n, status = ABSENT;
    if (forced && load_forced(s, forced) < 0)
        status = FAILED;
    if (n >= 3 && status != FAILED) {
        /* Anchor at a forced vertex when there is one, min degree otherwise. */
        int start = 0;
        for (int v = 1; v < n; v++) {
            int a = s->fn[2 * v] >= 0, b = s->fn[2 * start] >= 0;
            if (a > b || (a == b && s->off[v + 1] - s->off[v] <
                                    s->off[start + 1] - s->off[start]))
                start = v;
        }
        s->start = s->path[0] = start;
        ADD(s->visited, start);
        int first = s->fn[2 * start];
        if (first >= 0) {
            /* By direction symmetry the lowest forced neighbour goes first. */
            if (s->fn[2 * start + 1] >= 0 && s->fn[2 * start + 1] < first)
                first = s->fn[2 * start + 1];
            ADD(s->visited, first);
            s->path[1] = first;
            status = ham_dfs(s, first, -1, 2, 1);
        } else {
            status = ham_dfs(s, start, -1, 1, 0);
        }
    }
    PyObject *out = status == FAILED ? NULL :
        result(status, status == FOUND ? s->path : NULL, n, s->nodes);
    search_end(s, &tmp);
    return out;
}

/* Is the pair (a, b) a step of the cycle with pos[x] the index of vertex x
 * (-1 off it) and len >= 3 vertices?  a or b may be -1, for no vertex. */
INLINE int is_step(const int *pos, int a, int b, Py_ssize_t len)
{
    Py_ssize_t gap = a < 0 || b < 0 || pos[a] < 0 || pos[b] < 0 ? 0
                     : pos[a] - pos[b];
    return gap == 1 || gap == -1 || gap == len - 1 || gap == 1 - len;
}

/* ------------------------------------------------------------------------ */
/* EdgeTable: is_cycle's copy of an edge set (see purecore.EdgeTable) */

typedef struct {
    int n;
    int *off, *up;      /* the higher ends of the edges (u, v), u < v < n, of
                           each u in ascending order (CSR) */
} Table;

static void table_free(Table *t)
{
    PyMem_Free(t->off);
    t->off = NULL;
}

/* The pairs (u, v) of ints, u < v < n, of the set `edges` into t; any other
 * member is on no cycle, as in purecore.is_cycle.  Returns 0, or -1 with an
 * exception set. */
static int table_load(Table *t, int n, PyObject *edges)
{
    memset(t, 0, sizeof *t);
    if (!PyAnySet_Check(edges)) {
        PyErr_SetString(PyExc_TypeError, "edges must be a set");
        return -1;
    }
    t->n = n = n > 0 ? n : 0;
    Py_ssize_t cap = PySet_GET_SIZE(edges), m = 0;
    if (cap > INT_MAX / 4) {
        PyErr_NoMemory();
        return -1;
    }
    /* lo, hi: the pairs in the set's order; order: their indices by hi */
    int *lo = PyMem_Malloc((3 * (size_t)cap + n + 1) * sizeof(int));
    t->off = PyMem_Calloc((size_t)n + 1 + cap, sizeof(int));
    PyObject *it = lo && t->off ? PyObject_GetIter(edges) : NULL, *e;
    if (!lo || !t->off) {
        PyErr_NoMemory();
        goto done;
    }
    int *hi = lo + cap, *order = hi + cap, *at = order + cap;
    t->up = t->off + n + 1;
    while (it && (e = PyIter_Next(it))) {
        if (PyTuple_Check(e) && PyTuple_GET_SIZE(e) == 2 && m < cap &&
            PyLong_Check(PyTuple_GET_ITEM(e, 0)) &&
            PyLong_Check(PyTuple_GET_ITEM(e, 1))) {
            int a = vertex_of(PyTuple_GET_ITEM(e, 0), n);
            int b = vertex_of(PyTuple_GET_ITEM(e, 1), n);
            if (a >= 0 && a < b) {
                lo[m] = a;
                hi[m++] = b;
            }
        }
        Py_DECREF(e);
    }
    if (it == NULL || PyErr_Occurred())
        goto done;
    /* two stable counting passes, by hi and then by lo, sort each row */
    memset(at, 0, (n + 1) * sizeof(int));
    for (Py_ssize_t k = 0; k < m; k++) {
        at[hi[k] + 1]++;
        t->off[lo[k] + 1]++;
    }
    for (int v = 0; v < n; v++) {
        at[v + 1] += at[v];
        t->off[v + 1] += t->off[v];
    }
    for (Py_ssize_t k = 0; k < m; k++)
        order[at[hi[k]]++] = (int)k;
    memcpy(at, t->off, (n + 1) * sizeof(int));
    for (Py_ssize_t i = 0; i < m; i++)
        t->up[at[lo[order[i]]]++] = hi[order[i]];
done:
    Py_XDECREF(it);
    PyMem_Free(lo);
    if (PyErr_Occurred()) {
        table_free(t);
        return -1;
    }
    return 0;
}

/* Is (a, b), a < b, an edge of t? */
INLINE int table_has(const Table *t, int a, int b)
{
    if (b >= t->n)
        return 0;
    int l = t->off[a], h = t->off[a + 1];
    while (l < h) {
        int mid = (l + h) / 2;
        if (t->up[mid] < b)
            l = mid + 1;
        else
            h = mid;
    }
    return l < t->off[a + 1] && t->up[l] == b;
}

typedef struct {
    PyObject_HEAD
    Table t;
} EdgeTable;

static PyTypeObject EdgeTableType;

static PyObject *table_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "edges", NULL};
    PyObject *edges;
    int n;
    EdgeTable *t;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO:EdgeTable", kwlist,
                                     &n, &edges) ||
        (t = (EdgeTable *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    if (table_load(&t->t, n, edges) < 0)
        Py_CLEAR(t);
    return (PyObject *)t;
}

static void table_dealloc(EdgeTable *t)
{
    table_free(&t->t);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

static PyTypeObject EdgeTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pmhgraph._kernel._fastcore.EdgeTable",
    .tp_basicsize = sizeof(EdgeTable),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "See purecore.EdgeTable.",
    .tp_new = table_new,
    .tp_dealloc = (destructor)table_dealloc,
};

/* purecore.is_cycle, on an EdgeTable or on a set it loads into a temporary
 * one.  It reads the table, `cyc` and `forced` and nothing of a search, in
 * O(len(cyc) log(degree) + len(forced)) on a table. */
static PyObject *is_cycle(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "edges", "cyc", "forced", NULL};
    PyObject *edges, *cyc, *forced = NULL, *vs = NULL, *pairs = NULL;
    int n, *pos = NULL, ok = -1;
    Table tmp, *t = &tmp;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOO|O:is_cycle", kwlist,
                                     &n, &edges, &cyc, &forced))
        return NULL;
    if (Py_IS_TYPE(edges, &EdgeTableType))
        t = &((EdgeTable *)edges)->t;
    else if (table_load(&tmp, n, edges) < 0)
        return NULL;
    vs = PySequence_Fast(cyc, "cyc must be a sequence");
    pairs = forced ? PySequence_Fast(forced, "forced must be iterable")
                   : PyTuple_New(0);
    /* pos[x]: the index of vertex x in cyc, -1 off it; at[i]: the vertex at
     * index i.  Only distinct vertices below n are stored, so n slots each
     * suffice. */
    size_t slots = (size_t)(n > 0 ? n : 0) + 1;
    pos = PyMem_Malloc(2 * slots * sizeof(int));
    if (vs == NULL || pairs == NULL || pos == NULL) {
        if (pos == NULL)
            PyErr_NoMemory();
        goto done;
    }
    int *at = pos + slots;
    /* Every forced entry is read first, so a malformed one always raises. */
    Py_ssize_t len = PySequence_Fast_GET_SIZE(vs), nf = PySequence_Fast_GET_SIZE(pairs);
    for (Py_ssize_t k = 0; k < nf; k++) {
        PyObject *e[2];
        if (read_pair(PySequence_Fast_GET_ITEM(pairs, k), e) < 0)
            goto done;
    }
    for (int x = 0; x < n; x++)
        pos[x] = -1;
    PyObject **items = PySequence_Fast_ITEMS(vs);
    ok = len >= 3;
    for (Py_ssize_t i = 0; i < len && ok; i++) {
        long x = PyLong_AsLong(items[i]);
        if (x == -1 && PyErr_Occurred()) {
            ok = -1;
            goto done;
        }
        /* a vertex outside 0..n-1 is on no edge */
        ok = x >= 0 && x < n && pos[x] < 0;
        if (ok)
            at[pos[x] = (int)i] = (int)x;
    }
    /* each step, the closing one included, is an edge */
    for (Py_ssize_t i = 0; i < len && ok; i++) {
        int a = at[i], b = at[i + 1 < len ? i + 1 : 0];
        ok = a < b ? table_has(t, a, b) : table_has(t, b, a);
    }
    /* every forced pair, in either order, is a step */
    for (Py_ssize_t k = 0; k < nf && ok > 0; k++) {
        PyObject **e = PySequence_Fast_ITEMS(PySequence_Fast_GET_ITEM(pairs, k));
        ok = is_step(pos, vertex_of(e[0], n), vertex_of(e[1], n), len);
    }
done:
    Py_XDECREF(vs);
    Py_XDECREF(pairs);
    PyMem_Free(pos);
    if (t == &tmp)
        table_free(&tmp);
    return ok < 0 ? NULL : PyBool_FromLong(ok);
}

/* ------------------------------------------------------------------------ */
/* Longest cycle by branch and bound */

/* purecore._closable_core with less work, as prune_words is purecore's
 * feasible: shrink `core`, the `size` vertices the path may still take, to
 * the greatest subset reachable from u inside itself in which every vertex
 * has two neighbours among the subset, u and root; returns its new size.
 * Below the root, `core` is the parent's core minus u.  That core was
 * reachable from the parent inside itself, so (as in prune_words) the flood
 * from u stops once the parent's neighbours in `core` are reached.  And when
 * the flood cuts nothing, only the parent left the set a vertex counts
 * neighbours in, so the peel starts from the parent's neighbours and goes on
 * to the neighbours of what it drops.  A peel in any order ends at the same
 * set, so the result is purecore's. */
INLINE int lc_core(Search *s, int u, int parent, word *core, int size, int nw)
{
    word *keep = s->target, *cand = s->allow, *reach = s->reach;
    for (int i = 0; i < nw; i++)
        cand[i] = parent < 0 ? core[i] : ROW(s, parent)[i] & core[i];
    if (!flood(s, u, core, cand, nw))
        for (int i = 0; i < nw; i++) {
            for (word x = core[i] & ~reach[i]; x; x &= x - 1)
                size--;
            cand[i] = core[i] &= reach[i];
        }
    for (int i = 0; i < nw; i++)
        keep[i] = core[i];
    ADD(keep, u);
    ADD(keep, s->root);
    for (int more = 1; more;) {
        more = 0;
        for (int j = 0; j < nw; j++) {
            word x = cand[j];
            cand[j] = 0;
            for (; x; x &= x - 1) {
                int v = j * 64 + __builtin_ctzll(x), cnt = 0;
                const word *row = ROW(s, v);
                if (!HAS(core, v))
                    continue;
                for (int i = 0; i < nw && cnt < 2; i++) {
                    word y = row[i] & keep[i];
                    cnt += y ? ((y & (y - 1)) ? 2 : 1) : 0;
                }
                if (cnt >= 2)
                    continue;
                DEL(core, v);
                DEL(keep, v);
                size--;
                for (int i = 0; i < nw; i++)
                    cand[i] |= row[i] & core[i];
                more = 1;
            }
        }
    }
    return size;
}

/* A node of purecore.longest_cycle: the path s->path[0..plen) ends at u, and
 * its level slot in s->levels holds the `size` vertices the path may still
 * take (see lc_core for `parent`).  Bound: the node is a leaf when the path
 * plus its closable core is no longer than the best cycle, or when u is not
 * root and root has no neighbour in the core; a child w takes the core minus
 * w. */
static int lc_dfs(Search *s, int u, int parent, int size)
{
    int nw = s->nw, r = count_node(s), meets = u == s->root;
    if (r)
        return r;
    if (s->plen >= 3 && HAS(ROW(s, u), s->root) && s->plen > s->blen) {
        memcpy(s->best, s->path, s->plen * sizeof(int));
        s->blen = s->plen;
    }
    word *core = s->levels + (size_t)(s->plen - 1) * nw, *sub = core + nw;
    size = nw == 1 ? lc_core(s, u, parent, core, size, 1)
                   : lc_core(s, u, parent, core, size, nw);
    for (int i = 0; i < nw && !meets; i++)
        meets = (ROW(s, s->root)[i] & core[i]) != 0;
    if (s->plen + size <= s->blen || !meets)
        return 0;
    for (int i = s->off[u]; i < s->off[u + 1]; i++) {
        int w = s->nbr[i];
        if (!HAS(core, w))
            continue;
        for (int j = 0; j < nw; j++)
            sub[j] = core[j];
        DEL(sub, w);
        s->path[s->plen++] = w;
        r = lc_dfs(s, w, u, size - 1);
        s->plen--;
        if (r)
            return r;
    }
    return 0;
}

static PyObject *longest_cycle(PyObject *Py_UNUSED(self), PyObject *args,
                               PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "max_nodes", NULL};
    PyObject *adj;
    long long max_nodes = 0;
    Search tmp, *s;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|L:longest_cycle", kwlist,
                                     &adj, &max_nodes) ||
        (s = search_begin(adj, &tmp, max_nodes)) == NULL)
        return NULL;
    /* a path of plen vertices uses the level slots 0 .. plen - 1 */
    int r = 0;
    memcpy(s->above, s->full, s->nw * sizeof(word));
    for (int root = 0; !r && s->n - root > s->blen; root++) {
        /* Cycles whose minimum vertex is `root`: the path stays above it. */
        DEL(s->above, root);
        s->root = s->path[0] = root;
        s->plen = 1;
        memcpy(s->levels, s->above, s->nw * sizeof(word));
        r = lc_dfs(s, root, -1, s->n - 1 - root);
    }
    PyObject *out = r == FAILED ? NULL :
        result(r == BUDGET ? BUDGET : s->blen ? FOUND : ABSENT,
               s->blen ? s->best : NULL, s->blen, s->nodes);
    search_end(s, &tmp);
    return out;
}

/* ------------------------------------------------------------------------ */
/* Perfect-matching scan against held trails (see purecore.pm_scan) */

enum { SCAN_START, SCAN_RUN, SCAN_LEAF, SCAN_DONE };

typedef struct {
    PyObject_HEAD
    int n, m, mw, half;     /* vertices, edges, words of an edge set, n / 2 */
    int *uoff, *unbr;       /* neighbours above each vertex in adj's order
                               (CSR); an edge's id is its index in unbr */
    int *ea, *eb, *centre;  /* ends (ea < eb) and centre of each edge */
    int centred;            /* centres given: add() may hold trails */
    PyObject **pair;        /* the tuple (ea, eb) of each edge, shared by
                               every list the scan yields */
    int *lo, *next, *chosen;/* per depth: lowest uncovered vertex, next
                               candidate in unbr, edge chosen */
    int *filled;            /* n + 1 segment counts, zero between uses */
    unsigned char *covered; /* n + 1 entries, the last never set */
    int depth, state;
    long long tested;
    int ntrails, tcap, tw;  /* trails held, room for, tcap / 64 */
    word *tbits;            /* 3 * mw words per trail: refused, off, pairs */
    int *segs;              /* n + 1 segment counts per trail */
    word *refusers;         /* tw words per edge: the trails refusing it */
    word *alive;            /* tw words per depth d <= half: the trails that
                               no edge chosen above d refuses (tw >= 1 once
                               the scan is made) */
} PmScan;

#define TRAIL(s, t) ((s)->tbits + (size_t)(t) * 3 * (s)->mw)
#define SEGS(s, t) ((s)->segs + (size_t)(t) * ((s)->n + 1))

static void scan_release(PmScan *s)
{
    for (int e = 0; s->pair && e < s->m; e++)
        Py_XDECREF(s->pair[e]);
    PyMem_Free(s->pair);
    s->pair = NULL;
    PyMem_Free(s->uoff);
    PyMem_Free(s->tbits);
    PyMem_Free(s->segs);
    PyMem_Free(s->refusers);
    PyMem_Free(s->alive);
    s->uoff = s->segs = NULL;
    s->tbits = s->refusers = s->alive = NULL;
    s->ntrails = s->tcap = s->tw = 0;
    s->state = SCAN_DONE;
}

static void scan_dealloc(PmScan *s)
{
    scan_release(s);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

/* Rule (c) for trail t at the matching chosen[0..half): the centre of each
 * off-T 2-path keeps a segment that the filling 2-paths leave free. */
static int scan_rule_c(PmScan *s, int t)
{
    const word *off = TRAIL(s, t) + s->mw, *pairs = off + s->mw;
    const int *seg = SEGS(s, t);
    int filling = 0, ok = 1;
    for (int i = 0; i < s->half; i++)
        if (HAS(pairs, s->chosen[i])) {
            s->filled[s->centre[s->chosen[i]]]++;
            filling = 1;
        }
    if (!filling)
        return 1;
    for (int i = 0; i < s->half && ok; i++) {
        int c = s->centre[s->chosen[i]];
        ok = !HAS(off, s->chosen[i]) || seg[c] > s->filled[c];
    }
    for (int i = 0; i < s->half; i++)
        s->filled[s->centre[s->chosen[i]]] = 0;
    return ok;
}

/* Run to the next matching that no trail fits: 1 there, 0 when the scan is
 * finished, -1 with an exception set (the scan is then finished too). */
static int scan_advance(PmScan *s)
{
    int tw = s->tw, half = s->half;
    if (s->state == SCAN_START) {
        s->state = s->n % 2 ? SCAN_DONE : SCAN_RUN;
        if (s->n == 0) {
            /* one empty matching, before any trail */
            s->tested = 1;
            s->state = SCAN_LEAF;
            return 1;
        }
        s->depth = s->lo[0] = 0;
        s->next[0] = s->uoff[0];
    } else if (s->state == SCAN_LEAF) {
        s->state = half ? SCAN_RUN : SCAN_DONE;
    }
    if (s->state == SCAN_DONE)
        return 0;
    /* _completions' walk: a frame per depth, the leaf's frame at half - 1 */
    for (;;) {
        int d = s->depth, v = s->lo[d], i = s->next[d];
        while (i < s->uoff[v + 1] && s->covered[s->unbr[i]])
            i++;
        if (i == s->uoff[v + 1]) {
            if (d == 0) {
                s->state = SCAN_DONE;
                return 0;
            }
            s->depth = --d;
            s->covered[s->eb[s->chosen[d]]] = 0;
            continue;
        }
        s->next[d] = i + 1;
        s->chosen[d] = i;
        word *here = s->alive + (size_t)d * tw, *below = here + tw;
        for (int j = 0; j < tw; j++)
            below[j] = here[j] & ~s->refusers[(size_t)i * tw + j];
        if (d + 1 < half) {
            s->covered[s->unbr[i]] = 1;
            while (s->covered[++v])
                ;
            s->depth = ++d;
            s->lo[d] = v;
            s->next[d] = s->uoff[v];
            continue;
        }
        if ((++s->tested & SIGNAL_EVERY) == 0 && PyErr_CheckSignals() < 0) {
            scan_release(s);
            return -1;
        }
        /* the trails in `below` break no rule before (c) */
        int hit = 0;
        for (int j = 0; j < tw && !hit; j++)
            for (word x = below[j]; x && !hit; x &= x - 1)
                hit = scan_rule_c(s, j * 64 + __builtin_ctzll(x));
        if (!hit) {
            s->state = SCAN_LEAF;
            return 1;
        }
    }
}

static PyObject *scan_iternext(PmScan *s)
{
    if (scan_advance(s) <= 0)
        return NULL;
    PyObject *out = PyList_New(s->half);
    for (int i = 0; out && i < s->half; i++) {
        PyObject *pair = s->pair[s->chosen[i]];
        Py_INCREF(pair);
        PyList_SET_ITEM(out, i, pair);
    }
    return out;
}

/* Edge id of (a, b), or -1 when it is not an edge. */
static int scan_edge(const PmScan *s, int a, int b)
{
    int lo = a < b ? a : b, hi = a < b ? b : a;
    for (int i = s->uoff[lo]; i < s->uoff[lo + 1]; i++)
        if (s->unbr[i] == hi)
            return i;
    return -1;
}

/* Add edge (a, b) to `pairs`; -1 when it is not an edge. */
static int scan_pair(const PmScan *s, word *pairs, int a, int b)
{
    int e = scan_edge(s, a, b);
    if (e >= 0)
        ADD(pairs, e);
    return e;
}

/* Room for one more trail.  Returns 0, or -1 with an exception set. */
static int scan_grow(PmScan *s)
{
    if (s->ntrails < s->tcap)
        return 0;
    int cap = s->tcap ? 2 * s->tcap : 64, tw = cap / 64;
    word *tbits = PyMem_Realloc(s->tbits, (size_t)cap * 3 * s->mw * sizeof(word));
    if (tbits)
        s->tbits = tbits;
    int *segs = PyMem_Realloc(s->segs, (size_t)cap * (s->n + 1) * sizeof(int));
    if (segs)
        s->segs = segs;
    /* the sets over trails get wider: copy each row into its wider slot */
    int rows[] = {s->m, s->half + 1};
    word **sets[] = {&s->refusers, &s->alive}, *wide[2];
    for (int k = 0; k < 2; k++) {
        wide[k] = PyMem_Calloc((size_t)rows[k] * tw + 1, sizeof(word));
        for (int r = 0; wide[k] && r < rows[k]; r++)
            memcpy(wide[k] + (size_t)r * tw, *sets[k] + (size_t)r * s->tw,
                   s->tw * sizeof(word));
    }
    if (!tbits || !segs || !wide[0] || !wide[1]) {
        PyMem_Free(wide[0]);
        PyMem_Free(wide[1]);
        PyErr_NoMemory();
        return -1;
    }
    for (int k = 0; k < 2; k++) {
        PyMem_Free(*sets[k]);
        *sets[k] = wide[k];
    }
    s->tcap = cap;
    s->tw = tw;
    return 0;
}

/* The trail of the closed walk cyc[0..k) into slot s->ntrails, by
 * purecore.pm_scan.add's rule; `at` and `on` are scratch of k and n
 * entries.  Returns 0, or -1 when a step of the walk is not an edge. */
static int scan_trail(PmScan *s, const int *cyc, int k, int *at, int *on)
{
    int mw = s->mw, first = -1, prev = -1;
    word *refused = TRAIL(s, s->ntrails), *off = refused + mw, *pairs = off + mw;
    int *seg = SEGS(s, s->ntrails);
    memset(refused, 0, 3 * (size_t)mw * sizeof(word));
    memset(seg, 0, (s->n + 1) * sizeof(int));
    memset(on, 0, s->n * sizeof(int));
    for (int i = 0; i < k; i++) {
        int e = scan_edge(s, cyc[i], cyc[(i + 1) % k]);
        if (e < 0)
            return -1;
        at[i] = s->centre[e];
    }
    /* One segment starts at each turn, where the cycle's vertex is an edge
     * of T; T's edges chain in the cycle's order into the segments'
     * (entry, exit) pairs.  With no turn, C stays in one clique: G is a
     * star, and T is one segment at its centre. */
    for (int i = 0; i < k; i++) {
        if (at[(i + k - 1) % k] == at[i])
            continue;
        if (prev < 0)
            first = cyc[i];
        else if (scan_pair(s, pairs, prev, cyc[i]) < 0)
            return -1;
        seg[at[i]]++;
        on[cyc[i]] = 1;
        prev = cyc[i];
    }
    if (prev < 0)
        seg[at[0]] = 1;
    else if (scan_pair(s, pairs, prev, first) < 0)
        return -1;
    for (int e = 0; e < s->m; e++) {
        int a = on[s->ea[e]], b = on[s->eb[e]];
        if (a && b && !HAS(pairs, e))
            ADD(refused, e);
        else if (!a && !b)
            ADD(seg[s->centre[e]] ? off : refused, e);
    }
    return 0;
}

/* Hold the trail in slot s->ntrails; returns whether it fits the leaf. */
static int scan_commit(PmScan *s)
{
    int t = s->ntrails++, clean = 1;
    const word *refused = TRAIL(s, t);
    for (int e = 0; e < s->m; e++)
        if (HAS(refused, e))
            ADD(s->refusers + (size_t)e * s->tw, t);
    /* t is alive at each depth of the leaf's stack down to the first chosen
     * edge it refuses */
    for (int d = 0; d < s->half && clean; d++) {
        ADD(s->alive + (size_t)d * s->tw, t);
        clean = !HAS(refused, s->chosen[d]);
    }
    return clean && scan_rule_c(s, t);
}

static PyObject *scan_add(PmScan *s, PyObject *cycle)
{
    if (!s->centred) {
        PyErr_SetString(PyExc_ValueError, "add needs the centre of each edge");
        return NULL;
    }
    if (s->state != SCAN_LEAF) {
        PyErr_SetString(PyExc_ValueError, "add follows a yielded matching");
        return NULL;
    }
    PyObject *walk = PySequence_Fast(cycle, "cycle must be a sequence");
    if (walk == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(walk) - 1;
    int *cyc = k > 0 && k < INT_MAX / 2 ?
        PyMem_Malloc((2 * (size_t)k + s->n) * sizeof(int)) : NULL;
    int ok = cyc != NULL, fit = 0;
    if (k > 0 && k < INT_MAX / 2 && cyc == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; ok && i < k; i++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(walk, i));
        ok = x >= 0 && x < s->n;
        cyc[i] = (int)x;
    }
    if (ok && scan_grow(s) == 0 &&
        scan_trail(s, cyc, (int)k, cyc + k, cyc + 2 * k) == 0)
        fit = scan_commit(s);
    else if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "not a closed walk of the graph");
    PyMem_Free(cyc);
    Py_DECREF(walk);
    return PyErr_Occurred() ? NULL : PyBool_FromLong(fit);
}

static PyObject *scan_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "centre", NULL};
    PyObject *adj, *centre = Py_None, *cs = NULL;
    PmScan *s = NULL;
    Search g;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|O:pm_scan", kwlist,
                                     &adj, &centre) ||
        load_adj(&g, adj) < 0)
        return NULL;
    int n = g.n, m = 0;
    for (int v = 0; v < n; v++)
        for (int i = g.off[v]; i < g.off[v + 1]; i++)
            m += g.nbr[i] > v;
    s = (PmScan *)type->tp_alloc(type, 0);
    if (s == NULL)
        goto fail;
    s->n = n;
    s->m = m;
    s->mw = (m + 63) / 64;
    s->half = n / 2;
    s->uoff = PyMem_Calloc(n + 1 + 4 * (size_t)m + 3 * (s->half + 1) + n + 1
                           + n / sizeof(int) + 1, sizeof(int));
    if (s->uoff == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    s->unbr = s->uoff + n + 1;
    s->ea = s->unbr + m;
    s->eb = s->ea + m;
    s->centre = s->eb + m;
    s->lo = s->centre + m;
    s->next = s->lo + s->half + 1;
    s->chosen = s->next + s->half + 1;
    s->filled = s->chosen + s->half + 1;
    s->covered = (unsigned char *)(s->filled + n + 1);
    int k = 0;
    for (int v = 0; v < n; v++) {
        s->uoff[v] = k;
        for (int i = g.off[v]; i < g.off[v + 1]; i++)
            if (g.nbr[i] > v) {
                s->ea[k] = v;
                s->eb[k] = s->unbr[k] = g.nbr[i];
                k++;
            }
    }
    s->uoff[n] = k;
    s->pair = PyMem_Calloc((size_t)m + 1, sizeof(PyObject *));
    if (s->pair == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int e = 0; e < m; e++)
        if ((s->pair[e] = Py_BuildValue("(ii)", s->ea[e], s->eb[e])) == NULL)
            goto fail;
    /* without centres the scan holds no trail and yields every matching */
    s->centred = centre != Py_None;
    if (s->centred &&
        (cs = PySequence_Fast(centre, "centre must be a sequence")) == NULL)
        goto fail;
    if (cs && PySequence_Fast_GET_SIZE(cs) != m) {
        PyErr_SetString(PyExc_ValueError, "one centre per edge required");
        goto fail;
    }
    for (int e = 0; cs && e < m; e++) {
        long c = PyLong_AsLong(PySequence_Fast_GET_ITEM(cs, e));
        if (c < 0 || c > n) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError,
                             "centre %ld of edge %d out of range", c, e);
            goto fail;
        }
        s->centre[e] = (int)c;
    }
    if (scan_grow(s) < 0)
        goto fail;
    Py_XDECREF(cs);
    search_free(&g);
    return (PyObject *)s;
fail:
    Py_XDECREF(cs);
    Py_XDECREF(s);
    search_free(&g);
    return NULL;
}

static PyMethodDef scan_methods[] = {
    {"add", (PyCFunction)scan_add, METH_O, "See purecore.pm_scan.add."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef scan_members[] = {
    {"tested", T_LONGLONG, offsetof(PmScan, tested), READONLY,
     "matchings enumerated so far"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ScanType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pmhgraph._kernel._fastcore.pm_scan",
    .tp_basicsize = sizeof(PmScan),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "See purecore.pm_scan.",
    .tp_new = scan_new,
    .tp_dealloc = (destructor)scan_dealloc,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)scan_iternext,
    .tp_methods = scan_methods,
    .tp_members = scan_members,
};

/* ------------------------------------------------------------------------ */
/* Canonical form by individualisation-refinement (see
 * purecore.canonical_form) */

#define CANON_MAX 64

/* An ordered partition: the vertices cell by cell in v, and end[i] one past
 * the last slot of cell i. */
typedef struct {
    unsigned char v[CANON_MAX], end[CANON_MAX];
    int k;
} Partition;

/* purecore._refine on p.  A vertex's key is its neighbours' cell indices in
 * ascending order, stored as index + 1 and padded with zeros to n bytes, so
 * memcmp orders keys as Python orders the tuples (a proper prefix first).  A
 * stable insertion sort by key splits each cell into parts in key order,
 * each part keeping the cell's order. */
static void canon_refine(const word *nb, int n, Partition *p)
{
    unsigned char key[CANON_MAX][CANON_MAX];
    word in[CANON_MAX];
    for (;;) {
        Partition q;
        int k = p->k, start = 0;
        for (int i = 0; i < k; i++) {
            in[i] = 0;
            for (int j = start; j < p->end[i]; j++)
                in[i] |= BIT(p->v[j]);
            start = p->end[i];
        }
        q.k = start = 0;
        for (int i = 0; i < k; start = p->end[i++]) {
            int size = p->end[i] - start;
            unsigned char *part = q.v + start;
            if (size == 1) {
                part[0] = p->v[start];
                q.end[q.k++] = (unsigned char)(start + 1);
                continue;
            }
            for (int j = 0; j < size; j++) {
                int v = p->v[start + j], len = 0, pos = j;
                unsigned char *kv = key[v];
                for (int c = 0; c < k; c++)
                    for (int x = __builtin_popcountll(nb[v] & in[c]); x; x--)
                        kv[len++] = (unsigned char)(c + 1);
                memset(kv + len, 0, n - len);
                while (pos > 0 && memcmp(key[part[pos - 1]], kv, n) > 0) {
                    part[pos] = part[pos - 1];
                    pos--;
                }
                part[pos] = (unsigned char)v;
            }
            for (int j = 1; j <= size; j++)
                if (j == size || memcmp(key[part[j - 1]], key[part[j]], n))
                    q.end[q.k++] = (unsigned char)(start + j);
        }
        int split = q.k != k;
        *p = q;
        if (!split)
            return;
    }
}

/* Is the relabelled graph `a` (row i: its neighbours above i) less than `b`,
 * comparing sorted edge lists?  In the first row where they differ, the list
 * holding the lowest differing neighbour has the lesser edge there. */
static int canon_less(const word *a, const word *b, int n)
{
    for (int i = 0; i < n; i++)
        if (a[i] != b[i]) {
            word x = a[i] ^ b[i];
            return (a[i] & x & -x) != 0;
        }
    return 0;
}

/* Read `edges` into neighbour masks.  Returns 0, or -1 with an exception. */
static int canon_load(PyObject *edges, int n, word *nb)
{
    PyObject *it = PyObject_GetIter(edges), *item;
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        PyObject *pair = PySequence_Fast(item, "edges are pairs");
        Py_DECREF(item);
        if (pair == NULL)
            break;
        long u = -1, v = -1;
        if (PySequence_Fast_GET_SIZE(pair) == 2) {
            u = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 0));
            v = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 1));
        }
        Py_DECREF(pair);
        if (PyErr_Occurred())
            break;
        if (!(0 <= u && u < v && v < n) || (nb[u] >> v & 1)) {
            PyErr_Format(PyExc_ValueError, "edge (%ld,%ld) is repeated or not "
                         "a pair u < v of vertices below %d", u, v, n);
            break;
        }
        nb[u] |= BIT(v);
        nb[v] |= BIT(u);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* ((n, edges), labelling) as purecore builds them, or NULL. */
static PyObject *canon_result(int n, const word *form, const unsigned char *lab)
{
    int m = 0;
    for (int i = 0; i < n; i++)
        m += __builtin_popcountll(form[i]);
    PyObject *edges = PyTuple_New(m), *labs = PyTuple_New(n);
    int e = 0, ok = edges && labs;
    for (int i = 0; i < n && ok; i++)
        for (word x = form[i]; x && ok; x &= x - 1) {
            PyObject *pair = Py_BuildValue("(ii)", i, __builtin_ctzll(x));
            ok = pair != NULL;
            if (ok)
                PyTuple_SET_ITEM(edges, e++, pair);
        }
    for (int v = 0; v < n && ok; v++) {
        PyObject *x = PyLong_FromLong(lab[v]);
        ok = x != NULL;
        if (ok)
            PyTuple_SET_ITEM(labs, v, x);
    }
    if (!ok) {
        Py_XDECREF(edges);
        Py_XDECREF(labs);
        return NULL;
    }
    return Py_BuildValue("((iN)N)", n, edges, labs);
}

static PyObject *canonical_form(PyObject *Py_UNUSED(self), PyObject *args)
{
    int n;
    PyObject *edges;
    word nb[CANON_MAX] = {0}, form[CANON_MAX], best[CANON_MAX];
    unsigned char lab[CANON_MAX], blab[CANON_MAX];
    if (!PyArg_ParseTuple(args, "iO:canonical_form", &n, &edges))
        return NULL;
    if (n < 0 || n > CANON_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "canonical form takes 0..%d vertices, not %d", CANON_MAX, n);
        return NULL;
    }
    if (canon_load(edges, n, nb) < 0)
        return NULL;
    /* purecore's stack.  A node at depth j has j singletons at least, so
     * it pushes at most n - j children: n(n + 1) / 2 + 1 slots hold it. */
    Partition *stack = PyMem_Malloc(((size_t)n * (n + 1) / 2 + 1) * sizeof *stack);
    if (stack == NULL)
        return PyErr_NoMemory();
    for (int v = 0; v < n; v++)
        stack[0].v[v] = (unsigned char)v;
    stack[0].end[0] = (unsigned char)n;
    stack[0].k = n > 0;
    canon_refine(nb, n, &stack[0]);
    int top = 1, found = 0;
    long long popped = 0;
    while (top) {
        if ((++popped & SIGNAL_EVERY) == 0 && PyErr_CheckSignals() < 0) {
            PyMem_Free(stack);
            return NULL;
        }
        Partition p = stack[--top];
        int i = 0, start = 0;
        while (i < p.k && p.end[i] - start == 1)
            start = p.end[i++];
        if (i == p.k) {
            for (int pos = 0; pos < n; pos++)
                lab[p.v[pos]] = (unsigned char)pos;
            memset(form, 0, sizeof form);
            for (int u = 0; u < n; u++)
                for (word x = nb[u] >> u >> 1 << u << 1; x; x &= x - 1) {
                    int a = lab[u], b = lab[__builtin_ctzll(x)];
                    if (a < b)
                        form[a] |= BIT(b);
                    else
                        form[b] |= BIT(a);
                }
            if (!found || canon_less(form, best, n)) {
                memcpy(best, form, sizeof form);
                memcpy(blab, lab, sizeof lab);
                found = 1;
            }
            continue;
        }
        /* each vertex of cell i but the twins of one tried before it */
        word tried = 0;
        for (int j = start; j < p.end[i]; j++) {
            int v = p.v[j], twin = 0;
            for (word x = tried; x && !twin; x &= x - 1) {
                int w = __builtin_ctzll(x);
                twin = (nb[v] & ~BIT(w)) == (nb[w] & ~BIT(v));
            }
            if (twin)
                continue;
            tried |= BIT(v);
            Partition *c = &stack[top++];
            memcpy(c->v, p.v, start);
            c->v[start] = (unsigned char)v;
            for (int t = start, r = start + 1; t < n; t++)
                if (t != j)
                    c->v[r++] = p.v[t];
            memcpy(c->end, p.end, i);
            c->end[i] = (unsigned char)(start + 1);
            memcpy(c->end + i + 1, p.end + i, p.k - i);
            c->k = p.k + 1;
            canon_refine(nb, n, c);
        }
    }
    PyMem_Free(stack);
    return canon_result(n, best, blab);
}

static PyMethodDef methods[] = {
    {"ham_cycle", (PyCFunction)(void (*)(void))ham_cycle,
     METH_VARARGS | METH_KEYWORDS, "See purecore.ham_cycle."},
    {"is_cycle", (PyCFunction)(void (*)(void))is_cycle,
     METH_VARARGS | METH_KEYWORDS, "See purecore.is_cycle."},
    {"longest_cycle", (PyCFunction)(void (*)(void))longest_cycle,
     METH_VARARGS | METH_KEYWORDS, "See purecore.longest_cycle."},
    {"canonical_form", canonical_form, METH_VARARGS,
     "See purecore.canonical_form."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcore",
    .m_doc = "Compiled search kernels with the contract of purecore.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    PyObject *m = PyType_Ready(&ScanType) < 0 || PyType_Ready(&SearchGraphType) < 0 ||
                  PyType_Ready(&EdgeTableType) < 0 ? NULL : PyModule_Create(&module);
    if (m != NULL && (PyModule_AddObjectRef(m, "pm_scan", (PyObject *)&ScanType) < 0 ||
                      PyModule_AddObjectRef(m, "SearchGraph",
                                            (PyObject *)&SearchGraphType) < 0 ||
                      PyModule_AddObjectRef(m, "EdgeTable",
                                            (PyObject *)&EdgeTableType) < 0 ||
                      PyModule_AddIntConstant(m, "FOUND", FOUND) < 0 ||
                      PyModule_AddIntConstant(m, "ABSENT", ABSENT) < 0 ||
                      PyModule_AddIntConstant(m, "BUDGET", BUDGET) < 0 ||
                      PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0))
        Py_CLEAR(m);
    return m;
}
