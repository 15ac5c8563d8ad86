/* Compiled search kernels: hamiltonian cycle with forced edges, longest cycle.
 *
 * Mirrors purecore.py exactly (same start vertex, same candidate order, same
 * node counting, hence the same status, witness and node count); see that
 * module for the contract.  The pruning tests decide what purecore's decide,
 * with less work (see prune_words).  Vertex sets are bitsets of nw =
 * ceil(n/64) uint64_t words, the same masks purecore builds from Python ints.
 *
 * A search polls PyErr_CheckSignals() every 2^14 nodes, so a signal handler
 * that raises (a SIGALRM timeout, Ctrl-C) interrupts it; the search then
 * unwinds, frees its memory and the call raises.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
    int *fn, *fused;        /* two forced-neighbour slots per vertex (-1 when
                               empty), and whether the slot's edge is used */
    int start, nforced, root, plen, blen;
    word *amask;            /* bitset row per vertex; self-loops cleared
                               (no purecore check reads a vertex's own bit) */
    word *full, *visited, *allow, *target, *reach, *frontier, *next, *above;
    long long nodes, max_nodes;
} Search;

static void search_free(Search *s)
{
    PyMem_Free(s->off);
    PyMem_Free(s->amask);
}

/* Copy `adj` (a sequence of neighbour sequences) into `s`.  Returns 0, or -1
 * with an exception set. */
static int search_init(Search *s, PyObject *adj, long long max_nodes)
{
    memset(s, 0, sizeof *s);
    s->max_nodes = max_nodes;
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
    int nw = (int)((n + 63) / 64);
    s->n = (int)n;
    s->nw = nw;
    s->off = PyMem_Calloc(7 * n + m + 1, sizeof(int));
    s->amask = PyMem_Calloc(((size_t)n + 8) * nw + 1, sizeof(word));
    if (!s->off || !s->amask) {
        PyErr_NoMemory();
        goto fail;
    }
    s->nbr = s->off + n + 1;
    s->path = s->nbr + m;
    s->best = s->path + n;
    s->fn = s->best + n;
    s->fused = s->fn + 2 * n;
    word *w0 = s->amask + (size_t)n * nw;
    word **scratch[] = {&s->full, &s->visited, &s->allow, &s->target,
                        &s->reach, &s->frontier, &s->next, &s->above};
    for (int i = 0; i < 8; i++)
        *scratch[i] = w0 + i * nw;
    Py_ssize_t k = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        ADD(s->full, v);
        s->fn[2 * v] = s->fn[2 * v + 1] = -1;
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
            if (w != v)
                ADD(ROW(s, v), w);
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

/* reach := the vertices reachable from u through s->allow (u included), or
 * at least all of `target` (a subset of allow) among them; returns whether
 * every target vertex was reached.  The callers pass nw == 1 as a constant so
 * the one-word case compiles flat. */
INLINE int flood(Search *s, int u, const word *target, int nw)
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
            frontier[i] = next[i] & s->allow[i] & ~reach[i];
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

static void mark_used(Search *s, int u, int w, int used)
{
    for (int i = 0; i < 2; i++) {
        if (s->fn[2 * u + i] == w)
            s->fused[2 * u + i] = used;
        if (s->fn[2 * w + i] == u)
            s->fused[2 * w + i] = used;
    }
}

/* purecore's degree_ok and reachable_ok: every unvisited vertex keeps two
 * neighbours among the unvisited ones, the start and u, and all of those are
 * reachable from u through them.  A node's usable set is its parent's minus
 * the parent, and the parent passed both tests (it was expanded).  So only the
 * parent's unvisited neighbours need the degree test again, and the set is
 * still connected iff the parent's neighbours in it are reachable from u: any
 * other vertex reached the parent through one of them.  parent < 0 tests all. */
INLINE int prune_words(Search *s, int u, int parent, int nw)
{
    for (int i = 0; i < nw; i++)
        s->allow[i] = ~s->visited[i] & s->full[i];
    ADD(s->allow, s->start);
    ADD(s->allow, u);
    for (int i = 0; i < nw; i++) {
        word x = ~s->visited[i] & s->full[i];
        if (parent >= 0)
            x &= s->amask[(size_t)parent * nw + i];
        for (; x; x &= x - 1) {
            const word *row = s->amask + (size_t)(i * 64 + __builtin_ctzll(x)) * nw;
            int cnt = 0;
            for (int j = 0; j < nw && cnt < 2; j++) {
                word y = row[j] & s->allow[j];
                cnt += y ? ((y & (y - 1)) ? 2 : 1) : 0;
            }
            if (cnt < 2)
                return 0;
        }
    }
    if (parent < 0)
        return flood(s, u, s->allow, nw);
    for (int i = 0; i < nw; i++)
        s->target[i] = s->amask[(size_t)parent * nw + i] & s->allow[i];
    return flood(s, u, s->target, nw);
}

static int ham_dfs(Search *s, int u, int parent, int count, int used)
{
    int r = count_node(s);
    if (r)
        return r;
    if (count == s->n)
        return HAS(ROW(s, u), s->start) &&
               used + forced_to(s, u, s->start) == s->nforced ? FOUND : ABSENT;
    int pending = 0, pend0 = -1;
    for (int i = 0; i < 2; i++)
        if (s->fn[2 * u + i] >= 0 && !s->fused[2 * u + i]) {
            pending++;
            pend0 = s->fn[2 * u + i];
        }
    if (pending >= 2 || !(s->nw == 1 ? prune_words(s, u, parent, 1)
                                     : prune_words(s, u, parent, s->nw)))
        return ABSENT;
    const int *cands = pending ? &pend0 : s->nbr + s->off[u];
    int ncands = pending ? 1 : s->off[u + 1] - s->off[u], saw_budget = 0;
    for (int i = 0; i < ncands; i++) {
        int w = cands[i];
        if (HAS(s->visited, w))
            continue;
        if (pending)
            mark_used(s, u, w, 1);
        ADD(s->visited, w);
        s->path[count] = w;
        r = ham_dfs(s, w, u, count + 1, used + pending);
        if (r == FOUND || r == FAILED)
            return r;
        saw_budget |= r == BUDGET;
        DEL(s->visited, w);
        if (pending)
            mark_used(s, u, w, 0);
    }
    return saw_budget ? BUDGET : ABSENT;
}

/* Read `forced` into the slots.  Returns 0, or -1 with an exception set. */
static int load_forced(Search *s, PyObject *forced)
{
    PyObject *pairs = PySequence_Fast(forced, "forced must be iterable");
    if (pairs == NULL)
        return -1;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(pairs); k++) {
        int e[2];
        PyObject *pair = PySequence_Tuple(PySequence_Fast_GET_ITEM(pairs, k));
        int ok = pair && PyArg_ParseTuple(pair, "ii;forced edges are pairs",
                                          &e[0], &e[1]);
        Py_XDECREF(pair);
        if (ok && (e[0] < 0 || e[0] >= s->n || e[1] < 0 || e[1] >= s->n)) {
            PyErr_Format(PyExc_ValueError, "forced edge (%d,%d) out of range",
                         e[0], e[1]);
            ok = 0;
        }
        if (!ok)
            goto fail;
        s->nforced += !forced_to(s, e[0], e[1]);
        for (int i = 0; i < 2; i++) {
            int *slot = s->fn + 2 * e[i];
            if (slot[1] >= 0) {
                PyErr_Format(PyExc_ValueError,
                             "vertex %d has more than two forced edges", e[i]);
                goto fail;
            }
            slot[slot[0] >= 0] = e[1 - i];
        }
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
    Search s;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|OL:ham_cycle", kwlist,
                                     &adj, &forced, &max_nodes) ||
        search_init(&s, adj, max_nodes) < 0)
        return NULL;
    int n = s.n, status = ABSENT;
    if (n >= 3 && forced && load_forced(&s, forced) < 0)
        status = FAILED;
    if (n >= 3 && status != FAILED) {
        /* Anchor at a forced vertex when there is one, min degree otherwise. */
        int start = 0;
        for (int v = 1; v < n; v++) {
            int a = s.fn[2 * v] >= 0, b = s.fn[2 * start] >= 0;
            if (a > b || (a == b && s.off[v + 1] - s.off[v] <
                                    s.off[start + 1] - s.off[start]))
                start = v;
        }
        s.start = s.path[0] = start;
        ADD(s.visited, start);
        int first = s.fn[2 * start];
        if (first >= 0) {
            /* By direction symmetry the lowest forced neighbour goes first. */
            if (s.fn[2 * start + 1] >= 0 && s.fn[2 * start + 1] < first)
                first = s.fn[2 * start + 1];
            mark_used(&s, start, first, 1);
            ADD(s.visited, first);
            s.path[1] = first;
            status = ham_dfs(&s, first, -1, 2, 1);
        } else {
            status = ham_dfs(&s, start, -1, 1, 0);
        }
    }
    PyObject *out = status == FAILED ? NULL :
        result(status, status == FOUND ? s.path : NULL, n, s.nodes);
    search_free(&s);
    return out;
}

/* ------------------------------------------------------------------------ */
/* Longest cycle by branch and bound */

static int lc_dfs(Search *s, int u)
{
    int nw = s->nw, r = count_node(s), cnt = 0;
    if (r)
        return r;
    if (s->plen >= 3 && HAS(ROW(s, u), s->root) && s->plen > s->blen) {
        memcpy(s->best, s->path, s->plen * sizeof(int));
        s->blen = s->plen;
    }
    /* Bound: vertices reachable from u through the unvisited region. */
    for (int i = 0; i < nw; i++)
        s->allow[i] = s->above[i] & ~s->visited[i];
    (void)(nw == 1 ? flood(s, u, s->allow, 1) : flood(s, u, s->allow, nw));
    for (int i = 0; i < nw; i++)
        cnt += __builtin_popcountll(s->reach[i] & s->allow[i]);
    if (s->plen + cnt <= s->blen)
        return 0;
    for (int i = s->off[u]; i < s->off[u + 1]; i++) {
        int w = s->nbr[i];
        if (w <= s->root || HAS(s->visited, w))
            continue;
        ADD(s->visited, w);
        s->path[s->plen++] = w;
        r = lc_dfs(s, w);
        s->plen--;
        DEL(s->visited, w);
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
    Search s;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|L:longest_cycle", kwlist,
                                     &adj, &max_nodes) ||
        search_init(&s, adj, max_nodes) < 0)
        return NULL;
    int r = 0;
    memcpy(s.above, s.full, s.nw * sizeof(word));
    for (int root = 0; root < s.n && !r && s.blen != s.n; root++) {
        /* Cycles whose minimum vertex is `root`: the path stays above it. */
        DEL(s.above, root);
        s.root = s.path[0] = root;
        s.plen = 1;
        ADD(s.visited, root);
        r = lc_dfs(&s, root);
        DEL(s.visited, root);
    }
    PyObject *out = r == FAILED ? NULL :
        result(r == BUDGET ? BUDGET : s.blen ? FOUND : ABSENT,
               s.blen ? s.best : NULL, s.blen, s.nodes);
    search_free(&s);
    return out;
}

static PyMethodDef methods[] = {
    {"ham_cycle", (PyCFunction)(void (*)(void))ham_cycle,
     METH_VARARGS | METH_KEYWORDS, "See purecore.ham_cycle."},
    {"longest_cycle", (PyCFunction)(void (*)(void))longest_cycle,
     METH_VARARGS | METH_KEYWORDS, "See purecore.longest_cycle."},
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
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "FOUND", FOUND) < 0 ||
                      PyModule_AddIntConstant(m, "ABSENT", ABSENT) < 0 ||
                      PyModule_AddIntConstant(m, "BUDGET", BUDGET) < 0 ||
                      PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0))
        Py_CLEAR(m);
    return m;
}
