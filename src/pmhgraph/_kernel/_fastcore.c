/* Compiled search kernels: hamiltonian cycle with forced edges, longest cycle,
 * and the perfect-matching scan of a line graph against held trails.
 *
 * Mirrors purecore.py exactly (same start vertex, same candidate order, same
 * node counting, hence the same status, witness and node count); see that
 * module for the contract.  The pruning tests decide what purecore's decide,
 * with less work (see prune_words).  Vertex sets are bitsets of nw =
 * ceil(n/64) uint64_t words, the same masks purecore builds from Python ints.
 *
 * A search polls PyErr_CheckSignals() every 2^14 nodes, and the scan every
 * 2^14 matchings, so a signal handler that raises (a SIGALRM timeout, Ctrl-C)
 * interrupts it; the search or scan then frees its memory and the call
 * raises.
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

/* ------------------------------------------------------------------------ */
/* Perfect-matching scan against held trails (see purecore.pm_scan) */

enum { SCAN_START, SCAN_RUN, SCAN_LEAF, SCAN_DONE };

typedef struct {
    PyObject_HEAD
    int n, m, mw, half;     /* vertices, edges, words of an edge set, n / 2 */
    int *uoff, *unbr;       /* neighbours above each vertex in adj's order
                               (CSR); an edge's id is its index in unbr */
    int *ea, *eb, *centre;  /* ends (ea < eb) and centre of each edge */
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
        PyObject *pair = Py_BuildValue("(ii)", s->ea[s->chosen[i]],
                                       s->eb[s->chosen[i]]);
        if (pair == NULL)
            Py_CLEAR(out);
        else
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
    PyObject *adj, *centre, *cs = NULL;
    PmScan *s = NULL;
    Search g;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:pm_scan", kwlist,
                                     &adj, &centre) ||
        search_init(&g, adj, 0) < 0)
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
    cs = PySequence_Fast(centre, "centre must be a sequence");
    if (cs == NULL)
        goto fail;
    if (PySequence_Fast_GET_SIZE(cs) != m) {
        PyErr_SetString(PyExc_ValueError, "one centre per edge required");
        goto fail;
    }
    for (int e = 0; e < m; e++) {
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
    Py_DECREF(cs);
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
    PyObject *m = PyType_Ready(&ScanType) < 0 ? NULL : PyModule_Create(&module);
    if (m != NULL && (PyModule_AddObjectRef(m, "pm_scan", (PyObject *)&ScanType) < 0 ||
                      PyModule_AddIntConstant(m, "FOUND", FOUND) < 0 ||
                      PyModule_AddIntConstant(m, "ABSENT", ABSENT) < 0 ||
                      PyModule_AddIntConstant(m, "BUDGET", BUDGET) < 0 ||
                      PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0))
        Py_CLEAR(m);
    return m;
}
