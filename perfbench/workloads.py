"""The four workloads: inputs made from the seed, the timed operations, and
the correctness checks, which run outside every timed interval.

Each workload is a closed loop with one caller.  A *unit* is what the
runner repeats until the run's time is up: one forced search, one sweep
pass, one survey process, or one pass of the circumference stream.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter as clock

import env
import measure
import spans
from pmhgraph import corpus, cycles, graph_core, line_graph, matching, pmh
from pmhgraph._kernel import BACKEND, purecore
# Bound at import, before any wrapper is installed: the correctness checks
# and the backend parity check stay out of the trace.
from pmhgraph._kernel import ham_cycle as active_ham_cycle
from pmhgraph._kernel import longest_cycle as active_longest_cycle
from pmhgraph.cycles import validate_walk
from pmhgraph.graph_core import Graph, make_named_graph, write_graph6

HERE = Path(__file__).resolve().parent
PARITY_CASES = 20   # ops per run re-run on the pure kernel when compiled


class SetupError(Exception):
    """The inputs could not be built as specified."""


@dataclass
class Batch:
    """What one or more units did.  `wall` is the timed interval the
    throughput divides by; `elapsed` is the whole unit (spawn to exit for a
    CLI child), which the trace overhead and kernel share use."""

    ops: int = 0
    failed: int = 0
    work: int = 0
    wall: float = 0.0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)    # ms per op
    first_line: list = field(default_factory=list)   # s, CLI spawn to first report
    rss_mb: float = 0.0
    child_spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, message, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def add(self, other):
        for name in ("ops", "failed", "work", "wall", "elapsed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("latencies", "first_line", "child_spans", "problems"):
            getattr(self, name).extend(getattr(other, name))
        self.problems = self.problems[:20]
        self.rss_mb = max(self.rss_mb, other.rss_mb)

    def scale(self, factor):
        """Multiply every time by `factor` (counts stay)."""
        self.wall *= factor
        self.elapsed *= factor
        self.latencies = [x * factor for x in self.latencies]
        self.first_line = [x * factor for x in self.first_line]


def relabelled(graphs, rng):
    """graph6 of each graph under a random vertex permutation."""
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(write_graph6(
            Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])))
    return out


def clear_corpus_caches():
    """The corpus memoises per process; clearing it makes every set-up
    repetition pay what a fresh process pays."""
    for obj in vars(corpus).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def found_with(g, forced, res):
    """A found search whose walk is a valid hamiltonian cycle through every
    forced edge."""
    return (res.outcome == cycles.FOUND and validate_walk(g, res.walk)
            and res.walk.contains_edges(forced))


def run_cli(args, stdin_data=None, traced=False):
    """One pmhgraph CLI child: `python -m pmhgraph.cli`, as a user runs it,
    or under the span launcher for a traced run."""
    spans_path = env.OUT / "child-spans.jsonl"
    spans_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(HERE / "launch.py"), str(spans_path), *args]
    else:
        cmd = [sys.executable, "-m", "pmhgraph.cli", *args]
    rc, lines, t0, t1, rss = measure.run_child(
        cmd, env.child_env(), stdin_data, stderr_path=env.OUT / "child-stderr.log")
    child = [spans.load(spans_path)] if traced else []
    return rc, lines, t0, t1, rss, child


class CoxeterForced:
    name = "coxeter_forced"
    why = ("inner step of is_pmh(L(Coxeter)): one forced-edge hamiltonian "
           "search per op, about 96% kernel time")
    throughput = "searches_per_s"
    latency = "search_ms"
    cli = False
    min_units = 1
    traced_units = 400
    MATCHINGS = 32768

    def prepare(self, seed):
        lg = line_graph.build_line_graph(make_named_graph("coxeter", [])).lg
        forced = [sorted(m.edges)
                  for m in matching.enumerate_perfect_matchings(lg)]
        if len(forced) != self.MATCHINGS:
            raise SetupError(f"L(coxeter) has {len(forced)} perfect matchings, "
                             f"expected {self.MATCHINGS}")
        random.Random(seed).shuffle(forced)
        return lg, forced

    def unit(self, inputs, i, tracer):
        lg, all_forced = inputs
        forced = all_forced[i % len(all_forced)]
        t0 = clock()
        res = cycles.find_hamiltonian_cycle(lg, forced=forced)
        dt = clock() - t0
        b = Batch(ops=1, work=1, wall=dt, elapsed=dt, latencies=[dt * 1e3])
        # L(coxeter) is PMH: every perfect matching lies in a hamiltonian cycle
        if not found_with(lg, forced, res):
            b.fail(f"search {i}: {res.outcome} or invalid witness")
        if BACKEND != purecore.BACKEND and i < PARITY_CASES:
            adj = [list(a) for a in lg.adjacency]
            if active_ham_cycle(adj, forced, 0) != purecore.ham_cycle(adj, forced, 0):
                b.fail(f"search {i}: {BACKEND} and pure kernels disagree")
        return b


class SubcubicSweep:
    name = "subcubic_sweep"
    why = ("criterion-04 cross-check on 418 subcubic bases: 21k tiny searches, "
           "so per-call overhead and the dominating-cycle loop show")
    throughput = "matchings_per_s"
    latency = None
    cli = False
    GRAPHS, MATCHINGS = 418, 3013
    min_units = traced_units = GRAPHS   # one full pass

    def prepare(self, seed):
        clear_corpus_caches()
        graphs = corpus.connected_subcubic_upto(9, even_size_only=True)
        if len(graphs) != self.GRAPHS:
            raise SetupError(f"{len(graphs)} subcubic bases, expected {self.GRAPHS}")
        return relabelled(graphs, random.Random(seed))

    def unit(self, lines, i, tracer):
        """One base graph: parse, line graph, and every matching's
        constructive call and oracle call."""
        g6 = lines[i % len(lines)]
        done = []
        latencies = []
        t0 = clock()
        lgm = line_graph.build_line_graph(graph_core.parse_graph6(g6))
        for m in matching.enumerate_perfect_matchings(lgm.lg):
            forced = sorted(m.edges)
            t = clock()
            built = pmh.extend_matching_subcubic(lgm, m)
            oracle = cycles.find_hamiltonian_cycle(lgm.lg, forced=forced)
            latencies.append((clock() - t) * 1e3)
            done.append((forced, built, oracle))
        wall = clock() - t0
        b = Batch(ops=len(done), work=len(done), wall=wall, elapsed=wall,
                  latencies=latencies)
        for forced, built, oracle in done:
            if built.outcome != oracle.outcome:
                b.fail(f"{g6} {forced}: constructive {built.outcome}, "
                       f"oracle {oracle.outcome}")
            elif built.outcome == cycles.FOUND:
                if not (found_with(lgm.lg, forced, built)
                        and found_with(lgm.lg, forced, oracle)):
                    b.fail(f"{g6} {forced}: invalid witness")
            elif built.outcome != cycles.ABSENT:
                b.fail(f"{g6} {forced}: {built.outcome}")
        if i % len(lines) == 0:
            self.pass_matchings = 0
        self.pass_matchings += len(done)
        if i % len(lines) == len(lines) - 1 and self.pass_matchings != self.MATCHINGS:
            b.fail(f"a pass covered {self.pass_matchings} matchings, "
                   f"expected {self.MATCHINGS}")
        return b


class Survey:
    name = "survey"
    why = ("batch user path: pmhgraph survey on 996 graphs (66 pass the "
           "filter), so parse, enumeration, is_pmh and CLI costs show")
    throughput = "graphs_per_s"
    latency = None
    cli = True
    min_units = traced_units = 1
    LINES, TESTED, FILTERED, MATCHINGS = 996, 66, 930, 6580

    def prepare(self, seed):
        clear_corpus_caches()
        rng = random.Random(seed)
        lines = relabelled(corpus.connected_graphs_upto(7), rng)
        rng.shuffle(lines)
        path = env.OUT / f"survey-seed{seed}.g6"
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines)

    def unit(self, inputs, i, tracer):
        path, nlines = inputs
        journal = env.OUT / "survey-journal.jsonl"
        journal.unlink(missing_ok=True)
        rc, out, t0, t1, rss, child = run_cli(
            ["survey", str(path), "--problem", "maxdeg4",
             "--journal", str(journal), "--jobs", "1"],
            traced=tracer is not None)
        b = Batch(ops=1, work=nlines, wall=t1 - t0, elapsed=t1 - t0,
                  latencies=[(t1 - t0) * 1e3], rss_mb=rss, child_spans=child)
        problem = self.check(rc, out, journal, nlines)
        if problem:
            b.fail(problem)
        return b

    def check(self, rc, out, journal, nlines):
        if rc != 0 or len(out) != 1:
            return f"survey exited {rc} with {len(out)} report lines"
        s = json.loads(out[0][1])
        got = (nlines, s["tested"], s["filtered_out"], s["warnings"],
               s["inconclusive"], s["candidates"])
        want = (self.LINES, self.TESTED, self.FILTERED, 0, 0, [])
        if got != want:
            return f"survey summary {got}, expected {want}"
        entries = [json.loads(line) for line in journal.read_text().splitlines()]
        statuses = {e["status"] for e in entries}
        tested = sum(e["matchings_tested"] for e in entries)
        if len(entries) != self.TESTED or statuses != {"pmh"} \
                or tested != self.MATCHINGS:
            return (f"journal: {len(entries)} entries, statuses {statuses}, "
                    f"{tested} matchings; expected {self.TESTED}, pmh, "
                    f"{self.MATCHINGS}")
        return None


class CliCirc:
    name = "cli_circ"
    why = ("pmhgraph cycles circ on a stream of 3000 graphs, 1000 per child: "
           "the only longest-cycle kernel use and the per-line CLI latency")
    throughput = "lines_per_s"
    latency = "line_ms"
    cli = True
    REFERENCE = HERE / "circ_reference.json"
    BASE_SEED, GRAPHS, PER_CHILD = 1910, 3000, 1000
    # the whole stream at least once; children stay short, so the reference
    # loop between them follows the machine's speed
    min_units = traced_units = GRAPHS // PER_CHILD

    @classmethod
    def base_graphs(cls):
        """Random connected graphs on 9..14 vertices, edge density 0.3, each
        with a cycle.  The set is fixed, so the committed circumferences
        hold for every seed."""
        rng = random.Random(cls.BASE_SEED)
        graphs = []
        while len(graphs) < cls.GRAPHS:
            n = rng.randint(9, 14)
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < 0.3])
            if g.is_connected() and len(g.edges) >= n:
                graphs.append(g)
        return graphs

    @staticmethod
    def digest(graphs):
        text = "\n".join(write_graph6(g) for g in graphs)
        return hashlib.sha256(text.encode()).hexdigest()

    def prepare(self, seed):
        graphs = self.base_graphs()
        ref = json.loads(self.REFERENCE.read_text())
        if ref["graph6_sha256"] != self.digest(graphs):
            raise SetupError("circumference reference is for another graph set")
        # The seed orders the stream and so splits it among the children.
        # It does not relabel: a few graphs take most of the longest-cycle
        # search, their cost depends strongly on the labelling, and a fresh
        # labelling per seed moved the stream's total kernel work by 15%.
        order = list(range(len(graphs)))
        random.Random(seed).shuffle(order)
        lines = [write_graph6(graphs[k]) for k in order]
        expected = [ref["circumference"][k] for k in order]
        return [(lines[k:k + self.PER_CHILD], expected[k:k + self.PER_CHILD])
                for k in range(0, len(lines), self.PER_CHILD)]

    def unit(self, chunks, i, tracer):
        lines, expected = chunks[i % len(chunks)]
        data = ("\n".join(lines) + "\n").encode()
        rc, out, t0, t1, rss, child = run_cli(["cycles", "circ", "-"], data,
                                              traced=tracer is not None)
        stamps = [t for t, _ in out]
        b = Batch(ops=len(lines), rss_mb=rss, child_spans=child,
                  elapsed=t1 - t0)
        if stamps:
            # The CLI reads all input before it answers, so the first report
            # is set-up; per-line latency is the gap between later reports.
            b.first_line = [stamps[0] - t0]
            b.work = len(stamps) - 1
            b.wall = stamps[-1] - stamps[0]
            b.latencies = [(y - x) * 1e3 for x, y in zip(stamps, stamps[1:])]
        wrong = check_circ([line for _, line in out], lines, expected)
        if wrong:
            b.fail(f"{wrong} of {len(lines)} circumference reports wrong "
                   f"or missing", wrong)
        if rc != 0:
            b.fail(f"cycles circ exited {rc}", 0 if wrong else 1)
        if BACKEND != purecore.BACKEND:
            for g6 in lines[:PARITY_CASES]:
                adj = [list(a) for a in graph_core.parse_graph6(g6).adjacency]
                if active_longest_cycle(adj, 0) != purecore.longest_cycle(adj, 0):
                    b.fail(f"{g6}: {BACKEND} and pure kernels disagree")
        return b


def check_circ(reports, inputs, expected):
    """Number of input lines whose report is missing or wrong."""
    wrong = max(0, len(inputs) - len(reports))
    for raw, g6, want in zip(reports, inputs, expected):
        try:
            r = json.loads(raw)
            ok = r["input"] == g6 and r["verdict"]["circumference"] == want
        except (ValueError, KeyError, TypeError):
            ok = False
        wrong += not ok
    return wrong


def compute_circ_reference():
    """The committed circumferences, computed in-process by the library."""
    graphs = CliCirc.base_graphs()
    return {"base_seed": CliCirc.BASE_SEED, "graphs": len(graphs),
            "graph6_sha256": CliCirc.digest(graphs),
            "circumference": [cycles.circumference(g) for g in graphs]}


WORKLOADS = {w.name: w for w in (CoxeterForced(), SubcubicSweep(), Survey(),
                                 CliCirc())}
