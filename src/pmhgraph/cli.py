"""Command line front end: JSON reports for line-graph construction, matching
enumeration, cycle searches, matching extension, and a counterexample survey.

Reports are schema-versioned JSON, one object per input graph.  Walks are
serialized as closed vertex-id lists (first vertex repeated last).  Exit
codes: 0 a verdict was computed (whatever it is), 1 precondition or format
error, 2 some search was inconclusive (budget or timeout exhausted).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from contextlib import contextmanager
from multiprocessing import Pool

import click

from .constructions import prop6_construct, y_extension, y_reduction
from .cycles import (FOUND, INCONCLUSIVE, circumference, euler_tour,
                     find_dominating_cycle, find_hamiltonian_cycle,
                     is_arbitrarily_traceable, is_hypohamiltonian,
                     validate_walk)
from .errors import ParameterError, PmhError, PreconditionError
from .graph_core import (Graph, generator_tags, make_named_graph,
                         parse_graph6, write_graph6)
from .line_graph import build_line_graph
from .matching import enumerate_perfect_matchings, make_matching
from .pmh import (extend_matching_arb_traceable, extend_matching_bipartite,
                  extend_matching_complete, extend_matching_subcubic, is_pmh,
                  kotzig_partition)

SCHEMA = 1
ENV_MAX_NODES = "PMHGRAPH_MAX_NODES"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Timeout(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """SIGALRM-based wall clock cap; it also interrupts a running kernel
    search, since both backends let signal handlers run during a search."""
    if not seconds:
        yield
        return

    def handler(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _budget(max_nodes):
    if max_nodes is not None:
        return max_nodes
    return int(os.environ.get(ENV_MAX_NODES, "0"))


def _read_graphs(source):
    """Yield (graph6 string, Graph) from a file path or '-' for stdin."""
    stream = sys.stdin if source == "-" else open(source)
    try:
        for line in stream:
            line = line.strip()
            if line:
                yield line, parse_graph6(line)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _walk_json(walk):
    if walk is None:
        return None
    return {"vertices": list(walk.vertices), "kinds": sorted(walk.kinds)}


def _emit(report):
    click.echo(json.dumps(report, sort_keys=True))


def _report(command, g6, verdict, witness=None, nodes=0, t0=None):
    return {
        "schema": SCHEMA,
        "command": command,
        "input": g6,
        "verdict": verdict,
        "witness": witness,
        "stats": {"nodes": nodes,
                  "wall_time": round(time.time() - t0, 6) if t0 else 0.0},
    }


def _load_matching(lg, path):
    with open(path) as fh:
        data = json.load(fh)
    edges = data["edges"] if isinstance(data, dict) else data
    return make_matching(lg, [tuple(e) for e in edges])


class _Run:
    """Tracks the worst exit code across input lines."""

    def __init__(self):
        self.code = EXIT_OK

    def error(self, message):
        click.echo(f"error: {message}", err=True)
        self.code = EXIT_ERROR

    def inconclusive(self):
        if self.code == EXIT_OK:
            self.code = EXIT_INCONCLUSIVE

    def each(self, source, fn, timeout=None, command=""):
        """Apply fn(g6, graph) per input line with shared error handling."""
        try:
            graphs = list(_read_graphs(source))
        except (OSError, PmhError) as exc:
            self.error(exc)
            sys.exit(self.code)
        for g6, g in graphs:
            try:
                with _deadline(timeout):
                    fn(g6, g)
            except _Timeout:
                _emit(_report(command, g6, {"outcome": INCONCLUSIVE,
                                            "reason": "timeout"}))
                self.inconclusive()
            except PmhError as exc:
                self.error(f"{g6}: {exc}")
        sys.exit(self.code)


def _common(fn):
    fn = click.option("--max-nodes", type=int, default=None,
                      help="search node budget (0 = unbounded; "
                           f"default from ${ENV_MAX_NODES})")(fn)
    fn = click.option("--timeout-seconds", type=float, default=None,
                      help="wall clock cap per input graph")(fn)
    return fn


@click.group()
def main():
    """Perfect-matching extension toolkit for line graphs."""


@main.command()
@click.argument("name")
@click.argument("params", nargs=-1, type=int)
def gen(name, params):
    """Print the graph6 string of a named graph family instance."""
    try:
        g = make_named_graph(name, list(params))
    except ParameterError as exc:
        click.echo(f"error: {exc} (tags: {', '.join(generator_tags())})",
                   err=True)
        sys.exit(EXIT_ERROR)
    click.echo(write_graph6(g))


@main.command()
@click.argument("source", default="-")
def lg(source):
    """Line graph of each input: graph6 plus the vertex-to-edge table."""
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        lgm = build_line_graph(g)
        _emit(_report("lg", g6, {"lg_graph6": write_graph6(lgm.lg),
                                 "order": lgm.lg.n,
                                 "size": len(lgm.lg.edges)},
                      witness={"vertex_edges": [list(e) for e in lgm.from_lg]},
                      t0=t0))

    run.each(source, one)


@main.command("pm-enum")
@click.argument("source", default="-")
@click.option("--count-only", is_flag=True)
def pm_enum(source, count_only):
    """Enumerate perfect matchings of each input graph."""
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        ms = list(enumerate_perfect_matchings(g))
        verdict = {"count": len(ms)}
        witness = None
        if not count_only:
            witness = {"matchings": [sorted(list(e) for e in m.edges)
                                     for m in ms]}
        _emit(_report("pm-enum", g6, verdict, witness=witness, t0=t0))

    run.each(source, one)


@main.group()
def cycles():
    """Cycle and tour searches."""


def _search_command(command, searcher, run, source, timeout):
    def one(g6, g):
        t0 = time.time()
        res = searcher(g)
        if res.walk is not None:
            assert validate_walk(g, res.walk)
        _emit(_report(command, g6, {"outcome": res.outcome},
                      witness=_walk_json(res.walk), nodes=res.nodes, t0=t0))
        if res.outcome == INCONCLUSIVE:
            run.inconclusive()

    run.each(source, one, timeout=timeout, command=command)


@cycles.command()
@click.argument("source", default="-")
@_common
def ham(source, max_nodes, timeout_seconds):
    """Hamiltonian cycle search."""
    run = _Run()
    _search_command(
        "cycles.ham",
        lambda g: find_hamiltonian_cycle(g, max_nodes=_budget(max_nodes)),
        run, source, timeout_seconds)


@cycles.command()
@click.argument("source", default="-")
@click.option("--allow", default="",
              help="comma separated vertex ids a dominating cycle may skip")
@_common
def domcycle(source, allow, max_nodes, timeout_seconds):
    """Dominating cycle search with an allowed-untouched vertex set."""
    allowed = frozenset(int(x) for x in allow.split(",") if x != "")
    run = _Run()
    _search_command(
        "cycles.domcycle",
        lambda g: find_dominating_cycle(g, allowed_untouched=allowed,
                                        max_nodes=_budget(max_nodes)),
        run, source, timeout_seconds)


@cycles.command()
@click.argument("source", default="-")
def euler(source):
    """Euler tour, or absence when some degree is odd."""
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        walk = euler_tour(g)
        outcome = FOUND if walk is not None else "absent"
        _emit(_report("cycles.euler", g6, {"outcome": outcome},
                      witness=_walk_json(walk), t0=t0))

    run.each(source, one)


@cycles.command()
@click.argument("source", default="-")
@_common
def circ(source, max_nodes, timeout_seconds):
    """Circumference (length of a longest cycle)."""
    _cmd = "cycles.circ"
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        value = circumference(g)
        _emit(_report("cycles.circ", g6, {"circumference": value}, t0=t0))

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


@cycles.command()
@click.argument("source", default="-")
@_common
def hypoham(source, max_nodes, timeout_seconds):
    """Hypohamiltonicity test."""
    _cmd = "cycles.hypoham"
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        value = is_hypohamiltonian(g, max_nodes=_budget(max_nodes))
        _emit(_report("cycles.hypoham", g6, {"hypohamiltonian": value}, t0=t0))

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


@cycles.command()
@click.argument("source", default="-")
@click.option("--from", "origin", type=int, required=True)
def arbtrace(source, origin):
    """Arbitrarily-traceable-from-vertex test."""
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        value = is_arbitrarily_traceable(g, origin)
        _emit(_report("cycles.arbtrace", g6,
                      {"arbitrarily_traceable": value, "from": origin}, t0=t0))

    run.each(source, one)


@main.command("pmh-check")
@click.argument("source", default="-")
@_common
def pmh_check(source, max_nodes, timeout_seconds):
    """Does every perfect matching of the input graph extend to a
    hamiltonian cycle?"""
    _cmd = "pmh-check"
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        v = is_pmh(g, max_nodes=_budget(max_nodes))
        witness = None
        if v.witness is not None:
            witness = {"matching": sorted(list(e) for e in v.witness.edges)}
        _emit(_report("pmh-check", g6,
                      {"status": v.status, "is_pmh": v.is_pmh,
                       "vacuous": v.vacuous,
                       "matchings_tested": v.matchings_tested},
                      witness=witness, nodes=v.nodes, t0=t0))
        if v.status == INCONCLUSIVE:
            run.inconclusive()

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


def _check_complete(g):
    if len(g.edges) != g.n * (g.n - 1) // 2:
        raise PreconditionError("base graph is not complete")


def _check_balanced_bipartite(g):
    from .pmh import _bipartition
    parts = _bipartition(g)
    if parts is None or len(parts[0]) != len(parts[1]):
        raise PreconditionError("base graph is not balanced bipartite")
    if len(g.edges) != len(parts[0]) * len(parts[1]):
        raise PreconditionError("base graph is not complete bipartite")
    return len(parts[0])


@main.command()
@click.argument("source", default="-")
@click.option("--method", required=True,
              type=click.Choice(["subcubic", "complete", "bipartite",
                                 "arbtrace"]))
@click.option("--matching", "matching_path", required=True,
              help="JSON file with line-graph matching edges")
@click.option("--from", "origin", type=int, default=None,
              help="traceable vertex (arbtrace method)")
@_common
def extend(source, method, matching_path, origin, max_nodes, timeout_seconds):
    """Extend a perfect matching of the line graph of the input base graph."""
    _cmd = "extend"
    run = _Run()
    nodes_cap = _budget(max_nodes)

    def one(g6, g):
        t0 = time.time()
        lgm = build_line_graph(g)
        m = _load_matching(lgm.lg, matching_path)
        nodes = 0
        if method == "subcubic":
            res = extend_matching_subcubic(lgm, m, max_nodes=nodes_cap)
            outcome, walk, nodes = res.outcome, res.walk, res.nodes
        elif method == "complete":
            _check_complete(g)
            walk = extend_matching_complete(g.n, m, lgm, max_nodes=nodes_cap)
            outcome = FOUND
        elif method == "bipartite":
            side = _check_balanced_bipartite(g)
            res = extend_matching_bipartite(side, m, lgm, max_nodes=nodes_cap)
            outcome, walk, nodes = res.outcome, res.walk, res.nodes
        else:
            if origin is None:
                raise PreconditionError("arbtrace needs --from <vertex>")
            res = extend_matching_arb_traceable(lgm, origin, m)
            outcome, walk, nodes = res.outcome, res.walk, res.nodes
        if walk is not None:
            assert validate_walk(lgm.lg, walk)
            assert walk.contains_edges(m.edges)
        _emit(_report("extend", g6, {"outcome": outcome, "method": method},
                      witness=_walk_json(walk), nodes=nodes, t0=t0))
        if outcome == INCONCLUSIVE:
            run.inconclusive()

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


@main.command()
@click.argument("source", default="-")
@click.option("--matching", "matching_path", required=True)
@_common
def kotzig(source, matching_path, max_nodes, timeout_seconds):
    """Two edge-disjoint hamiltonian cycles of the line graph of a cubic
    hamiltonian base, the first containing the matching."""
    _cmd = "kotzig"
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        lgm = build_line_graph(g)
        m = _load_matching(lgm.lg, matching_path)
        h1, h2 = kotzig_partition(g, m, lgm)
        assert validate_walk(lgm.lg, h1) and validate_walk(lgm.lg, h2)
        assert h1.contains_edges(m.edges)
        _emit(_report("kotzig", g6, {"outcome": FOUND},
                      witness={"containing": _walk_json(h1),
                               "complement": _walk_json(h2)}, t0=t0))

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


@main.group()
def construct():
    """Graph surgeries."""


@construct.command()
@click.argument("source", default="-")
@click.option("--at", "vertex", type=int, required=True)
def yext(source, vertex):
    """Expand a degree-3 vertex into a triangle."""
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        out, s = y_extension(g, vertex)
        _emit(_report("construct.yext", g6,
                      {"graph6": write_graph6(out), "order": out.n},
                      witness={"site": list(s.site),
                               "new_vertices": list(s.new_vertices),
                               "vertex_map": {str(k): v
                                              for k, v in s.vertex_map.items()}},
                      t0=t0))

    run.each(source, one)


@construct.command()
@click.argument("source", default="-")
@click.option("--triangle", required=True, help="three vertex ids, comma separated")
def yred(source, triangle):
    """Contract a pendant-free triangle back to a degree-3 vertex."""
    tri = tuple(int(x) for x in triangle.split(","))
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        out, s = y_reduction(g, tri)
        _emit(_report("construct.yred", g6,
                      {"graph6": write_graph6(out), "order": out.n},
                      witness={"site": list(s.site),
                               "new_vertices": list(s.new_vertices),
                               "vertex_map": {str(k): v
                                              for k, v in s.vertex_map.items()}},
                      t0=t0))

    run.each(source, one)


@construct.command()
@click.argument("source", default="-")
@click.option("--keep", type=int, required=True)
@_common
def prop6(source, keep, max_nodes, timeout_seconds):
    """Expand every vertex but one of a cubic hypohamiltonian odd-size graph
    into a triangle; the result has circumference one below its order."""
    _cmd = "construct.prop6"
    run = _Run()

    def one(g6, g):
        t0 = time.time()
        out, kept, tmap = prop6_construct(g, keep)
        _emit(_report("construct.prop6", g6,
                      {"graph6": write_graph6(out), "order": out.n,
                       "size": len(out.edges), "kept": kept},
                      witness={"triangles": {str(v): list(t)
                                             for v, t in tmap.items()}},
                      t0=t0))

    run.each(source, one, timeout=timeout_seconds, command=_cmd)


# ---------------------------------------------------------------------------
# Survey mode


def _is_eulerian(g):
    return (g.is_connected() and len(g.edges) > 0
            and all(g.degree(v) % 2 == 0 for v in range(g.n)))


def _passes_filter(g, problem, max_nodes):
    if len(g.edges) % 2 or g.n < 3 or not g.is_connected():
        return False
    if problem == "p1":
        degs = set(g.degree(v) for v in range(g.n))
        if len(degs) != 1 or min(degs) < 4:
            return False
    elif problem == "p2":
        if not _is_eulerian(g):
            return False
    else:  # maxdeg4
        if g.max_degree() != 4:
            return False
    return find_hamiltonian_cycle(g, max_nodes=max_nodes).outcome == FOUND


def _survey_one(args):
    g6, max_nodes = args
    g = parse_graph6(g6)
    lgm = build_line_graph(g)
    v = is_pmh(lgm.lg, max_nodes=max_nodes)
    entry = {"graph6": g6, "status": v.status, "vacuous": v.vacuous,
             "matchings_tested": v.matchings_tested, "nodes": v.nodes}
    if v.witness is not None:
        entry["witness_matching"] = sorted(list(e) for e in v.witness.edges)
    return entry


@main.command()
@click.argument("corpus")
@click.option("--problem", required=True,
              type=click.Choice(["p1", "p2", "maxdeg4"]))
@click.option("--journal", "journal_path", required=True,
              help="append-only JSONL journal keyed by graph6 string")
@click.option("--jobs", type=int, default=1)
@_common
def survey(corpus, problem, journal_path, jobs, max_nodes, timeout_seconds):
    """Scan a graph6 corpus for line graphs where some perfect matching does
    not extend.  Gathers evidence only; resolves nothing."""
    nodes_cap = _budget(max_nodes)
    done = {}
    if os.path.exists(journal_path):
        with open(journal_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    entry = json.loads(line)
                    done[entry["graph6"]] = entry

    warnings = 0
    filtered_out = 0
    todo = []
    entries = []
    seen = set()
    with open(corpus) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                g = parse_graph6(raw)
            except PmhError as exc:
                click.echo(f"warning: skipping corpus line: {exc}", err=True)
                warnings += 1
                continue
            if raw in seen:
                continue
            seen.add(raw)
            if not _passes_filter(g, problem, nodes_cap):
                filtered_out += 1
                continue
            if raw in done:
                entries.append(done[raw])
            else:
                todo.append((raw, nodes_cap))

    journal = open(journal_path, "a")
    try:
        if jobs > 1 and todo:
            with Pool(jobs) as pool:
                fresh = pool.imap_unordered(_survey_one, todo)
                for entry in fresh:
                    journal.write(json.dumps(entry, sort_keys=True) + "\n")
                    journal.flush()
                    entries.append(entry)
        else:
            for args in todo:
                entry = _survey_one(args)
                journal.write(json.dumps(entry, sort_keys=True) + "\n")
                journal.flush()
                entries.append(entry)
    finally:
        journal.close()

    candidates = sorted(e["graph6"] for e in entries if e["status"] == "not_pmh")
    inconclusive = sum(1 for e in entries if e["status"] == INCONCLUSIVE)
    summary = {
        "schema": SCHEMA,
        "command": "survey",
        "problem": problem,
        "tested": len(entries),
        "filtered_out": filtered_out,
        "warnings": warnings,
        "inconclusive": inconclusive,
        "candidates": candidates,
        "note": "evidence only; the underlying questions remain open",
    }
    _emit(summary)
    sys.exit(EXIT_INCONCLUSIVE if inconclusive else EXIT_OK)


if __name__ == "__main__":
    main()
