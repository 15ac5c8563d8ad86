"""Command line front end: JSON reports for line-graph construction, matching
enumeration, cycle searches, matching extension, and a counterexample survey.

Reports are schema-versioned JSON, one object per input graph.  Walks are
serialized as closed vertex-id lists (first vertex repeated last).

Every per-graph command is one row of `_COMMANDS`: a body that maps a parsed
graph and the command's options to a `_Line` (verdict, witness, nodes,
outcome).  One runner, `_run`, does the rest for all of them:

- It reads the whole input and parses each line on its own before the first
  report.  A line that fails (bad graph6, unmet precondition) is reported on
  stderr and the other lines still get their reports.
- It applies `--timeout-seconds` to each line and times it.
- It re-checks every walk a witness carries against its host graph and the
  matching edges it must contain, and raises WitnessError instead of
  printing a walk that fails; the check is not an `assert`, so `python -O`
  keeps it.
- It passes the node budget (`--max-nodes`, else $PMHGRAPH_MAX_NODES, else
  unbounded; click reads both) to every search the body runs.  A spent
  budget or timeout is reported as "inconclusive", never as absence.

Exit codes, worst line first: 1 a usage error, or some line had a format or
precondition error, 2 some search was inconclusive (budget or timeout
exhausted), 0 a verdict was computed for every line (whatever it is).
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from typing import NamedTuple

import click

from .constructions import prop6_construct, y_extension, y_reduction
from .cycles import (ABSENT, FOUND, INCONCLUSIVE, CycleWalk, euler_tour,
                     find_dominating_cycle, find_hamiltonian_cycle,
                     is_arbitrarily_traceable, is_hypohamiltonian,
                     longest_cycle_search, validate_walk)
from .errors import (BudgetError, ParameterError, PmhError,
                     PreconditionError, StructureError, WitnessError)
from .graph_core import (Graph, generator_tags, make_named_graph,
                         parse_graph6, write_graph6)
from .line_graph import build_line_graph
from .matching import (count_perfect_matchings, enumerate_perfect_matchings,
                       make_matching)
from .pmh import (extend_matching_arb_traceable, extend_matching_bipartite,
                  extend_matching_complete, extend_matching_subcubic, is_pmh,
                  is_pmh_line, kotzig_partition)

SCHEMA = 1

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


def _exit(errors, inconclusive=False):
    sys.exit(EXIT_ERROR if errors else
             EXIT_INCONCLUSIVE if inconclusive else EXIT_OK)


def _emit(report):
    click.echo(json.dumps(report, sort_keys=True))


# ---------------------------------------------------------------------------
# The per-graph runner


class _Walk(NamedTuple):
    """A witness walk and what the runner re-checks it against."""

    walk: CycleWalk
    host: Graph
    required: frozenset = frozenset()


class _Line(NamedTuple):
    """What a command body computed for one input graph."""

    verdict: dict
    witness: object = None    # JSON data; a _Walk anywhere a walk goes
    nodes: int = 0
    outcome: str | None = None


def _witness_json(witness):
    if isinstance(witness, _Walk):
        walk = witness.walk
        if not (validate_walk(witness.host, walk)
                and walk.contains_edges(witness.required)):
            raise WitnessError(f"witness walk {list(walk.vertices)} fails "
                               f"its re-check")
        return {"vertices": list(walk.vertices), "kinds": sorted(walk.kinds)}
    if isinstance(witness, dict):
        return {k: _witness_json(v) for k, v in witness.items()}
    return witness


def _read_graphs(stream):
    """(line, Graph) for each non-blank line of the input; a line that is
    not graph6 carries the PmhError parsing raised."""
    graphs = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append((line, parse_graph6(line)))
        except PmhError as exc:
            graphs.append((line, exc))
    return graphs


def _brief(text):
    """An input line as an error message repeats it: a line longer than 40
    characters is cut to its first 40 and its length, so that one bad line
    of a large graph cannot flood standard error."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} chars)"


def _run(command, body, source, opts):
    """Report body(graph, options) for every input graph; see the module
    docstring for what the runner adds."""
    timeout = opts.pop("timeout_seconds", None)
    options = SimpleNamespace(**opts)
    errors = inconclusive = False
    for g6, g in _read_graphs(source):
        t0 = time.perf_counter()
        try:
            if not isinstance(g, Graph):
                raise g
            with _deadline(timeout):
                line = body(g, options)
            witness = _witness_json(line.witness)
        except (_Timeout, BudgetError) as exc:
            reason = "timeout" if isinstance(exc, _Timeout) else "budget"
            line = _Line({"outcome": INCONCLUSIVE, "reason": reason},
                         outcome=INCONCLUSIVE)
            witness = None
        except PmhError as exc:
            click.echo(f"error: {_brief(g6)}: {exc}", err=True)
            errors = True
            continue
        _emit({"schema": SCHEMA, "command": command, "input": g6,
               "verdict": line.verdict, "witness": witness,
               "stats": {"nodes": line.nodes,
                         "wall_time": round(time.perf_counter() - t0, 6)}})
        inconclusive = inconclusive or line.outcome == INCONCLUSIVE
    _exit(errors, inconclusive)


# ---------------------------------------------------------------------------
# Command bodies: (graph, options) -> _Line


def _search_line(res, host, required=frozenset(), **verdict):
    walk = None if res.walk is None else _Walk(res.walk, host, required)
    return _Line({"outcome": res.outcome, **verdict}, walk, res.nodes,
                 res.outcome)


def _surgery_line(out, s):
    return _Line({"graph6": write_graph6(out), "order": out.n},
                 {"site": list(s.site), "new_vertices": list(s.new_vertices),
                  "vertex_map": {str(k): v for k, v in s.vertex_map.items()}})


def _lg(g, o):
    """Line graph of each input: graph6 plus the vertex-to-edge table."""
    lgm = build_line_graph(g)
    return _Line({"lg_graph6": write_graph6(lgm.lg), "order": lgm.lg.n,
                  "size": len(lgm.lg.edges)},
                 {"vertex_edges": [list(e) for e in lgm.from_lg]})


def _pm_enum(g, o):
    """Enumerate perfect matchings of each input graph."""
    if o.count_only:
        return _Line({"count": count_perfect_matchings(g)})
    ms = [sorted(list(e) for e in m.edges)
          for m in enumerate_perfect_matchings(g)]
    return _Line({"count": len(ms)}, {"matchings": ms})


def _ham(g, o):
    """Hamiltonian cycle search."""
    return _search_line(find_hamiltonian_cycle(g, max_nodes=o.max_nodes), g)


def _domcycle(g, o):
    """Dominating cycle search with an allowed-untouched vertex set."""
    return _search_line(find_dominating_cycle(g, allowed_untouched=o.allow,
                                              max_nodes=o.max_nodes), g)


def _euler(g, o):
    """Euler tour, or absence when some degree is odd."""
    walk = euler_tour(g)
    if walk is None:
        return _Line({"outcome": ABSENT}, outcome=ABSENT)
    return _Line({"outcome": FOUND}, _Walk(walk, g), outcome=FOUND)


def _circ(g, o):
    """Circumference (length of a longest cycle)."""
    res = longest_cycle_search(g, o.max_nodes)
    if res.outcome == ABSENT:
        raise StructureError("graph is acyclic: circumference undefined")
    if res.outcome == INCONCLUSIVE:
        return _Line({"outcome": INCONCLUSIVE}, None, res.nodes, INCONCLUSIVE)
    return _Line({"circumference": res.walk.length()}, None, res.nodes)


def _hypoham(g, o):
    """Hypohamiltonicity test."""
    return _Line({"hypohamiltonian":
                  is_hypohamiltonian(g, max_nodes=o.max_nodes)})


def _arbtrace(g, o):
    """Arbitrarily-traceable-from-vertex test."""
    return _Line({"arbitrarily_traceable": is_arbitrarily_traceable(g, o.origin),
                  "from": o.origin})


def _pmh_check(g, o):
    """Does every perfect matching of the input graph extend to a
    hamiltonian cycle?"""
    v = is_pmh(g, max_nodes=o.max_nodes)
    witness = None
    if v.witness is not None:
        witness = {"matching": sorted(list(e) for e in v.witness.edges)}
    return _Line({"status": v.status, "is_pmh": v.is_pmh,
                  "vacuous": v.vacuous, "matchings_tested": v.matchings_tested,
                  "searches": v.searches},
                 witness, v.nodes, v.status)


def _extend(g, o):
    """Extend a perfect matching of the line graph of the input base graph."""
    lgm = build_line_graph(g)
    m = make_matching(lgm.lg, o.matching)
    if o.method == "subcubic":
        res = extend_matching_subcubic(lgm, m, max_nodes=o.max_nodes)
    elif o.method == "complete":
        res = extend_matching_complete(g.n, m, lgm, max_nodes=o.max_nodes)
    elif o.method == "bipartite":
        res = extend_matching_bipartite(g.n // 2, m, lgm, max_nodes=o.max_nodes)
    else:
        if o.origin is None:
            raise PreconditionError("arbtrace needs --from <vertex>")
        res = extend_matching_arb_traceable(lgm, o.origin, m,
                                            max_nodes=o.max_nodes)
    return _search_line(res, lgm.lg, m.edges, method=o.method)


def _kotzig(g, o):
    """Two edge-disjoint hamiltonian cycles of the line graph of a cubic
    hamiltonian base, the first containing the matching."""
    lgm = build_line_graph(g)
    m = make_matching(lgm.lg, o.matching)
    h1, h2, nodes = kotzig_partition(g, m, lgm, max_nodes=o.max_nodes)
    return _Line({"outcome": FOUND},
                 {"containing": _Walk(h1, lgm.lg, m.edges),
                  "complement": _Walk(h2, lgm.lg)}, nodes)


def _yext(g, o):
    """Expand a degree-3 vertex into a triangle."""
    return _surgery_line(*y_extension(g, o.vertex))


def _yred(g, o):
    """Contract a pendant-free triangle back to a degree-3 vertex."""
    return _surgery_line(*y_reduction(g, o.triangle))


def _prop6(g, o):
    """Expand every vertex but one of a cubic hypohamiltonian odd-size graph
    into a triangle; the result has circumference one below its order."""
    out, kept, tmap = prop6_construct(g, o.keep, max_nodes=o.max_nodes)
    return _Line({"graph6": write_graph6(out), "order": out.n,
                  "size": len(out.edges), "kept": kept},
                 {"triangles": {str(v): list(t) for v, t in tmap.items()}})


# ---------------------------------------------------------------------------
# Option types, command table and click wiring


class _Ints(click.ParamType):
    """Comma separated integers, e.g. 0,3,5."""

    name = "ints"

    def convert(self, value, param, ctx):
        try:
            return tuple(int(x) for x in value.split(",") if x != "")
        except ValueError:
            self.fail(f"{value!r} is not a comma separated list of integers",
                      param, ctx)


class _Seconds(click.FloatRange):
    """A float range that also refuses nan, which SIGALRM cannot arm."""

    def convert(self, value, param, ctx):
        seconds = super().convert(value, param, ctx)
        if math.isnan(seconds):
            self.fail("nan is not a number of seconds", param, ctx)
        return seconds


class _MatchingFile(click.ParamType):
    """A JSON file of line-graph edges, {"edges": [[a, b], ...]} or the bare
    list; read and checked once, it becomes a tuple of (a, b) pairs."""

    name = "file"

    def convert(self, value, param, ctx):
        try:
            with open(value) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(f"{value}: {exc}", param, ctx)
        edges = data.get("edges") if isinstance(data, dict) else data
        if isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2
                and all(type(x) is int for x in e) for e in edges):
            return tuple(tuple(e) for e in edges)
        self.fail(f"{value}: not a list of [a, b] integer pairs", param, ctx)


_SEARCH = (
    # the C kernel holds the budget in a signed 64-bit count
    click.option("--max-nodes", type=click.IntRange(min=0, max=2**63 - 1),
                 default=0, envvar="PMHGRAPH_MAX_NODES", show_envvar=True,
                 help="search node budget (0 = unbounded)"),
    click.option("--timeout-seconds", type=_Seconds(min=0, max=1e9),
                 help="wall clock cap per input graph"),
)
# a graph6 file or '-' (stdin); undecodable bytes become U+FFFD, which the
# graph6 parser rejects, so they fail one line and not the whole input
_GRAPH6 = click.File(errors="replace")
_MATCHING = click.option("--matching", type=_MatchingFile(), required=True,
                         help="JSON file with line-graph matching edges")

# report command name ("group.command" below a group) -> (body, options)
_COMMANDS = {
    "lg": (_lg, ()),
    "pm-enum": (_pm_enum, (click.option("--count-only", is_flag=True),)),
    "cycles.ham": (_ham, _SEARCH),
    "cycles.domcycle": (_domcycle, (
        click.option("--allow", type=_Ints(), default="",
                     help="comma separated vertex ids a dominating cycle "
                          "may skip"),
        *_SEARCH)),
    "cycles.euler": (_euler, ()),
    "cycles.circ": (_circ, _SEARCH),
    "cycles.hypoham": (_hypoham, _SEARCH),
    "cycles.arbtrace": (_arbtrace, (
        click.option("--from", "origin", type=int, required=True),)),
    "pmh-check": (_pmh_check, _SEARCH),
    "extend": (_extend, (
        click.option("--method", required=True,
                     type=click.Choice(["subcubic", "complete", "bipartite",
                                        "arbtrace"])),
        _MATCHING,
        click.option("--from", "origin", type=int, default=None,
                     help="traceable vertex (arbtrace method)"),
        *_SEARCH)),
    "kotzig": (_kotzig, (_MATCHING, *_SEARCH)),
    "construct.yext": (_yext, (
        click.option("--at", "vertex", type=int, required=True),)),
    "construct.yred": (_yred, (
        click.option("--triangle", type=_Ints(), required=True,
                     help="three vertex ids, comma separated"),)),
    "construct.prop6": (_prop6, (
        click.option("--keep", type=int, required=True), *_SEARCH)),
}


def _usage_exit(step, *args, **kwargs):
    try:
        return step(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_ERROR
        raise


class _Group(click.Group):
    """A click group whose usage errors exit 1, like every other input
    error: click's own code for them, 2, is this CLI's inconclusive."""

    def make_context(self, *args, **kwargs):
        return _usage_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Perfect-matching extension toolkit for line graphs."""


@main.group()
def cycles():
    """Cycle and tour searches."""


@main.group()
def construct():
    """Graph surgeries."""


def _register(name, body, options):
    group, _, sub = name.rpartition(".")

    def callback(source, **opts):
        _run(name, body, source, opts)

    for option in reversed(options):
        callback = option(callback)
    callback = click.argument("source", type=_GRAPH6, default="-")(callback)
    {"": main, "cycles": cycles, "construct": construct}[group].command(
        sub, help=body.__doc__)(callback)


for _name, (_body, _options) in _COMMANDS.items():
    _register(_name, _body, _options)


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


# ---------------------------------------------------------------------------
# Survey mode


def _candidate(g, problem, max_nodes):
    """FOUND when g passes the problem's filter, ABSENT when it does not,
    INCONCLUSIVE when the budget stopped its hamiltonicity search."""
    if len(g.edges) % 2 or g.n < 3 or not g.is_connected():
        return ABSENT
    degrees = {g.degree(v) for v in range(g.n)}
    if (problem == "p1" and (len(degrees) != 1 or min(degrees) < 4)
            or problem == "p2" and any(d % 2 for d in degrees)
            or problem == "maxdeg4" and max(degrees) != 4):
        return ABSENT
    return find_hamiltonian_cycle(g, max_nodes=max_nodes).outcome


def _survey_one(args):
    g6, max_nodes, timeout = args
    try:
        with _deadline(timeout):
            v = is_pmh_line(build_line_graph(parse_graph6(g6)),
                            max_nodes=max_nodes)
    except _Timeout:
        return {"graph6": g6, "status": INCONCLUSIVE, "reason": "timeout",
                "vacuous": False, "matchings_tested": 0, "nodes": 0,
                "searches": 0}
    entry = {"graph6": g6, "status": v.status, "vacuous": v.vacuous,
             "matchings_tested": v.matchings_tested, "nodes": v.nodes,
             "searches": v.searches}
    if v.witness is not None:
        entry["witness_matching"] = sorted(list(e) for e in v.witness.edges)
    return entry


def _load_journal(fh):
    """Journal entries by graph6 string, from the journal opened in "a+b"
    mode.  Entries are appended one line per write, so a crash mid-write can
    only leave a torn last line without its newline: it is dropped with a
    warning and the file is truncated back to the last newline, so the next
    entry starts on a line of its own."""
    done = {}
    fh.seek(0)
    data = fh.read()
    end = data.rfind(b"\n") + 1
    for number, line in enumerate(data[:end].splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            done[entry["graph6"]] = entry
        except (ValueError, KeyError, TypeError) as exc:
            click.echo(f"error: journal {fh.name} line {number}: {exc!r}",
                       err=True)
            _exit(errors=True)
    if end < len(data):
        click.echo(f"warning: dropping torn last journal line "
                   f"{data[end:][:60]!r}", err=True)
        fh.truncate(end)
    return done


@main.command()
@click.argument("corpus", type=_GRAPH6)
@click.option("--problem", required=True,
              type=click.Choice(["p1", "p2", "maxdeg4"]))
@click.option("--journal", "journal_path", required=True,
              type=click.Path(dir_okay=False, writable=True),
              help="append-only JSONL journal keyed by graph6 string")
@click.option("--jobs", type=click.IntRange(min=1), default=1)
@_SEARCH[0]
@_SEARCH[1]
def survey(corpus, problem, journal_path, jobs, max_nodes, timeout_seconds):
    """Scan a graph6 corpus for line graphs where some perfect matching does
    not extend.  Each candidate is certified; with none, the survey is
    evidence only."""
    try:
        journal = open(journal_path, "a+b")
    except OSError as exc:
        click.echo(f"error: journal: {exc}", err=True)
        _exit(errors=True)

    warnings = 0
    filtered_out = 0
    undecided = 0
    todo = []
    entries = []
    seen = set()
    with journal, ExitStack() as stack:
        done = _load_journal(journal)
        for raw in corpus:
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
            passes = _candidate(g, problem, max_nodes)
            if passes == ABSENT:
                filtered_out += 1
            elif passes == INCONCLUSIVE:
                undecided += 1
            elif raw in done:
                entries.append(done[raw])
            else:
                todo.append((raw, max_nodes, timeout_seconds))
        fresh = map(_survey_one, todo)
        if jobs > 1 and todo:
            from multiprocessing import Pool   # ~8 ms to import: only here
            pool = stack.enter_context(Pool(jobs))
            fresh = pool.imap_unordered(_survey_one, todo)
        for entry in fresh:
            journal.write(json.dumps(entry, sort_keys=True).encode() + b"\n")
            journal.flush()
            entries.append(entry)

    candidates = sorted(e["graph6"] for e in entries if e["status"] == "not_pmh")
    inconclusive = undecided + sum(1 for e in entries
                                   if e["status"] == INCONCLUSIVE)
    summary = {
        "schema": SCHEMA,
        "command": "survey",
        "problem": problem,
        "tested": len(entries),
        "filtered_out": filtered_out,
        "warnings": warnings,
        "inconclusive": inconclusive,
        "candidates": candidates,
        "note": ("each candidate is certified by an exhausted search"
                 if candidates else
                 "evidence only; the underlying questions remain open"),
    }
    _emit(summary)
    _exit(False, inconclusive)


if __name__ == "__main__":
    main()
