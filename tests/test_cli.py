import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import pmhgraph
from pmhgraph import cli
from pmhgraph.cli import main
from pmhgraph.cycles import CycleWalk, find_hamiltonian_cycle, validate_walk
from pmhgraph.errors import CapacityError
from pmhgraph._kernel import MAX_VERTICES
from pmhgraph.graph_core import (Graph, make_named_graph, parse_graph6,
                                 write_graph6)
from pmhgraph.line_graph import build_line_graph
from pmhgraph.matching import enumerate_perfect_matchings


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def g6(name, params=()):
    return write_graph6(make_named_graph(name, list(params)))


def reports(result):
    return [json.loads(line) for line in result.output.strip().splitlines()]


def certified(witness, host, required=()):
    """A walk as a report prints it is a walk of its host graph of every kind
    it claims, and holds every required edge."""
    walk = CycleWalk(tuple(witness["vertices"]), frozenset(witness["kinds"]))
    return validate_walk(host, walk) and walk.contains_edges(required)


def test_gen():
    res = run("gen", "complete", "4")
    assert res.exit_code == 0 and res.output.strip() == "C~"
    assert run("gen", "nope").exit_code == 1


def test_gen_refuses_an_instance_above_the_size_bound():
    t0 = time.perf_counter()
    res = run("gen", "complete", "99999")
    assert time.perf_counter() - t0 < 5
    assert res.exit_code == 1 and "above the bound" in res.stderr
    assert "Traceback" not in res.output and res.stdout == ""
    res = run("gen", "complete", "181")     # 16,290 edges
    assert res.exit_code == 0
    assert parse_graph6(res.stdout).n == 181
    # few edges on many vertices: encoding costs one step per edge
    t0 = time.perf_counter()
    res = run("gen", "cycle", "4000")
    assert time.perf_counter() - t0 < 5
    assert res.exit_code == 0
    assert len(res.stdout.strip()) == 4 + (4000 * 3999 // 2 + 5) // 6


def test_lg_report():
    res = run("lg", "-", input=g6("complete", [4]) + "\n")
    assert res.exit_code == 0
    (rep,) = reports(res)
    assert rep["schema"] == 1 and rep["command"] == "lg"
    assert rep["verdict"]["order"] == 6 and rep["verdict"]["size"] == 12
    lg = parse_graph6(rep["verdict"]["lg_graph6"])
    assert lg.n == 6
    assert len(rep["witness"]["vertex_edges"]) == 6


def test_pm_enum():
    res = run("pm-enum", "-", input=g6("cycle", [6]) + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["count"] == 2
    assert len(rep["witness"]["matchings"]) == 2
    res = run("pm-enum", "--count-only", "-", input=g6("cycle", [6]) + "\n")
    (rep,) = reports(res)
    assert rep["witness"] is None


def test_pm_enum_count_on_a_long_cycle():
    """The enumeration keeps its own stack, so a cycle deeper than Python's
    recursion limit is counted."""
    res = CliRunner().invoke(main, ["pm-enum", "--count-only", "-"],
                             input=g6("cycle", [2000]) + "\n",
                             catch_exceptions=False)
    assert res.exit_code == 0 and "Traceback" not in res.output
    (rep,) = reports(res)
    assert rep["verdict"]["count"] == 2 and rep["witness"] is None


def test_cycles_ham_and_witness_revalidates():
    res = run("cycles", "ham", "-", input=g6("cube") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "found"
    assert certified(rep["witness"], make_named_graph("cube", []))


def test_cycles_ham_budget_exit_code():
    res = run("cycles", "ham", "--max-nodes", "3", "-",
              input=g6("petersen") + "\n")
    assert res.exit_code == 2
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "inconclusive"
    assert rep["stats"]["nodes"] == 4   # stops at the first node past 3


def test_cycles_subcommands():
    res = run("cycles", "euler", "-", input=g6("octahedron") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "found"
    assert rep["witness"]["kinds"] == ["euler", "tour"]
    assert certified(rep["witness"], make_named_graph("octahedron", []))
    # the one-vertex graph's tour is its vertex
    res = run("cycles", "euler", "-", input="@\n")
    (rep,) = reports(res)
    assert rep["witness"]["vertices"] == [0] and certified(rep["witness"],
                                                           Graph(1))
    # the null graph has no closed walk
    res = run("cycles", "euler", "-", input="?\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "absent" and rep["witness"] is None
    res = run("cycles", "circ", "-", input=g6("petersen") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["circumference"] == 9
    res = run("cycles", "hypoham", "-", input=g6("petersen") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["hypohamiltonian"] is True
    res = run("cycles", "arbtrace", "--from", "2", "-",
              input=g6("bowtie") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["arbitrarily_traceable"] is True
    res = run("cycles", "domcycle", "--allow", "0", "-",
              input=g6("petersen") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "found"
    assert "dominating" in rep["witness"]["kinds"]
    assert certified(rep["witness"], make_named_graph("petersen", []))
    # a tree: every untouched set leaves a vertex with under two kept
    # neighbours, so no search runs
    res = run("cycles", "domcycle", "--allow", "0,1,2,3,4", "-",
              input=g6("path", [5]) + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "absent" and rep["stats"]["nodes"] == 0


def test_pmh_check_exit_codes():
    res = run("pmh-check", "-", input=g6("petersen") + "\n")
    assert res.exit_code == 0
    (rep,) = reports(res)
    assert rep["verdict"]["status"] == "not_pmh"
    assert rep["witness"]["matching"]
    # the oracle searches every matching it tests
    assert rep["verdict"]["searches"] == rep["verdict"]["matchings_tested"] > 0
    res = run("pmh-check", "--max-nodes", "3", "-", input=g6("petersen") + "\n")
    assert res.exit_code == 2


def test_format_error_exit_code():
    res = run("cycles", "ham", "-", input="!!notgraph6\n")
    assert res.exit_code == 1


def test_extend_and_kotzig(tmp_path):
    """Each walk, as printed, is a hamiltonian cycle of the line graph, the
    extend walks and the first kotzig cycle through every matching edge.
    K_{4,4} takes the properly coloured cycle search and the bowtie the
    constrained Euler tour."""
    for method, base in [("subcubic", ("complete", (4,))),
                         ("complete", ("complete", (4,))),
                         ("bipartite", ("bipartite", (4, 4))),
                         ("arbtrace", ("bowtie", ()))]:
        lgm = build_line_graph(make_named_graph(*base))
        m = next(enumerate_perfect_matchings(lgm.lg))
        res = run("extend", "--method", method, "--matching",
                  matching_file(tmp_path, *base), "-", input=g6(*base) + "\n")
        assert res.exit_code == 0, res.output
        (rep,) = reports(res)
        assert rep["verdict"] == {"method": method, "outcome": "found"}
        assert "hamiltonian" in rep["witness"]["kinds"]
        assert certified(rep["witness"], lgm.lg, m.edges)
    lgm = build_line_graph(make_named_graph("complete", [4]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    res = run("kotzig", "--matching", matching_file(tmp_path, "complete", (4,)),
              "-", input=g6("complete", [4]) + "\n")
    assert res.exit_code == 0
    (rep,) = reports(res)
    # two hamiltonian cycles of L(K4) that share no edge and cover them all
    h1, h2 = rep["witness"]["containing"], rep["witness"]["complement"]
    assert certified(h1, lgm.lg, m.edges) and certified(h2, lgm.lg)
    assert "hamiltonian" in h1["kinds"] and "hamiltonian" in h2["kinds"]
    steps = [CycleWalk(tuple(h["vertices"])).edge_seq for h in (h1, h2)]
    assert sorted(steps[0] + steps[1]) == sorted(lgm.lg.edges)
    # the node count of the base's hamiltonian cycle search
    assert rep["stats"]["nodes"] == find_hamiltonian_cycle(
        make_named_graph("complete", [4])).nodes > 0


def test_extend_parity_error(tmp_path):
    # a perfect matching request on K6: the line graph has odd order
    lgm6 = build_line_graph(make_named_graph("complete", [6]))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"edges": []}))
    res = run("extend", "--method", "complete", "--matching", str(mfile),
              "-", input=g6("complete", [6]) + "\n")
    assert res.exit_code == 1


def test_extend_complete_refuses_a_base_that_is_not_complete(tmp_path):
    lgm = build_line_graph(make_named_graph("cycle", [6]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"edges": [list(e) for e in m.edges]}))
    res = run("extend", "--method", "complete", "--matching", str(mfile),
              "-", input=g6("cycle", [6]) + "\n")
    assert res.exit_code == 1 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line == f"error: {g6('cycle', [6])}: base graph is not K_6"


def test_construct_commands():
    res = run("construct", "yext", "--at", "0", "-", input=g6("petersen") + "\n")
    (rep,) = reports(res)
    out = parse_graph6(rep["verdict"]["graph6"])
    assert out.n == 12 and rep["witness"]["new_vertices"] == [0, 10, 11]
    res = run("construct", "yred", "--triangle",
              ",".join(map(str, rep["witness"]["new_vertices"])),
              "-", input=rep["verdict"]["graph6"] + "\n")
    (rep2,) = reports(res)
    assert parse_graph6(rep2["verdict"]["graph6"]).n == 10
    # a repeated corner is no triangle (Bw is K3)
    res = run("construct", "yred", "--triangle", "0,1,1", "-", input="Bw\n")
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "error: Bw: triangle must have 3 vertices\n"
    res = run("construct", "prop6", "--keep", "0", "-",
              input=g6("petersen") + "\n")
    (rep3,) = reports(res)
    assert rep3["verdict"]["order"] == 28 and rep3["verdict"]["size"] == 42


def test_prop6_reports_the_nodes_of_its_check():
    """`construct prop6` spends the nodes of its hypohamiltonicity check, as
    `cycles hypoham` reports them: 161 on the Petersen graph (245 before
    the leaf test on required edges), and 154 when `--max-nodes 50` leaves
    the check open."""
    for budget, nodes, code in [([], 161, 0), (["--max-nodes", "50"], 154, 2)]:
        prop6 = run("construct", "prop6", "--keep", "0", *budget, "-",
                    input=g6("petersen") + "\n")
        hypoham = run("cycles", "hypoham", *budget, "-",
                      input=g6("petersen") + "\n")
        assert prop6.exit_code == hypoham.exit_code == code
        (rep,), (hyp,) = reports(prop6), reports(hypoham)
        assert rep["stats"]["nodes"] == hyp["stats"]["nodes"] == nodes
        if code:
            assert rep["verdict"] == {"outcome": "inconclusive", "reason": "budget"}
            assert rep["witness"] is None
        else:
            assert rep["verdict"]["order"] == 28


def test_prop6_keep_outside_the_graph():
    # Petersen passes the cubic and parity checks that stop K4 first
    res = run("construct", "prop6", "--keep", "99", "-",
              input=g6("petersen") + "\n")
    assert res.exit_code == 1 and res.stdout == ""
    assert "vertex 99 is not in the graph" in res.stderr


def test_survey_resumable(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join([g6("octahedron"), g6("complete", [4]),
                                 g6("cube"), "!!bad"]) + "\n")
    journal = tmp_path / "journal.jsonl"
    res = run("survey", str(corpus), "--problem", "p2",
              "--journal", str(journal))
    assert res.exit_code == 0
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["tested"] == 1 and summary["warnings"] == 1
    assert summary["candidates"] == []
    assert summary["note"].startswith("evidence only")
    first_journal = journal.read_text()
    (entry,) = [json.loads(line) for line in first_journal.splitlines()]
    assert entry["status"] == "pmh"
    assert 0 < entry["searches"] < entry["matchings_tested"]
    res2 = run("survey", str(corpus), "--problem", "p2",
               "--journal", str(journal))
    summary2 = json.loads(res2.output.strip().splitlines()[-1])
    assert summary2 == summary
    assert journal.read_text() == first_journal  # no duplicate oracle work


def test_survey_certifies_its_candidates(tmp_path):
    """G?qaf_ is hamiltonian with maximum degree 4, and a perfect matching
    of its line graph lies in no hamiltonian cycle.  Two workers journal
    what one does."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(["G?qaf_", g6("octahedron"), g6("cube")]) + "\n")
    journals = []
    for jobs in ("1", "2"):
        journal = tmp_path / f"journal{jobs}.jsonl"
        res = run("survey", str(corpus), "--problem", "maxdeg4",
                  "--journal", str(journal), "--jobs", jobs)
        assert res.exit_code == 0, res.output
        summary = json.loads(res.stdout)
        assert summary["tested"] == 2 and summary["candidates"] == ["G?qaf_"]
        assert summary["note"].startswith("each candidate is certified")
        journals.append(sorted(journal.read_text().splitlines()))
    assert journals[0] == journals[1]
    entry = next(e for e in map(json.loads, journals[0])
                 if e["graph6"] == "G?qaf_")
    assert entry["status"] == "not_pmh"
    lg = build_line_graph(parse_graph6("G?qaf_")).lg
    forced = [tuple(e) for e in entry["witness_matching"]]
    assert find_hamiltonian_cycle(lg, forced=forced).outcome == "absent"


def test_survey_timeout_interrupts_the_scan(tmp_path):
    """L(K8) has 3,321,907,200 perfect matchings; a one-second timeout must
    stop its check, inside the scan or a search, within a few seconds."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("complete", [8]) + "\n")
    journal = tmp_path / "journal.jsonl"
    t0 = time.perf_counter()
    res = run("survey", str(corpus), "--problem", "p1", "--timeout-seconds",
              "1", "--journal", str(journal))
    assert time.perf_counter() - t0 < 5
    assert res.exit_code == 2
    (entry,) = [json.loads(line) for line in journal.read_text().splitlines()]
    assert entry["status"] == "inconclusive" and entry["reason"] == "timeout"


def test_survey_filters(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join([g6("complete", [4]), g6("cube"),
                                 g6("prism")]) + "\n")
    journal = tmp_path / "journal.jsonl"
    res = run("survey", str(corpus), "--problem", "p1",
              "--journal", str(journal))
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["tested"] == 0 and summary["filtered_out"] == 3


def _circulant(n, *steps):
    return Graph.from_edges(n, [(min(i, (i + s) % n), max(i, (i + s) % n))
                                for i in range(n) for s in steps])


def test_candidate_refuses_a_graph_or_line_graph_above_the_bound():
    """Before any search: a 16,385-vertex tree of maximum degree 4 has only
    16,384 edges, and C_8200(1,2) has 16,400 edges on 8,200 vertices."""
    n = MAX_VERTICES + 1
    spider = Graph.from_edges(n, [(0, 1), (0, 2), (0, 3), (0, 4)]
                              + [(i, i + 4) for i in range(1, n - 4)])
    assert len(spider.edges) == MAX_VERTICES
    with pytest.raises(CapacityError, match=f"{n} vertices"):
        cli._candidate(spider, "maxdeg4", 0)
    with pytest.raises(CapacityError, match="16400 edges"):
        cli._candidate(_circulant(8200, 1, 2), "p2", 0)


def test_survey_skips_a_graph_above_the_bound(tmp_path):
    """C_16386 and C_8200(1,2) pass the p2 filter; each is one warning line,
    and the other corpus lines still get their verdicts."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join([write_graph6(_circulant(16386, 1)),
                                 write_graph6(_circulant(8200, 1, 2)),
                                 g6("octahedron")]) + "\n")
    res = CliRunner().invoke(main, ["survey", str(corpus), "--problem", "p2",
                                    "--journal", str(tmp_path / "j.jsonl")],
                             catch_exceptions=False)
    assert res.exit_code == 0 and "Traceback" not in res.output
    assert [line.startswith("warning: skipping corpus line: ")
            for line in res.stderr.splitlines()] == [True, True]
    summary = json.loads(res.stdout)
    assert (summary["warnings"], summary["tested"],
            summary["filtered_out"]) == (2, 1, 0)


def test_pmh_check_inconclusive_is_not_a_refutation():
    """A spent budget leaves `is_pmh` null, not false."""
    res = run("pmh-check", "--max-nodes", "3", "-", input=g6("coxeter") + "\n")
    assert res.exit_code == 2
    (rep,) = reports(res)
    verdict = rep["verdict"]
    assert verdict["status"] == "inconclusive" and verdict["is_pmh"] is None
    assert verdict["reason"] == "budget" and rep["witness"] is None


def test_search_commands_share_the_inconclusive_shape():
    """Under a spent budget each search command gives the outcome and its
    reason; `cycles circ` adds the length of the longest cycle it found
    before the budget ran out."""
    for args in (["cycles", "circ"], ["cycles", "ham"], ["cycles", "domcycle"],
                 ["cycles", "hypoham"]):
        res = run(*args, "--max-nodes", "50", "-", input=g6("coxeter") + "\n")
        assert res.exit_code == 2, args
        (rep,) = reports(res)
        verdict = rep["verdict"]
        assert (verdict.pop("outcome"), verdict.pop("reason")) == \
            ("inconclusive", "budget"), args
        assert verdict == ({"lower_bound": 25} if args[1] == "circ" else {})
        assert rep["witness"] is None
    # no cycle closes within the first node
    res = run("cycles", "circ", "--max-nodes", "1", "-",
              input=g6("coxeter") + "\n")
    assert reports(res)[0]["verdict"]["lower_bound"] is None


def test_hypoham_reports_the_nodes_of_every_search():
    pet = make_named_graph("petersen", [])
    res = run("cycles", "hypoham", "-", input=g6("petersen") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"] == {"hypohamiltonian": True}
    # G itself, then each G - v relabelled in vertex order
    minus = [Graph.from_edges(pet.n - 1,
                              [(a - (a > v), b - (b > v)) for a, b in pet.edges
                               if v not in (a, b)])
             for v in range(pet.n)]
    assert rep["stats"]["nodes"] == sum(find_hamiltonian_cycle(h).nodes
                                        for h in [pet, *minus])
    # an inconclusive verdict keeps the nodes its searches spent
    res = run("cycles", "hypoham", "--max-nodes", "50", "-",
              input=g6("coxeter") + "\n")
    assert res.exit_code == 2
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "inconclusive"
    assert rep["stats"]["nodes"] > 0


def test_each_report_is_written_and_flushed_when_its_line_is_done():
    """The first report reaches a pipe while the child still searches line
    2, a longest cycle of K_{8,9} (far beyond 0.5 s) that only the timeout
    ends; every line is one sort_keys JSON object.  PYTHONUNBUFFERED is
    dropped, so the flush is the program's own."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PMHGRAPH_MAX_NODES", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(pmhgraph.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmhgraph.cli", "cycles", "circ",
         "--timeout-seconds", "0.5", "-"], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    try:
        proc.stdin.write(g6("petersen") + "\n" + g6("bipartite", (8, 9))
                         + "\n")
        proc.stdin.close()
        first = proc.stdout.readline()
        t1 = time.perf_counter()
        running = proc.poll() is None
        second = proc.stdout.readline()
        t2 = time.perf_counter()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stdout.close()
    # line 1 came out before line 2's search began its half second
    assert running and t2 - t1 > 0.25
    lines = [json.loads(first), json.loads(second)]
    assert [first, second] == [json.dumps(r, sort_keys=True) + "\n"
                               for r in lines]
    assert lines[0]["verdict"] == {"circumference": 9}
    assert lines[1]["verdict"] == {"outcome": "inconclusive",
                                   "reason": "timeout"}


def test_report_lines_are_sort_keys_json(tmp_path):
    outputs = [run("lg", "-", input=g6("complete", [4]) + "\n").stdout,
               run("cycles", "ham", "-", input=g6("cube") + "\n").stdout]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("octahedron") + "\n")
    outputs.append(run("survey", str(corpus), "--problem", "p2", "--journal",
                       str(tmp_path / "j.jsonl")).stdout)
    lines = "".join(outputs).splitlines()
    lines += (tmp_path / "j.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def matching_file(tmp_path, name, params=(), index=0):
    lgm = build_line_graph(make_named_graph(name, list(params)))
    ms = list(enumerate_perfect_matchings(lgm.lg))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"edges": [list(e) for e in ms[index].edges]}))
    return str(path)


# (command args before SOURCE, base graph, matching base or None)
BUDGETED = {
    "cycles ham": (["cycles", "ham"], ("petersen", ()), None),
    "cycles domcycle": (["cycles", "domcycle", "--allow", "0"],
                        ("petersen", ()), None),
    "cycles circ": (["cycles", "circ"], ("petersen", ()), None),
    "cycles hypoham": (["cycles", "hypoham"], ("petersen", ()), None),
    "pmh-check": (["pmh-check"], ("petersen", ()), None),
    "extend subcubic": (["extend", "--method", "subcubic"],
                        ("complete", (4,)), True),
    "extend complete K4": (["extend", "--method", "complete"],
                           ("complete", (4,)), True),
    "extend complete K5": (["extend", "--method", "complete"],
                           ("complete", (5,)), True),
    "extend bipartite": (["extend", "--method", "bipartite"],
                         ("bipartite", (4, 4)), True),
    "extend arbtrace": (["extend", "--method", "arbtrace"],
                        ("bowtie", ()), True),
    "kotzig": (["kotzig"], ("complete", (4,)), True),
    "construct prop6": (["construct", "prop6", "--keep", "0"],
                        ("petersen", ()), None),
}


@pytest.mark.parametrize("case", sorted(BUDGETED))
def test_every_budget_is_honoured(case, tmp_path):
    args, (name, params), matching = BUDGETED[case]
    if matching:
        args = args + ["--matching", matching_file(tmp_path, name, params)]
    res = run(*args, "--max-nodes", "1", "-", input=g6(name, params) + "\n")
    assert res.exit_code == 2, res.output
    (rep,) = reports(res)
    verdict = rep["verdict"]
    assert "inconclusive" in (verdict.get("outcome"), verdict.get("status"))
    assert verdict["reason"] == "budget"
    assert rep["witness"] is None


def test_survey_budget_is_honoured(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("octahedron") + "\n")
    res = run("survey", str(corpus), "--problem", "p2", "--max-nodes", "1",
              "--journal", str(tmp_path / "journal.jsonl"))
    assert res.exit_code == 2
    summary = json.loads(res.stdout)
    assert summary["inconclusive"] == 1 and summary["filtered_out"] == 0
    # enough for the filter's search, not for every matching: the journal
    # entry gives the reason, as a timeout's does
    journal = tmp_path / "journal20.jsonl"
    res = run("survey", str(corpus), "--problem", "p2", "--max-nodes", "20",
              "--journal", str(journal))
    assert res.exit_code == 2
    (entry,) = map(json.loads, journal.read_text().splitlines())
    assert (entry["status"], entry["reason"]) == ("inconclusive", "budget")


def test_survey_journals_a_graph_its_filter_left_open(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("octahedron") + "\n")
    journal = tmp_path / "journal.jsonl"
    args = ("survey", str(corpus), "--problem", "p2", "--journal",
            str(journal))
    for _ in range(2):     # the resumed run appends no second entry
        res = run(*args, "--max-nodes", "1")
        assert res.exit_code == 2
        summary = json.loads(res.stdout)
        assert (summary["inconclusive"], summary["tested"]) == (1, 0)
        (entry,) = map(json.loads, journal.read_text().splitlines())
        assert (entry["graph6"], entry["status"], entry["reason"],
                entry["stage"]) == (g6("octahedron"), "inconclusive",
                                    "budget", "filter")
    # the entry does not stand in for the PMH test: the graph is filtered
    # again and, now that it passes, tested
    res = run(*args)
    assert res.exit_code == 0
    summary = json.loads(res.stdout)
    assert (summary["inconclusive"], summary["tested"]) == (0, 1)
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [e["status"] for e in entries] == ["inconclusive", "pmh"]
    assert "stage" not in entries[1]
    assert json.loads(run(*args).stdout) == summary
    assert len(journal.read_text().splitlines()) == 2


def test_survey_timeout_is_honoured(tmp_path, monkeypatch):
    def slow(lgm, max_nodes=0):
        time.sleep(5)

    monkeypatch.setattr(cli, "is_pmh_line", slow)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("octahedron") + "\n")
    journal = tmp_path / "journal.jsonl"
    t0 = time.perf_counter()
    res = run("survey", str(corpus), "--problem", "p2", "--timeout-seconds",
              "0.2", "--journal", str(journal))
    assert time.perf_counter() - t0 < 4
    assert res.exit_code == 2
    assert json.loads(res.stdout)["inconclusive"] == 1
    (entry,) = [json.loads(line) for line in journal.read_text().splitlines()]
    assert entry["status"] == "inconclusive" and entry["reason"] == "timeout"


def test_survey_resumes_after_torn_journal_line(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join([g6("octahedron"), g6("complete", [5])]) + "\n")
    journal = tmp_path / "journal.jsonl"
    args = ("survey", str(corpus), "--problem", "p2", "--journal", str(journal))
    summary = json.loads(run(*args).stdout)
    assert summary["tested"] == 2
    full = journal.read_text()
    first, second = full.splitlines(keepends=True)
    journal.write_text(first + second[:len(second) // 2])  # crash mid-write
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert "torn" in res.stderr
    assert json.loads(res.stdout) == summary
    assert journal.read_text() == full
    # a complete line that is not a survey entry is not a torn write:
    # refuse it
    for bad in ("not json", '{"graph6": "D~{"}', '{"graph6": 5, "status": "pmh"}',
                '{"graph6": "D~{", "status": "maybe"}', "[1]"):
        journal.write_text(bad + "\n" + full)
        res = run(*args)
        assert res.exit_code == 1, bad
        assert "error: journal" in res.stderr and "line 1" in res.stderr, bad


def test_bad_middle_line_keeps_the_other_reports():
    lines = [g6("cube"), "!!bad", g6("petersen")]
    res = run("cycles", "ham", "-", input="\n".join(lines) + "\n")
    assert res.exit_code == 1
    assert [json.loads(line)["input"] for line in res.stdout.splitlines()] \
        == [lines[0], lines[2]]
    assert res.stderr.startswith("error: !!bad:")


# each command that prints a walk, with the base graph it runs on; extend
# and kotzig also read a perfect matching of the base's line graph
WALK_COMMANDS = [
    (["cycles", "ham"], ("cube", ())),
    (["cycles", "domcycle", "--allow", "0"], ("petersen", ())),
    (["cycles", "euler"], ("octahedron", ())),
    (["extend", "--method", "subcubic"], ("cube", ())),
    (["extend", "--method", "complete"], ("complete", (5,))),
    (["extend", "--method", "bipartite"], ("bipartite", (4, 4))),
    (["extend", "--method", "arbtrace"], ("bowtie", ())),
    (["kotzig"], ("complete", (4,))),
]


def test_only_the_library_checks_a_walk_and_python_O_keeps_it(tmp_path):
    """Under python -O, with `_kernel.is_cycle` and `cycles.validate_walk`
    refusing every walk, each command that prints a walk prints no report,
    writes an error line and exits 1: the library call that made the walk
    refused it, and -O does not strip that check.  Without the refusal the
    same commands print their walks."""
    runs = []
    for i, (args, (name, params)) in enumerate(WALK_COMMANDS):
        (tmp_path / str(i)).mkdir()
        source = tmp_path / str(i) / "input.g6"
        source.write_text(g6(name, params) + "\n")
        if args[0] in ("extend", "kotzig"):
            args = args + ["--matching",
                           matching_file(tmp_path / str(i), name, params)]
        runs.append(args + [str(source)])
    script = textwrap.dedent("""
        import io, json, sys
        from pmhgraph import _kernel, cli, cycles
        if sys.argv[1] == "refuse":
            _kernel.is_cycle = lambda *args: False
            cycles.validate_walk = lambda g, walk: False
        for args in json.loads(sys.argv[2]):
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            try:
                cli.main(args)
            except SystemExit as exc:
                code = exc.code
            finally:
                out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
            print(json.dumps([sys.flags.optimize, code, out, err]))
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(pmhgraph.__file__).resolve().parents[1]))
    for mode in ("accept", "refuse"):
        child = subprocess.run(
            [sys.executable, "-O", "-c", script, mode, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        lines = [json.loads(line) for line in child.stdout.splitlines()]
        assert len(lines) == len(runs)
        for args, (optimize, code, out, err) in zip(runs, lines):
            assert optimize == 1
            if mode == "accept":
                assert code == 0 and err == "", (args, err)
                assert '"vertices"' in out
            else:
                assert code == 1 and out == "", (args, out)
                assert err.startswith("error: ") and "Traceback" not in err
                assert len(err.splitlines()) == 1, err


# (command args with {tmp} for the test's directory, environment); each
# must exit 1 with an error message and no traceback
BAD_INPUTS = {
    "matching missing": (["extend", "--method", "subcubic", "--matching",
                          "{tmp}/none.json"], {}),
    "matching not json": (["extend", "--method", "subcubic", "--matching",
                           "{tmp}/brace.json"], {}),
    "matching without edges": (["kotzig", "--matching", "{tmp}/edgez.json"],
                               {}),
    "matching not pairs": (["extend", "--method", "complete", "--matching",
                            "{tmp}/triple.json"], {}),
    "matching not integers": (["extend", "--method", "subcubic",
                               "--matching", "{tmp}/letters.json"], {}),
    "allow": (["cycles", "domcycle", "--allow", "x"], {}),
    "triangle": (["construct", "yred", "--triangle", "a,b,c"], {}),
    "yext vertex": (["construct", "yext", "--at", "99"], {}),
    "arbtrace vertex": (["cycles", "arbtrace", "--from", "-5"], {}),
    "allow vertex": (["cycles", "domcycle", "--allow", "99"], {}),
    "max-nodes env": (["cycles", "ham"], {"PMHGRAPH_MAX_NODES": "abc"}),
    "max-nodes negative": (["pmh-check", "--max-nodes", "-1"], {}),
    "max-nodes above 64 bits": (["cycles", "ham", "--max-nodes",
                                 str(2**64)], {}),
    "timeout negative": (["cycles", "ham", "--timeout-seconds", "-1"], {}),
    "timeout nan": (["cycles", "ham", "--timeout-seconds", "nan"], {}),
    "timeout inf": (["cycles", "ham", "--timeout-seconds", "inf"], {}),
    "survey corpus missing": (["survey", "{tmp}/none.g6", "--problem", "p2",
                               "--journal", "{tmp}/j.jsonl"], {}),
    "survey journal dir missing": (["survey", "{tmp}/c.g6", "--problem", "p2",
                                    "--journal", "{tmp}/none/j.jsonl"], {}),
    "extend without --method": (["extend", "--matching",
                                 "{tmp}/complete.json"], {}),
    "extend --from": (["extend", "--method", "arbtrace", "--matching",
                       "{tmp}/complete.json", "--from", "2"], {}),
    "survey no jobs": (["survey", "{tmp}/c.g6", "--problem", "p2",
                        "--journal", "{tmp}/j.jsonl", "--jobs", "0"], {}),
    "survey negative jobs": (["survey", "{tmp}/c.g6", "--problem", "p2",
                              "--journal", "{tmp}/j.jsonl", "--jobs", "-1"],
                             {}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_without_traceback(case, tmp_path):
    args, env = BAD_INPUTS[case]
    for name, text in [("brace.json", "{"), ("edgez.json", '{"edgez": []}'),
                       ("triple.json", "[[1, 2, 3]]"),
                       ("letters.json", '[[0, "a"]]'),
                       ("c.g6", g6("complete", [4]) + "\n")]:
        (tmp_path / name).write_text(text)
    matching_file(tmp_path, "complete", (4,))
    args = [a.format(tmp=tmp_path) for a in args]
    if args[0] != "survey":
        args.append("-")
    res = CliRunner().invoke(main, args, input=g6("complete", [4]) + "\n",
                             env=env, catch_exceptions=False)
    assert res.exit_code == 1, res.output
    assert "error" in res.stderr.lower() and "Traceback" not in res.output
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["ham", "circ"])
def test_graph_above_the_kernel_bound_is_one_error_line(command):
    n = MAX_VERTICES + 1
    text = write_graph6(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    res = CliRunner().invoke(main, ["cycles", command, "-"], input=text + "\n",
                             catch_exceptions=False)
    assert res.exit_code == 1 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(
        f"{n} vertices, above the search bound {MAX_VERTICES}")
    assert f"({len(text)} chars)" in line
    assert len(res.stderr.encode()) < 1024
    assert "Traceback" not in res.output


@pytest.mark.parametrize("options", [[], ["--count-only"]])
def test_pm_enum_above_the_kernel_bound_is_one_error_line(options):
    n = MAX_VERTICES + 2
    text = write_graph6(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    res = CliRunner().invoke(main, ["pm-enum", *options, "-"],
                             input=text + "\n", catch_exceptions=False)
    assert res.exit_code == 1 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(
        f"{n} vertices, above the search bound {MAX_VERTICES}")
    assert "Traceback" not in res.output


def test_non_utf8_line_is_one_bad_line():
    res = run("cycles", "ham", "-", input=b"\xff\xfe\n" + g6("cube").encode()
              + b"\n")
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ") and "graph6 range" in res.stderr
    assert [json.loads(line)["input"] for line in res.stdout.splitlines()] \
        == [g6("cube")]


def test_max_nodes_from_environment():
    env = {"PMHGRAPH_MAX_NODES": "1"}
    res = run("cycles", "ham", "-", input=g6("petersen") + "\n", env=env)
    assert res.exit_code == 2
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "inconclusive"
    # the option beats the environment
    res = run("cycles", "ham", "--max-nodes", "0", "-",
              input=g6("petersen") + "\n", env=env)
    assert res.exit_code == 0 and reports(res)[0]["verdict"]["outcome"] == "absent"


def test_each_graph_drops_its_kernel_state_once_its_line_is_done(monkeypatch):
    """The runner reads every graph before it answers and holds them all,
    but drops the kernel state a search keeps on each (up to 67 MB at the
    kernel's bound) once its line is done, refused lines included."""
    held = []
    search = cli.find_hamiltonian_cycle

    def tracked(g, forced=(), max_nodes=0):
        assert [h._search_graph for h in held] == [None] * len(held)
        held.append(g)
        return search(g, forced, max_nodes)

    monkeypatch.setattr(cli, "find_hamiltonian_cycle", tracked)
    lines = [g6("petersen"), g6("complete", [5]), g6("cube"), g6("petersen")]
    res = run("cycles", "ham", "-", input="\n".join(lines) + "\n")
    assert res.exit_code == 0 and len(reports(res)) == 4 and len(held) == 4
    assert [(h._search_graph, h._edge_table) for h in held] == [(None, None)] * 4
    # and the dominating-cycle memo a domcycle search keeps on its graph
    held.clear()
    dominating = cli.find_dominating_cycle

    def tracked_dominating(g, allowed_untouched, max_nodes):
        assert [h._dominating_cache for h in held] == [None] * len(held)
        held.append(g)
        return dominating(g, allowed_untouched, max_nodes)

    monkeypatch.setattr(cli, "find_dominating_cycle", tracked_dominating)
    res = run("cycles", "domcycle", "--allow", "0", "-",
              input="\n".join(lines) + "\n")
    assert res.exit_code == 0 and len(reports(res)) == 4 and len(held) == 4
    assert [h._dominating_cache for h in held] == [None] * 4
