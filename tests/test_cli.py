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
from pmhgraph.cycles import closed, find_hamiltonian_cycle, validate_walk
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
    walk = closed(rep["witness"]["vertices"][:-1],
                  kinds=set(rep["witness"]["kinds"]))
    assert validate_walk(make_named_graph("cube", []), walk)


def test_cycles_ham_budget_exit_code():
    res = run("cycles", "ham", "--max-nodes", "3", "-",
              input=g6("petersen") + "\n")
    assert res.exit_code == 2
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "inconclusive"


def test_cycles_subcommands():
    res = run("cycles", "euler", "-", input=g6("octahedron") + "\n")
    (rep,) = reports(res)
    assert rep["verdict"]["outcome"] == "found"
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
    lgm = build_line_graph(make_named_graph("complete", [4]))
    m = next(enumerate_perfect_matchings(lgm.lg))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"edges": [list(e) for e in m.edges]}))
    for method in ("subcubic", "complete"):
        res = run("extend", "--method", method, "--matching", str(mfile),
                  "-", input=g6("complete", [4]) + "\n")
        assert res.exit_code == 0, res.output
        (rep,) = reports(res)
        assert rep["verdict"]["outcome"] == "found"
        walk = closed(rep["witness"]["vertices"][:-1],
                      kinds=set(rep["witness"]["kinds"]))
        assert validate_walk(lgm.lg, walk)
        assert walk.contains_edges(m.edges)
    res = run("kotzig", "--matching", str(mfile), "-",
              input=g6("complete", [4]) + "\n")
    assert res.exit_code == 0
    (rep,) = reports(res)
    assert rep["witness"]["containing"] and rep["witness"]["complement"]
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
    res = run("construct", "prop6", "--keep", "0", "-",
              input=g6("petersen") + "\n")
    (rep3,) = reports(res)
    assert rep3["verdict"]["order"] == 28 and rep3["verdict"]["size"] == 42


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
    "extend arbtrace": (["extend", "--method", "arbtrace", "--from", "2"],
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
    assert rep["witness"] is None


def test_survey_budget_is_honoured(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(g6("octahedron") + "\n")
    res = run("survey", str(corpus), "--problem", "p2", "--max-nodes", "1",
              "--journal", str(tmp_path / "journal.jsonl"))
    assert res.exit_code == 2
    summary = json.loads(res.stdout)
    assert summary["inconclusive"] == 1 and summary["filtered_out"] == 0


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
    # a complete line that does not decode is not a torn write: refuse it
    journal.write_text("not json\n" + full)
    res = run(*args)
    assert res.exit_code == 1 and "error: journal" in res.stderr


def test_bad_middle_line_keeps_the_other_reports():
    lines = [g6("cube"), "!!bad", g6("petersen")]
    res = run("cycles", "ham", "-", input="\n".join(lines) + "\n")
    assert res.exit_code == 1
    assert [json.loads(line)["input"] for line in res.stdout.splitlines()] \
        == [lines[0], lines[2]]
    assert res.stderr.startswith("error: !!bad:")


def test_extend_rechecks_its_witness_under_python_O(tmp_path):
    """A library route that returns a hamiltonian cycle without the matching
    edges is caught by the runner's re-check, which -O does not strip."""
    path = matching_file(tmp_path, "complete", (4,))
    script = textwrap.dedent(f"""
        import sys
        from pmhgraph import cli
        from pmhgraph.cycles import FOUND, SearchResult, closed
        print(sys.flags.optimize, flush=True)
        cycle = closed([0, 1, 2, 5, 4, 3], kinds={{"cycle", "tour", "hamiltonian"}})
        cli.extend_matching_subcubic = lambda lgm, m, max_nodes: SearchResult(FOUND, cycle, 1)
        cli.main(["extend", "--method", "subcubic", "--matching", {path!r}, "-"])
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(pmhgraph.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         input=g6("complete", [4]) + "\n",
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stderr
    assert out.stdout.split() == ["1"]
    assert "fails its re-check" in out.stderr


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
