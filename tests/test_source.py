"""Checks on the package source itself."""

import ast
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import pmhgraph
from pmhgraph._kernel import purecore

PACKAGE = Path(pmhgraph.__file__).resolve().parent


def test_no_assert_in_package():
    """`python -O` strips assert statements, so a check written as one
    silently stops checking; the package raises its own errors instead."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def _names(node):
    """The names an AST node imports or reads."""
    return ([a.name for a in node.names]
            if isinstance(node, (ast.Import, ast.ImportFrom)) else
            [node.attr] if isinstance(node, ast.Attribute) else
            [node.id] if isinstance(node, ast.Name) else [])


def test_no_cached_property_in_package():
    """functools.cached_property takes a lock on CPython 3.11 and writes
    through the instance __dict__; the package caches by hand instead, as
    Graph.adjacency does."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "cached_property" in _names(node):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_pure_kernel_does_not_recurse():
    """No function of the package calls itself: the pure searches, the
    searches over a base graph's cycles, the canonical-form search and the
    corpus generators keep explicit stacks or loops, since recursion would
    stop at Python's recursion limit on a long path, far below the kernel's
    vertex bound."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.relative_to(PACKAGE)}:{fn.name}:"
                          f"{node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == fn.name]
    assert found == []


def test_cli_import_leaves_out_multiprocessing():
    """Each CLI run imports pmhgraph.cli; only `survey --jobs` above 1
    needs multiprocessing, so the import leaves it out."""
    code = "import sys, pmhgraph.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_compiled_kernel_exports_every_pure_kernel_name():
    """Each public name of the pure kernel has a compiled twin, so a kernel
    written only in Python fails here instead of running as pure code on
    the compiled backend."""
    fastcore = pytest.importorskip("pmhgraph._kernel._fastcore")
    names = {name for name in vars(purecore) if not name.startswith("_")}
    assert names == {"ham_cycle", "is_cycle", "longest_cycle", "pm_scan",
                     "canonical_form", "SearchGraph", "EdgeTable", "FOUND",
                     "ABSENT", "BUDGET", "BACKEND"}
    assert sorted(names - set(dir(fastcore))) == []


def test_compiled_kernel_source_compiles_without_warnings(tmp_path):
    """`_fastcore.c` compiles against the interpreter's headers under -Wall
    -Wextra -Werror, so a static helper that a deletion leaves unused fails
    here and not only as a warning in the extension build."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]} not found")
    out = subprocess.run(
        [*cc, "-Wall", "-Wextra", "-Werror",
         "-I" + sysconfig.get_paths()["include"], "-c",
         str(PACKAGE / "_kernel" / "_fastcore.c"),
         "-o", str(tmp_path / "_fastcore.o")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


SEARCHES = ("ham_cycle", "longest_cycle", "is_cycle")


def _reads_a_search(node):
    return (isinstance(node, ast.Attribute) and node.attr in SEARCHES
            and isinstance(node.value, ast.Name) and node.value.id == "_kernel")


def test_only_cycles_calls_the_searches_and_names_their_graphs():
    """Only cycles.py calls `_kernel.ham_cycle`, `longest_cycle` and
    `is_cycle`, so every hamiltonian search of the package (`is_pmh`,
    `is_pmh_line`, the routes, the CLI) reuses the SearchGraph kept on its
    graph and every `hamiltonian_walk` re-check its EdgeTable; only the
    one-shot longest-cycle search hands over the raw adjacency and edges."""
    found, calls = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith("_kernel/"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "_kernel" in (node.module or ""):
                found += [f"{rel}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name in SEARCHES]
            elif _reads_a_search(node) and rel != "cycles.py":
                found.append(f"{rel}:{node.lineno} reads _kernel.{node.attr}")
        if rel == "cycles.py":
            calls = {(fn.name, node.func.attr,
                      ast.unparse(node.args[node.func.attr == "is_cycle"]))
                     for fn in tree.body if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and _reads_a_search(node.func)}
    assert found == []
    assert calls == {
        ("find_hamiltonian_cycle", "ham_cycle", "_search_graph(g)"),
        ("hamiltonian_walk", "is_cycle", "_edge_table(g)"),
        ("longest_cycle_search", "longest_cycle", "g.adjacency"),
        ("longest_cycle_search", "is_cycle", "g.edges"),
    }


def test_cli_checks_no_walk_itself():
    """Each walk the CLI prints was checked by the library call that made it
    (`hamiltonian_walk`, `validate_walk`), so `cli.py` neither imports nor
    calls a walk check: a second check layer would only repeat the first."""
    checks = {"validate_walk", "hamiltonian_walk", "contains_edges",
              "is_cycle"}
    path = PACKAGE / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        found += [f"cli.py:{node.lineno} {name}" for name in _names(node)
                  if name in checks]
    assert found == []


KERNEL_FREE = ("has_dominating_tour", "_spanning_even_subgraph_exists",
               "is_arbitrarily_traceable")
KERNEL_READS = {"_kernel", "find_hamiltonian_cycle", "find_dominating_cycle",
                "hamiltonian_walk", "longest_cycle_search", "_search_graph",
                "_edge_table"}


def test_the_structural_predicates_read_no_kernel():
    """`has_dominating_tour` (with its cycle-space walk) and
    `is_arbitrarily_traceable` decide by counting, after Harary and
    Nash-Williams and after Ore; criterion 06 checks the hamiltonian kernel
    against the first. So neither they nor any cycles.py function they call
    reads the kernel, a search or a search's kept state."""
    path = PACKAGE / "cycles.py"
    tree = ast.parse(path.read_text(), str(path))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    todo, seen, found = list(KERNEL_FREE), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(fns[name]):
            for read in _names(node):
                if read in KERNEL_READS:
                    found.append(f"cycles.py:{node.lineno} {name} reads {read}")
                elif read in fns:
                    todo.append(read)
    assert found == []
    assert seen == {*KERNEL_FREE, "_induced"}
