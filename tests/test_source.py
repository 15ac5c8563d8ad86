"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_no_cached_property_in_package():
    """functools.cached_property takes a lock on CPython 3.11 and writes
    through the instance __dict__; the package caches by hand instead, as
    Graph.adjacency does."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [node.id] if isinstance(node, ast.Name) else [])
            if "cached_property" in names:
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
                     "canonical_form", "FOUND", "ABSENT", "BUDGET", "BACKEND"}
    assert sorted(names - set(dir(fastcore))) == []
