"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pmhgraph

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


def test_pure_kernel_does_not_recurse():
    """The pure searches, and the searches over a base graph's cycles, keep
    explicit stacks: a function that calls itself would stop at Python's
    recursion limit on a long path, far below the kernel's vertex bound."""
    found = []
    for path in [PACKAGE / "_kernel" / "purecore.py", PACKAGE / "pmh.py",
                 PACKAGE / "cycles.py"]:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{fn.name}:{node.lineno}"
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
