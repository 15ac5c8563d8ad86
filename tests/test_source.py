"""Checks on the package source itself."""

import ast
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
