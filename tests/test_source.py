"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import parkhanoi

SOURCES = sorted(Path(parkhanoi.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
