"""Checks over the source of the whole package."""

import ast
from pathlib import Path

import strategiq

PACKAGE = Path(strategiq.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so no runtime check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
