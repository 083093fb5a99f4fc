"""Checks on the package source itself."""

import ast
from pathlib import Path

import triplepass

PACKAGE = Path(triplepass.__file__).resolve().parent


def test_no_module_relies_on_assert():
    # ``python -O`` drops every assert statement, so a check that guards
    # soundness must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
