"""Checks on the package source itself."""

import ast
from pathlib import Path

import kgeu

SOURCES = sorted(Path(kgeu.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_src():
    # invariants must hold under `python -O`, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 10
    assert not found, f"assert statements in src/kgeu: {found}"
