"""Checks on the package source itself."""

import argparse
import ast
from pathlib import Path

import kgeu
from kgeu.cli import build_parser
from kgeu.evaluator import CANDIDATE_POLICIES
from kgeu.models import DIRECTIONS, MODELS, NORMS, SHARE_MODES

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


def test_no_module_changes_the_garbage_collector():
    # a process-wide side effect is not an acceptable way to speed up bulk loads
    banned = {"disable", "freeze", "set_threshold"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in banned
            and isinstance(node.value, ast.Name) and node.value.id == "gc")
        or (isinstance(node, ast.ImportFrom) and node.module == "gc"
            and any(alias.name in banned for alias in node.names))
    ]
    assert not found, f"garbage collector settings changed in src/kgeu: {found}"


def test_parser_choices_are_the_library_tuples():
    # one source per enumeration: the CLI offers exactly what the library accepts
    expected = {"model": MODELS, "norm": NORMS, "share": SHARE_MODES,
                "candidates": CANDIDATE_POLICIES, "direction": DIRECTIONS}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    seen = set()
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest in expected:
                assert tuple(action.choices) == expected[action.dest], f"{name} --{action.dest}"
                seen.add(action.dest)
    assert seen == set(expected)
