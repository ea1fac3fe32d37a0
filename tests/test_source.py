"""Checks on the package source itself."""

import ast
from pathlib import Path

import meowsim


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so a contract check written as one
    # would vanish there; src/ raises AssertionError explicitly instead
    package = Path(meowsim.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_export_list_is_sorted_unique_and_resolves():
    # a stale __all__ entry fails only under `from meowsim import *`
    names = meowsim.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(meowsim, name)]
    assert missing == []
