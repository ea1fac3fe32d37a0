"""Checks on the package source itself."""

import ast
import sys
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


def test_package_imports_only_the_stdlib():
    # runtime dependencies stay at zero: every absolute import in the
    # package names a standard-library module
    package = Path(meowsim.__file__).parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert {"json", "struct", "socketserver"} <= imported  # the walk saw the imports
    assert sorted(imported - sys.stdlib_module_names) == []
