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


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in __all__ counts as read: it is a re-export.
    """
    tree = ast.parse(source, filename)
    bound = {}  # {name: line of the import that binds it}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{filename}:{line} {name}" for name, line in bound.items() if name not in used]


def test_unused_import_check_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from struct import Struct, pack\n"
        "from .errors import MeowError as Fault\n"
        "__all__ = ['Fault']\n"
        "def f(x: Struct) -> None:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["<source>:2 os", "<source>:2 osp", "<source>:4 pack"]


def test_no_unused_import_in_the_package():
    package = Path(meowsim.__file__).parent
    found = [
        entry
        for path in sorted(package.glob("*.py"))
        for entry in unused_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def dead_symbols(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants that nothing else reads.

    sources maps a module name to its text. A symbol counts as read where its
    name is loaded, or named as an attribute, on a line outside its own
    definition, in any of the modules, or where it is listed in __all__.
    Dunder names (__version__, __all__) are not checked.
    """
    defined = []  # (module, name, first line, last line)
    reads = []  # (module, name, line)
    exported = set()
    for module, source in sources.items():
        tree = ast.parse(source, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if "__all__" in names:
                exported.update(ast.literal_eval(node.value))
            defined.extend((module, name, node.lineno, node.end_lineno)
                           for name in names if not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.attr, node.lineno))
    return [
        f"{module}.{name}"
        for module, name, first, last in defined
        if name not in exported
        and not any(n == name and (m != module or not first <= line <= last)
                    for m, n, line in reads)
    ]


def test_dead_symbol_check_sees_each_form():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "_X, _Y = 1, 2\n"
            "__all__ = ['Public']\n"
            "class Public:\n"
            "    pass\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else _X\n"
            "def helper():\n"
            "    return LIMIT\n"
        ),
        "b": "from .a import helper\nimport a\nprint(helper(), a.recurse)\n",
    }
    assert dead_symbols(sources) == ["a.UNUSED", "a._Y"]
    del sources["b"]
    assert dead_symbols(sources) == ["a.UNUSED", "a._Y", "a.recurse", "a.helper"]


# read only outside the package: perfbench's tracer patches DeviceState.latch,
# and conftest.LatchRecorder builds DeviceState
DEAD_SYMBOL_ALLOWLIST = ["simulation.DeviceState"]


def test_no_dead_symbol_in_the_package():
    package = Path(meowsim.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert dead_symbols(sources) == DEAD_SYMBOL_ALLOWLIST


def uniform_draw_readers(sources: dict[str, str]) -> list[str]:
    """Modules, of sources {name: text}, that read an attribute named uniform_draw:
    call it, or bind it to call later."""
    return [module for module, source in sources.items()
            if any(isinstance(node, ast.Attribute) and node.attr == "uniform_draw"
                   for node in ast.walk(ast.parse(source, module)))]


def test_uniform_draw_reader_check_sees_each_form():
    sources = {
        "a": "phase = 100 * rng.uniform_draw(0, 9)\n",
        "b": "draw = engine.rng.uniform_draw\n",
        "c": "def uniform_draw(lo, hi):\n    return lo  # rng.uniform_draw\n",
        "d": "text = 'rng.uniform_draw'\n",
    }
    assert uniform_draw_readers(sources) == ["a", "b"]


def test_only_the_arrival_law_and_the_jitter_draw_use_the_generator():
    # scenario.arrival_phase_ns draws every arrival phase and the controller
    # every dispatch jitter; any other module that draws writes a second law
    package = Path(meowsim.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert uniform_draw_readers(sources) == ["controller", "scenario"]


def text_writes(source: str) -> list[tuple[int, str | None, ast.Call]]:
    """(line, enclosing function, call) of each call opening a file to write text.

    A call counts where it is to open, whose mode is its second positional
    argument or mode=, or to some .open, whose mode is its first; it writes
    text where the mode has "w", "a", "x" or "+" and no "b". A mode that is
    not a literal counts as a write.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "open"):
            at = 1 if isinstance(node.func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not isinstance(mode, ast.Constant) or (
                    set(mode.value) & set("wax+") and "b" not in mode.value):
                found.append((node.lineno, function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_text_write_check_sees_each_form():
    source = (
        "open(p, 'x')\n"
        "def a(p):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a', encoding='utf-8')\n"
        "    p.open('r+')\n"
        "    open(p, m)\n"
        "def b(p):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, 'wb')\n"
        "    p.open()\n"
        "    p.open('w+b')\n"
    )
    assert [(line, function) for line, function, _ in text_writes(source)] == [
        (1, None), (3, "a"), (4, "a"), (5, "a"), (6, "a")]


def test_every_text_write_goes_through_open_export():
    # one helper opens each export, so every platform writes the same bytes
    # ("\n", never "\r\n") and every write failure reads the same way
    package = Path(meowsim.__file__).parent
    found = [
        (path.name, function, call)
        for path in sorted(package.glob("*.py"))
        for _, function, call in text_writes(path.read_text(encoding="utf-8"))
    ]
    assert [(name, function) for name, function, _ in found] == [("bench.py", "open_export")]
    keywords = {kw.arg: kw.value.value for kw in found[0][2].keywords}
    assert keywords == {"encoding": "utf-8", "newline": ""}
