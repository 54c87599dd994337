"""The package's public names, the imports of its modules and tests, and
the README's statements about the code."""
import argparse
import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import prachjam
from prachjam.cli import _build_parser

from helpers import BENCHMARK_NAMES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SOURCES = sorted((ROOT / "src" / "prachjam").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


def test_all_lists_every_public_name():
    # ``from prachjam import *`` binds every public name the package
    # imports (the README's example calls generate_zc). It and
    # ``from prachjam.<module> import *`` bind only names that exist.
    public = {name for name, value in vars(prachjam).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(prachjam.__all__)) == []
    modules = [importlib.import_module(f"prachjam.{path.stem}".removesuffix(".__init__"))
               for path in SOURCES]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert prachjam in exporting and len(exporting) > 1
    assert [f"{module.__name__}.{name}" for module in exporting for name in module.__all__
            if not hasattr(module, name)] == []


def dotted(node):
    """``a.b.c`` for an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unused_imports(path):
    """The names ``path`` imports and never reads, its ``__all__`` aside,
    each with its line. ``import a.b`` counts as read only where ``a.b``
    itself is read."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(dotted(node))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in read | exported}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    # No linter is a dependency, so this is the unused-import check.
    # campaign.py keeps the names perfbench patches and times.
    unused = unused_imports(path)
    if path == ROOT / "src" / "prachjam" / "campaign.py":
        unused = {name: line for name, line in unused.items() if name not in BENCHMARK_NAMES}
    assert unused == {}


def test_no_test_module_imports_another():
    # Code the tests share lives in tests/helpers.py.
    tests = sorted((ROOT / "tests").glob("*.py"))
    names = {path.stem for path in tests if path.stem.startswith("test_")}
    found = {}
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found.update({path.name: m for m in modules if m.split(".")[0] in names})
    assert found == {}


def private_definitions(path):
    """The module-level private names (``_x``, not ``__x__``) ``path`` defines."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def names_read(path):
    """The names and attributes ``path`` reads, and the names it imports."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_name_is_read():
    # Code that nothing reaches gets deleted: each private module-level
    # name of the package is read somewhere in the package or its tests.
    read = set().union(*map(names_read, MODULES))
    unread = {f"{path.name}:{name}" for path in SOURCES
              for name in private_definitions(path) - read}
    assert sorted(unread) == []
    assert sum(len(private_definitions(path)) for path in SOURCES) > 30


def test_readme_cli_table_lists_each_subcommands_options():
    # Each row of the README's CLI table names exactly the options the parser
    # gives its subcommand.
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(o for action in command._actions for o in action.option_strings
                            if o not in ("-h", "--help"))
               for name, command in commands.choices.items()}
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", README, flags=re.MULTILINE)
    assert {name: sorted(re.findall(r"--[\w-]+", cell)) for name, cell in rows} == options
