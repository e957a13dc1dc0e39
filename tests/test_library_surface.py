"""The library holds only what the library itself or the benchmark reaches.

Every public top-level function and class of ``src/polyverse`` must be
referenced by name somewhere other than its own definition.  References are
read from the syntax tree (names and attribute accesses, not docstrings or
comments) of the library modules and of ``perfbench/``.  The re-exports in
``__init__.py`` and the uses in ``tests/`` do not count, so code that only
tests reach is flagged here and belongs in ``tests/reference.py``.

The test modules themselves import no name they never load, and no library
module uses ``functools.cached_property``: on Python 3.11 it takes a lock on
every first access, where ``finset._lazy`` takes none.  Nor does the library
keep anything between calls: a suite run or a JSON round trip leaves every
module-level table and context variable as it found it.
"""

import ast
import importlib
from contextvars import ContextVar
from pathlib import Path

from polyverse import interchange as io
from polyverse.suites import InstanceGenConfig, run_suite
from test_interchange import _fourfold

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "polyverse"


def _definitions(tree: ast.Module) -> list:
    return [
        stmt.name for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]


def _references(tree: ast.Module) -> set:
    """Names loaded or accessed as attributes in ``tree``; a top-level
    definition's mentions of its own name do not count."""
    found = set()
    for stmt in tree.body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def unreferenced_library_names() -> list:
    """Public top-level library names that neither the library nor the
    benchmark refers to, as ``module.name``, sorted."""
    defined, referenced = {}, set()
    for path in sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent == LIBRARY:
            defined.update({name: f"{path.stem}.{name}" for name in _definitions(tree)})
        referenced |= _references(tree)
    return sorted(qualified for name, qualified in defined.items() if name not in referenced)


def test_every_public_library_name_is_reached_outside_the_tests():
    assert unreferenced_library_names() == []


def test_a_definition_reached_only_by_itself_is_unreferenced():
    tree = ast.parse(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return helper()\n\n"
        "class Node:\n    def copy(self) -> 'Node':\n        return Node()\n"
    )
    assert _definitions(tree) == ["used", "helper", "Node"]
    assert {"helper"} <= _references(tree) and not {"used", "Node"} & _references(tree)


def unused_imports(tree: ast.Module) -> list:
    """Names that ``tree`` binds by an import anywhere but never loads,
    sorted; ``from __future__`` imports do not count."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - loaded)


def test_no_test_module_imports_a_name_it_never_loads():
    dead = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        names = unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if names:
            dead[path.name] = names
    assert dead == {}


def test_an_import_used_only_in_a_string_is_unused():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport random as rnd\nfrom json import dumps, loads\n\n"
        "def f():\n    from math import pi\n    return os.path.join(dumps({}), 'loads', str(pi))\n"
    )
    assert unused_imports(tree) == ["loads", "rnd"]


def cached_property_uses(tree: ast.Module) -> int:
    """How often ``tree`` names ``cached_property``, imported or as an attribute."""
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    names += [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    return names.count("cached_property")


def test_no_library_module_uses_functools_cached_property():
    found = {}
    for path in sorted(LIBRARY.glob("*.py")):
        count = cached_property_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if count:
            found[path.name] = count
    assert found == {}


def test_each_way_of_naming_cached_property_is_found():
    tree = ast.parse(
        "import functools\nfrom functools import cached_property, reduce\n\n"
        "class C:\n    @functools.cached_property\n    def a(self):\n        'Not cached_property.'\n\n"
        "    b = cached_property(len)\n"
    )
    assert cached_property_uses(tree) == 3


def module_state() -> dict:
    """The size of each module-level dict, list and set of the library, and
    the value of each module-level context variable."""
    state = {}
    for path in sorted(LIBRARY.glob("*.py")):
        name = "polyverse" if path.stem == "__init__" else f"polyverse.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                state[name, attr] = len(value)
            elif isinstance(value, ContextVar):
                state[name, attr] = value.get()
    return state


def test_the_library_holds_nothing_between_calls():
    before = module_state()
    rep = run_suite("coherence", InstanceGenConfig(seed=11, count=5, max_set_size=3))
    assert rep.passed and not rep.failed
    P = _fourfold()
    assert io.polynomial_from_json(io.loads(io.dumps(io.polynomial_to_json(P)))) == P
    assert module_state() == before
