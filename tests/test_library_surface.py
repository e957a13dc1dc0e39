"""The library holds only what the library itself or the benchmark reaches.

Every public top-level function and class of ``src/polyverse`` must be
referenced by name somewhere other than its own definition, and every public
method of a library class must be read as an attribute somewhere other than
its own body.  References are read from the syntax tree (names and attribute
accesses, not docstrings or comments) of the library modules and of
``perfbench/``.  A method is found by its name alone, so a name that several
classes define (``identity``, ``inverse``) counts as reached for all of them
once any one is read.  The re-exports in ``__init__.py`` and the uses in
``tests/`` do not count, so code that only tests reach is flagged here and
belongs in ``tests/reference.py``.

The test modules themselves import no name they never load, and no library
module uses ``functools.cached_property``: on Python 3.11 it takes a lock on
every first access, where ``finset._lazy`` takes none.  No library module
imports ``dataclasses``, whose decoration builds methods with ``exec`` at
import; the value classes are ``finset._Record``s.  Two tests are process
tests: a fresh interpreter imports ``polyverse`` and finds neither
``dataclasses`` nor ``inspect``, and neither ``typing`` nor ``re`` (which
``typing`` imports), in ``sys.modules``.  Nor does the library
keep anything between calls: a suite run or a JSON round trip leaves every
module-level table and context variable as it found it.  Its only context
variable is the scope of a check, ``finset._SCOPE``; the tables of one
``interchange`` conversion are its arguments.
"""

import ast
import importlib
import subprocess
import sys
from collections import Counter
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


def _sources():
    """Each library module but ``__init__.py``, then each benchmark module,
    as ``(path, syntax tree)``."""
    for path in sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced_library_names() -> list:
    """Public top-level library names that neither the library nor the
    benchmark refers to, as ``module.name``, sorted."""
    defined, referenced = {}, set()
    for path, tree in _sources():
        if path.parent == LIBRARY:
            defined.update({name: f"{path.stem}.{name}" for name in _definitions(tree)})
        referenced |= _references(tree)
    return sorted(qualified for name, qualified in defined.items() if name not in referenced)


def _attribute_reads(tree) -> Counter:
    """How often each attribute name is accessed in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _methods(tree: ast.Module):
    """Each public method of a top-level class, as ``(class, method,
    accesses of its name within its own body)``."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield cls.name, fn.name, _attribute_reads(fn)[fn.name]


def unreached_library_methods() -> list:
    """Public methods of library classes whose name the library and the
    benchmark read as an attribute only within the method itself, as
    ``module.Class.method``, sorted."""
    methods, reads = [], Counter()
    for path, tree in _sources():
        if path.parent == LIBRARY:
            methods += [(f"{path.stem}.{cls}.{name}", name, own) for cls, name, own in _methods(tree)]
        reads += _attribute_reads(tree)
    return sorted(qualified for qualified, name, own in methods if reads[name] <= own)


def test_every_public_library_name_is_reached_outside_the_tests():
    assert unreferenced_library_names() == []


def test_every_public_library_method_is_reached_outside_the_tests():
    assert unreached_library_methods() == []


def test_a_method_read_only_in_its_own_body_is_unreached():
    tree = ast.parse(
        "class Node:\n"
        "    def walk(self):\n        return [self] + self.walk()\n\n"
        "    def size(self):\n        return len(self.walk())\n\n"
        "    def _private(self):\n        return 0\n\n"
        "def depth(node):\n    return node.size()\n"
    )
    assert list(_methods(tree)) == [("Node", "walk", 1), ("Node", "size", 0)]
    assert _attribute_reads(tree)["walk"] == 2 and _attribute_reads(tree)["size"] == 1


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


def imported_modules(tree: ast.Module) -> set:
    """The top-level names of the modules that ``tree`` imports by absolute name."""
    found = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return found | {
        node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level
    }


def test_no_library_module_imports_dataclasses():
    tree = ast.parse("import dataclasses as dc\n\ndef f():\n    from dataclasses import field\n    from .finset import FinSet\n")
    assert imported_modules(tree) == {"dataclasses"}
    found = [
        path.name for path in sorted(LIBRARY.glob("*.py"))
        if "dataclasses" in imported_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []


def modules_loaded_by_import(*names) -> list:
    """Which of ``names`` a fresh interpreter has loaded after ``import
    polyverse``.  It runs with ``-S``: no site hooks, which may import any of
    them themselves."""
    script = (
        f"import sys\nsys.path.insert(0, {str(LIBRARY.parent)!r})\nimport polyverse\n"
        f"print(*sorted({set(names)!r} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_polyverse_imports_neither_dataclasses_nor_inspect():
    assert modules_loaded_by_import("dataclasses", "inspect") == []


def test_importing_polyverse_imports_neither_typing_nor_re():
    assert modules_loaded_by_import("typing", "re") == []


def module_values():
    """Each module-level ``(module, name, value)`` of the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        name = "polyverse" if path.stem == "__init__" else f"polyverse.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            yield name, attr, value


def module_state() -> dict:
    """The size of each module-level dict, list and set of the library, and
    the value of each module-level context variable."""
    state = {}
    for name, attr, value in module_values():
        if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
            state[name, attr] = len(value)
        elif isinstance(value, ContextVar):
            state[name, attr] = value.get()
    return state


def test_a_check_runs_in_one_context_variable():
    # the cap and the build table are one scope; ``interchange`` passes the
    # tables of one conversion as arguments
    found = {(name, attr) for name, attr, value in module_values() if isinstance(value, ContextVar)}
    assert found == {("polyverse.finset", "_SCOPE")}


def test_the_library_holds_nothing_between_calls():
    before = module_state()
    rep = run_suite("coherence", InstanceGenConfig(seed=11, count=5, max_set_size=3))
    assert rep.passed and not rep.failed
    P = _fourfold()
    assert io.polynomial_from_json(io.loads(io.dumps(io.polynomial_to_json(P)))) == P
    assert module_state() == before
