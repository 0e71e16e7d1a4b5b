"""Import and privacy guards over the `macroplace` modules.

Every name a module imports is referenced in that module. No linter ships
with the project, so this is the guard against imports left behind by a
refactor. A name listed in the module's `__all__` counts as referenced (it
is re-exported).

No module reaches into another object's private names: it reads
`<expr>._name` only when `<expr>` is `self` or `cls`, and it imports no
`_name`. Dunder names are public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macroplace"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def referenced_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = referenced_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_and_reexported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "def f():\n"
        "    from math import pi\n"
        "    return parse\n"
        "__all__ = ['dumps']\n"
    )
    assert unused_imports(source) == [("os", 2), ("pi", 5)]


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_accesses(source):
    """(name, line) for every `<expr>._name` outside self/cls and every
    imported `_name`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if any(is_private(part) for part in alias.name.split(".")):
                    found.append((alias.name, node.lineno))
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_private_access(path):
    assert private_accesses(path.read_text()) == []


def test_guard_sees_private_access():
    source = (
        "from __future__ import annotations\n"
        "from .grid import _footprint_offsets, feasibility_mask\n"
        "import pkg._impl\n"
        "class A:\n"
        "    def f(self, env):\n"
        "        self._cache = env._base.__class__\n"
        "        return cls._x, self.__dict__, A._y\n"
    )
    assert private_accesses(source) == [
        ("_footprint_offsets", 2), ("pkg._impl", 3), ("_base", 6), ("_y", 7)]
