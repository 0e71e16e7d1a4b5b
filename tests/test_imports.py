"""Import and privacy guards over the `macroplace` modules.

Every name a module imports is referenced in that module. No linter ships
with the project, so this is the guard against imports left behind by a
refactor. A name listed in the module's `__all__` counts as referenced (it
is re-exported).

No module reaches into another object's private names: it reads
`<expr>._name` only when `<expr>` is `self` or `cls`, and it imports no
`_name`. Dunder names are public.

Every public function, class, method and annotated class field of
`macroplace` is read by code in src/ or perfbench/, or is on a short list of
entry points kept on purpose, each with its reason.

Nets reach the program through one CSR pin layout (`Netlist.net_csr`): only
a short list of functions, each with its reason, reads `Net.pins` itself.

A macro's footprint has one rule: only `grid.mask_windows` calls the parts it
is built from, `_axis_offsets` and `_in_canvas`.

The analytical engine runs on position arrays: `placer/analytical.py` calls
neither `Placement` nor one of its class methods.

No module imports scipy, at any depth: the package needs numpy alone.
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
        "from .grid import _axis_offsets, feasibility_mask\n"
        "import pkg._impl\n"
        "class A:\n"
        "    def f(self, env):\n"
        "        self._cache = env._base.__class__\n"
        "        return cls._x, self.__dict__, A._y\n"
    )
    assert private_accesses(source) == [
        ("_axis_offsets", 2), ("pkg._impl", 3), ("_base", 6), ("_y", 7)]


# Census of what the program reads. A public name of `macroplace` is read
# when code in src/ or perfbench/ loads it as an attribute, passes it as a
# keyword, names it in perfbench's traced-function table, or loads it by
# bare name in a module that defines it or imports it with `from ... import`
# (elsewhere a bare name is a local variable that shares the name).
ROOT = PACKAGE.parent.parent
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
TRACE_TABLE = ROOT / "perfbench" / "tracing.py"

# Public names nothing in src/ or perfbench/ reads, kept on purpose.
UNREAD_BY_DESIGN = {
    "agent.baselines.baseline_random":
        "random search, the comparison and gate of ROADMAP items 1-2",
    "agent.baselines.oracle_exhaustive":
        "exact best reward of small designs, the learning gate's reference",
    "agent.network.save_params": "policy checkpoints for the item-2 report",
    "agent.network.load_params": "policy checkpoints for the item-2 report",
    "agent.network.greedy_policy_from_params":
        "scores a trained policy in the item-1 gate and the item-2 report",
    "agent.train.train": "the training loop that ROADMAP item 1 makes learn",
    "placer.spread_movable": "the item-2 stand-in for the academic placers",
    "placer.TraceRow.wl": "the trace's HPWL column (ROADMAP aim 4), read by "
                          "tests and by the item-6 telemetry",
}


def module_name(path):
    """Dotted name of a `macroplace` module below the package, e.g. "placer"."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(p for p in parts if p != "__init__")


def read_names(source, dotted_strings=False):
    """Names the source reads: Attribute loads, call keywords and Name loads
    of the names it defines or imports with `from ... import` (under their
    imported name); with `dotted_strings`, every part of every string
    constant."""
    tree = ast.parse(source)
    known = {}  # bound name -> name it reads
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            known[node.name] = node.name
        elif isinstance(node, ast.ImportFrom):
            known.update((alias.asname or alias.name, alias.name) for alias in node.names)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in known:
                names.add(known[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif (dotted_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.update(node.value.split("."))
    return names


def public_definitions(source):
    """(qualified name, bare name) of each public top-level function and
    class, and of each method and annotated field of a public class."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name


def unread_public_names(modules, read):
    """Sorted `module.qualified name` of each public definition in `modules`
    ({module name: source}) whose bare name is not in `read`."""
    return sorted(f"{module}.{qualified}"
                  for module, source in modules.items()
                  for qualified, name in public_definitions(source)
                  if name not in read)


def test_every_public_name_is_read():
    read = set()
    for path in READERS:
        read |= read_names(path.read_text(), dotted_strings=path == TRACE_TABLE)
    modules = {module_name(path): path.read_text() for path in MODULES}
    assert unread_public_names(modules, read) == sorted(UNREAD_BY_DESIGN)


def test_census_sees_unread_names():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    size: int\n"
        "    label: str\n"
        "    spare: int\n"
        "    def area(self): return self.size\n"
        "    def volume(self): pass\n"
        "    def __len__(self): return 0\n"
        "__all__ = ['unused']\n"
        "used(); Box(label='x').area()\n"
    )
    read = read_names(source)
    assert unread_public_names({"m": source}, read) == [
        "m.Box.spare", "m.Box.volume", "m.unused"]
    table = "TRACED = (('m.volume', 'pkg.m', 'Box.volume'),)\n"
    assert "volume" in read_names(table, dotted_strings=True)
    assert "volume" not in read_names(table)
    # A local variable that shares an unread function's name reads nothing;
    # a from-import, also renamed, reads the imported name.
    reader = (
        "from m import used as run\n"
        "def report(unused):\n"
        "    volume = unused + 1\n"
        "    return run(volume)\n"
    )
    assert unread_public_names({"m": source}, read | read_names(reader)) == [
        "m.Box.spare", "m.Box.volume", "m.unused"]
    assert read_names(reader) == {"used"}


# The functions of src/ that read `Net.pins`; everything else reads the
# pins through `Netlist.net_csr` or the graph built on it.
PINS_READERS = {
    "netlist.Netlist.net_csr": "builds the CSR pin layout every other reader uses",
    "clustering.cluster_std_cells": "rewires each net's pins into the placement "
                                    "netlist's Nets, one pin per touched cluster",
    "bookshelf.write_bookshelf": "writes every pin with its offsets to the .nets file",
}


def scoped_matches(source, match):
    """(qualified name of the enclosing function or class, line) of each
    node for which `match` holds, in source order; "<module>" outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found, key=lambda item: item[1])


def pins_reads(source):
    """(enclosing scope, line) of each `<expr>.pins` load, in source order."""
    return scoped_matches(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "pins"
        and isinstance(node.ctx, ast.Load)))


def test_nets_are_read_through_one_layout():
    readers = {f"{module_name(path)}.{scope}"
               for path in MODULES for scope, _line in pins_reads(path.read_text())}
    assert readers == set(PINS_READERS)


def test_pins_guard_sees_reads():
    source = (
        "class Netlist:\n"
        "    def net_csr(self):\n"
        "        return [p for net in self.nets for p in net.pins]\n"
        "def rewire(net, pins):\n"
        "    first = lambda: net.pins[0]\n"
        "    return Net(pins=pins), first\n"
        "net.pins = ()\n"
        "count = len(net.pins)\n"
    )
    assert pins_reads(source) == [("Netlist.net_csr", 3), ("rewire", 5), ("<module>", 8)]


FOOTPRINT_PARTS = {"_axis_offsets", "_in_canvas"}


def footprint_calls(source):
    """(enclosing scope, line) of each call to one of `FOOTPRINT_PARTS`,
    by bare name or as an attribute, in source order."""
    def is_part(func):
        return ((isinstance(func, ast.Name) and func.id in FOOTPRINT_PARTS)
                or (isinstance(func, ast.Attribute) and func.attr in FOOTPRINT_PARTS))

    return scoped_matches(source, lambda node: isinstance(node, ast.Call) and is_part(node.func))


def test_footprint_has_one_rule():
    callers = {f"{module_name(path)}.{scope.split('.')[0]}"
               for path in MODULES for scope, _line in footprint_calls(path.read_text())}
    assert callers == {"grid.mask_windows"}


def test_footprint_guard_sees_calls():
    source = (
        "def mask_windows(rows, cols):\n"
        "    def axis(size):\n"
        "        return _axis_offsets(size, 1.0), _in_canvas\n"
        "    return axis(rows)\n"
        "def place_on_grid(grid, macro):\n"
        "    inside = grid._in_canvas(0.5, macro.width, 1.0)\n"
        "    return inside and _axis_offsets(macro.height, 1.0)\n"
        "_in_canvas(0.0, 1.0, 1.0)\n"
    )
    assert footprint_calls(source) == [
        ("mask_windows.axis", 3), ("place_on_grid", 6), ("place_on_grid", 7), ("<module>", 8)]


def placement_constructions(source):
    """Lines of the calls to `Placement`, `<module>.Placement` or a method
    of either (such as `Placement.empty`), in source order."""
    def is_placement(node):
        return ((isinstance(node, ast.Name) and node.id == "Placement")
                or (isinstance(node, ast.Attribute) and node.attr == "Placement"))

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            is_placement(node.func)
            or (isinstance(node.func, ast.Attribute) and is_placement(node.func.value))))


@pytest.mark.parametrize("engine", ["analytical", "force_directed"])
def test_engine_builds_no_placement(engine):
    source = (PACKAGE / "placer" / f"{engine}.py").read_text()
    assert placement_constructions(source) == []


def test_placement_guard_sees_constructions():
    source = (
        "def start(start: Placement) -> Placement:\n"
        "    a = Placement(x, placed)\n"
        "    b = Placement.empty(3)\n"
        "    c = netlist.Placement(x, placed)\n"
        "    d = netlist.Placement.empty(3)\n"
        "    return placement.copy(), isinstance(a, Placement)\n"
    )
    assert placement_constructions(source) == [2, 3, 4, 5]


def scipy_imports(source):
    """Lines of the `import scipy...` and `from scipy... import` statements
    anywhere in the module, in source order."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy"))


def test_no_module_imports_scipy():
    found = {str(path.relative_to(PACKAGE)): scipy_imports(path.read_text()) for path in MODULES}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_scipy_guard_sees_imports_at_any_depth():
    source = (
        "import numpy as np\n"
        "from scipy.fft import dctn\n"
        "import os, scipy.sparse as sp\n"
        "from .density import solve_poisson\n"
        "class Solver:\n"
        "    def solve(self):\n"
        "        from scipy.fft import idctn\n"
        "        return idctn\n"
        "def spectral():\n"
        "    import scipy\n"
        "    return scipy\n"
        "scipyish = lambda: __import__('scipy')\n"
    )
    assert scipy_imports(source) == [2, 3, 7, 10]

