"""Spans around public `macroplace` functions, recorded from outside.

A traced function is replaced by a timing wrapper in every loaded
`macroplace` module that holds it under any name, so a call reaches the
wrapper whichever import site it goes through (for example
`macroplace.placer.analytical.smooth_wl_and_grad` and the definition in
`macroplace.placer.wirelength`). Methods are wrapped on their class. Spans
stay in memory; `layer_stats` derives call counts, inclusive time and self
time (a span's duration minus the part its direct children cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module that defines the function, attribute path). The span
# name is the defining module relative to `macroplace`, so it matches the
# per-layer metric names in BENCHMARK.json.
TRACED = (
    ("bookshelf.parse_bookshelf", "macroplace.bookshelf", "parse_bookshelf"),
    ("clustering.cluster_std_cells", "macroplace.clustering", "cluster_std_cells"),
    ("env.step", "macroplace.env", "MacroPlacementEnv.step"),
    ("env.observation", "macroplace.env", "MacroPlacementEnv.observation"),
    ("grid.feasibility_mask", "macroplace.grid", "feasibility_mask"),
    ("grid.place_on_grid", "macroplace.grid", "place_on_grid"),
    ("placer.place_clusters", "macroplace.placer", "place_clusters"),
    ("placer.force_directed.run_force_directed",
     "macroplace.placer.force_directed", "run_force_directed"),
    ("placer.force_directed.spsolve", "macroplace.placer.force_directed", "spsolve"),
    ("placer.analytical.run_analytical", "macroplace.placer.analytical", "run_analytical"),
    ("placer.wirelength.smooth_wl_and_grad",
     "macroplace.placer.wirelength", "smooth_wl_and_grad"),
    ("placer.density.solve_density_field",
     "macroplace.placer.density", "solve_density_field"),
    ("placer.density.density_energy_and_grad",
     "macroplace.placer.density", "density_energy_and_grad"),
    ("netlist.hpwl", "macroplace.netlist", "hpwl"),
    ("metrics.rasterize_area", "macroplace.metrics", "rasterize_area"),
    ("metrics.density_overflow", "macroplace.metrics", "density_overflow"),
    ("metrics.congestion_map", "macroplace.metrics", "congestion_map"),
    ("metrics.evaluate", "macroplace.metrics", "evaluate"),
    ("agent.baselines.baseline_sim_anneal",
     "macroplace.agent.baselines", "baseline_sim_anneal"),
)


def _patch_everywhere(original, replacement):
    """Rebind `original` to `replacement` wherever a `macroplace` module or
    class holds it; returns the (owner, name) pairs changed."""
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "macroplace" or mod_name.startswith("macroplace.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                changed.append((module, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        changed.append((value, cattr))
    for owner, attr in changed:
        setattr(owner, attr, replacement)
    return changed


def _resolve(module_name, attr_path):
    obj = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def rebind(module_name, attr_path, make_wrapper):
    """Replace the function now bound at `module_name.attr_path` by
    `make_wrapper(function)` at every site that holds it; returns the
    (owner, attribute, original) triples that undo the change."""
    original = _resolve(module_name, attr_path)
    wrapper = make_wrapper(original)
    return [(owner, attr, original)
            for owner, attr in _patch_everywhere(original, wrapper)]


def restore(changes):
    for owner, attr, original in reversed(changes):
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder. Each span is [name, parent index, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, self.clock(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = self.clock()
        return traced

    def __enter__(self):
        """Wrap every TRACED function; leaving the block unwraps them."""
        # Load every defining module first, so no import site is missed.
        for _name, module_name, _attr in TRACED:
            importlib.import_module(module_name)
        for name, module_name, attr_path in TRACED:
            self._restore += rebind(module_name, attr_path,
                                    lambda fn, name=name: self.wrap(name, fn))
        return self

    def __exit__(self, *exc):
        restore(self._restore)
        self._restore = []
        return False


def layer_stats(spans):
    """Per span name: {'calls', 's' (inclusive), 'self_s'}."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, _parent, start, end) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return stats


def has_ancestor(spans, index, names):
    """True if a span above `index` carries one of `names`."""
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False
