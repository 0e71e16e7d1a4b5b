"""Cluster placement with macros held fixed: one interface, two engines.

`force_directed` alternates quadratic wirelength solves with one move of
every cluster down the electrostatic density field; `analytical` runs
Nesterov descent on smoothed wirelength plus a growing penalty on the
energy of that field. Both consume the same inputs and produce an
in-canvas Placement, so the environment swaps engines by config alone.
`spread_movable` is the one run with macros moving too: the analytical
descent over every node the design marks movable, from the canvas centre.

`PlacerConfig` is the contract both engines share: which engine runs
("fd" or "analytical"), its outer-iteration budget and the bin count of the
density grid (at least 2, checked at construction). The analytical
engine stops at the first outer iteration whose overflow is below the
class constant `PlacerConfig.overflow_stop` or strictly above the lowest
overflow of the rows before it; strictly, because from `spread_movable`'s
centre start the first rows can tie while the nodes are still stacked.
Force-directed has no stop rule and runs min(budget,
`force_directed.FIELD_ITERS`) outer iterations. The budget
bounds each pass on its own: an analytical placement runs that
force-directed pass for its start, whose rows it does not return, and then
up to the budget of its own outer iterations. Each engine's step-size and
schedule constants live in its own module.

The stop/trace overflow both engines report is the pure-overlap measure
(density target 1.0): clusters are solid blocks much wider than a bin, so
their interiors pin bin density at 1 and the design's own target would be a
floor no placement can undercut. Proxy evaluation keeps the design target.

Every entry point (`place_clusters`, `spread_movable`, either engine)
starts in `engine_start` and its checks: fixed nodes placed, movable nodes
carrying area. Only the fixed nodes of the start placement are read: the
force-directed engine's first solve sets every movable node. The
analytical engine runs the force-directed iterations first and starts its
descent from their placement, jittered and clamped: the wirelength-driven
start of ePlace (Lu et al., TODAES 2015) and RePlAce (Cheng et al., TCAD
2018). `spread_movable` starts the descent at the jittered canvas centre
instead. Both engines iterate on the movable nodes' (m, 2) centres, in
`DensityGrid.ids` order, not on a `Placement`. `DensityGrid.clamp` is
their one clamp, and each writes its placement once per outer iteration,
for the trace row.

An engine iteration computes only what the next iteration needs. Its trace
row keeps a copy of the placement and computes HPWL and overflow when first
read, so an unread trace costs one copy per iteration; the analytical
engine reads the overflow for its stop rule. What the movable nodes cannot
change is computed once per placement: the `DensityGrid` that holds their
in-canvas bounds and the fixed charge both engines rasterize onto
(`engine_start` builds it; an analytical placement's force-directed start
shares it), and the force-directed engine's pull of the fixed nodes. Both
engines solve the density field and take its gradient with the same two
kernels, `density.solve_density_field` and `density.density_energy_and_grad`.
The force-directed engine's dense system and its eigendecomposition depend
on neither the macros' positions nor the clusters', so they are computed
once per design, on its first placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from ..clustering import ClusteredNetlist
from ..errors import PlacementError
from ..grid import Grid
from ..metrics import density_overflow
from ..netlist import Netlist, Placement, hpwl
from .analytical import descend, run_analytical
from .density import check_bins, density_grid
from .force_directed import run_force_directed

ENGINES = ("fd", "analytical")


@dataclass(frozen=True)
class PlacerConfig:
    engine: str = "analytical"
    max_outer_iters: int = 30
    bins: int = 64
    overflow_stop: ClassVar[float] = 0.10

    def canonical_engine(self) -> str:
        if self.engine not in ENGINES:
            raise PlacementError(f"unknown placer engine '{self.engine}'")
        return self.engine

    def __post_init__(self):
        self.canonical_engine()
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        check_bins(self.bins)


@dataclass(frozen=True, eq=False)
class TraceRow:
    """One outer iteration of either engine, taken after its update. Both
    engines append one row per outer iteration from the first, so a row's
    index in the trace is its 0-based outer iteration.

    lam: the analytical engine's density penalty weight; None for FD. The
    row keeps its own copy of the placement, so mutating the placement an
    engine returns changes no row. `wl` (exact HPWL) and `overflow`
    (pure-overlap density overflow on `grid`, target 1.0, the stop measure)
    are computed when first read and then kept.
    """
    lam: float | None
    netlist: Netlist = field(repr=False)
    placement: Placement = field(repr=False)
    grid: Grid = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "placement", self.placement.copy())

    @cached_property
    def wl(self) -> float:
        return hpwl(self.netlist, self.placement)

    @cached_property
    def overflow(self) -> float:
        return density_overflow(self.netlist, self.placement, self.grid,
                                target_density=1.0)


def engine_start(clustered: ClusteredNetlist, start: Placement, movable: np.ndarray,
                 config: PlacerConfig):
    """The start of either engine: (placement netlist, start placement,
    `DensityGrid` of the fixed charge and the movable boxes' canvas bounds,
    grid of the trace rows). Only the fixed nodes of `start` are read: the
    movable nodes are marked placed, and the engine sets their positions
    before any trace row or gradient reads them.

    Raises `PlacementError` unless `start` places every fixed node and
    every movable node carries area; the latter makes the density grid's
    ids the movable ids, so one (m, 2) centre array serves the clamp, the
    density solve and the wirelength gradient's movable rows.
    """
    pnet = clustered.placement_netlist
    unplaced = ~movable & ~start.placed
    if unplaced.any():
        node = pnet.nodes[int(np.argmax(unplaced))]
        raise PlacementError(f"fixed node '{node.name}' must be placed before the placer runs")
    bare = movable & ~pnet.node_arrays.charge
    if bare.any():
        node = pnet.nodes[int(np.argmax(bare))]
        raise PlacementError(f"movable node '{node.name}' carries no area; "
                             "the placers move only nodes that do")
    placement = start.copy()
    placement.placed[movable] = True
    return (pnet, placement, density_grid(pnet, placement, movable, config.bins),
            Grid.empty(config.bins, config.bins, pnet.canvas_width, pnet.canvas_height))


def movable_cluster_mask(clustered: ClusteredNetlist) -> np.ndarray:
    pnet = clustered.placement_netlist
    movable = np.zeros(pnet.num_nodes, dtype=bool)
    movable[clustered.cluster_to_placement] = True
    return movable


def place_clusters(clustered: ClusteredNetlist, fixed_placement: Placement,
                   config: PlacerConfig):
    """Place clusters with all macros and terminals held fixed.

    `fixed_placement` is in placement-netlist coordinates and must place
    every macro and terminal. Returns (Placement, convergence trace).
    """
    movable = movable_cluster_mask(clustered)
    if config.engine == "analytical":
        return run_analytical(clustered, fixed_placement, movable, config)
    return run_force_directed(clustered, fixed_placement, movable, config)


def spread_movable(clustered: ClusteredNetlist, fixed_placement: Placement,
                   config: PlacerConfig):
    """Analytical run with every movable node moving, macros included:
    macro-spreading mode used as the second comparison method (no grid
    snapping, no masks).

    `fixed_placement` must place the terminals; macro and cluster positions
    are ignored. It always runs the analytical descent, whatever
    `config.engine` names, and reads only `config.max_outer_iters` and
    `config.bins`. The descent starts from the canvas centre, not from
    `run_analytical`'s force-directed pass: from that start the overflow
    is already below `PlacerConfig.overflow_stop`, so the descent would
    stop after one outer iteration.
    """
    movable = clustered.placement_netlist.node_arrays.movable
    pnet, placement, dgrid, eval_grid = engine_start(clustered, fixed_placement, movable, config)
    if not len(dgrid.ids):
        return placement, []
    placement.positions[dgrid.ids] = (pnet.canvas_width / 2, pnet.canvas_height / 2)
    return descend(pnet, placement, dgrid, eval_grid, config)


__all__ = [
    "PlacerConfig",
    "TraceRow",
    "place_clusters",
    "spread_movable",
    "engine_start",
    "movable_cluster_mask",
]
