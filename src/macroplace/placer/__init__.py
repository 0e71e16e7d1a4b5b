"""Cluster placement with macros held fixed: one interface, two engines.

`force_directed` alternates quadratic wirelength solves with bin-based
spreading; `analytical` runs Nesterov descent on smoothed wirelength plus a
growing electrostatic density penalty. Both consume the same inputs and
produce an in-canvas Placement, so the environment swaps engines by config
alone. `spread_movable` is the one run with macros moving too: the
analytical engine over every node the design marks movable.

`PlacerConfig` is the contract both engines share: which engine runs
("fd" or "analytical"), its outer-iteration budget and the bin count of the
density grid (at least 2, checked at construction). The start jitter is
drawn from a fixed seed: force-directed overwrites every movable
position in its first solve, so only the analytical engine's start depends
on it. The overflow below which the analytical engine stops
(force-directed always runs the full budget) is the class constant
`PlacerConfig.overflow_stop`. Each engine's step-size and schedule
constants live in its own module.

The stop/trace overflow both engines report is the pure-overlap measure
(density target 1.0): clusters are solid blocks much wider than a bin, so
their interiors pin bin density at 1 and the design's own target would be a
floor no placement can undercut. Proxy evaluation keeps the design target.

Every entry point (`place_clusters`, `spread_movable`, either engine)
starts in `engine_start` and its checks: fixed nodes placed, movable nodes
carrying area. Only the fixed nodes of the start placement are read: every
movable node starts at the jittered canvas centre. Both engines then
iterate on arrays, not on a `Placement`: FD on the movable nodes' (m, 2)
centres, the analytical engine on (N, 2) node centres. `DensityGrid.clamp`
is their one clamp, and each writes its placement once per outer iteration,
for the trace row.

An engine iteration computes only what the next iteration needs. Its trace
row keeps a copy of the placement and computes HPWL and overflow when first
read, so an unread trace costs one copy per iteration; the analytical
engine reads the overflow for its stop rule. What the movable nodes cannot
change is computed once per placement: the `DensityGrid` that holds their
in-canvas bounds and the fixed charge both engines rasterize onto
(`engine_start` builds it, with the start positions both engines share),
and the force-directed engine's pull of the fixed nodes. The force-directed
engine's dense system and its eigendecomposition depend on neither the
macros' positions nor the clusters', so they are computed once per design,
on its first placement.
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
from .analytical import run_analytical
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
    """One outer iteration of either engine, taken after its update.

    iteration: 0-based outer iteration. lam: the analytical engine's density
    penalty weight; None for FD. The row keeps its own copy of the
    placement, so mutating the placement an engine returns changes no row.
    `wl` (exact HPWL) and `overflow` (pure-overlap density overflow on
    `grid`, target 1.0, the stop measure) are computed when first read and
    then kept.
    """
    iteration: int
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
    """The start both engines share: (placement netlist, start placement,
    `DensityGrid` of the fixed charge and the movable boxes' canvas bounds,
    grid of the trace rows). Only the fixed nodes of `start` are read:
    every movable node starts at canvas center plus a jitter of 1 % of the
    shorter canvas side (one draw per node and axis from
    `np.random.default_rng(0)`), with its box clamped into the canvas.

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
    ids = np.flatnonzero(movable)
    placement = start.copy()
    jitter = 0.01 * min(pnet.canvas_width, pnet.canvas_height)
    rng = np.random.default_rng(0)
    center = np.array([pnet.canvas_width / 2, pnet.canvas_height / 2])
    placement.positions[ids] = center + rng.uniform(-jitter, jitter, size=(len(ids), 2))
    placement.placed[ids] = True
    grid = density_grid(pnet, placement, movable, config.bins)
    placement.positions[ids] = grid.clamp(placement.positions[ids])
    return (pnet, placement, grid,
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
    are ignored and re-seeded at canvas center. It always runs the
    analytical engine, whatever `config.engine` names, and reads only
    `config.max_outer_iters` and `config.bins`.
    """
    movable = clustered.placement_netlist.node_arrays.movable
    return run_analytical(clustered, fixed_placement, movable, config)


__all__ = [
    "PlacerConfig",
    "TraceRow",
    "place_clusters",
    "spread_movable",
    "engine_start",
    "movable_cluster_mask",
]
