"""Cluster placement with macros held fixed: one interface, two engines.

`force_directed` alternates quadratic wirelength solves with bin-based
spreading; `analytical` runs Nesterov descent on smoothed wirelength plus a
growing electrostatic density penalty. Both consume the same inputs and
produce an in-canvas Placement, so the environment swaps engines by config
alone.

`PlacerConfig` is the contract both engines share: which engine runs, its
outer-iteration budget, the overflow below which the analytical engine
stops (force-directed always runs the full budget), the bin count of the
density grid, and the seed of the start jitter. Each engine's step-size and
schedule constants live in its own module.

The stop/trace overflow both engines report is the pure-overlap measure
(density target 1.0): clusters are solid blocks much wider than a bin, so
their interiors pin bin density at 1 and the design's own target would be a
floor no placement can undercut. Proxy evaluation keeps the design target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..clustering import ClusteredNetlist
from ..errors import PlacementError
from ..netlist import Placement

ENGINE_ALIASES = {
    "fd": "force_directed",
    "force_directed": "force_directed",
    "analytical": "analytical",
}


@dataclass(frozen=True)
class PlacerConfig:
    engine: str = "analytical"
    max_outer_iters: int = 30
    overflow_stop: float = 0.10
    bins: int = 64
    seed: int = 0

    def canonical_engine(self) -> str:
        try:
            return ENGINE_ALIASES[self.engine]
        except KeyError:
            raise PlacementError(f"unknown placer engine '{self.engine}'") from None

    def __post_init__(self):
        self.canonical_engine()
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not (0 < self.overflow_stop < 1):
            raise ValueError(f"overflow_stop must be in (0,1), got {self.overflow_stop}")


@dataclass(frozen=True)
class TraceRow:
    """One outer iteration of either engine, taken after its update.

    iteration: 0-based outer iteration. wl: exact HPWL of the placement.
    overflow: pure-overlap density overflow (target 1.0), the stop measure.
    lam: the analytical engine's density penalty weight; None for FD.
    """
    iteration: int
    wl: float
    overflow: float
    lam: float | None


def initial_positions(clustered: ClusteredNetlist, placement: Placement,
                      movable: np.ndarray, rng: np.random.Generator) -> Placement:
    """Movable nodes without a position start at canvas center + small jitter."""
    pnet = clustered.placement_netlist
    out = placement.copy()
    jitter = 0.01 * min(pnet.canvas_width, pnet.canvas_height)
    for node in pnet.nodes:
        if not movable[node.id]:
            continue
        if not out.placed[node.id]:
            out.positions[node.id] = (
                pnet.canvas_width / 2 + rng.uniform(-jitter, jitter),
                pnet.canvas_height / 2 + rng.uniform(-jitter, jitter),
            )
            out.placed[node.id] = True
    return clamp_in_canvas(pnet, out, movable)


def clamp_in_canvas(pnet, placement: Placement, movable: np.ndarray) -> Placement:
    """Move each movable node's box inside the canvas, in place."""
    arrays = pnet.node_arrays
    for axis, size, extent in ((0, arrays.width, pnet.canvas_width),
                               (1, arrays.height, pnet.canvas_height)):
        lo = size[movable] / 2
        hi = extent - size[movable] / 2
        coord = placement.positions[movable, axis]
        placement.positions[movable, axis] = np.minimum(np.maximum(coord, lo),
                                                        np.maximum(lo, hi))
    return placement


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
    from .analytical import run_analytical
    from .force_directed import run_force_directed

    pnet = clustered.placement_netlist
    for node in pnet.nodes:
        if node.kind != "std_cell" and not fixed_placement.placed[node.id]:
            raise PlacementError(
                f"fixed node '{node.name}' must be placed before cluster placement"
            )
    movable = movable_cluster_mask(clustered)
    engine = config.canonical_engine()
    if engine == "analytical":
        return run_analytical(clustered, fixed_placement, movable, config)
    return run_force_directed(clustered, fixed_placement, movable, config)


def spread_movable(clustered: ClusteredNetlist, fixed_placement: Placement,
                   config: PlacerConfig, movable: np.ndarray | None = None):
    """Analytical run with macros movable too: macro-spreading mode used as
    the second comparison method (no grid snapping, no masks).

    `fixed_placement` must place the terminals; macro and cluster positions
    are ignored and re-seeded at canvas center.
    """
    from .analytical import run_analytical

    pnet = clustered.placement_netlist
    if movable is None:
        movable = np.array([n.movable for n in pnet.nodes])
    cfg = replace(config, engine="analytical")
    start = fixed_placement.copy()
    start.placed[movable] = False
    return run_analytical(clustered, start, movable, cfg)


__all__ = [
    "PlacerConfig",
    "TraceRow",
    "place_clusters",
    "spread_movable",
    "initial_positions",
    "clamp_in_canvas",
    "movable_cluster_mask",
]
