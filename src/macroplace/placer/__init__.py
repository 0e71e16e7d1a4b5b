"""Cluster placement with macros held fixed: one interface, two engines.

`force_directed` alternates quadratic wirelength solves with bin-based
spreading; `analytical` runs Nesterov descent on smoothed wirelength plus a
growing electrostatic density penalty. Both consume the same inputs and
produce an in-canvas Placement, so the environment swaps engines by config
alone.

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
    # analytical engine
    gamma: float | None = None  # microns; None -> 4x mean bin dimension
    gamma_anneal: float = 0.8
    gamma_floor_factor: float = 0.5  # floor = factor x mean bin dimension
    lambda_growth: float = 2.0
    inner_iters: int = 20
    backtrack_limit: int = 8
    fallback_step_frac: float = 1e-2  # of the canvas diagonal
    # force-directed engine
    anchor_gain: float = 1.0
    spread_gain: float = 1.0
    seed: int = 0

    def canonical_engine(self) -> str:
        try:
            return ENGINE_ALIASES[self.engine]
        except KeyError:
            raise PlacementError(f"unknown placer engine '{self.engine}'") from None

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not (0 < self.overflow_stop < 1):
            raise ValueError(f"overflow_stop must be in (0,1), got {self.overflow_stop}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")


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
