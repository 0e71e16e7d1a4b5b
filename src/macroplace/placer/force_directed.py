"""Force-directed (quadratic) placement engine.

Alternates (a) an exact quadratic-wirelength solve over the clique/star
graph with fixed nodes as anchors and (b) a diffusion-style spreading pass
that pushes clusters out of overfull bins. Spread positions feed back into
the next solve as pseudo-anchors whose weight ramps up over the iterations,
the classic fixed-point trick that keeps spreading from being undone.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from ..clustering import ClusteredNetlist, expand_to_graph
from ..grid import Grid
from ..metrics import density_overflow, rasterize_area
from ..netlist import Placement, hpwl


def _blur(a: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap separable 3x3 box blur with edge replication."""
    out = a
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
            + padded[1:-1, 2:] + padded[1:-1, 1:-1]
        ) / 5.0
    return out


def _spread_once(pnet, placement, movable_ids, bins, spread_gain):
    """Displace movables down the blurred overflow gradient."""
    rows = cols = bins
    cell_w = pnet.canvas_width / cols
    cell_h = pnet.canvas_height / rows
    area = rasterize_area(pnet, placement, rows, cols, cell_w, cell_h)
    cell_area = cell_w * cell_h
    # Overlap pressure only (density above 1.0): the design target is not
    # reachable per-bin for solid clusters wider than a bin.
    over = np.maximum(0.0, area / cell_area - 1.0)
    if over.max() <= 0:
        return placement
    field = _blur(over, passes=2)
    gy, gx = np.gradient(field, cell_h, cell_w)
    x = placement.positions[movable_ids, 0]
    y = placement.positions[movable_ids, 1]
    c = np.clip(np.trunc(x / cell_w), 0, cols - 1).astype(np.int64)
    r = np.clip(np.trunc(y / cell_h), 0, rows - 1).astype(np.int64)
    f, fx, fy = field[r, c], gx[r, c], gy[r, c]
    push = f > 0
    scale = spread_gain * np.minimum(f / max(pnet.target_density, 1e-9), 2.0)
    out = placement.copy()
    out.positions[movable_ids, 0] = np.where(
        push, x - fx / (np.abs(fx) + 1e-12) * scale * cell_w, x)
    out.positions[movable_ids, 1] = np.where(
        push, y - fy / (np.abs(fy) + 1e-12) * scale * cell_h, y)
    return out


def run_force_directed(clustered: ClusteredNetlist, start: Placement,
                       movable: np.ndarray, config):
    from . import TraceRow, clamp_in_canvas, initial_positions

    pnet = clustered.placement_netlist
    rng = np.random.default_rng(config.seed)
    placement = initial_positions(clustered, start, movable, rng)
    movable_ids = np.flatnonzero(movable)
    if len(movable_ids) == 0:
        return placement, []

    graph = expand_to_graph(clustered, config.graph_model)
    n = pnet.num_nodes
    idx_of = {int(nid): k for k, nid in enumerate(movable_ids)}
    m = len(movable_ids)

    # Assemble the movable-block Laplacian and fixed-anchor contributions.
    diag = np.zeros(m)
    off_entries = {}
    fixed_w = [[] for _ in range(m)]  # (weight, fixed node id)
    for i, j, w in zip(graph.edges_i, graph.edges_j, graph.weights):
        i, j, w = int(i), int(j), float(w)
        mi, mj = idx_of.get(i), idx_of.get(j)
        if mi is not None and mj is not None:
            diag[mi] += w
            diag[mj] += w
            key = (mi, mj) if mi < mj else (mj, mi)
            off_entries[key] = off_entries.get(key, 0.0) - w
        elif mi is not None:
            diag[mi] += w
            fixed_w[mi].append((w, j))
        elif mj is not None:
            diag[mj] += w
            fixed_w[mj].append((w, i))

    isolated = diag == 0.0
    if isolated.any():
        names = [pnet.nodes[int(movable_ids[k])].name for k in np.flatnonzero(isolated)]
        warnings.warn(
            f"clusters with no connectivity anchored at canvas center: {names}",
            stacklevel=2,
        )

    center = np.array([pnet.canvas_width / 2, pnet.canvas_height / 2])
    base_strength = np.where(diag > 0, diag, 1.0)  # per-node anchor scale

    fixed_rhs = np.zeros((m, 2))
    for k in range(m):
        for w, j in fixed_w[k]:
            fixed_rhs[k] += w * placement.positions[j]

    off_rows = []
    off_cols = []
    off_vals = []
    for (a, b), w in off_entries.items():
        off_rows += [a, b]
        off_cols += [b, a]
        off_vals += [w, w]

    eval_grid = Grid.empty(config.bins, config.bins,
                           pnet.canvas_width, pnet.canvas_height)
    trace = []
    anchors = np.tile(center, (m, 1))
    T = max(config.max_outer_iters, 1)
    for it in range(T):
        ramp = config.anchor_gain * it / T
        anchor_w = base_strength * ramp
        anchor_w = np.where(isolated, np.maximum(anchor_w, 1.0), anchor_w)
        rhs = fixed_rhs + anchor_w[:, None] * anchors
        A = csr_matrix(
            (off_vals + list(diag + anchor_w),
             (off_rows + list(range(m)), off_cols + list(range(m)))),
            shape=(m, m),
        )
        sol = spsolve(A, rhs)
        sol = np.atleast_2d(sol)
        placement = placement.copy()
        placement.positions[movable_ids] = sol
        placement.placed[movable_ids] = True
        placement = clamp_in_canvas(pnet, placement, movable)

        placement = _spread_once(pnet, placement, movable_ids, config.bins,
                                 config.spread_gain)
        placement = clamp_in_canvas(pnet, placement, movable)
        anchors = placement.positions[movable_ids].copy()

        overflow = density_overflow(pnet, placement, eval_grid, target_density=1.0)
        trace.append(TraceRow(iteration=it, wl=hpwl(pnet, placement), energy=None,
                              overflow=overflow, lam=None))
    return placement, trace
