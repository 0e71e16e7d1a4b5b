"""Force-directed (quadratic) placement engine.

Alternates (a) an exact quadratic-wirelength solve over the design's clique
graph (`ClusteredNetlist.graph`) with fixed nodes as anchors and (b) a
diffusion-style spreading pass that pushes clusters out of overfull bins.
Spread positions feed back into the next solve as pseudo-anchors whose
weight ramps up over the iterations, the classic fixed-point trick that
keeps spreading from being undone.

The linear system is assembled once per placement, with array operations
over the graph's edges (`_fd_system`); each iteration rewrites only the
diagonal of its CSR matrix, where the anchor weights enter. The trace rows
it appends are never read here: their HPWL and overflow cost nothing
unless a caller reads them.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from ..clustering import ClusteredNetlist
from ..grid import Grid
from ..metrics import rasterize_area
from ..netlist import Placement


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


def _spread_once(pnet, placement, movable_ids, bins):
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
    scale = np.minimum(f / max(pnet.target_density, 1e-9), 2.0)
    out = placement.copy()
    out.positions[movable_ids, 0] = np.where(
        push, x - fx / (np.abs(fx) + 1e-12) * scale * cell_w, x)
    out.positions[movable_ids, 1] = np.where(
        push, y - fy / (np.abs(fy) + 1e-12) * scale * cell_h, y)
    return out


def _fd_system(graph, movable_ids: np.ndarray, positions: np.ndarray):
    """Linear system of the quadratic solve over the movable nodes.

    Returns (A, diag_pos, diag, fixed_rhs): the movable-block Laplacian as
    canonical CSR with the node degrees on its diagonal, the positions of
    that diagonal in `A.data`, the degrees, and the (m, 2) pull of the fixed
    neighbours. Degrees and pulls sum in graph-edge order; edges between two
    fixed nodes contribute nothing.
    """
    m = len(movable_ids)
    k = np.arange(m)
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    local[movable_ids] = k
    li, lj, w = local[graph.edges_i], local[graph.edges_j], graph.weights

    # Interleaved (i, j) ends, so each node's degree sums its edges in order.
    ends = np.stack([li, lj], axis=1).ravel()
    on_movable = ends >= 0
    diag = np.bincount(ends[on_movable], weights=np.repeat(w, 2)[on_movable],
                       minlength=m)

    mixed = (li >= 0) != (lj >= 0)
    to = np.where(li >= 0, li, lj)[mixed]
    fixed = np.where(li >= 0, graph.edges_j, graph.edges_i)[mixed]
    pull = w[mixed, None] * positions[fixed]
    fixed_rhs = np.stack([np.bincount(to, weights=pull[:, axis], minlength=m)
                          for axis in (0, 1)], axis=1)

    both = (li >= 0) & (lj >= 0)
    a, b, off = li[both], lj[both], -w[both]
    A = csr_matrix((np.concatenate([off, off, diag]),
                    (np.concatenate([a, b, k]), np.concatenate([b, a, k]))),
                   shape=(m, m))
    diag_pos = np.flatnonzero(A.indices == np.repeat(k, np.diff(A.indptr)))
    return A, diag_pos, diag, fixed_rhs


def run_force_directed(clustered: ClusteredNetlist, start: Placement,
                       movable: np.ndarray, config):
    from . import TraceRow, canvas_bounds, clamp_in_canvas, initial_positions

    pnet = clustered.placement_netlist
    rng = np.random.default_rng(config.seed)
    bounds = canvas_bounds(pnet, movable)
    placement = initial_positions(clustered, start, bounds, rng)
    movable_ids = bounds.ids
    if len(movable_ids) == 0:
        return placement, []

    m = len(movable_ids)
    A, diag_pos, diag, fixed_rhs = _fd_system(clustered.graph, movable_ids,
                                              placement.positions)
    isolated = diag == 0.0
    if isolated.any():
        names = [pnet.nodes[int(movable_ids[k])].name for k in np.flatnonzero(isolated)]
        warnings.warn(
            f"clusters with no connectivity anchored at canvas center: {names}",
            stacklevel=2,
        )

    center = np.array([pnet.canvas_width / 2, pnet.canvas_height / 2])
    base_strength = np.where(diag > 0, diag, 1.0)  # per-node anchor scale

    eval_grid = Grid.empty(config.bins, config.bins,
                           pnet.canvas_width, pnet.canvas_height)
    trace = []
    anchors = np.tile(center, (m, 1))
    T = config.max_outer_iters
    for it in range(T):
        anchor_w = base_strength * (it / T)
        anchor_w = np.where(isolated, np.maximum(anchor_w, 1.0), anchor_w)
        rhs = fixed_rhs + anchor_w[:, None] * anchors
        A.data[diag_pos] = diag + anchor_w
        sol = spsolve(A, rhs)
        # In place: the rows of `trace` hold their own copies.
        placement.positions[movable_ids] = np.atleast_2d(sol)
        placement = clamp_in_canvas(placement, bounds)

        placement = _spread_once(pnet, placement, movable_ids, config.bins)
        placement = clamp_in_canvas(placement, bounds)
        anchors = placement.positions[movable_ids].copy()
        trace.append(TraceRow(iteration=it, lam=None, netlist=pnet,
                              placement=placement, grid=eval_grid))
    return placement, trace
