"""Force-directed (quadratic) placement engine.

Alternates (a) an exact quadratic-wirelength solve over the placement
netlist's clique graph with fixed nodes as anchors and (b) a
diffusion-style spreading pass that pushes clusters out of overfull bins.
Spread positions feed back into the next solve as pseudo-anchors whose
weight ramps up over the iterations, the classic fixed-point trick that
keeps spreading from being undone.

Solve. The graph is `Netlist.clique_graph`, built once per design from
`net_csr`: w/(p-1) between every pin pair of a p-pin net, one edge per node
pair. The movable-block Laplacian A (node degrees D on its diagonal, edges
to fixed nodes included) is filled once per placement as a dense matrix,
with array operations over the graph's edges (`_fd_system`).
Iteration `it` of T adds the anchor weights D * t, t = it / T, so its
matrix is D^1/2 (M + t I) D^1/2 with M = D^-1/2 A D^-1/2 fixed.
`_spectrum` eigendecomposes M once, M = Q diag(lam) Q^T, and every
iteration's solve (`spsolve`) is exact:

    x = D^-1/2 Q ((Q^T D^-1/2 rhs) / (lam + t))

A group of clusters with no path to a fixed node (a lone cluster on no net
is the smallest) has a zero eigenvalue, so its system is singular at t = 0.
Such a group is anchored with a weight that does not ramp: D * max(t, 1),
where an isolated cluster's D counts as 1. It is diagonalised on its own,
so that its shift never mixes with the anchored clusters' modes.

Spreading. One `DensityGrid` per placement holds the raster of the fixed
macros; each iteration adds only the clusters onto it through
`density.charge_raster`, the helper the electrostatic engine's solve uses,
which gives `rasterize_area`'s raster to rounding. The blurred overflow's
gradient is read only at the clusters' bins. The trace rows the engine
appends are never read here: their HPWL and overflow cost nothing unless a
caller reads them.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from ..clustering import ClusteredNetlist
from ..netlist import Placement
from .density import DensityGrid, charge_raster


def _blur(a: np.ndarray, passes: int = 2) -> np.ndarray:
    """Mean of each bin and its four neighbours, `passes` times, with the
    edge replicated."""
    rows, cols = a.shape
    padded = np.empty((rows + 2, cols + 2))
    out = a
    for _ in range(passes):
        # Edge rows and columns replicated; the stencil reads no corner.
        padded[1:-1, 1:-1] = out
        padded[0, 1:-1] = out[0]
        padded[-1, 1:-1] = out[-1]
        padded[1:-1, 0] = out[:, 0]
        padded[1:-1, -1] = out[:, -1]
        out = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
            + padded[1:-1, 2:] + padded[1:-1, 1:-1]
        ) / 5.0
    return out


def _gradient_at(field: np.ndarray, r: np.ndarray, c: np.ndarray,
                 cell_h: float, cell_w: float):
    """`np.gradient(field, cell_h, cell_w)` read at bins (r, c): central
    differences inside, one-sided ones on the edges."""
    rows, cols = field.shape
    r0, r1 = np.maximum(r - 1, 0), np.minimum(r + 1, rows - 1)
    c0, c1 = np.maximum(c - 1, 0), np.minimum(c + 1, cols - 1)
    gy = (field[r1, c] - field[r0, c]) / np.where(r1 - r0 == 2, 2.0 * cell_h, cell_h)
    gx = (field[r, c1] - field[r, c0]) / np.where(c1 - c0 == 2, 2.0 * cell_w, cell_w)
    return gy, gx


def _spread_once(pnet, placement, grid: DensityGrid):
    """Displace the grid's movable ids down the blurred overflow gradient,
    in place."""
    rows = cols = grid.bins
    cell_w, cell_h = grid.bin_w, grid.bin_h
    area = charge_raster(pnet, placement, grid)[0]
    cell_area = cell_w * cell_h
    # Overlap pressure only (density above 1.0): the design target is not
    # reachable per-bin for solid clusters wider than a bin.
    over = np.maximum(0.0, area / cell_area - 1.0)
    if over.max() <= 0:
        return placement
    field = _blur(over, passes=2)
    ids = grid.ids
    x = placement.positions[ids, 0]
    y = placement.positions[ids, 1]
    c = np.clip(np.trunc(x / cell_w), 0, cols - 1).astype(np.int64)
    r = np.clip(np.trunc(y / cell_h), 0, rows - 1).astype(np.int64)
    f = field[r, c]
    fy, fx = _gradient_at(field, r, c, cell_h, cell_w)
    push = f > 0
    scale = np.minimum(f / max(pnet.target_density, 1e-9), 2.0)
    placement.positions[ids, 0] = np.where(
        push, x - fx / (np.abs(fx) + 1e-12) * scale * cell_w, x)
    placement.positions[ids, 1] = np.where(
        push, y - fy / (np.abs(fy) + 1e-12) * scale * cell_h, y)
    return placement


def _fd_system(graph, movable_ids: np.ndarray, positions: np.ndarray):
    """Linear system of the quadratic solve over the movable nodes.

    Returns (A, diag, fixed_rhs, pinned): the dense (m, m) movable-block
    Laplacian with the node degrees on its diagonal, the degrees, the
    (m, 2) pull of the fixed neighbours, and which movable nodes have a
    fixed neighbour. Degrees and pulls sum in graph-edge order; edges
    between two fixed nodes contribute nothing. The graph has no parallel
    edges or self-loops, so every off-diagonal entry is one edge's weight,
    negated.
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
    a, b = li[both], lj[both]
    A = np.zeros((m, m))
    A[a, b] = A[b, a] = -w[both]
    A[k, k] = diag
    pinned = np.bincount(to, minlength=m) > 0
    return A, diag, fixed_rhs, pinned


class Spectrum(NamedTuple):
    """The FD system of one placement, diagonalised: at t it is A plus
    `anchor_weights(t)` on the diagonal, and it equals
    B^1/2 Q diag(vals + max(t, floor)) Q^T B^1/2 with B = `base`. Q is
    orthogonal and block-diagonal over the anchored and the other
    clusters; column k holds a mode of node k's block."""
    base: np.ndarray  # (m,) anchor-weight scale: the degree, 1 where it is 0
    floor: np.ndarray  # (m,) 1 on clusters with no path to a fixed node, else 0
    left: np.ndarray  # (m, m) B^-1/2 Q
    right: np.ndarray  # (m, m) Q^T B^-1/2
    vals: np.ndarray  # (m,) eigenvalues of B^-1/2 A B^-1/2, one per column of Q

    def anchor_weights(self, t: float) -> np.ndarray:
        return self.base * np.maximum(t, self.floor)


def _spectrum(A: np.ndarray, diag: np.ndarray, pinned: np.ndarray) -> Spectrum:
    """Eigendecompose B^-1/2 A B^-1/2 (B = `Spectrum.base`) once, in one
    block for the clusters a fixed node anchors and one for the rest."""
    linked = A != 0.0
    anchored = pinned
    while True:  # grow the anchored set by one edge until it stops growing
        grown = anchored | linked[:, anchored].any(axis=1)
        if (grown == anchored).all():
            break
        anchored = grown
    floor = np.where(anchored, 0.0, 1.0)
    base = np.where(diag > 0, diag, 1.0)
    scale = 1.0 / np.sqrt(base)
    normalised = scale[:, None] * A * scale[None, :]
    left = np.zeros_like(normalised)
    vals = np.empty(len(base))
    for nodes in (np.flatnonzero(anchored), np.flatnonzero(~anchored)):
        block = np.ix_(nodes, nodes)
        vals[nodes], vecs = np.linalg.eigh(normalised[block])
        left[block] = scale[nodes, None] * vecs
    return Spectrum(base, floor, left, np.ascontiguousarray(left.T), vals)


def spsolve(spectrum: Spectrum, rhs: np.ndarray, t: float) -> np.ndarray:
    """Solution x of (A + diag(spectrum.anchor_weights(t))) x = rhs, for an
    (m, 2) right-hand side. The name is the solve's span in the benchmark's
    per-layer trace (`placer.force_directed.spsolve`)."""
    shifted = spectrum.vals + np.maximum(t, spectrum.floor)
    return spectrum.left @ ((spectrum.right @ rhs) / shifted[:, None])


def run_force_directed(clustered: ClusteredNetlist, start: Placement,
                       movable: np.ndarray, config):
    from . import TraceRow, clamp_in_canvas, engine_start

    pnet, bounds, placement, grid, eval_grid = engine_start(clustered, start, movable, config)
    if not len(bounds.ids):
        return placement, []

    movable_ids = bounds.ids
    m = len(movable_ids)
    A, diag, fixed_rhs, pinned = _fd_system(pnet.clique_graph, movable_ids,
                                            placement.positions)
    spectrum = _spectrum(A, diag, pinned)
    floating = spectrum.floor > 0
    if floating.any():
        names = [pnet.nodes[int(movable_ids[k])].name for k in np.flatnonzero(floating)]
        warnings.warn(
            f"clusters with no connectivity to a fixed node anchored at canvas center: {names}",
            stacklevel=2,
        )

    center = np.array([pnet.canvas_width / 2, pnet.canvas_height / 2])
    trace = []
    anchors = np.tile(center, (m, 1))
    T = config.max_outer_iters
    for it in range(T):
        t = it / T
        rhs = fixed_rhs + spectrum.anchor_weights(t)[:, None] * anchors
        # In place: the rows of `trace` hold their own copies.
        placement.positions[movable_ids] = spsolve(spectrum, rhs, t)
        placement = clamp_in_canvas(placement, bounds)

        placement = _spread_once(pnet, placement, grid)
        placement = clamp_in_canvas(placement, bounds)
        anchors = placement.positions[movable_ids].copy()
        trace.append(TraceRow(iteration=it, lam=None, netlist=pnet,
                              placement=placement, grid=eval_grid))
    return placement, trace
