"""Box-to-bin rasterizer shared by the density metrics, the RUDY congestion
map and the electrostatic density model.

A box's overlap with a grid is the outer product of its overlap with the
columns and its overlap with the rows, so every map sum_i v_i * wy_i (x) wx_i
is one matrix product of the two per-axis overlap matrices:

    (wy * v[:, None]).T @ wx    # wx = axis_overlap(x0, x1, ...), (n, cols)
                                # wy = axis_overlap(y0, y1, ...), (n, rows)

The product sums each bin's contributions in BLAS order, not box order, so
a map matches a per-box `grid[r0:r1, c0:c1] += np.outer(wy, wx)` loop to
rounding, while each overlap length the loop computes is the same float
here. Boxes partly off the grid cover only their on-grid bins. On a grid
of as many rows as columns one `axis_overlap` call gives both matrices.

The matrices are dense, O(boxes x bins) per axis. At the sizes measured
(RUDY: up to 943 nets on a 32 x 32 grid; node maps: up to 164 nodes on
32 x 32 or 64 x 64 bins) the product is faster than listing each
(box, bin) overlap once; a map with many more bins per axis than a box
covers would pay for the zeros.

The cell edges k * cell are built once per (count, cell widths)
(`_cell_edges`), already shaped to broadcast against the (..., n, 1) box
edges: every solve of the density model and every map of one grid reads
the same two read-only arrays. Building them per call (an arange, a
product and two slices) took 2.4 us of a two-axis 64-bin call against
0.1 us for the cached lookup (Xeon, one BLAS thread); a density solve
makes one such call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .netlist import Netlist, Placement


def axis_overlap(lo, hi, cell, count: int) -> np.ndarray:
    """(n, count) overlap length of each interval [lo, hi] with each of
    `count` cells of width `cell` from the origin:
    min(hi, (c+1)*cell) - max(lo, c*cell), clipped at 0.

    `cell` is a float, or a tuple of one width per leading index when `lo`
    and `hi` carry leading axes (hashable: the cell edges are cached per
    (count, cell)). Both axes of a grid of as many rows as columns in one pass are
    `axis_overlap(lo.T, hi.T, cells, count)` for (n, 2) box corners and
    cells = (cell_w, cell_h): the (2, n, count) result holds each axis's
    matrix, contiguous and equal to that axis's own call float for float.

    On the cells floor(lo/cell) .. ceil(hi/cell) - 1 that a per-box loop
    visits, each value is the loop's float. Every other cell holds 0, save
    one case: when lo/cell (hi/cell) rounds to a whole number k while
    k*cell rounds past the edge, the cell the loop skips just outside the
    edge keeps the one-ulp sliver that the rounded edges still overlap."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box edges must be finite")
    lower, upper = _cell_edges(count, cell)
    overlap = np.minimum(hi[..., None], upper, order="C")
    overlap -= np.maximum(lo[..., None], lower)
    return np.maximum(overlap, 0.0, out=overlap)


# Each caller reads one or two geometries per design: a handful per process.
@lru_cache(maxsize=16)
def _cell_edges(count: int, cell) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper edges k * cell and (k + 1) * cell of the `count`
    cells, k = 0 .. count - 1, shaped (1, count), or (len(cell), 1, count)
    for a tuple of widths, to broadcast against (..., n, 1) box edges.
    Built once per (count, cell) and read-only."""
    edges = np.arange(count + 1) * np.asarray(cell)[..., None]
    edges.flags.writeable = False
    return edges[..., None, :-1], edges[..., None, 1:]


def node_boxes(netlist: Netlist, placement: Placement, ids: np.ndarray):
    """(x0, x1, y0, y1) footprints of the given nodes at their centers."""
    arrays = netlist.node_arrays
    half_w = arrays.width[ids] / 2
    half_h = arrays.height[ids] / 2
    x = placement.positions[ids, 0]
    y = placement.positions[ids, 1]
    return x - half_w, x + half_w, y - half_h, y + half_h
