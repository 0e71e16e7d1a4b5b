"""Box-to-bin rasterizer shared by the density metrics, the RUDY congestion
map and the electrostatic density model.

`cover` lists every (box, bin) overlap as one entry: the box index, the
bin's row and column, and the box's overlap length with that column (`wx`)
and row (`wy`); the overlap area is `wx * wy`. Entries are box-major, so
`accumulate` (one `np.bincount`) adds each bin's contributions in box order
and equals a per-box `grid[r0:r1, c0:c1] += np.outer(wy, wx)` loop bit for
bit. Boxes partly off the grid cover only their on-grid bins.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .netlist import Netlist, Placement


class Cover(NamedTuple):
    box: np.ndarray  # (E,) entry -> box index, nondecreasing
    row: np.ndarray  # (E,) bin row
    col: np.ndarray  # (E,) bin column
    wx: np.ndarray  # (E,) overlap of the box's x-span with the column
    wy: np.ndarray  # (E,) overlap of the box's y-span with the row


def _axis_span(lo, hi, cell, count):
    """First covered cell and covered-cell count of each [lo, hi] interval."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box edges must be finite")
    first = np.minimum(np.maximum(np.floor(lo / cell), 0), count).astype(np.int64)
    last = np.minimum(np.maximum(np.ceil(hi / cell) - 1, -1), count - 1).astype(np.int64)
    return first, np.maximum(last - first + 1, 0)


def cover(x0, x1, y0, y1, cell_w: float, cell_h: float, rows: int, cols: int) -> Cover:
    """Overlap entries of boxes [x0, x1] x [y0, y1] with a rows x cols grid
    of cell_w x cell_h bins anchored at the origin."""
    c0, nx = _axis_span(x0, x1, cell_w, cols)
    r0, ny = _axis_span(y0, y1, cell_h, rows)
    per_box = nx * ny
    box = np.repeat(np.arange(len(per_box)), per_box)
    # Position of each entry within its box, walked row-major.
    k = np.arange(len(box)) - np.repeat(np.cumsum(per_box) - per_box, per_box)
    dr, dc = np.divmod(k, nx[box])
    row = r0[box] + dr
    col = c0[box] + dc
    bx0, bx1, by0, by1 = x0[box], x1[box], y0[box], y1[box]
    wx = np.minimum(bx1, (col + 1) * cell_w) - np.maximum(bx0, col * cell_w)
    wy = np.minimum(by1, (row + 1) * cell_h) - np.maximum(by0, row * cell_h)
    return Cover(box, row, col, wx, wy)


def accumulate(entries: Cover, values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) grid holding the per-bin sum of `values`, in entry order."""
    flat = np.bincount(entries.row * cols + entries.col, weights=values,
                       minlength=rows * cols)
    # bincount returns integers when there are no entries at all.
    return flat.astype(np.float64, copy=False).reshape(rows, cols)


def edge_slope(lo, hi, idx, cell):
    """d(overlap of [lo + t, hi + t] with cell idx)/dt: +1 where the upper
    edge lies strictly inside the cell, -1 where the lower edge does."""
    left = idx * cell
    right = (idx + 1) * cell
    return ((hi > left) & (hi < right)).astype(np.float64) - ((lo > left) & (lo < right))


def node_boxes(netlist: Netlist, placement: Placement, ids: np.ndarray):
    """(x0, x1, y0, y1) footprints of the given nodes at their centers."""
    arrays = netlist.node_arrays
    half_w = arrays.width[ids] / 2
    half_h = arrays.height[ids] / 2
    x = placement.positions[ids, 0]
    y = placement.positions[ids, 1]
    return x - half_w, x + half_w, y - half_h, y + half_h
