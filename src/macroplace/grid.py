"""Discretized canvas: macro occupancy tracking and feasibility masks.

Actions address grid cells; a macro placed at cell (row, col) has its center
at that cell's center. A cell belongs to a macro's footprint when the macro's
bounding box overlaps it with positive area (boundary touch does not count).
Only macros occupy the grid; standard-cell clusters never do.

`mask_windows` is the one footprint rule: the feasibility mask,
`place_on_grid` and `lift_from_grid` all take the in-canvas test and the
footprint windows from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PlacementError
from .netlist import Node

# Relative slack for "on the boundary" decisions, so exact-fit fixtures
# (macro width == k cells) are not lost to floating-point noise.
_REL_TOL = 1e-9


@dataclass
class Grid:
    rows: int
    cols: int
    cell_w: float
    cell_h: float
    occupancy: np.ndarray  # (rows, cols) bool, True = covered by a placed macro
    placed_macros: list = field(default_factory=list)  # (node_id, row, col)

    @staticmethod
    def empty(rows: int, cols: int, canvas_width: float, canvas_height: float) -> "Grid":
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and one column")
        return Grid(
            rows=rows,
            cols=cols,
            cell_w=canvas_width / cols,
            cell_h=canvas_height / rows,
            occupancy=np.zeros((rows, cols), dtype=bool),
        )

    @property
    def canvas_width(self) -> float:
        return self.cell_w * self.cols

    @property
    def canvas_height(self) -> float:
        return self.cell_h * self.rows

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return ((col + 0.5) * self.cell_w, (row + 0.5) * self.cell_h)

    def copy(self) -> "Grid":
        return Grid(self.rows, self.cols, self.cell_w, self.cell_h,
                    self.occupancy.copy(), list(self.placed_macros))


def _axis_offsets(size: float, cell: float) -> tuple[int, int]:
    """(lo, hi), lo <= 0 <= hi: a box of `size` centred in cell i of width
    `cell` covers cells i + lo .. i + hi of its axis. A box thinner than the
    boundary tolerance keeps the action cell."""
    tol = _REL_TOL * cell
    lo = math.floor(0.5 - size / (2 * cell) + tol / cell)
    hi = math.ceil(0.5 + size / (2 * cell) - tol / cell) - 1
    return min(lo, 0), max(hi, 0)


def _in_canvas(centre, size: float, extent: float):
    """Whether a box of `size` centred at each of `centre` (an array) lies
    in [0, extent] on one axis, up to the boundary tolerance."""
    tol = _REL_TOL * max(extent, 1.0)
    return (centre - size / 2 >= -tol) & (centre + size / 2 <= extent + tol)


def feasibility_mask(grid: Grid, macro: Node) -> np.ndarray:
    """(rows, cols) bool array of the feasible cells: the box stays inside
    the canvas and covers no occupied cell. An all-false mask is a legal
    result.

    What the occupancy cannot change, the in-canvas cells and each cell's
    footprint window, comes from `mask_windows`; a call counts the occupied
    cells of every window from one summed-area table."""
    inside, r_lo, r_hi, c_lo, c_hi = mask_windows(
        grid.rows, grid.cols, grid.cell_w, grid.cell_h, macro.width, macro.height)
    # Sliding-window occupancy count via a zero-padded summed-area table.
    sat = np.zeros((grid.rows + 1, grid.cols + 1), dtype=np.int64)
    np.cumsum(np.cumsum(grid.occupancy, axis=0), axis=1, out=sat[1:, 1:])
    # Occupied cells per row window and column prefix, then per window.
    strips = sat[r_hi] - sat[r_lo]
    return inside & (strips[:, c_hi] == strips[:, c_lo])


# A design has one footprint per macro size on one or two grid shapes; the
# bound keeps a long-lived process that sees many from growing without end.
@lru_cache(maxsize=256)
def mask_windows(rows: int, cols: int, cell_w: float, cell_h: float,
                 width: float, height: float):
    """(inside, r_lo, r_hi, c_lo, c_hi) of a width x height macro on a rows x
    cols grid of cell_w x cell_h cells. Built once per key and shared: every
    array is read-only.

    inside is the (rows, cols) mask of the cells at which the box stays in
    the canvas. The footprint at (r, c) covers rows r_lo[r] .. r_hi[r] - 1
    and columns c_lo[c] .. c_hi[c] - 1, clipped to the grid. This is the
    module's one footprint rule: `feasibility_mask`, `place_on_grid` and
    `lift_from_grid` all read it."""
    def axis(count, cell, size):
        lo, hi = _axis_offsets(size, cell)
        index = np.arange(count)
        # lo <= 0 <= hi: each window bound is clipped on one side.
        return (_in_canvas((index + 0.5) * cell, size, cell * count),
                np.maximum(index + lo, 0), np.minimum(index + (hi + 1), count))

    inside_r, r_lo, r_hi = axis(rows, cell_h, height)
    inside_c, c_lo, c_hi = axis(cols, cell_w, width)
    windows = (inside_r[:, None] & inside_c[None, :], r_lo, r_hi, c_lo, c_hi)
    for array in windows:
        array.flags.writeable = False
    return windows


def place_on_grid(grid: Grid, macro: Node, row: int, col: int):
    """Place a macro; returns (new grid, continuous center position).

    Raises PlacementError for infeasible cells: it reads the in-canvas test
    and footprint window from `mask_windows`, as the mask does, so every
    cell the mask refuses raises.
    """
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        raise PlacementError(f"cell ({row}, {col}) out of range")
    if any(nid == macro.id for nid, _, _ in grid.placed_macros):
        raise PlacementError(f"macro '{macro.name}' is already placed")

    inside, r_lo, r_hi, c_lo, c_hi = mask_windows(
        grid.rows, grid.cols, grid.cell_w, grid.cell_h, macro.width, macro.height)
    if not inside[row, col]:
        raise PlacementError(
            f"macro '{macro.name}' at ({row}, {col}) leaves the canvas"
        )
    window = slice(r_lo[row], r_hi[row]), slice(c_lo[col], c_hi[col])
    if grid.occupancy[window].any():
        raise PlacementError(
            f"macro '{macro.name}' at ({row}, {col}) overlaps occupied cells"
        )
    out = grid.copy()
    out.occupancy[window] = True
    out.placed_macros.append((macro.id, row, col))
    # The in-canvas test admits a box that overhangs the canvas by up to the
    # boundary tolerance; the clamp moves its centre in by the overhang, so
    # the box ends inside the canvas. Any other box keeps its cell centre.
    cx, cy = grid.cell_center(row, col)
    x = min(max(cx, macro.width / 2), grid.canvas_width - macro.width / 2)
    y = min(max(cy, macro.height / 2), grid.canvas_height - macro.height / 2)
    return out, (x, y)


def lift_from_grid(grid: Grid, macro: Node) -> Grid:
    """Remove a placed macro; returns the new grid. The inverse of
    `place_on_grid`: placing a macro and then lifting it gives back the
    occupancy and `placed_macros` of before.

    Raises PlacementError for a macro the grid does not hold.
    """
    for index, (nid, row, col) in enumerate(grid.placed_macros):
        if nid == macro.id:
            break
    else:
        raise PlacementError(f"macro '{macro.name}' is not placed")
    _, r_lo, r_hi, c_lo, c_hi = mask_windows(
        grid.rows, grid.cols, grid.cell_w, grid.cell_h, macro.width, macro.height)
    out = grid.copy()
    # Placed footprints are disjoint: the window holds this macro alone.
    out.occupancy[r_lo[row]:r_hi[row], c_lo[col]:c_hi[col]] = False
    del out.placed_macros[index]
    return out
