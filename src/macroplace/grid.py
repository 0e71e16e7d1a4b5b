"""Discretized canvas: macro occupancy tracking and feasibility masks.

Actions address grid cells; a macro placed at cell (row, col) has its center
at that cell's center. A cell belongs to a macro's footprint when the macro's
bounding box overlaps it with positive area (boundary touch does not count).
Only macros occupy the grid; standard-cell clusters never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _footprint_offsets(grid: Grid, macro: Node):
    """Footprint as constant offsets around the action cell: placing at
    (r, c) covers rows r+dr0..r+dr1 and cols c+dc0..c+dc1. The footprint,
    the feasibility mask and place_on_grid all derive from these offsets.
    A box thinner than the boundary tolerance keeps the action cell."""
    tol_x = _REL_TOL * grid.cell_w
    tol_y = _REL_TOL * grid.cell_h
    wl = 0.5 - macro.width / (2 * grid.cell_w)
    wr = 0.5 + macro.width / (2 * grid.cell_w)
    hl = 0.5 - macro.height / (2 * grid.cell_h)
    hr = 0.5 + macro.height / (2 * grid.cell_h)
    dc0 = math.floor(wl + tol_x / grid.cell_w)
    dc1 = math.ceil(wr - tol_x / grid.cell_w) - 1
    dr0 = math.floor(hl + tol_y / grid.cell_h)
    dr1 = math.ceil(hr - tol_y / grid.cell_h) - 1
    return min(dr0, 0), max(dr1, 0), min(dc0, 0), max(dc1, 0)


def _footprint_window(grid: Grid, macro: Node, row: int, col: int):
    """(row slice, column slice) of the footprint at (row, col), clipped to
    the grid."""
    dr0, dr1, dc0, dc1 = _footprint_offsets(grid, macro)
    return (slice(max(row + dr0, 0), min(row + dr1 + 1, grid.rows)),
            slice(max(col + dc0, 0), min(col + dc1 + 1, grid.cols)))


def footprint(grid: Grid, macro: Node, row: int, col: int) -> frozenset:
    """Cells intersected by the macro's bounding box centered on cell (row, col).

    Only in-range cells are returned; feasibility_mask is responsible for
    rejecting positions whose box leaves the canvas.
    """
    rows, cols = _footprint_window(grid, macro, row, col)
    return frozenset((r, c) for r in range(rows.start, rows.stop)
                     for c in range(cols.start, cols.stop))


def _in_canvas(centre, size: float, extent: float):
    """Whether a box of `size` centred at `centre` (a float or an array)
    lies in [0, extent] on one axis, up to the boundary tolerance."""
    tol = _REL_TOL * max(extent, 1.0)
    return (centre - size / 2 >= -tol) & (centre + size / 2 <= extent + tol)


def feasibility_mask(grid: Grid, macro: Node) -> np.ndarray:
    """(rows, cols) bool array of the feasible cells: the box stays inside
    the canvas and covers no occupied cell. An all-false mask is a legal
    result."""
    col_centers = (np.arange(grid.cols) + 0.5) * grid.cell_w
    row_centers = (np.arange(grid.rows) + 0.5) * grid.cell_h
    inside_c = _in_canvas(col_centers, macro.width, grid.canvas_width)
    inside_r = _in_canvas(row_centers, macro.height, grid.canvas_height)
    inside = inside_r[:, None] & inside_c[None, :]
    if not inside.any():
        return inside

    dr0, dr1, dc0, dc1 = _footprint_offsets(grid, macro)
    # Sliding-window occupancy count via a zero-padded summed-area table.
    sat = np.zeros((grid.rows + 1, grid.cols + 1), dtype=np.int64)
    np.cumsum(np.cumsum(grid.occupancy, axis=0), axis=1, out=sat[1:, 1:])
    # dr0, dc0 <= 0 <= dr1, dc1: each window bound is clipped on one side.
    r = np.arange(grid.rows)
    c = np.arange(grid.cols)
    r_lo, r_hi = np.maximum(r + dr0, 0), np.minimum(r + (dr1 + 1), grid.rows)
    c_lo, c_hi = np.maximum(c + dc0, 0), np.minimum(c + (dc1 + 1), grid.cols)
    # Occupied cells per row window and column prefix, then per window.
    strips = sat[r_hi] - sat[r_lo]
    covered = strips[:, c_hi] - strips[:, c_lo]
    return inside & (covered == 0)


def place_on_grid(grid: Grid, macro: Node, row: int, col: int):
    """Place a macro; returns (new grid, continuous center position).

    Raises PlacementError for infeasible cells; unreachable when callers
    enforce the mask.
    """
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        raise PlacementError(f"cell ({row}, {col}) out of range")
    if any(nid == macro.id for nid, _, _ in grid.placed_macros):
        raise PlacementError(f"macro '{macro.name}' is already placed")

    cx, cy = grid.cell_center(row, col)
    if not (_in_canvas(cx, macro.width, grid.canvas_width)
            and _in_canvas(cy, macro.height, grid.canvas_height)):
        raise PlacementError(
            f"macro '{macro.name}' at ({row}, {col}) leaves the canvas"
        )
    window = _footprint_window(grid, macro, row, col)
    if grid.occupancy[window].any():
        raise PlacementError(
            f"macro '{macro.name}' at ({row}, {col}) overlaps occupied cells"
        )
    out = grid.copy()
    out.occupancy[window] = True
    out.placed_macros.append((macro.id, row, col))
    # Clamp is a no-op for feasible cells; kept as a safety net.
    x = min(max(cx, macro.width / 2), grid.canvas_width - macro.width / 2)
    y = min(max(cy, macro.height / 2), grid.canvas_height - macro.height / 2)
    return out, (x, y)
