"""Electrostatic density model: charge rasterization, spectral Poisson
solve under zero-Neumann boundaries, and the exact energy gradient.

Placed macros and clusters rasterize as charge; the potential solves the
*discrete* five-point Poisson equation

    lap(psi) = -(rho - mean(rho))

exactly (the DC mode carries no force), via the DCT-II eigenbasis of the
mirrored-boundary Laplacian, written as one dense orthonormal matrix.
Because overlap areas are piecewise linear in node positions and the solve
is linear, the energy gradient below is the exact derivative of the energy
away from bin-boundary kinks.

What the movable nodes cannot change is computed once per placement, in a
`DensityGrid`: the bin geometry, the movable ids and the centre range that
keeps each of their boxes in the canvas (`DensityGrid.clamp`, the one clamp
of both placement engines), the raster of the charge-carrying nodes that
stay fixed and the total charge area. The DCT-II basis and the Poisson
eigenvalue denominators depend on the bin geometry alone, so
`poisson_basis` builds them once per geometry, as read-only arrays that
every grid of that geometry, of either engine, shares. Each solve
rasterizes only the grid's movable ids through `raster.axis_overlap`, the
rasterizer the density metrics use, both axes in one pass, as one matrix
product added onto the fixed raster. That equals one pass over all
charge-carrying nodes to rounding; a grid built with everything movable
has nothing fixed, and its raster is the one-pass raster. Both placement
engines solve through `solve_density_field` and differentiate through
`density_energy_and_grad`: the analytical engine descends the energy,
the force-directed engine moves each cluster by its field once per outer
iteration.

The kernels take the arrays they read: a solve takes the movable ids'
(m, 2) centres, so the fixed nodes and placed flags the grid was built from
cannot change under it, and the energy gradient returns the (m, 2) rows of
those ids alone. `DensityField` keeps the (m, 2) lower and upper box
corners and the per-axis overlap matrices of its raster. The gradient
needs, per node, the potential summed over its footprint with one axis's
overlap replaced by that axis's edge slope: one matrix product and one
row sum per axis. Both axes' edge slopes come from one comparison pass
over (2, m, bins) (`_edge_slopes`), with the per-axis products idx * cell
and strict comparisons, so each slope is the float a per-axis pass gives.
The spectral solve divides and negates in place on its own temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..netlist import Netlist, Placement
from ..raster import axis_overlap, node_boxes


def check_bins(bins: int) -> None:
    """A density grid has at least 2 bins per axis."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")


@dataclass(frozen=True)
class DensityGrid:
    """A placement's density invariants: what every solve of it shares."""
    bins: int
    bin_w: float
    bin_h: float
    ids: np.ndarray  # movable charge-carrying placed nodes, rasterized per solve
    half: np.ndarray  # (len(ids), 2) half width and height: each id's lowest in-canvas centre
    hi: np.ndarray  # (len(ids), 2) each id's highest in-canvas centre, at least `half`
    fixed_area: np.ndarray  # (bins, bins) raster of the other charge-carrying placed nodes
    charge_area: float  # total area of all charge-carrying placed nodes

    def clamp(self, centres: np.ndarray) -> np.ndarray:
        """`centres` (len(ids), 2) of the movable ids, each box moved inside
        the canvas; a box larger than the canvas is held at its lower
        bound."""
        return np.minimum(np.maximum(centres, self.half), self.hi)

    @cached_property
    def cells(self) -> np.ndarray:
        """(bin_w, bin_h), the cell widths of `raster.axis_overlap`'s
        two-axis pass."""
        return np.array([self.bin_w, self.bin_h])


def density_grid(netlist: Netlist, placement: Placement, movable: np.ndarray,
                 bins: int) -> DensityGrid:
    """Density invariants of `placement` while only `movable` nodes move.

    The placed flags and the fixed nodes' positions are read here once; a
    solve reads only the centres of the grid's movable ids.
    """
    check_bins(bins)
    bin_w = netlist.canvas_width / bins
    bin_h = netlist.canvas_height / bins
    arrays = netlist.node_arrays
    charged = arrays.charge & placement.placed
    all_ids = np.flatnonzero(charged)
    fixed_ids = np.flatnonzero(charged & ~movable)
    ids = np.flatnonzero(charged & movable)
    x0, x1, y0, y1 = node_boxes(netlist, placement, fixed_ids)
    half = np.stack([arrays.width[ids], arrays.height[ids]], axis=1) / 2
    return DensityGrid(
        bins=bins, bin_w=bin_w, bin_h=bin_h, ids=ids, half=half,
        hi=np.maximum(half, np.array([netlist.canvas_width, netlist.canvas_height]) - half),
        fixed_area=axis_overlap(y0, y1, bin_h, bins).T @ axis_overlap(x0, x1, bin_w, bins),
        charge_area=float((arrays.width[all_ids] * arrays.height[all_ids]).sum()),
    )


@dataclass
class DensityField:
    """The field of one solve: its boxes are the grid's movable ids, in
    `DensityGrid.ids` order."""
    rho: np.ndarray  # (bins, bins) charge density, sum(rho) * bin_w * bin_h = charge area
    psi: np.ndarray  # potential
    bin_w: float
    bin_h: float
    norm_scale: float  # rho rescale factor applied after rasterization
    lo: np.ndarray  # (m, 2) lower corners of the boxes
    hi: np.ndarray  # (m, 2) upper corners
    wx: np.ndarray  # (m, bins) column overlaps of the boxes (raster.axis_overlap)
    wy: np.ndarray  # (m, bins) row overlaps

    @property
    def bins(self) -> int:
        return self.rho.shape[0]


def solve_density_field(centres: np.ndarray, grid: DensityGrid) -> DensityField:
    """Rasterize charge with the grid's movable ids centred at `centres`
    (len(grid.ids), 2) and solve for the potential.

    The density is normalized so that sum(rho) * bin_w * bin_h equals
    `grid.charge_area`, the area of every placed charge-carrying node, fixed
    macros included; its mean then matches the design's utilization, which
    the benchmark edit rounds up into target_density.
    """
    lo = centres - grid.half
    hi = centres + grid.half
    wx, wy = axis_overlap(lo.T, hi.T, grid.cells, grid.bins)
    area = grid.fixed_area + wy.T @ wx
    raster_total = area.sum()
    scale = grid.charge_area / raster_total if raster_total > 0 else 1.0
    rho = area * (scale / (grid.bin_w * grid.bin_h))
    psi = solve_poisson(rho, *poisson_basis(grid.bins, grid.bin_w, grid.bin_h))
    return DensityField(rho=rho, psi=psi, bin_w=grid.bin_w, bin_h=grid.bin_h,
                        norm_scale=scale, lo=lo, hi=hi, wx=wx, wy=wy)


# A process places few grid geometries; the bound keeps a long-lived one
# that sees many from growing without end.
@lru_cache(maxsize=8)
def poisson_basis(bins: int, bin_w: float, bin_h: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, denom) of the Poisson solve on a bins x bins grid, both from the
    DCT-II modes k = 0 .. bins - 1. Built once per (bins, bin_w, bin_h) and
    shared: both arrays are read-only.

    C is the orthonormal DCT-II matrix, C[k, j] = sqrt(2 / bins) *
    cos(pi * (2j + 1) * k / (2 * bins)) with row 0 scaled by 1 / sqrt(2),
    the transform of either axis: C @ v is v's cosine spectrum and C.T @ s
    maps a spectrum back. denom[ky, kx] is the eigenvalue of the mirrored
    5-point Laplacian for mode (ky, kx); the DC entry is 1 (its mode is
    dropped).
    """
    angle = np.pi * np.arange(bins) / bins
    basis = np.sqrt(2.0 / bins) * np.cos(np.outer(angle, np.arange(bins) + 0.5))
    basis[0] /= np.sqrt(2.0)
    lam = 2.0 * np.cos(angle) - 2.0
    denom = lam[:, None] / bin_h**2 + lam[None, :] / bin_w**2
    denom[0, 0] = 1.0
    basis.flags.writeable = denom.flags.writeable = False
    return basis, denom


def solve_poisson(rho: np.ndarray, basis: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Potential psi of lap(psi) = -(rho - mean(rho)), with `basis` and
    `denom` from `poisson_basis` for rho's grid.

    Spectral solve in the DCT-II basis C: the cosine modes are exact
    eigenvectors of the mirrored 5-point Laplacian, so psi =
    C.T @ (-(C @ (rho - mean) @ C.T) / denom) @ C with the DC mode zero.
    Negation is exact, so -(a / d) is the float (-a) / d. The four dense
    matrix products beat a fast transform up to 64 bins, the most any
    caller uses. On 2 vCPUs with one BLAS thread (median of six probes,
    each the minimum of 5 repeats) one solve took ~21 / 30 / 88 us at
    16 / 32 / 64 bins against ~57 / 79 / 162 us for `scipy.fft`'s
    dctn/idctn pair; the two were even at 128 bins (~0.5 ms) and the
    matrix was ~2.6x slower at 256 (4.8 against 1.8 ms): O(n^3) against
    O(n^2 log n).
    """
    spectrum = basis @ (rho - rho.mean()) @ basis.T
    spectrum /= denom
    np.negative(spectrum, out=spectrum)
    spectrum[0, 0] = 0.0
    return basis.T @ spectrum @ basis


def density_energy_and_grad(field: DensityField) -> np.ndarray:
    """Gradient of the field's potential energy 0.5 * sum(rho * psi) *
    bin_w * bin_h w.r.t. the centres the field was solved for: one (m, 2)
    row per rasterized node (its grid's movable ids), in that order; the
    fixed nodes have no row. The energy itself is not computed: neither
    engine reads it. The name is the kernel's span in the benchmark's
    per-layer trace (`placer.density.density_energy_and_grad`).

    The gradient of node i is -q_i times the field integrated over the
    node's footprint, evaluated through the exact overlap-area derivative:
    only the bins its left/right (bottom/top) edges cross contribute, with
    the orthogonal overlap as the weight. High potential pushes nodes out.
    """
    # d(overlap_x)/dx per column and d(overlap_y)/dy per row.
    dwx, dwy = _edge_slopes(field.lo, field.hi, np.array([field.bin_w, field.bin_h]),
                            field.bins)
    s = field.norm_scale
    return np.stack([s * ((field.wy @ field.psi) * dwx).sum(axis=1),
                     s * ((dwy @ field.psi) * field.wx).sum(axis=1)], axis=1)


def _edge_slopes(lo, hi, cells, count: int) -> np.ndarray:
    """(2, n, count) d(overlap of [lo + t, hi + t] with each cell)/dt per
    axis, for (n, 2) box corners and cells = (cell_w, cell_h): +1 in the
    cell whose interior holds the upper edge, -1 in the cell whose interior
    holds the lower edge. Both axes in one pass; cell c spans the products
    c * cell and (c + 1) * cell, each edge is compared strictly."""
    edges = (np.arange(count + 1) * cells[:, None])[:, None]  # (2, 1, count + 1)
    left, right = edges[..., :-1], edges[..., 1:]
    upper, lower = hi.T[..., None], lo.T[..., None]
    return np.subtract((upper > left) & (upper < right), (lower > left) & (lower < right),
                       dtype=np.float64)
