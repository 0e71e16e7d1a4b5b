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
those ids alone. `DensityField` keeps the box edges as one (2, 2, m)
array, per axis the upper then the lower edges (`corners`), and the
per-axis overlap matrices of its raster. The gradient needs, per node, the
potential summed over its footprint with one axis's overlap replaced by
that axis's edge slope, which is +1 in the cell whose interior holds the
upper edge and -1 in the one that holds the lower edge. So it reads only
those cells: each edge's cell comes from a binary search over the products
idx * cell, compared strictly (`edge_bounds`). Along x the gradient is two
gathers from the one matrix product wy @ psi; along y it is the
difference of two gathered rows of psi, weighted by wx and summed. Each
value is the float that dense +1/-1 slope matrices give.

The layout serves the number of numpy calls, which sets these kernels'
cost more than their arithmetic does: on the benchmark's S placement (32
movable nodes, 64 bins; Xeon, one BLAS thread) a 64 x 64 product takes
~8 us, and the solve's four products plus the raster's take most of its
budget. So each axis's [upper; lower] edges are one contiguous (2, m) row
pair and go through one binary search (1.1 us against 2.9 us for two),
the x cells become flat indices into the padded wy @ psi for one `take`,
the y rows come from one `take`, and the (m, 2) gradient is written in
place and scaled once (1.9 us against 3.6 us for a stack and a scaled
copy). The solve writes the raster product, adds the fixed raster and
scales it in its own buffer; its mean is rho.sum() / rho.size, the
float `np.mean` computes, and `poisson_basis` stores the negated
eigenvalue denominators, so the spectrum's division and negation are one
pass: a / -d is the float -(a / d). `tools/kernels.py` prints each
kernel's time per call and the SHA-256 of its output, so two layouts can
be compared for speed and for bit identity.
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
    def cells(self) -> tuple[float, float]:
        """(bin_w, bin_h), the cell widths of `raster.axis_overlap`'s
        two-axis pass."""
        return (self.bin_w, self.bin_h)


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
    corners: np.ndarray  # (2, 2, m): per axis, the boxes' upper then lower edges
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
    corners = np.empty((2, 2, len(centres)))
    np.add(centres.T, grid.half.T, out=corners[:, 0])
    np.subtract(centres.T, grid.half.T, out=corners[:, 1])
    wx, wy = axis_overlap(corners[:, 1], corners[:, 0], grid.cells, grid.bins)
    rho = wy.T @ wx
    rho += grid.fixed_area
    raster_total = rho.sum()
    scale = grid.charge_area / raster_total if raster_total > 0 else 1.0
    rho *= scale / (grid.bin_w * grid.bin_h)
    psi = solve_poisson(rho, *poisson_basis(grid.bins, grid.bin_w, grid.bin_h))
    return DensityField(rho=rho, psi=psi, bin_w=grid.bin_w, bin_h=grid.bin_h,
                        norm_scale=scale, corners=corners, wx=wx, wy=wy)


# A process places few grid geometries; the bound keeps a long-lived one
# that sees many from growing without end.
@lru_cache(maxsize=8)
def poisson_basis(bins: int, bin_w: float, bin_h: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, neg_denom) of the Poisson solve on a bins x bins grid, both from
    the DCT-II modes k = 0 .. bins - 1. Built once per (bins, bin_w, bin_h)
    and shared: both arrays are read-only.

    C is the orthonormal DCT-II matrix, C[k, j] = sqrt(2 / bins) *
    cos(pi * (2j + 1) * k / (2 * bins)) with row 0 scaled by 1 / sqrt(2),
    the transform of either axis: C @ v is v's cosine spectrum and C.T @ s
    maps a spectrum back. neg_denom[ky, kx] is the negated eigenvalue of the
    mirrored 5-point Laplacian for mode (ky, kx); the DC entry is 1 (its
    mode is dropped).
    """
    angle = np.pi * np.arange(bins) / bins
    basis = np.sqrt(2.0 / bins) * np.cos(np.outer(angle, np.arange(bins) + 0.5))
    basis[0] /= np.sqrt(2.0)
    lam = 2.0 * np.cos(angle) - 2.0
    neg_denom = lam[:, None] / bin_h**2 + lam[None, :] / bin_w**2
    np.negative(neg_denom, out=neg_denom)
    neg_denom[0, 0] = 1.0
    basis.flags.writeable = neg_denom.flags.writeable = False
    return basis, neg_denom


def solve_poisson(rho: np.ndarray, basis: np.ndarray, neg_denom: np.ndarray) -> np.ndarray:
    """Potential psi of lap(psi) = -(rho - mean(rho)), with `basis` and
    `neg_denom` from `poisson_basis` for rho's grid.

    Spectral solve in the DCT-II basis C: the cosine modes are exact
    eigenvectors of the mirrored 5-point Laplacian, so psi =
    C.T @ ((C @ (rho - mean) @ C.T) / -denom) @ C with the DC mode zero.
    Negation is exact, so a / -d is the float -(a / d). The mean is
    rho.sum() / rho.size, the float `np.mean` gives. The four dense matrix
    products beat a fast transform up to 64 bins, the most any caller
    uses. On a 2-vCPU Xeon with one BLAS thread (median of six probes, each
    the minimum of 5 repeats) one solve took ~7 / 12 / 41 us at 16 / 32 /
    64 bins against ~39 / 49 / 91 us for `scipy.fft`'s dctn/idctn pair
    (`tests/oracles.py:solve_poisson_scipy`, which also builds the
    eigenvalues per call); the two were about even at 128 bins (~0.3 ms)
    and the matrix was ~1.7x slower at 256 (2.7 against 1.6 ms): O(n^3)
    against O(n^2 log n).
    """
    spectrum = basis @ (rho - rho.sum() / rho.size) @ basis.T
    spectrum /= neg_denom
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
    Along x that is P[i, ux] - P[i, lx] with P = wy @ psi and ux (lx) the
    column whose interior holds the right (left) edge; along y it is the
    row sum of (psi[uy] - psi[ly]) * wx. Each is the float that a dense
    +1/-1 slope matrix gives (a sum with at most two nonzero terms, or
    `dwy @ psi` with at most two nonzero terms per row, rounds once). An
    edge no cell interior holds (on a cell boundary or off the grid)
    contributes 0: it finds a zero row of the padded arrays below (see
    `edge_bounds`).
    """
    bins = field.bins
    m = len(field.wy)
    width = 2 * bins + 3
    # Columns (rows) 2, 4, ..., 2 * bins hold cells 0 .. bins - 1; the rest are 0.
    p_pad = np.zeros((m, width))
    p_pad[:, 2:-1:2] = field.wy @ field.psi
    psi_pad = np.zeros((width, bins))
    psi_pad[2:-1:2] = field.psi
    # One search per axis over its (2, m) [upper; lower] edges; along x the
    # cells become flat indices into p_pad, row i's at i * width.
    cols = edge_bounds(bins, field.bin_w).searchsorted(field.corners[0], side="right")
    cols += np.arange(0, m * width, width)
    px = p_pad.take(cols)
    py = psi_pad.take(edge_bounds(bins, field.bin_h).searchsorted(field.corners[1], side="right"),
                      axis=0)
    grad = np.empty((m, 2))
    np.subtract(px[0], px[1], out=grad[:, 0])
    dy = np.subtract(py[0], py[1], out=py[0])
    dy *= field.wx
    dy.sum(axis=1, out=grad[:, 1])
    grad *= field.norm_scale
    return grad


# One per axis of each grid geometry: twice poisson_basis's bound.
@lru_cache(maxsize=16)
def edge_bounds(count: int, cell: float) -> np.ndarray:
    """(2 * count + 2,) the cell bounds k * cell, k = 0 .. count, each
    followed by the next float above it; built once per (count, cell) and
    read-only. The bounds are the products of `raster.axis_overlap`.

    searchsorted(bounds, e, side="right") counts the entries at or below an
    edge e: 2 * (c + 1) when e lies strictly inside cell c, odd when e is on
    a bound, and 0 or 2 * count + 2 when e is off the grid. So an array of
    2 * count + 3 rows, whose row 2 * (c + 1) holds cell c and whose other
    rows are 0, gives each edge its cell's row in one gather, and 0 for an
    edge no cell interior holds, as a strict comparison with the bounds
    does."""
    bounds = np.arange(count + 1) * cell
    out = np.empty(2 * count + 2)
    out[0::2] = bounds
    out[1::2] = np.nextafter(bounds, np.inf)
    out.flags.writeable = False
    return out
