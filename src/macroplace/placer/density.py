"""Electrostatic density model: charge rasterization, spectral Poisson
solve under zero-Neumann boundaries, and the exact energy gradient.

Placed macros and clusters rasterize as charge; the potential solves the
*discrete* five-point Poisson equation

    lap(psi) = -(rho - mean(rho))

exactly (the DC mode carries no force), via the DCT-II eigenbasis of the
mirrored-boundary Laplacian. Because overlap areas are piecewise linear in
node positions and the solve is linear, the energy gradient below is the
exact derivative of the energy away from bin-boundary kinks.

Charge goes onto bins through `raster.cover`, the rasterizer the density
metrics use, once per field: `DensityField` keeps the nodes, boxes and
overlap entries of that raster. The gradient selects the entries of the
nodes it differentiates, weights them with `raster.edge_slope`, and sums
them per node with one `np.bincount` per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from ..netlist import Netlist, Placement
from ..raster import Cover, accumulate, cover, edge_slope, node_boxes


@dataclass
class DensityField:
    rho: np.ndarray  # (bins, bins) charge density, sum(rho)*bin_area = charge area
    psi: np.ndarray  # potential
    bin_w: float
    bin_h: float
    charge_area: float
    norm_scale: float  # rho rescale factor applied after rasterization
    ids: np.ndarray  # charge-carrying placed nodes, the raster's boxes in order
    boxes: tuple  # their (x0, x1, y0, y1) footprints
    entries: Cover  # raster.cover of `boxes`

    @property
    def bins(self) -> int:
        return self.rho.shape[0]

    @property
    def bin_area(self) -> float:
        return self.bin_w * self.bin_h


def solve_density_field(netlist: Netlist, placement: Placement,
                        bins: int = 64) -> DensityField:
    """Rasterize charge and solve for the potential.

    The density is normalized so that sum(rho) * bin_area equals the total
    charge-carrying (movable-kind) area; its mean then matches the design's
    utilization, which the benchmark edit rounds up into target_density.
    """
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")
    bin_w = netlist.canvas_width / bins
    bin_h = netlist.canvas_height / bins
    bin_area = bin_w * bin_h

    arrays = netlist.node_arrays
    ids = np.flatnonzero(arrays.charge & placement.placed)
    charge_area = float((arrays.width[ids] * arrays.height[ids]).sum())
    boxes = node_boxes(netlist, placement, ids)
    entries = cover(*boxes, bin_w, bin_h, bins, bins)
    area = accumulate(entries, entries.wy * entries.wx, bins, bins)

    raster_total = area.sum()
    scale = charge_area / raster_total if raster_total > 0 else 1.0
    rho = area * (scale / bin_area)
    return DensityField(rho=rho, psi=solve_poisson(rho, bin_w, bin_h), bin_w=bin_w,
                        bin_h=bin_h, charge_area=charge_area, norm_scale=scale,
                        ids=ids, boxes=boxes, entries=entries)


def solve_poisson(rho: np.ndarray, bin_w: float, bin_h: float) -> np.ndarray:
    """Potential psi of lap(psi) = -(rho - mean(rho)) on a bins x bins grid.

    Spectral solve in the DCT-II basis: the cosine modes are exact
    eigenvectors of the mirrored 5-point Laplacian. The DC mode is zero.
    """
    bins = rho.shape[0]
    src_hat = dctn(rho - rho.mean(), type=2, norm="ortho")
    k = np.arange(bins)
    lam_x = (2.0 * np.cos(np.pi * k / bins) - 2.0) / bin_w**2
    lam_y = (2.0 * np.cos(np.pi * k / bins) - 2.0) / bin_h**2
    denom = lam_y[:, None] + lam_x[None, :]
    denom[0, 0] = 1.0  # DC mode excluded below
    psi_hat = -src_hat / denom
    psi_hat[0, 0] = 0.0
    return idctn(psi_hat, type=2, norm="ortho")


def poisson_residual(field: DensityField) -> float:
    """Max-norm residual of the discrete Poisson relation the solver targets."""
    psi = field.psi
    up = np.vstack([psi[:1], psi[:-1]])
    dn = np.vstack([psi[1:], psi[-1:]])
    lf = np.hstack([psi[:, :1], psi[:, :-1]])
    rt = np.hstack([psi[:, 1:], psi[:, -1:]])
    lap = (lf + rt - 2 * psi) / field.bin_w**2 + (up + dn - 2 * psi) / field.bin_h**2
    src = field.rho - field.rho.mean()
    return float(np.abs(lap + src).max())


def density_energy_and_grad(field: DensityField, netlist: Netlist,
                            movable_only: bool = True):
    """Potential energy 0.5 * sum(rho * psi) * bin_area and its gradient, at
    the placement the field was solved for.

    The gradient of node i is -q_i times the field integrated over the
    node's footprint, evaluated through the exact overlap-area derivative:
    only the bins its left/right (bottom/top) edges cross contribute, with
    the orthogonal overlap as the weight. High potential pushes nodes out.
    """
    energy = 0.5 * float((field.rho * field.psi).sum()) * field.bin_area
    grad = np.zeros((netlist.num_nodes, 2))
    ids, entries = field.ids, field.entries
    keep = np.ones(len(ids), dtype=bool)
    if movable_only:
        keep = netlist.node_arrays.movable[ids]
        entries = Cover(*(a[keep[entries.box]] for a in entries))
    x0, x1, y0, y1 = field.boxes
    box, wx, wy = entries.box, entries.wx, entries.wy
    # d(overlap_x)/dx per column and d(overlap_y)/dy per row.
    dwx = edge_slope(x0[box], x1[box], entries.col, field.bin_w)
    dwy = edge_slope(y0[box], y1[box], entries.row, field.bin_h)
    psi = field.psi[entries.row, entries.col]
    s = field.norm_scale
    gx = np.bincount(box, weights=wy * psi * dwx, minlength=len(ids))
    gy = np.bincount(box, weights=dwy * psi * wx, minlength=len(ids))
    grad[ids[keep], 0] = s * gx[keep]
    grad[ids[keep], 1] = s * gy[keep]
    return energy, grad
