"""Environment feedback: congestion maps, density overflow, and the scalar
proxy cost whose negation is the episode reward.

Congestion uses RUDY-style net smearing: each net's demand is spread
uniformly over its bounding box (clamped to at least one grid cell in each
dimension and shifted to stay on canvas). The boxes are `netlist.net_boxes`,
the same ones HPWL measures: pins at node centers, one unplaced-node check.
Net boxes and node footprints go onto the grid through the per-axis
overlap matrices of `raster.axis_overlap` and one matrix product per map,
which equals a per-net (per-node) loop to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .netlist import Netlist, Placement, hpwl_of_boxes, net_boxes
from .raster import axis_overlap, node_boxes

# Routing capacity per cell, horizontal == vertical. Calibrated once as the
# 95th percentile of nonzero per-cell single-net demand over a four-design
# synthetic suite on a 32x32 grid.
DEFAULT_CAPACITY = 0.8
# Share of cells, rounded up, whose mean overflow is the congestion score.
TOP_FRACTION = 0.1


@dataclass
class CongestionMap:
    demand_h: np.ndarray  # (rows, cols) horizontal track-demand density
    demand_v: np.ndarray
    capacity_h: float
    capacity_v: float


@dataclass(frozen=True)
class RewardWeights:
    w_hpwl: float = 1.0
    w_cong: float = 0.5
    w_dens: float = 0.5


@dataclass(frozen=True)
class Metrics:
    hpwl: float
    cong_h: float
    cong_v: float
    density_overflow: float
    proxy_cost: float

    @property
    def reward(self) -> float:
        return -self.proxy_cost


def congestion_map(
    netlist: Netlist,
    placement: Placement,
    grid: Grid,
    capacity_h: float = DEFAULT_CAPACITY,
    capacity_v: float = DEFAULT_CAPACITY,
) -> CongestionMap:
    """RUDY demand maps. Horizontal demand of a net is w/h_box, vertical is
    w/w_box, each distributed over the box proportionally to overlap area."""
    return _rudy(netlist, *net_boxes(netlist, placement), grid, capacity_h, capacity_v)


def _rudy(netlist: Netlist, lo: np.ndarray, hi: np.ndarray, grid: Grid,
          capacity_h: float, capacity_v: float) -> CongestionMap:
    """`congestion_map` of the net boxes (lo, hi) that `net_boxes` gave."""
    rows, cols = grid.rows, grid.cols
    W, H = grid.canvas_width, grid.canvas_height
    # The clamp below would turn an infinite edge into a canvas-wide box.
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("net box edges must be finite")
    x0, y0 = lo[:, 0], lo[:, 1]
    x1, y1 = hi[:, 0], hi[:, 1]
    # Clamp the box to at least one cell per axis, then shift on-canvas.
    bw = np.minimum(np.maximum(x1 - x0, grid.cell_w), W)
    bh = np.minimum(np.maximum(y1 - y0, grid.cell_h), H)
    bx = np.minimum(np.maximum((x0 + x1) / 2 - bw / 2, 0.0), W - bw)
    by = np.minimum(np.maximum((y0 + y1) / 2 - bh / 2, 0.0), H - bh)

    wx = axis_overlap(bx, bx + bw, grid.cell_w, cols)
    wy = axis_overlap(by, by + bh, grid.cell_h, rows)
    # wy_i (x) wx_i / (bw_i * bh_i) are net i's overlap-area fractions, sum 1.
    per_area = netlist.net_csr.weights / (bw * bh)
    demand_h = (wy * (per_area / bh)[:, None]).T @ wx
    demand_v = (wy * (per_area / bw)[:, None]).T @ wx
    return CongestionMap(demand_h=demand_h, demand_v=demand_v,
                         capacity_h=capacity_h, capacity_v=capacity_v)


def _top_overflow(demand: np.ndarray, capacity: float) -> float:
    ratios = np.maximum(0.0, demand.ravel() - capacity) / capacity
    k = math.ceil(TOP_FRACTION * ratios.size)
    top = np.partition(ratios, ratios.size - k)[ratios.size - k:]
    return float(top.mean())


def congestion_scores(cmap: CongestionMap):
    """Mean overflow ratio over the TOP_FRACTION most congested cells, per
    orientation."""
    return (
        _top_overflow(cmap.demand_h, cmap.capacity_h),
        _top_overflow(cmap.demand_v, cmap.capacity_v),
    )


def rasterize_area(netlist: Netlist, placement: Placement, rows: int, cols: int,
                   cell_w: float, cell_h: float) -> np.ndarray:
    """Area of placed nodes in each cell, split proportionally by overlap.

    Terminals are excluded; they carry no placeable area.
    """
    keep = netlist.node_arrays.charge & placement.placed
    x0, x1, y0, y1 = node_boxes(netlist, placement, np.flatnonzero(keep))
    return axis_overlap(y0, y1, cell_h, rows).T @ axis_overlap(x0, x1, cell_w, cols)


def density_overflow(netlist: Netlist, placement: Placement, grid: Grid,
                     target_density: float | None = None) -> float:
    """Fraction of movable area sitting above the per-cell density target."""
    if target_density is None:
        target_density = netlist.target_density
    movable_area = netlist.movable_area
    if movable_area <= 0:
        return 0.0
    area = rasterize_area(netlist, placement, grid.rows, grid.cols,
                          grid.cell_w, grid.cell_h)
    cell_area = grid.cell_w * grid.cell_h
    overflow = np.maximum(0.0, area - target_density * cell_area).sum()
    return float(overflow / movable_area)


def proxy_cost(hpwl_value: float, cong_h: float, cong_v: float, dens: float,
               net_count: int, canvas_width: float, canvas_height: float,
               weights: RewardWeights = RewardWeights()) -> float:
    """Scalar cost; reward = -cost. HPWL is normalized by
    net count x canvas half-perimeter so rewards stay in a stable range."""
    if weights.w_hpwl < 0 or weights.w_cong < 0 or weights.w_dens < 0:
        raise ValueError("reward weights must be nonnegative")
    denom = net_count * (canvas_width + canvas_height)
    hpwl_norm = hpwl_value / denom if denom > 0 else 0.0
    return (
        weights.w_hpwl * hpwl_norm
        + weights.w_cong * (cong_h + cong_v) / 2
        + weights.w_dens * dens
    )


def evaluate(netlist: Netlist, placement: Placement, grid: Grid,
             weights: RewardWeights = RewardWeights(),
             capacity_h: float = DEFAULT_CAPACITY,
             capacity_v: float = DEFAULT_CAPACITY) -> Metrics:
    """One-stop proxy metrics for a fully placed design: HPWL at node
    centers, and congestion over the TOP_FRACTION most congested cells.
    HPWL and congestion read one `net_boxes` pass."""
    lo, hi = net_boxes(netlist, placement)
    wl = hpwl_of_boxes(netlist, lo, hi)
    cmap = _rudy(netlist, lo, hi, grid, capacity_h, capacity_v)
    ch, cv = congestion_scores(cmap)
    dens = density_overflow(netlist, placement, grid)
    cost = proxy_cost(wl, ch, cv, dens, len(netlist.nets),
                      netlist.canvas_width, netlist.canvas_height, weights)
    return Metrics(hpwl=wl, cong_h=ch, cong_v=cv, density_overflow=dens,
                   proxy_cost=cost)
