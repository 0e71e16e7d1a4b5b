"""Design bundles, the movable-macro benchmark edit, and synthetic designs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DesignError
from .netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
)

# Synthetic designs aim for roughly half the canvas filled before density
# rounding; macros draw 10-100x the nominal std-cell area.
SYNTHETIC_FILL = 0.5
MACRO_AREA_RANGE = (10.0, 100.0)
MEAN_MACRO_AREA_FACTOR = 0.5 * (MACRO_AREA_RANGE[0] + MACRO_AREA_RANGE[1])
DENSITY_STEP = 0.05  # target densities are rounded up to multiples of this


@dataclass
class DesignBundle:
    """A netlist plus its as-read placement and what a writer needs to
    reproduce its files: `meta` holds the canvas origin and row height."""

    netlist: Netlist
    placement: Placement
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SyntheticSpec:
    macro_count: int
    std_cell_count: int
    net_count: int
    rent_like_fanout: float = 3.5
    seed: int = 0
    canvas_width: float = 100.0
    canvas_height: float = 100.0


def round_up_density(ratio: float) -> float:
    """Round a utilization ratio up to the next multiple of DENSITY_STEP,
    capped at 1."""
    if ratio <= 0:
        return DENSITY_STEP
    return min(1.0, math.ceil(ratio / DENSITY_STEP - 1e-12) * DENSITY_STEP)


def edit_for_movable_macros(bundle: DesignBundle) -> DesignBundle:
    """Make every macro movable and recompute the target density.

    Blockage and region constraints are not carried by the Bookshelf subset,
    so dropping them is a no-op here. Orientations are kept fixed.
    """
    netlist = bundle.netlist
    for node in netlist.nodes:
        if node.kind == KIND_MACRO and (
            node.width > netlist.canvas_width or node.height > netlist.canvas_height
        ):
            raise DesignError(f"macro '{node.name}' is larger than the canvas")
    nodes = [
        replace(n, movable=True) if n.kind == KIND_MACRO else n for n in netlist.nodes
    ]
    movable_area = sum(n.area for n in nodes if n.movable)
    edited = replace(netlist, nodes=nodes,
                     target_density=round_up_density(movable_area / netlist.canvas_area))
    return DesignBundle(netlist=edited, placement=bundle.placement.copy(),
                        meta=dict(bundle.meta))


def _choice_without_replacement(rng: np.random.Generator, p: np.ndarray, cdf: np.ndarray,
                                size: int) -> list[int]:
    """`rng.choice(len(p), size, replace=False, p=p)` as a list, drawn as
    numpy 2.4.6's `Generator.choice` draws it, from the same stream.

    That algorithm draws size - n uniforms while n < size distinct picks are
    found, looks each up in the normalized cumulative sum of p with the
    found indices' weights zeroed, and keeps the picks that are new, in the
    order of their first draw. Its first round zeroes nothing, so its
    lookup table is `cdf` (np.cumsum(p) / its last entry), which the caller
    computes once for every draw with that p: each call then costs
    O(size log len(p)) instead of O(len(p)), and only a draw whose first
    round repeats a pick builds another table.
    """
    found: list[int] = []
    while len(found) < size:
        x = rng.random(size - len(found))
        if found:
            p = p.copy()
            p[found] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
        new = dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
        found += list(new)
    return found


def generate_synthetic(spec: SyntheticSpec) -> DesignBundle:
    """Deterministic synthetic design: macros, uniform-height std cells,
    four corner terminals, and nets sampled with size-weighted membership.

    All nodes start unplaced except the corner terminals.
    """
    if spec.macro_count < 0 or spec.std_cell_count < 0 or spec.net_count < 0:
        raise DesignError("counts must be nonnegative")
    if spec.net_count > 0 and spec.rent_like_fanout < 2:
        raise DesignError("rent_like_fanout must be >= 2")
    if spec.canvas_width <= 0 or spec.canvas_height <= 0:
        raise DesignError("canvas dimensions must be positive")

    rng = np.random.default_rng(spec.seed)
    canvas_area = spec.canvas_width * spec.canvas_height

    weight_units = spec.std_cell_count + MEAN_MACRO_AREA_FACTOR * spec.macro_count
    cell_area = SYNTHETIC_FILL * canvas_area / weight_units if weight_units else 1.0
    if spec.macro_count:
        # Keep the largest drawable macro at <= 15% of the canvas.
        cell_area = min(cell_area, 0.15 * canvas_area / MACRO_AREA_RANGE[1])
    cell_h = math.sqrt(cell_area)

    nodes: list[Node] = []
    for i in range(spec.macro_count):
        area = cell_area * rng.uniform(*MACRO_AREA_RANGE)
        aspect = rng.uniform(0.5, 2.0)
        w = math.sqrt(area * aspect)
        h = area / w
        # Narrow canvases: trade aspect for fit, never area.
        if w > 0.8 * spec.canvas_width:
            w = 0.8 * spec.canvas_width
            h = area / w
        if h > 0.8 * spec.canvas_height:
            h = 0.8 * spec.canvas_height
            w = area / h
        if w > spec.canvas_width or h > spec.canvas_height:
            raise DesignError(f"macro m{i} ({w:.3g} x {h:.3g}) exceeds the canvas")
        nodes.append(Node(len(nodes), f"m{i}", w, h, KIND_MACRO, movable=True))
    for i in range(spec.std_cell_count):
        w = cell_h * rng.uniform(0.75, 1.25)
        nodes.append(Node(len(nodes), f"c{i}", w, cell_h, KIND_STD, movable=True))

    term_size = 0.002 * min(spec.canvas_width, spec.canvas_height)
    corners = [
        (term_size / 2, term_size / 2),
        (spec.canvas_width - term_size / 2, term_size / 2),
        (term_size / 2, spec.canvas_height - term_size / 2),
        (spec.canvas_width - term_size / 2, spec.canvas_height - term_size / 2),
    ]
    terminal_ids = []
    for i in range(4):
        terminal_ids.append(len(nodes))
        nodes.append(Node(len(nodes), f"p{i}", term_size, term_size, KIND_TERMINAL,
                          movable=False))

    movable_area = sum(n.area for n in nodes if n.movable)
    if movable_area > canvas_area:
        raise DesignError(
            f"infeasible spec: movable area {movable_area:.4g} exceeds canvas {canvas_area:.4g}"
        )

    # Size-weighted membership makes macro locations matter for wirelength;
    # a round-robin base member keeps nodes from ending up unconnected.
    areas = np.array([n.area for n in nodes])
    pick_w = np.sqrt(areas)
    pick_w /= pick_w.sum()
    pick_cdf = np.cumsum(pick_w)
    pick_cdf /= pick_cdf[-1]
    n_all = len(nodes)
    nets: list[Net] = []
    for i in range(spec.net_count):
        extra = rng.poisson(max(spec.rent_like_fanout - 2.0, 0.0))
        degree = int(min(n_all, max(2, 2 + extra), 12))
        base = i % n_all
        others = [m for m in _choice_without_replacement(rng, pick_w, pick_cdf,
                                                          min(degree + 1, n_all)) if m != base]
        members = [base] + others[: degree - 1]
        pins = tuple(Pin(node=int(m)) for m in sorted(members))
        nets.append(Net(id=i, name=f"n{i}", pins=pins, weight=1.0))

    density = round_up_density(movable_area / canvas_area)
    netlist = Netlist(
        nodes=nodes,
        nets=nets,
        canvas_width=spec.canvas_width,
        canvas_height=spec.canvas_height,
        target_density=density,
    )
    placement = Placement.empty(n_all)
    for nid, (cx, cy) in zip(terminal_ids, corners):
        placement.positions[nid] = (cx, cy)
        placement.placed[nid] = True

    return DesignBundle(
        netlist=netlist,
        placement=placement,
        # Half-row std cells keep macro/std classification stable through a
        # bookshelf round trip with the default macro threshold.
        meta={"origin": (0.0, 0.0), "row_height": cell_h / 2},
    )
