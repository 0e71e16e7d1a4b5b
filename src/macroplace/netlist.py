"""Netlist, placement, and the exact wirelength evaluator.

Coordinates are real-valued microns. Node positions always refer to the
*center* of the node's bounding box; grid snapping is the grid module's
concern, not this one's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

KIND_MACRO = "macro"
KIND_STD = "std_cell"
KIND_TERMINAL = "terminal"


@dataclass(frozen=True)
class Node:
    id: int
    name: str
    width: float
    height: float
    kind: str
    movable: bool

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Pin:
    # Offsets are kept for Bookshelf I/O only; every wirelength measure
    # (`net_boxes`, the smoothed one) puts pins at node centers.
    node: int
    offset_x: float = 0.0
    offset_y: float = 0.0


@dataclass(frozen=True)
class Net:
    id: int
    name: str
    pins: tuple[Pin, ...]
    weight: float = 1.0


class NetCSR(NamedTuple):
    """Pins grouped by net; one row per net that has pins, in net order."""

    starts: np.ndarray  # (M,) first pin of each row: the `reduceat` indices
    pin_net: np.ndarray  # (P,) pin -> row
    net_ids: np.ndarray  # (M,) row -> index into Netlist.nets
    node_ids: np.ndarray  # (P,) pin -> node id
    weights: np.ndarray  # (M,) net weights
    counts: np.ndarray  # (M,) pins per row


class SmoothWLPins(NamedTuple):
    """Per-pin arrays of the smoothed wirelength's gradient over `net_csr`."""

    weights: np.ndarray  # (P, 1) weight of each pin's net
    slots: np.ndarray  # (2P,) flat index 2 * node + axis of each pin coordinate


class CliqueGraph(NamedTuple):
    """Clique model of the nets, the graph clustering coarsens, the
    force-directed engine solves over and the policy propagates along:
    w/(p-1) per pin pair of a p-pin net, summed in net order. One edge per
    node pair, sorted by (i, j) with i < j; a pair of pins on one node adds
    nothing."""

    num_nodes: int
    edges_i: np.ndarray  # (E,)
    edges_j: np.ndarray  # (E,)
    weights: np.ndarray  # (E,)


class NodeArrays(NamedTuple):
    width: np.ndarray  # (N,)
    height: np.ndarray
    movable: np.ndarray  # (N,) bool
    charge: np.ndarray  # (N,) bool: carries placeable area (not a terminal)


@dataclass(eq=False)
class Netlist:
    """A design: nodes, nets, and the canvas they live on.

    Treated as immutable once constructed; evaluators are pure functions
    over shared read-only netlists.
    """

    nodes: list[Node]
    nets: list[Net]
    canvas_width: float
    canvas_height: float
    target_density: float = 1.0

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def canvas_area(self) -> float:
        return self.canvas_width * self.canvas_height

    @cached_property
    def movable_area(self) -> float:
        return float(sum(n.area for n in self.nodes if n.movable))

    @cached_property
    def node_degrees(self) -> np.ndarray:
        """Number of nets incident to each node: the distinct (net, node)
        pairs of `net_csr`, so a node listed twice on a net counts once."""
        n = self.num_nodes
        csr = self.net_csr
        incident = np.unique(csr.pin_net * n + csr.node_ids) % n
        return np.bincount(incident, minlength=n)

    @cached_property
    def net_csr(self) -> NetCSR:
        """Pins of every net in net order, as flat arrays for segment
        reductions (`np.*.reduceat` over `starts`).

        Zero-pin nets are left out: a `reduceat` segment cannot be empty,
        and such nets add nothing anywhere. One-pin nets stay, because RUDY
        smears them over one cell; their extent (and smoothed extent) is 0.
        """
        net_ids = [k for k, net in enumerate(self.nets) if net.pins]
        nets = [self.nets[k] for k in net_ids]
        pins = [p for net in nets for p in net.pins]
        counts = np.array([len(net.pins) for net in nets], dtype=np.int64)
        return NetCSR(
            starts=np.cumsum(counts) - counts,
            pin_net=np.repeat(np.arange(len(nets)), counts),
            net_ids=np.array(net_ids, dtype=np.int64),
            node_ids=np.array([p.node for p in pins], dtype=np.int64),
            weights=np.array([net.weight for net in nets], dtype=np.float64),
            counts=counts,
        )

    @cached_property
    def smooth_wl_pins(self) -> SmoothWLPins:
        """The `SmoothWLPins` of `net_csr`, built on first read, so a design
        that only the force-directed engine places never holds them."""
        csr = self.net_csr
        return SmoothWLPins(weights=csr.weights[csr.pin_net, None],
                            slots=(2 * csr.node_ids[:, None] + np.arange(2)).ravel())

    @cached_property
    def clique_graph(self) -> CliqueGraph:
        """The nets' `CliqueGraph`, built once over `net_csr`. The pin pairs
        of all p-pin rows come from one `np.triu_indices(p, 1)` and land in
        net order; `np.bincount` sums each node pair in that order."""
        n = self.num_nodes
        csr = self.net_csr
        pairs = csr.counts * (csr.counts - 1) // 2
        first = np.cumsum(pairs) - pairs
        a = np.empty(int(pairs.sum()), dtype=np.int64)
        b = np.empty_like(a)
        for p in np.unique(csr.counts[csr.counts > 1]):
            rows = np.flatnonzero(csr.counts == p)
            iu, ju = np.triu_indices(p, 1)
            pins = csr.node_ids[csr.starts[rows, None] + np.arange(p)]
            slots = first[rows, None] + np.arange(len(iu))
            a[slots], b[slots] = pins[:, iu], pins[:, ju]
        w = np.repeat(csr.weights / np.maximum(csr.counts - 1, 1), pairs)
        apart = a != b
        keys, edge = np.unique((np.minimum(a, b) * n + np.maximum(a, b))[apart],
                               return_inverse=True)
        # Float weights also when there is no edge (`bincount` then gives ints).
        weights = np.bincount(edge, weights=w[apart], minlength=len(keys))
        return CliqueGraph(n, keys // n, keys % n, weights.astype(np.float64, copy=False))

    @cached_property
    def node_arrays(self) -> NodeArrays:
        """Per-node width, height, movable flag and charge flag as arrays."""
        return NodeArrays(
            width=np.array([n.width for n in self.nodes], dtype=np.float64),
            height=np.array([n.height for n in self.nodes], dtype=np.float64),
            movable=np.array([n.movable for n in self.nodes], dtype=bool),
            charge=np.array([n.kind != KIND_TERMINAL for n in self.nodes], dtype=bool),
        )

    def macros(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == KIND_MACRO]


@dataclass
class Placement:
    """Per-node center coordinates plus a placed flag.

    Functional updates only: `updated` returns a new Placement, so concurrent
    rollouts can share a base placement safely.
    """

    positions: np.ndarray  # (N, 2) float64 centers in microns
    placed: np.ndarray  # (N,) bool

    @staticmethod
    def empty(num_nodes: int) -> "Placement":
        return Placement(
            positions=np.zeros((num_nodes, 2), dtype=np.float64),
            placed=np.zeros(num_nodes, dtype=bool),
        )

    def copy(self) -> "Placement":
        return Placement(self.positions.copy(), self.placed.copy())

    def updated(self, node_id: int, x: float, y: float) -> "Placement":
        out = self.copy()
        out.positions[node_id] = (x, y)
        out.placed[node_id] = True
        return out


def net_boxes(netlist: Netlist, placement: Placement) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corners of each `net_csr` row's pin bounding box, (M, 2) each.

    Pin position is the owning node's center; pin offsets are ignored, as in
    the whole proxy cost and in the analytical engine's smoothed wirelength.
    Raises EvaluationError naming the net and the node if a net references
    an unplaced node.
    """
    csr = netlist.net_csr
    unplaced = ~placement.placed[csr.node_ids]
    if unplaced.any():
        pin = int(np.argmax(unplaced))
        net = netlist.nets[int(csr.net_ids[csr.pin_net[pin]])]
        node = netlist.nodes[int(csr.node_ids[pin])]
        raise EvaluationError(f"net '{net.name}' references unplaced node '{node.name}'")
    pts = placement.positions.take(csr.node_ids, axis=0)
    return np.minimum.reduceat(pts, csr.starts), np.maximum.reduceat(pts, csr.starts)


def hpwl(netlist: Netlist, placement: Placement) -> float:
    """Total weighted half-perimeter wirelength over the `net_boxes`.

    Nets with fewer than two pins contribute zero.
    """
    return hpwl_of_boxes(netlist, *net_boxes(netlist, placement))


def hpwl_of_boxes(netlist: Netlist, lo: np.ndarray, hi: np.ndarray) -> float:
    """`hpwl` of the net boxes (lo, hi) that `net_boxes` gave, for a caller
    that reads the boxes for more than HPWL."""
    if not len(lo):
        return 0.0
    ext = hi - lo
    per_net = netlist.net_csr.weights * (ext[:, 0] + ext[:, 1])
    # Sequential sum in net order: the exact total a per-net loop gives.
    return float(np.add.accumulate(per_net)[-1])
