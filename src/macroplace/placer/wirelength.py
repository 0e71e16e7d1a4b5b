"""Log-sum-exp smoothed wirelength and its exact analytic gradient.

Per net and axis the smoothed extremes are

    smax = gamma * (log sum exp(x / gamma) - log p)
    smin = -gamma * (log sum exp(-x / gamma) - log p)

so the smoothed extent lies in [true extent - 2*gamma*log(p), true extent]
and converges to the exact half-perimeter as gamma -> 0. Exponentials are
max-shifted, so finite inputs can never produce non-finite output.

Pins sit at node centers, as in `netlist.hpwl` and the RUDY map, so the
analytical engine minimises a smoothing of the wirelength that the proxy
cost scores. The kernel reads an (N, 2) array of node centers, the
engine's iterate, not a `Placement`. All nets are evaluated at once as
segment reductions (`np.*.reduceat`) over `Netlist.net_csr`.

Both extremes of both axes go through one pass: each pin is laid out as a
(P, 4) row [x, y, -x, -y], so one `maximum.reduceat` gives [hi, -lo], one
exp the max-shifted terms of smax and smin, and one `add.reduceat` their
sums. Negation is exact, so (-x) - (-lo) is the float -(x - lo) and every
term equals its two-pass value. The gradient scatters in one `np.bincount`
over the flat pin slots 2 * node + axis; pins are stored in net order, so
it adds each node's terms in the order a per-net loop would. The per-pin
weights and the slots are built once per netlist
(`Netlist.smooth_wl_pins`).

The analytical engine reads only the gradient, so the smoothed value is
computed when `SmoothWL.value` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..netlist import NetCSR, Netlist


@dataclass(frozen=True, eq=False)
class SmoothWL:
    """The smoothed wirelength at one set of node centres: the (N, 2)
    gradient, and the value, computed on first read from the per-net
    extremes and sums the gradient pass left behind."""
    grad: np.ndarray  # (N, 2) gradient w.r.t. every node centre
    csr: NetCSR
    gamma: float
    extremes: np.ndarray  # (M, 4) [hi, -lo] per net row
    sums: np.ndarray  # (M, 4) sums of the max-shifted exps

    @cached_property
    def value(self) -> float:
        hi, lo = self.extremes[:, :2], -self.extremes[:, 2:]
        log_p = np.log(self.csr.counts)[:, None]
        gamma = self.gamma
        extent = ((hi - lo) + gamma * (np.log(self.sums[:, :2]) - log_p)
                  + gamma * (np.log(self.sums[:, 2:]) - log_p))
        return float(self.csr.weights @ extent.sum(axis=1))


def smooth_wl_and_grad(netlist: Netlist, positions: np.ndarray, gamma: float) -> SmoothWL:
    """Smoothed total wirelength at the node centers `positions` (N, 2):
    its gradient w.r.t. every center, and its value on first read.

    Pin positions are node centers, so pin gradients accumulate directly
    onto their nodes. Nets with fewer than two pins contribute nothing.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    csr = netlist.net_csr
    per_pin = netlist.smooth_wl_pins
    # `take` along rows gathers the same floats as fancy indexing, faster.
    pins = np.concatenate((positions, -positions), axis=1).take(csr.node_ids, axis=0)
    extremes = np.maximum.reduceat(pins, csr.starts)  # (M, 4): [hi, -lo]
    pins -= extremes.take(csr.pin_net, axis=0)
    pins /= gamma
    e = np.exp(pins, out=pins)
    sums = np.add.reduceat(e, csr.starts)
    e /= sums.take(csr.pin_net, axis=0)
    g = per_pin.weights * (e[:, :2] - e[:, 2:])
    grad = np.bincount(per_pin.slots, weights=g.ravel(), minlength=positions.size)
    # Float also without pins (`bincount` then gives ints).
    return SmoothWL(grad=grad.astype(np.float64, copy=False).reshape(positions.shape),
                    csr=csr, gamma=gamma, extremes=extremes, sums=sums)
