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
segment reductions (`np.*.reduceat`) over `Netlist.net_csr`. Pins are
stored in net order, so the `np.bincount` scatter adds each node's
gradient terms in the same order a per-net loop would.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Netlist


def smooth_wl_and_grad(netlist: Netlist, positions: np.ndarray, gamma: float):
    """Smoothed total wirelength at the node centers `positions` (N, 2) and
    its (N, 2) gradient w.r.t. every center.

    Pin positions are node centers, so pin gradients accumulate directly
    onto their nodes. Nets with fewer than two pins contribute nothing.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    csr = netlist.net_csr
    pts = positions[csr.node_ids]  # (P, 2)
    hi = np.maximum.reduceat(pts, csr.starts)  # (M, 2)
    lo = np.minimum.reduceat(pts, csr.starts)
    e_hi = np.exp((pts - hi[csr.pin_net]) / gamma)
    e_lo = np.exp(-(pts - lo[csr.pin_net]) / gamma)
    s_hi = np.add.reduceat(e_hi, csr.starts)
    s_lo = np.add.reduceat(e_lo, csr.starts)
    log_p = np.log(csr.counts)[:, None]
    extent = (hi - lo) + gamma * (np.log(s_hi) - log_p) + gamma * (np.log(s_lo) - log_p)
    value = float(csr.weights @ extent.sum(axis=1))

    w = csr.weights[csr.pin_net, None]
    g = w * (e_hi / s_hi[csr.pin_net] - e_lo / s_lo[csr.pin_net])
    grad = np.zeros_like(positions)
    n = len(grad)
    grad[:, 0] = np.bincount(csr.node_ids, weights=g[:, 0], minlength=n)
    grad[:, 1] = np.bincount(csr.node_ids, weights=g[:, 1], minlength=n)
    return value, grad
