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

Both extremes of both axes go through one pass, laid out axis-major: the
pins' centres are gathered from `positions.T` into rows [x; y] and stacked
with their negation into one (4, P) array [x; y; -x; -y], so one
`maximum.reduceat` gives [hi; -lo], one exp the max-shifted terms of smax
and smin, and one `add.reduceat` their sums. Negation is exact, so
(-x) - (-lo) is the float -(x - lo) and every term equals its two-pass
value. Both reductions run over the flat array with every row's net
segments (`SmoothWLPins.starts`); no segment crosses a row, and a sum over
a contiguous segment takes the same pairwise order as the same segment
along axis 0 of a pin-major (P, 4) layout, so the floats are the pin-major
pass's (max is exact in any order). The smax - smin difference and the
weight product then run over contiguous rows, where in the pin-major
layout they were strided (P, 2) halves and a (P, 1) broadcast. On the
benchmark's S placement netlist (566 pins, 241 nets; Xeon, one BLAS
thread) those two took 7.2 and 6.1 us pin-major and 1.1 and 1.4 us
axis-major, and the sum reduction 10.9 against 9.0 us; the max reduction
is no faster axis-major (14.7 against 16.7 us), nor is `fmax`. The
gradient scatters in one `np.bincount` over the axis-major slots
2 * node + axis, all x terms then all y terms; pins are stored in net
order, so it adds each node's terms in the order a per-net loop would.
The per-row segments, the per-pin weights and the slots are built once
per netlist (`Netlist.smooth_wl_pins`).
"""

from __future__ import annotations

import numpy as np

from ..netlist import Netlist


def smooth_wl_and_grad(netlist: Netlist, positions: np.ndarray, gamma: float) -> np.ndarray:
    """(N, 2) gradient of the smoothed total wirelength w.r.t. every node
    center, at the centers `positions` (N, 2).

    Pin positions are node centers, so pin gradients accumulate directly
    onto their nodes. Nets with fewer than two pins contribute nothing.
    The smoothed value itself is not computed: the analytical engine reads
    only the gradient. The name is the kernel's span in the benchmark's
    per-layer trace (`placer.wirelength.smooth_wl_and_grad`).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    per_pin = netlist.smooth_wl_pins
    node_ids = netlist.net_csr.node_ids
    # Rows [x; y; -x; -y] of the pins; `take` gathers as fancy indexing does.
    pins = np.empty((4, len(node_ids)))
    positions.T.take(node_ids, axis=1, out=pins[:2])
    np.negative(pins[:2], out=pins[2:])
    flat = pins.reshape(-1)
    flat -= np.maximum.reduceat(flat, per_pin.starts).take(per_pin.pin_net)  # [hi; -lo]
    flat /= gamma
    e = np.exp(flat, out=flat)
    e /= np.add.reduceat(e, per_pin.starts).take(per_pin.pin_net)
    g = np.subtract(pins[:2], pins[2:], out=pins[:2])
    g *= per_pin.weights
    grad = np.bincount(per_pin.slots, weights=g.reshape(-1), minlength=positions.size)
    # Float also without pins (`bincount` then gives ints).
    return grad.astype(np.float64, copy=False).reshape(positions.shape)
