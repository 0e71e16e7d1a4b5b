import numpy as np
import pytest

from macroplace.netlist import KIND_STD, Net, Netlist, Node, Pin, Placement, hpwl
from macroplace.placer.wirelength import smooth_wl_and_grad

from conftest import random_design
from oracles import smooth_wl_loop


def fd_gradient(fn, placement, ids, h):
    """Central finite differences of fn w.r.t. the given node coordinates."""
    grad = np.zeros((len(ids), 2))
    for k, nid in enumerate(ids):
        for axis in range(2):
            plus = placement.copy()
            plus.positions[nid, axis] += h
            minus = placement.copy()
            minus.positions[nid, axis] -= h
            grad[k, axis] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def test_coincident_two_pin_gradient_symmetric():
    nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
             Node(1, "b", 1.0, 1.0, KIND_STD, True)]
    nets = [Net(0, "n", (Pin(0), Pin(1)), 1.0)]
    nl = Netlist(nodes, nets, 20.0, 20.0)
    pl = Placement.empty(2)
    pl.positions[:] = (10.0, 10.0)
    pl.placed[:] = True
    grad = smooth_wl_and_grad(nl, pl.positions, gamma=1.0)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    # separate slightly: equal magnitude, opposite sign, shrinking with gap
    for gap in (1.0, 0.1, 0.01):
        p2 = pl.copy()
        p2.positions[1, 0] += gap
        g = smooth_wl_and_grad(nl, p2.positions, gamma=1.0)
        assert g[0, 0] == pytest.approx(-g[1, 0], rel=1e-12)
        assert g[0, 0] < 0 < g[1, 0]
    mags = []
    for gap in (1.0, 0.1, 0.01):
        p2 = pl.copy()
        p2.positions[1, 0] += gap
        g = smooth_wl_and_grad(nl, p2.positions, gamma=1.0)
        mags.append(abs(g[1, 0]))
    assert mags == sorted(mags, reverse=True)


def test_gradient_matches_finite_differences(rng):
    canvas = 100.0
    h = 1e-4 * canvas
    for _ in range(10):
        nl, pl = random_design(rng, n_nodes=12, n_nets=10, canvas=(canvas, canvas),
                               with_offsets=True)
        gamma = float(rng.uniform(0.5, 5.0))
        grad = smooth_wl_and_grad(nl, pl.positions, gamma)
        ids = list(range(nl.num_nodes))
        fd = fd_gradient(lambda p: smooth_wl_loop(nl, p, gamma)[0], pl, ids, h)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(grad[ids], fd, rtol=1e-4, atol=1e-4 * scale)


def test_offsets_off_equals_zeroed_offsets(rng):
    """Pins sit at node centers, as in hpwl: pin offsets change nothing."""
    nl, pl = random_design(rng, with_offsets=True)
    zeroed_nets = [Net(n.id, n.name, tuple(Pin(p.node) for p in n.pins), n.weight)
                   for n in nl.nets]
    nl_zero = Netlist(nl.nodes, zeroed_nets, nl.canvas_width, nl.canvas_height,
                      nl.target_density)
    np.testing.assert_array_equal(smooth_wl_and_grad(nl, pl.positions, 2.0),
                                  smooth_wl_and_grad(nl_zero, pl.positions, 2.0))


def test_gamma_to_zero_converges_to_hpwl():
    nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
             Node(1, "b", 1.0, 1.0, KIND_STD, True)]
    nets = [Net(0, "n", (Pin(0), Pin(1)), 1.0)]
    nl = Netlist(nodes, nets, 200.0, 200.0)
    pl = Placement.empty(2)
    pl.positions[0] = (10.0, 20.0)
    pl.positions[1] = (60.0, 140.0)
    pl.placed[:] = True
    exact = hpwl(nl, pl)
    extent = 170.0
    # Normalized log-sum-exp undershoots a separated 2-pin net by exactly
    # 2*gamma*ln2 per axis; assert that rate and the shrink toward 0.
    gamma = 1e-3 * extent
    value = smooth_wl_loop(nl, pl, gamma)[0]
    assert abs(value - exact) <= 4 * np.log(2) * gamma * (1 + 1e-9)
    value_tight = smooth_wl_loop(nl, pl, gamma / 10)[0]
    assert abs(value_tight - exact) == pytest.approx(abs(value - exact) / 10, rel=1e-3)
    assert abs(value_tight - exact) <= 1e-3 * exact


def test_smoothed_value_bounds(rng):
    for _ in range(10):
        nl, pl = random_design(rng, n_nodes=15, n_nets=12)
        gamma = float(rng.uniform(0.5, 8.0))
        value = smooth_wl_loop(nl, pl, gamma)[0]
        exact = hpwl(nl, pl)
        slack = sum(
            2 * gamma * np.log(len(net.pins)) * net.weight * 2  # both axes
            for net in nl.nets if len(net.pins) >= 2
        )
        assert value <= exact + 1e-9
        assert value >= exact - slack - 1e-9


def test_finite_for_extreme_gamma(rng):
    nl, pl = random_design(rng)
    for gamma in (1e-6, 1e6):
        assert np.isfinite(smooth_wl_and_grad(nl, pl.positions, gamma)).all()


def test_gamma_must_be_positive(rng):
    nl, pl = random_design(rng)
    with pytest.raises(ValueError):
        smooth_wl_and_grad(nl, pl.positions, 0.0)
