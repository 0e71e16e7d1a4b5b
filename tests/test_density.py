import numpy as np
import pytest

from macroplace.netlist import KIND_STD, Netlist, Node, Placement
from macroplace.placer.density import (
    DensityField,
    density_energy_and_grad,
    density_grid,
    poisson_basis,
    solve_density_field,
    solve_poisson,
)

from conftest import random_design
from oracles import (
    density_energy_and_grad_loop,
    laplacian_5pt,
    poisson_residual,
    solve_poisson_scipy,
)


def grid_of_all(nl, pl, bins):
    """The grid with every node movable: nothing is fixed, so its raster is
    one pass over all charge-carrying placed nodes and each of them gets a
    gradient row, in id order."""
    return density_grid(nl, pl, np.ones(nl.num_nodes, dtype=bool), bins)


def solve(nl, pl, bins):
    grid = grid_of_all(nl, pl, bins)
    return solve_density_field(pl.positions[grid.ids], grid)


def energy(field, nl, pl):
    """The field's energy, from the loop oracle."""
    return density_energy_and_grad_loop(field, nl, pl)[0]


class TestPoissonSolve:
    def test_bins_need_not_be_a_power_of_two(self, rng):
        nl, pl = random_design(rng, n_nodes=25, n_nets=0, canvas=(80.0, 60.0))
        assert poisson_residual(solve(nl, pl, 48)) < 1e-6

    @pytest.mark.parametrize("bins", [16, 48, 64])
    def test_matches_the_fast_transform_solve(self, rng, bins):
        """The dense-basis solve equals `scipy.fft`'s dctn/idctn solve to
        rounding (max-norm relative error), with bins wider than tall."""
        rho = rng.random((bins, bins))
        bin_w, bin_h = 80.0 / bins, 60.0 / bins
        psi = solve_poisson(rho, *poisson_basis(bins, bin_w, bin_h))
        reference = solve_poisson_scipy(rho, bin_w, bin_h)
        assert np.abs(psi - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_uniform_density_gives_constant_potential(self):
        # one node exactly filling the canvas -> rho uniform
        nodes = [Node(0, "m", 64.0, 64.0, KIND_STD, True)]
        nl = Netlist(nodes, [], 64.0, 64.0)
        pl = Placement.empty(1)
        pl.positions[0] = (32.0, 32.0)
        pl.placed[0] = True
        field = solve(nl, pl, 16)
        np.testing.assert_allclose(field.rho, 1.0, atol=1e-12)
        np.testing.assert_allclose(field.psi, 0.0, atol=1e-9)

    def test_cosine_eigenfunction(self):
        """rho = cos(pi x / W): an exact eigenvector of the discrete
        Neumann Laplacian; psi matches (W/pi)^2 cos up to the O(h^2)
        eigenvalue correction, and the residual is at solver precision."""
        bins = 64
        W = 64.0
        bin_w = W / bins
        x = (np.arange(bins) + 0.5) * bin_w
        rho = np.tile(np.cos(np.pi * x / W), (bins, 1))
        psi = solve_poisson(rho, *poisson_basis(bins, bin_w, bin_w))
        field = DensityField(rho=rho, psi=psi, bin_w=bin_w, bin_h=bin_w,
                             norm_scale=1.0, corners=None, wx=None, wy=None)

        # discrete eigenvalue: psi = rho / |lam_1|
        lam_1 = (2.0 * np.cos(np.pi / bins) - 2.0) / bin_w**2
        expected_discrete = rho / abs(lam_1)
        np.testing.assert_allclose(psi, expected_discrete, atol=1e-9)
        # continuous amplitude (W/pi)^2 matched to O((pi/bins)^2 / 12)
        expected_continuous = (W / np.pi) ** 2 * rho
        rel = np.abs(psi - expected_continuous).max() / np.abs(expected_continuous).max()
        assert rel < (np.pi / bins) ** 2 / 6
        # and the discrete Poisson relation holds at 1e-6
        assert poisson_residual(field) < 1e-6

    def test_random_density_stencil_residual(self, rng):
        for _ in range(5):
            nl, pl = random_design(rng, n_nodes=25, n_nets=0, canvas=(80.0, 60.0))
            field = solve(nl, pl, 32)
            assert poisson_residual(field) < 1e-6
            # cross-check the residual helper against the plain-python stencil
            lap = np.array(laplacian_5pt(field.psi.tolist(), field.bin_w, field.bin_h))
            src = field.rho - field.rho.mean()
            assert np.abs(lap + src).max() < 1e-6

    def test_charge_conservation(self, rng):
        nl, pl = random_design(rng, n_nodes=30, n_nets=0)
        field = solve(nl, pl, 32)
        total = sum(n.area for n in nl.nodes if n.kind != "terminal"
                    and pl.placed[n.id])
        assert field.rho.sum() * field.bin_w * field.bin_h == pytest.approx(total, rel=1e-9)


class TestEnergyGradient:
    def test_stacked_nodes_symmetric_gradients(self):
        nodes = [Node(0, "a", 8.0, 8.0, KIND_STD, True),
                 Node(1, "b", 8.0, 8.0, KIND_STD, True)]
        nl = Netlist(nodes, [], 64.0, 64.0)
        pl = Placement.empty(2)
        # mirror-symmetric about canvas center, edges off bin boundaries
        pl.positions[0] = (30.3, 32.3)
        pl.positions[1] = (64.0 - 30.3, 32.3)
        pl.placed[:] = True
        np.testing.assert_array_equal(grid_of_all(nl, pl, 32).ids, [0, 1])
        grad = density_energy_and_grad(solve(nl, pl, 32))
        assert grad[0, 0] == pytest.approx(-grad[1, 0], rel=1e-6)
        assert grad[0, 0] > 0 > grad[1, 0]  # pushed apart

    def test_gradient_matches_finite_differences(self, rng):
        canvas = 64.0
        bins = 32
        bin_dim = canvas / bins
        for _ in range(6):
            n = int(rng.integers(3, 8))
            nodes = [Node(i, f"n{i}", float(rng.uniform(3, 10)),
                          float(rng.uniform(3, 10)), KIND_STD, True)
                     for i in range(n)]
            nl = Netlist(nodes, [], canvas, canvas)
            pl = Placement.empty(n)
            for i in range(n):
                # keep node edges off bin boundaries so fd stays in a smooth piece
                pl.positions[i] = (
                    float(rng.uniform(8, canvas - 8)) + 0.2371 * bin_dim,
                    float(rng.uniform(8, canvas - 8)) + 0.1713 * bin_dim,
                )
                pl.placed[i] = True

            def energy_at(p):
                return energy(solve(nl, p, bins), nl, p)

            np.testing.assert_array_equal(grid_of_all(nl, pl, bins).ids, np.arange(n))
            field = solve(nl, pl, bins)
            at_pl, grad = energy(field, nl, pl), density_energy_and_grad(field)
            h = 1e-5 * canvas
            for nid in range(n):
                for axis in range(2):
                    plus = pl.copy()
                    plus.positions[nid, axis] += h
                    minus = pl.copy()
                    minus.positions[nid, axis] -= h
                    fd = (energy_at(plus) - energy_at(minus)) / (2 * h)
                    assert grad[nid, axis] == pytest.approx(
                        fd, rel=1e-3, abs=1e-3 * max(abs(at_pl) / canvas, 1e-9)
                    ), (nid, axis)

    def test_single_node_drifts_inward_energy_decreases(self):
        nodes = [Node(0, "m", 10.0, 10.0, KIND_STD, True)]
        nl = Netlist(nodes, [], 64.0, 64.0)
        pl = Placement.empty(1)
        pl.positions[0] = (6.3, 7.1)  # near the lower-left corner
        pl.placed[0] = True
        energies = []
        dist_to_center = []
        for _ in range(10):
            field = solve(nl, pl, 32)
            grad = density_energy_and_grad(field)
            energies.append(energy(field, nl, pl))
            dist_to_center.append(np.hypot(*(pl.positions[0] - 32.0)))
            pl = pl.copy()
            step = 2.0 / max(np.abs(grad).max(), 1e-12)
            pl.positions[0] -= np.minimum(step * grad[0], 3.0)
            pl.positions[0] = np.clip(pl.positions[0], 5.0, 59.0)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert dist_to_center[-1] < dist_to_center[0]
