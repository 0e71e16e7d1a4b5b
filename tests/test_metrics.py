import numpy as np
import pytest

from macroplace.errors import EvaluationError
from macroplace.grid import Grid
from macroplace.metrics import (
    CongestionMap,
    Metrics,
    TOP_FRACTION,
    RewardWeights,
    congestion_map,
    congestion_scores,
    density_overflow,
    evaluate,
    proxy_cost,
)
from macroplace.netlist import KIND_STD, Net, Netlist, Node, Pin, Placement, hpwl

from conftest import assert_close_to_scale, random_design
from oracles import congestion_fine, density_overflow_fine, top_fraction_mean_sorted


def two_pin_design(p0, p1, canvas=(40.0, 40.0), weight=1.0):
    nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
             Node(1, "b", 1.0, 1.0, KIND_STD, True)]
    nets = [Net(0, "n", (Pin(0), Pin(1)), weight)]
    nl = Netlist(nodes, nets, canvas[0], canvas[1])
    pl = Placement.empty(2)
    pl.positions[0] = p0
    pl.positions[1] = p1
    pl.placed[:] = True
    return nl, pl


class TestCongestionMap:
    def test_net_inside_one_cell(self):
        nl, pl = two_pin_design((3.0, 3.0), (7.0, 7.0))
        grid = Grid.empty(4, 4, 40.0, 40.0)
        cmap = congestion_map(nl, pl, grid)
        assert cmap.demand_h[0, 0] > 0
        assert cmap.demand_h.sum() == pytest.approx(cmap.demand_h[0, 0])
        assert cmap.demand_v.sum() == pytest.approx(cmap.demand_v[0, 0])

    def test_two_adjacent_cells_split_evenly(self):
        # bbox exactly spans cells (0,0) and (0,1): x in [0,20], y in [0,10]
        nl, pl = two_pin_design((0.0, 5.0), (20.0, 5.0))
        grid = Grid.empty(4, 4, 40.0, 40.0)
        cmap = congestion_map(nl, pl, grid)
        total_h = 1.0 / 10.0  # w / h_box
        assert cmap.demand_h[0, 0] == pytest.approx(total_h / 2)
        assert cmap.demand_h[0, 1] == pytest.approx(total_h / 2)
        assert cmap.demand_h.sum() == pytest.approx(total_h)

    def test_matches_fine_raster(self, rng):
        for _ in range(8):
            nl, pl = random_design(rng, n_nodes=15, n_nets=12, canvas=(60.0, 50.0))
            grid = Grid.empty(5, 6, 60.0, 50.0)
            cmap = congestion_map(nl, pl, grid)
            fine_h, fine_v = congestion_fine(nl, pl, grid)
            np.testing.assert_allclose(cmap.demand_h, np.array(fine_h), rtol=1e-6,
                                       atol=1e-12)
            np.testing.assert_allclose(cmap.demand_v, np.array(fine_v), rtol=1e-6,
                                       atol=1e-12)

    def test_additive_over_nets(self, rng):
        nl, pl = random_design(rng, n_nodes=12, n_nets=6)
        grid = Grid.empty(4, 4, nl.canvas_width, nl.canvas_height)
        whole = congestion_map(nl, pl, grid)
        acc_h = np.zeros_like(whole.demand_h)
        acc_v = np.zeros_like(whole.demand_v)
        for net in nl.nets:
            single = Netlist(nl.nodes, [net], nl.canvas_width, nl.canvas_height)
            m = congestion_map(single, pl, grid)
            acc_h += m.demand_h
            acc_v += m.demand_v
        assert_close_to_scale(whole.demand_h, acc_h)
        assert_close_to_scale(whole.demand_v, acc_v)

    def test_unplaced_raises(self):
        nl, pl = two_pin_design((3.0, 3.0), (7.0, 7.0))
        pl.placed[1] = False
        with pytest.raises(EvaluationError, match="b"):
            congestion_map(nl, pl, Grid.empty(4, 4, 40.0, 40.0))

    def test_deterministic_bitwise(self, rng):
        nl, pl = random_design(rng)
        grid = Grid.empty(6, 6, nl.canvas_width, nl.canvas_height)
        a = congestion_map(nl, pl, grid)
        b = congestion_map(nl, pl, grid)
        assert (a.demand_h == b.demand_h).all()
        assert (a.demand_v == b.demand_v).all()


class TestCongestionScores:
    def test_all_below_capacity(self):
        cmap = CongestionMap(np.full((4, 4), 0.3), np.full((4, 4), 0.2), 1.0, 1.0)
        assert congestion_scores(cmap) == (0.0, 0.0)

    def test_uniform_double_capacity(self):
        cmap = CongestionMap(np.full((4, 4), 2.0), np.full((4, 4), 2.0), 1.0, 1.0)
        assert congestion_scores(cmap) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_matches_sort_oracle(self, rng):
        """At TOP_FRACTION; on the 1x1 map k is the whole map."""
        for shape in ((9, 7), (1, 1), (3, 5), (32, 32)):
            demand = rng.uniform(0.0, 3.0, size=shape)
            cmap = CongestionMap(demand, demand * 0.5, 1.2, 0.9)
            ch, cv = congestion_scores(cmap)
            assert ch == pytest.approx(
                top_fraction_mean_sorted(demand.ravel().tolist(), 1.2, TOP_FRACTION))
            assert cv == pytest.approx(
                top_fraction_mean_sorted((demand * 0.5).ravel().tolist(), 0.9, TOP_FRACTION))


class TestDensityOverflow:
    def test_disjoint_under_target_zero(self):
        nl, pl = two_pin_design((5.0, 5.0), (25.0, 25.0))
        grid = Grid.empty(4, 4, 40.0, 40.0)
        assert density_overflow(nl, pl, grid, target_density=1.0) == 0.0

    def test_stacked_clusters_half_overflow(self):
        # two cell-filling nodes exactly stacked on cell (0,0), target 1.0
        nodes = [Node(0, "a", 10.0, 10.0, KIND_STD, True),
                 Node(1, "b", 10.0, 10.0, KIND_STD, True)]
        nl = Netlist(nodes, [], 40.0, 40.0)
        pl = Placement.empty(2)
        pl.positions[:] = (5.0, 5.0)
        pl.placed[:] = True
        grid = Grid.empty(4, 4, 40.0, 40.0)
        assert density_overflow(nl, pl, grid, target_density=1.0) == pytest.approx(0.5)

    def test_matches_fine_raster(self, rng):
        for _ in range(6):
            nl, pl = random_design(rng, n_nodes=18, n_nets=0, canvas=(50.0, 50.0))
            grid = Grid.empty(5, 5, 50.0, 50.0)
            got = density_overflow(nl, pl, grid, target_density=0.6)
            want = density_overflow_fine(nl, pl, grid, target_density=0.6)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


class TestProxyCost:
    def test_zero_metrics_zero_cost(self):
        assert proxy_cost(0.0, 0.0, 0.0, 0.0, 10, 100.0, 100.0) == 0.0

    def test_hpwl_only(self):
        w = RewardWeights(1.0, 0.0, 0.0)
        # hpwl_norm = 0.2 -> cost 0.2
        cost = proxy_cost(0.2 * 5 * 200.0, 0.0, 0.0, 0.0, 5, 100.0, 100.0, w)
        assert cost == pytest.approx(0.2)

    def test_matches_affine_recompute(self, rng):
        for _ in range(50):
            wts = RewardWeights(*rng.uniform(0, 2, size=3))
            hp, ch, cv, dn = rng.uniform(0, 3, size=4)
            nets = int(rng.integers(1, 40))
            W, H = rng.uniform(10, 200, size=2)
            got = proxy_cost(hp, ch, cv, dn, nets, W, H, wts)
            want = (wts.w_hpwl * hp / (nets * (W + H))
                    + wts.w_cong * (ch + cv) / 2 + wts.w_dens * dn)
            assert got == pytest.approx(want, rel=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            proxy_cost(1.0, 0.0, 0.0, 0.0, 1, 10.0, 10.0, RewardWeights(-1.0, 0.0, 0.0))

    def test_reward_is_negated_cost(self, rng):
        nl, pl = random_design(rng)
        grid = Grid.empty(6, 6, nl.canvas_width, nl.canvas_height)
        m = evaluate(nl, pl, grid)
        assert m.reward == -m.proxy_cost
        assert np.isfinite([m.hpwl, m.cong_h, m.cong_v, m.density_overflow,
                            m.proxy_cost]).all()

    def test_parts_equal_the_public_functions(self, rng):
        """`evaluate` builds the net boxes once for HPWL and congestion;
        each part is the float the public function gives."""
        for _ in range(5):
            nl, pl = random_design(rng, n_nodes=30, n_nets=40)
            grid = Grid.empty(8, 7, nl.canvas_width, nl.canvas_height)
            m = evaluate(nl, pl, grid, capacity_h=0.3, capacity_v=0.5)
            assert m.hpwl == hpwl(nl, pl)
            assert (m.cong_h, m.cong_v) == congestion_scores(
                congestion_map(nl, pl, grid, 0.3, 0.5))
            assert m.density_overflow == density_overflow(nl, pl, grid)

    def test_argmax_reward_is_argmin_cost(self, rng):
        nl, pl = random_design(rng, n_nodes=8, n_nets=6)
        grid = Grid.empty(4, 4, nl.canvas_width, nl.canvas_height)
        results = []
        for _ in range(6):
            p = pl.copy()
            p.positions += rng.uniform(-2, 2, size=p.positions.shape)
            p.positions = np.clip(p.positions, 1.5, min(nl.canvas_width,
                                                        nl.canvas_height) - 1.5)
            m = evaluate(nl, p, grid)
            results.append((m.reward, m.proxy_cost))
        best_by_reward = max(range(6), key=lambda i: results[i][0])
        best_by_cost = min(range(6), key=lambda i: results[i][1])
        assert best_by_reward == best_by_cost
