import warnings
from dataclasses import replace

import numpy as np
import pytest

from macroplace.clustering import base_placement, cluster_std_cells
from macroplace.design import SyntheticSpec, generate_synthetic
from macroplace.errors import PlacementError
from macroplace.grid import Grid
from macroplace.metrics import density_overflow
from macroplace.netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
    hpwl,
)
from macroplace.placer import (
    PlacerConfig,
    movable_cluster_mask,
    place_clusters,
    spread_movable,
)
from macroplace.placer import analytical
from macroplace.placer.analytical import run_analytical
from macroplace.placer.density import (
    DensityField,
    density_grid,
    poisson_basis,
    solve_density_field,
)
from macroplace.placer.force_directed import _system_for, run_force_directed
from macroplace.placer.wirelength import SmoothWL, smooth_wl_and_grad

from conftest import count_calls, floating_netlist, run_in_fresh_interpreter
from oracles import in_canvas


def spring_fixture():
    """One std cell between two fixed macros at x=0 and x=10."""
    nodes = [
        Node(0, "m0", 1.0, 1.0, KIND_MACRO, False),
        Node(1, "m1", 1.0, 1.0, KIND_MACRO, False),
        Node(2, "c", 1.0, 1.0, KIND_STD, True),
    ]
    nets = [
        Net(0, "n0", (Pin(0), Pin(2)), 1.0),
        Net(1, "n1", (Pin(1), Pin(2)), 1.0),
    ]
    nl = Netlist(nodes, nets, 10.0, 10.0, target_density=1.0)
    clustered = cluster_std_cells(nl, k=1)
    placement = Placement.empty(nl.num_nodes)
    placement.positions[0] = (0.0, 0.0)
    placement.positions[1] = (10.0, 0.0)
    placement.placed[0] = placement.placed[1] = True
    return clustered, base_placement(clustered, placement)


def clustered_synthetic(seed=5, macros=2, cells=80, nets=100, k=8):
    bundle = generate_synthetic(
        SyntheticSpec(macro_count=macros, std_cell_count=cells, net_count=nets,
                      seed=seed)
    )
    nl = bundle.netlist
    clustered = cluster_std_cells(nl, k=k)
    placement = bundle.placement.copy()
    # park macros at deterministic spots so only clusters move
    rng = np.random.default_rng(seed)
    for macro in nl.macros():
        placement.positions[macro.id] = (
            rng.uniform(macro.width / 2, nl.canvas_width - macro.width / 2),
            rng.uniform(macro.height / 2, nl.canvas_height - macro.height / 2),
        )
        placement.placed[macro.id] = True
    return clustered, base_placement(clustered, placement)


class TestConfig:
    @pytest.mark.parametrize("iters", [0, -1])
    def test_outer_iterations_below_one_rejected(self, iters):
        with pytest.raises(ValueError, match="max_outer_iters"):
            PlacerConfig(max_outer_iters=iters)

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlacementError, match="unknown placer engine 'quantum'"):
            PlacerConfig(engine="quantum")

    @pytest.mark.parametrize("engine", ["fd", "analytical"])
    @pytest.mark.parametrize("bins", [1, 0])
    def test_bins_below_two_rejected(self, engine, bins):
        with pytest.raises(ValueError, match=f"bins must be >= 2, got {bins}"):
            PlacerConfig(engine=engine, bins=bins)


class TestForceDirected:
    def test_spring_balance(self):
        clustered, fixed = spring_fixture()
        config = PlacerConfig(engine="fd", max_outer_iters=10)
        placement, trace = place_clusters(clustered, fixed, config)
        cid = clustered.cluster_to_placement[0]
        assert placement.positions[cid, 0] == pytest.approx(5.0, abs=1e-6)
        assert len(trace) == 10

    def test_isolated_cluster_anchored_center_with_warning(self):
        nodes = [
            Node(0, "m0", 1.0, 1.0, KIND_MACRO, False),
            Node(1, "c0", 1.0, 1.0, KIND_STD, True),
            Node(2, "c1", 1.0, 1.0, KIND_STD, True),
        ]
        nets = [Net(0, "n0", (Pin(0), Pin(1)), 1.0)]  # c1 has no net
        nl = Netlist(nodes, nets, 20.0, 20.0, target_density=1.0)
        clustered = cluster_std_cells(nl, k=2)
        fixed = Placement.empty(clustered.placement_netlist.num_nodes)
        fixed.positions[0] = (2.0, 2.0)
        fixed.placed[0] = True
        config = PlacerConfig(engine="fd", max_outer_iters=5)
        with pytest.warns(UserWarning, match="no connectivity"):
            placement, _ = place_clusters(clustered, base_placement(clustered, fixed),
                                          config)
        # the disconnected cluster sits at the canvas center
        iso = [clustered.cluster_to_placement[ci] for ci, c in
               enumerate(clustered.clusters) if c.members == (2,)]
        np.testing.assert_allclose(placement.positions[iso[0]], (10.0, 10.0),
                                   atol=1e-6)

    def test_group_without_fixed_neighbour_anchored_with_warning(self):
        """c1 and c2 share a net and reach no fixed node: the first solve
        used to be singular and the placement non-finite."""
        clustered = cluster_std_cells(floating_netlist(), k=3)
        fixed = Placement.empty(clustered.placement_netlist.num_nodes)
        fixed.positions[0] = (2.0, 2.0)
        fixed.placed[0] = True
        config = PlacerConfig(engine="fd", max_outer_iters=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            placement, trace = place_clusters(
                clustered, base_placement(clustered, fixed), config)
            # The second call takes the design's system from its cache.
            again, _ = place_clusters(clustered, base_placement(clustered, fixed), config)
        pnet = clustered.placement_netlist
        group = [pnet.nodes[clustered.cluster_to_placement[ci]].name
                 for ci, c in enumerate(clustered.clusters) if c.members in ((2,), (3,))]
        messages = [str(w.message) for w in caught if "no connectivity" in str(w.message)]
        assert len(messages) == 2
        assert all(message.endswith(f"{group}") for message in messages)
        np.testing.assert_array_equal(again.positions, placement.positions)
        assert np.isfinite(placement.positions).all()
        assert all(np.isfinite(row.wl) and np.isfinite(row.overflow) for row in trace)

    def test_deterministic(self):
        clustered, fixed = clustered_synthetic()
        config = PlacerConfig(engine="fd", max_outer_iters=8)
        p1, t1 = place_clusters(clustered, fixed, config)
        p2, t2 = place_clusters(clustered, fixed, config)
        np.testing.assert_array_equal(p1.positions, p2.positions)
        assert [(r.wl, r.overflow) for r in t1] == [(r.wl, r.overflow) for r in t2]


class TestForceDirectedDesignCache:
    """The FD system is built once per design and movable set, and a cached
    system places exactly as a freshly built one."""

    @staticmethod
    def moved_macros(clustered, fixed, seed):
        """`fixed` with every macro at another in-canvas spot."""
        pnet = clustered.placement_netlist
        rng = np.random.default_rng(seed)
        other = fixed.copy()
        for macro in pnet.macros():
            other.positions[macro.id] = (
                rng.uniform(macro.width / 2, pnet.canvas_width - macro.width / 2),
                rng.uniform(macro.height / 2, pnet.canvas_height - macro.height / 2))
        return other

    def test_eigendecomposition_once_per_design(self, monkeypatch):
        clustered, fixed = clustered_synthetic(seed=4)
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        config = PlacerConfig(engine="fd", max_outer_iters=4)
        place_clusters(clustered, fixed, config)
        first = len(calls)
        assert first == 2  # the anchored block and the rest
        for seed in (1, 2):
            place_clusters(clustered, self.moved_macros(clustered, fixed, seed), config)
        assert len(calls) == first
        other, other_fixed = clustered_synthetic(seed=4)
        place_clusters(other, other_fixed, config)
        assert len(calls) == 2 * first

    def test_cached_system_places_as_fresh_design(self):
        clustered, fixed = clustered_synthetic(seed=4)
        other = self.moved_macros(clustered, fixed, seed=1)
        config = PlacerConfig(engine="fd", max_outer_iters=8)
        cached = [place_clusters(clustered, start, config)[0] for start in (fixed, other)]
        fresh = [place_clusters(clustered_synthetic(seed=4)[0], start, config)[0]
                 for start in (fixed, other)]
        for got, want in zip(cached, fresh):
            np.testing.assert_array_equal(got.positions, want.positions)
        assert not np.array_equal(cached[0].positions, cached[1].positions)

    def test_other_movable_set_never_served_from_cache(self):
        clustered, fixed = clustered_synthetic(seed=4)
        config = PlacerConfig(engine="fd", max_outer_iters=6)
        placed, _ = place_clusters(clustered, fixed, config)
        full = movable_cluster_mask(clustered)
        system = _system_for(clustered, full)
        assert _system_for(clustered, full) is system
        # One cluster held where the first run put it.
        fewer = full.copy()
        fewer[clustered.cluster_to_placement[0]] = False
        narrowed = _system_for(clustered, fewer)
        assert narrowed is not system
        np.testing.assert_array_equal(narrowed.movable, fewer)
        assert len(narrowed.spectrum.vals) == fewer.sum()
        got, _ = run_force_directed(clustered, placed, fewer, config)
        want, _ = run_force_directed(clustered_synthetic(seed=4)[0], placed, fewer, config)
        np.testing.assert_array_equal(got.positions, want.positions)
        # Changing the caller's mask in place does not change the cached one.
        fewer[:] = full
        assert _system_for(clustered, fewer) is not narrowed
        again, _ = place_clusters(clustered, fixed, config)
        np.testing.assert_array_equal(again.positions, placed.positions)

    def test_movable_node_without_area_rejected(self):
        """`engine_start` rejects it for both engines and `spread_movable`:
        each one's movable rows are the density grid's charge rows."""
        clustered, fixed = clustered_synthetic(seed=4)
        pnet = clustered.placement_netlist
        movable = movable_cluster_mask(clustered)
        bare = pnet.nodes[np.flatnonzero(~pnet.node_arrays.charge)[0]]
        movable[bare.id] = True
        message = f"movable node '{bare.name}' carries no area"
        for run in (run_force_directed, run_analytical):
            with pytest.raises(PlacementError, match=message):
                run(clustered, fixed, movable, PlacerConfig())

        bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
        nl = bundle.netlist
        terminal = next(n for n in nl.nodes if n.kind == KIND_TERMINAL)
        nodes = [replace(n, movable=True) if n is terminal else n for n in nl.nodes]
        clustered = cluster_std_cells(
            Netlist(nodes, nl.nets, nl.canvas_width, nl.canvas_height, nl.target_density), k=8)
        with pytest.raises(PlacementError, match=f"movable node '{terminal.name}' carries"):
            spread_movable(clustered, base_placement(clustered, bundle.placement),
                           PlacerConfig())

    def test_poisson_denominators_only_where_read(self, monkeypatch):
        """The spreading pass builds neither the DCT-II basis nor the
        Poisson eigenvalues; the electrostatic engine builds each once per
        placement (`poisson_basis` returns both)."""
        clustered, fixed = clustered_synthetic(seed=4)
        calls = count_calls(monkeypatch, poisson_basis)
        place_clusters(clustered, fixed, PlacerConfig(engine="fd", max_outer_iters=4))
        assert not calls
        place_clusters(clustered, fixed, PlacerConfig(engine="analytical", max_outer_iters=2))
        assert len(calls) == 1


class TestAnalytical:
    def test_two_cluster_toy_reaches_overflow_stop(self):
        nodes = [
            Node(0, "m0", 2.0, 2.0, KIND_MACRO, False),
            Node(1, "c0", 12.0, 12.0, KIND_STD, True),
            Node(2, "c1", 12.0, 12.0, KIND_STD, True),
        ]
        nets = [
            Net(0, "n0", (Pin(0), Pin(1)), 1.0),
            Net(1, "n1", (Pin(0), Pin(2)), 1.0),
        ]
        nl = Netlist(nodes, nets, 64.0, 64.0, target_density=0.5)
        clustered = cluster_std_cells(nl, k=2)
        fixed = Placement.empty(clustered.placement_netlist.num_nodes)
        fixed.positions[0] = (32.0, 32.0)
        fixed.placed[0] = True
        config = PlacerConfig(engine="analytical")
        placement, trace = place_clusters(clustered, base_placement(clustered, fixed),
                                          config)
        assert trace[-1].overflow < 0.10
        assert in_canvas(clustered.placement_netlist, placement)

    def test_deterministic(self):
        clustered, fixed = clustered_synthetic(seed=9)
        config = PlacerConfig(engine="analytical", max_outer_iters=6)
        p1, _ = place_clusters(clustered, fixed, config)
        p2, _ = place_clusters(clustered, fixed, config)
        np.testing.assert_array_equal(p1.positions, p2.positions)

    def test_trace_columns(self):
        clustered, fixed = clustered_synthetic(seed=2)
        config = PlacerConfig(engine="analytical", max_outer_iters=4)
        _, trace = place_clusters(clustered, fixed, config)
        assert trace
        for row in trace:
            assert row.iteration >= 0
            assert np.isfinite(row.wl)
            assert np.isfinite(row.overflow)
            assert row.lam is not None and row.lam > 0

    def test_step_falls_back_after_backtrack_limit(self, monkeypatch):
        """A fake gradient that is `soft` at the start point and `soft + 10`
        everywhere else puts every trial of the first Nesterov step ~15x
        past its Lipschitz estimate: that step costs BACKTRACK_LIMIT
        rejected trials plus the fallback, whose length is
        FALLBACK_STEP_FRAC * diag / max|g|. Later steps see no gradient
        change and are accepted at their first trial."""
        clustered, fixed = clustered_synthetic(seed=3)
        pnet = clustered.placement_netlist
        soft = np.random.default_rng(0).uniform(
            -1.0, 1.0, (int(movable_cluster_mask(clustered).sum()), 2))
        calls = []

        def stiff_rows(pnet, positions, gamma, dgrid):
            calls.append((positions.take(dgrid.ids, axis=0), dgrid))
            rows = soft if len(calls) == 1 else soft + 10.0
            return rows, np.zeros_like(rows)

        monkeypatch.setattr(analytical, "_gradient_rows", stiff_rows)
        placement, trace = place_clusters(
            clustered, fixed, PlacerConfig(engine="analytical", max_outer_iters=1))
        assert len(trace) == 1
        limit = analytical.BACKTRACK_LIMIT
        assert len(calls) == 1 + (limit + 1) + (analytical.INNER_ITERS - 1)

        start, dgrid = calls[0]
        shifts = [np.abs(trial - start).max() for trial, _ in calls[1:limit + 1]]
        assert all(a > b > 0 for a, b in zip(shifts, shifts[1:]))
        diag = np.hypot(pnet.canvas_width, pnet.canvas_height)
        step = analytical.FALLBACK_STEP_FRAC * diag / np.abs(soft).max()
        np.testing.assert_allclose(calls[limit + 1][0], dgrid.clamp(start - step * soft),
                                   rtol=1e-12)
        assert np.isfinite(placement.positions).all()
        assert in_canvas(pnet, placement)


class TestTrace:
    @pytest.mark.parametrize("engine", ["fd", "analytical"])
    def test_rows_keep_values_when_placement_mutates(self, engine):
        clustered, fixed = clustered_synthetic(seed=3)
        pnet = clustered.placement_netlist
        config = PlacerConfig(engine=engine, max_outer_iters=4)
        placement, trace = place_clusters(clustered, fixed, config)
        before = placement.copy()
        placement.positions *= 0.5
        grid = Grid.empty(config.bins, config.bins, pnet.canvas_width, pnet.canvas_height)
        assert trace[-1].wl == hpwl(pnet, before) != hpwl(pnet, placement)
        assert trace[-1].overflow == density_overflow(pnet, before, grid, target_density=1.0)

    def test_force_directed_computes_trace_metrics_on_read(self, monkeypatch):
        clustered, fixed = clustered_synthetic(seed=3)
        wl_calls = count_calls(monkeypatch, hpwl)
        overflow_calls = count_calls(monkeypatch, density_overflow)
        config = PlacerConfig(engine="fd", max_outer_iters=30)
        _, trace = place_clusters(clustered, fixed, config)
        assert len(trace) == 30
        assert (len(wl_calls), len(overflow_calls)) == (0, 0)
        first = trace[-1].overflow
        assert trace[-1].overflow == first  # kept, not recomputed
        assert (len(wl_calls), len(overflow_calls)) == (0, 1)

    def test_analytical_reads_one_overflow_per_outer_iteration(self, monkeypatch):
        clustered, fixed = clustered_synthetic(seed=3)
        wl_calls = count_calls(monkeypatch, hpwl)
        overflow_calls = count_calls(monkeypatch, density_overflow)
        config = PlacerConfig(engine="analytical", max_outer_iters=5)
        _, trace = place_clusters(clustered, fixed, config)
        assert len(overflow_calls) == len(trace) > 0
        assert len(wl_calls) == 0
        [row.overflow for row in trace]
        assert len(overflow_calls) == len(trace)

    def test_analytical_never_reads_the_smoothed_wirelength(self, monkeypatch):
        """The engine reads only the smoothed wirelength's gradient; its
        value is computed on first read, so it is never computed here."""
        def unread(wl):
            raise AssertionError("SmoothWL.value read")

        monkeypatch.setattr(SmoothWL, "value", property(unread))
        clustered, fixed = clustered_synthetic(seed=3)
        config = PlacerConfig(engine="analytical", max_outer_iters=5)
        placement, trace = place_clusters(clustered, fixed, config)
        assert len(trace) > 0
        wl = smooth_wl_and_grad(clustered.placement_netlist, placement.positions, 1.0)
        with pytest.raises(AssertionError, match="SmoothWL.value read"):
            wl.value

    def test_analytical_never_reads_the_density_energy(self, monkeypatch):
        """The engine reads only the density energy's gradient; the energy
        is computed on first read, so it is never computed here."""
        def unread(field):
            raise AssertionError("DensityField.energy read")

        monkeypatch.setattr(DensityField, "energy", property(unread))
        clustered, fixed = clustered_synthetic(seed=3)
        config = PlacerConfig(engine="analytical", max_outer_iters=5)
        placement, trace = place_clusters(clustered, fixed, config)
        assert len(trace) > 0
        movable = movable_cluster_mask(clustered)
        grid = density_grid(clustered.placement_netlist, placement, movable, config.bins)
        field = solve_density_field(placement.positions[grid.ids], grid)
        with pytest.raises(AssertionError, match="DensityField.energy read"):
            field.energy


class TestEngineContract:
    def test_both_engines_same_interface(self):
        clustered, fixed = clustered_synthetic(seed=7)
        pnet = clustered.placement_netlist
        for engine in ("fd", "analytical"):
            config = PlacerConfig(engine=engine, max_outer_iters=6)
            placement, trace = place_clusters(clustered, fixed, config)
            assert placement.placed.all()
            assert in_canvas(pnet, placement)
            # fixed nodes never move
            for node in pnet.nodes:
                if node.kind != KIND_STD:
                    np.testing.assert_array_equal(placement.positions[node.id],
                                                  fixed.positions[node.id])

    @pytest.mark.parametrize("engine", ["fd", "analytical"])
    def test_start_positions_are_ignored(self, engine):
        """Both engines read only the fixed nodes of the start: the jittered
        start and a random in-canvas start give the same placement and trace."""
        clustered, fixed = clustered_synthetic()
        pnet = clustered.placement_netlist
        ids = clustered.cluster_to_placement
        assert not fixed.placed[ids].any()  # the first run starts from the jitter
        start = fixed.copy()
        half = np.stack([pnet.node_arrays.width[ids], pnet.node_arrays.height[ids]], axis=1) / 2
        canvas = np.array([pnet.canvas_width, pnet.canvas_height])
        start.positions[ids] = np.random.default_rng(1).uniform(half, canvas - half)
        start.placed[ids] = True
        config = PlacerConfig(engine=engine, max_outer_iters=8)
        p1, t1 = place_clusters(clustered, fixed, config)
        p2, t2 = place_clusters(clustered, start, config)
        np.testing.assert_array_equal(p1.positions, p2.positions)
        assert [(r.wl, r.overflow) for r in t1] == [(r.wl, r.overflow) for r in t2]

    def test_unplaced_macro_rejected(self):
        clustered, fixed = clustered_synthetic(seed=7)
        bad = fixed.copy()
        macro_pid = [n.id for n in clustered.placement_netlist.nodes
                     if n.kind == KIND_MACRO][0]
        bad.placed[macro_pid] = False
        with pytest.raises(PlacementError, match="must be placed"):
            place_clusters(clustered, bad, PlacerConfig(engine="fd"))

    def test_unknown_engine_rejected(self):
        clustered, fixed = clustered_synthetic(seed=7)
        with pytest.raises(PlacementError, match="unknown placer engine"):
            place_clusters(clustered, fixed, PlacerConfig(engine="quantum"))

    def test_spread_movable_rejects_unplaced_terminal(self):
        """`spread_movable` re-seeds only the movable nodes: a terminal
        without a position is rejected before any iteration, not pulled
        toward (0, 0)."""
        bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
        clustered = cluster_std_cells(bundle.netlist, k=8)
        fixed = base_placement(clustered, bundle.placement)
        p0 = next(n.id for n in clustered.placement_netlist.nodes if n.name == "p0")
        fixed.placed[p0] = False
        with pytest.raises(PlacementError, match="fixed node 'p0' must be placed"):
            spread_movable(clustered, fixed, PlacerConfig(max_outer_iters=8))

    def test_spread_movable_places_macros(self):
        bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
        clustered = cluster_std_cells(bundle.netlist, k=8)
        fixed = base_placement(clustered, bundle.placement)
        config = PlacerConfig(max_outer_iters=8)
        placement, _ = spread_movable(clustered, fixed, config)
        pnet = clustered.placement_netlist
        assert placement.placed.all()
        assert in_canvas(pnet, placement)
        macro_ids = [n.id for n in pnet.nodes if n.kind == KIND_MACRO]
        spreads = placement.positions[macro_ids]
        assert np.ptp(spreads, axis=0).max() > 1.0  # macros actually spread out


SCIPY_PROBE = """
import json, sys
from macroplace.clustering import base_placement, cluster_std_cells
from macroplace.design import SyntheticSpec, generate_synthetic
from macroplace.env import EnvConfig, MacroPlacementEnv, rollout, uniform_random_policy
from macroplace.placer import PlacerConfig, spread_movable

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
loaded = {}
for engine in ("fd", "analytical"):
    placer = PlacerConfig(engine=engine, max_outer_iters=3, bins=16)
    env = MacroPlacementEnv(bundle, EnvConfig(grid_rows=8, grid_cols=8, placer=placer))
    assert rollout(env, uniform_random_policy, seed=0).metrics is not None
    loaded[engine] = scipy_loaded()
clustered = cluster_std_cells(bundle.netlist, k=8)
spread_movable(clustered, base_placement(clustered, bundle.placement),
               PlacerConfig(max_outer_iters=3, bins=16))
loaded["spread_movable"] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_fd_episode_loads_no_scipy_fft():
    """A fresh interpreter runs a force-directed episode, then an analytical
    episode, then `spread_movable`, and loads no scipy module at any stage:
    the Poisson solve is numpy only."""
    assert run_in_fresh_interpreter(SCIPY_PROBE) == {
        "fd": [], "analytical": [], "spread_movable": []}
