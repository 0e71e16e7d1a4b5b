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
from macroplace.placer import analytical, force_directed
from macroplace.placer.analytical import run_analytical
from macroplace.placer.density import density_grid, poisson_basis, solve_density_field
from macroplace.placer.force_directed import _system_for, run_force_directed

from conftest import count_calls, floating_netlist, run_in_fresh_interpreter
from oracles import field_move_loop, in_canvas


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


def field_move_reference(clustered, placement, bins):
    """`placement` with its clusters moved once by `field_move_loop` from
    where they are and clamped into the canvas: the second half of an FD
    outer iteration."""
    pnet = clustered.placement_netlist
    grid = density_grid(pnet, placement, movable_cluster_mask(clustered), bins)
    centres = placement.positions[grid.ids]
    field = solve_density_field(centres, grid)
    moved = placement.copy()
    moved.positions[grid.ids] = grid.clamp(
        centres + field_move_loop(field, pnet, placement)[grid.ids])
    return moved


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
        """The last of 10 iterations (t = 0.9) solves the spring between the
        macros at x = 0 and x = 10, each of weight 1, with the cluster held
        by its degree 2 times t at the position the iteration before left
        it, clamps, and moves by the field once."""
        clustered, fixed = spring_fixture()
        config = PlacerConfig(engine="fd", max_outer_iters=10)
        placement, trace = place_clusters(clustered, fixed, config)
        assert len(trace) == 10
        cid = clustered.cluster_to_placement[0]
        t = 0.9
        solved = trace[-2].placement.copy()
        spring = (np.array([0.0, 0.0]) + np.array([10.0, 0.0])
                  + 2 * t * solved.positions[cid]) / (2 + 2 * t)
        solved.positions[cid] = np.clip(spring, 0.5, 9.5)
        expected = field_move_reference(clustered, solved, config.bins)
        np.testing.assert_allclose(placement.positions[cid], expected.positions[cid],
                                   rtol=0, atol=1e-6)
        assert 4.0 < placement.positions[cid, 0] < 6.0  # near the balance at x = 5

    def test_isolated_cluster_anchored_center_with_warning(self):
        """The cluster on no net starts anchored at the canvas center, and
        then at its own moved position with a weight that does not ramp: its
        solve leaves it where it was, and the field moves it. In the last
        of 5 iterations (t = 0.8) the other cluster solves the spring to
        the macro at (2, 2), of weight 1, against its previous position;
        the field then holds the lone cluster in the corner farthest from
        the macro."""
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
            placement, trace = place_clusters(clustered, base_placement(clustered, fixed),
                                              config)
        cid = {clustered.clusters[ci].members: clustered.cluster_to_placement[ci]
               for ci in range(2)}
        linked, iso = cid[(1,)], cid[(2,)]
        t = 0.8
        solved = trace[-2].placement.copy()
        spring = (np.array([2.0, 2.0]) + t * solved.positions[linked]) / (1 + t)
        solved.positions[linked] = np.clip(spring, 0.5, 19.5)
        expected = field_move_reference(clustered, solved, config.bins)
        np.testing.assert_allclose(placement.positions[[linked, iso]],
                                   expected.positions[[linked, iso]], rtol=0, atol=1e-6)
        np.testing.assert_array_equal(expected.positions[iso], (19.5, 19.5))

    def test_one_field_move_lowers_overlap(self, monkeypatch):
        """Eight 2.5 x 2.5 clusters, each on a net to either of two macros
        with its own pair of weights: the first solve stacks them along the
        segment between the macros, and the field move that follows it
        lowers the pure-overlap overflow (0.689 to 0.493 when written)."""
        nodes = [Node(0, "m0", 2.0, 2.0, KIND_MACRO, False),
                 Node(1, "m1", 2.0, 2.0, KIND_MACRO, False)]
        nodes += [Node(2 + i, f"c{i}", 2.5, 2.5, KIND_STD, True) for i in range(8)]
        nets = [Net(2 * i + side, f"n{i}{side}", (Pin(side), Pin(2 + i)), 1.0 + i * side)
                for i in range(8) for side in (0, 1)]
        nl = Netlist(nodes, nets, 16.0, 16.0, target_density=1.0)
        clustered = cluster_std_cells(nl, k=8)
        pnet = clustered.placement_netlist
        fixed = Placement.empty(pnet.num_nodes)
        fixed.positions[0] = (5.0, 5.0)
        fixed.positions[1] = (11.0, 11.0)
        fixed.placed[:2] = True
        solved = []

        def recorded(centres, grid):
            solved.append(centres.copy())
            return solve_density_field(centres, grid)

        monkeypatch.setattr(force_directed, "solve_density_field", recorded)
        config = PlacerConfig(engine="fd", max_outer_iters=1, bins=16)
        placement, trace = place_clusters(clustered, base_placement(clustered, fixed), config)
        before = placement.copy()
        before.positions[movable_cluster_mask(clustered)] = solved[0]
        grid = Grid.empty(config.bins, config.bins, pnet.canvas_width, pnet.canvas_height)
        crowded = density_overflow(pnet, before, grid, target_density=1.0)
        assert trace[0].overflow < crowded

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
        full = np.flatnonzero(movable_cluster_mask(clustered))
        system = _system_for(clustered, full)
        assert _system_for(clustered, full.copy()) is system
        # One cluster held where the first run put it.
        fewer = movable_cluster_mask(clustered)
        fewer[clustered.cluster_to_placement[0]] = False
        narrowed = _system_for(clustered, np.flatnonzero(fewer))
        assert narrowed is not system
        np.testing.assert_array_equal(narrowed.ids, np.flatnonzero(fewer))
        assert len(narrowed.spectrum.vals) == fewer.sum()
        got, _ = run_force_directed(clustered, placed, fewer, config)
        want, _ = run_force_directed(clustered_synthetic(seed=4)[0], placed, fewer, config)
        np.testing.assert_array_equal(got.positions, want.positions)
        # Neither is the full set served the narrowed system.
        assert _system_for(clustered, full) is not narrowed
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

    def test_poisson_denominators_only_where_read(self):
        """The DCT-II basis and the Poisson eigenvalues (`poisson_basis`
        returns both) are built once per grid geometry, read-only, and
        shared by every placement of either engine on that geometry."""
        clustered, fixed = clustered_synthetic(seed=4)
        poisson_basis.cache_clear()
        for engine in ("fd", "analytical", "fd"):
            place_clusters(clustered, fixed, PlacerConfig(engine=engine, max_outer_iters=2))
        info = poisson_basis.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
        pnet = clustered.placement_netlist
        basis, denom = poisson_basis(64, pnet.canvas_width / 64, pnet.canvas_height / 64)
        assert poisson_basis.cache_info().misses == 1
        assert not basis.flags.writeable and not denom.flags.writeable
        place_clusters(clustered, fixed, PlacerConfig(engine="fd", max_outer_iters=2, bins=16))
        assert poisson_basis.cache_info().misses == 2


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

    @pytest.mark.parametrize("run", ["place_clusters", "spread_movable"])
    def test_descent_starts_at_its_documented_start(self, monkeypatch, run):
        """The first gradient evaluation (lambda_0's) sees the start plus the
        1 % jitter, clamped, bit for bit: under `place_clusters` the
        force-directed placement of the same inputs, under `spread_movable`
        (clusters and macros moving) the canvas centre."""
        if run == "spread_movable":
            bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
            clustered = cluster_std_cells(bundle.netlist, k=8)
            start = base_placement(clustered, bundle.placement)
            entry = spread_movable
        else:
            clustered, start = clustered_synthetic(seed=9)
            entry = place_clusters
        pnet = clustered.placement_netlist
        config = PlacerConfig(engine="analytical", max_outer_iters=2)
        calls = []
        gradient_rows = analytical._gradient_rows

        def recorded(pnet, positions, gamma, dgrid):
            calls.append((positions.take(dgrid.ids, axis=0), dgrid))
            return gradient_rows(pnet, positions, gamma, dgrid)

        monkeypatch.setattr(analytical, "_gradient_rows", recorded)
        entry(clustered, start, config)
        centres, dgrid = calls[0]
        if run == "spread_movable":
            base = np.tile([pnet.canvas_width / 2, pnet.canvas_height / 2], (len(dgrid.ids), 1))
        else:
            fd_placement, _ = run_force_directed(clustered, start,
                                                 movable_cluster_mask(clustered), config)
            base = fd_placement.positions[dgrid.ids]
        jitter = 0.01 * min(pnet.canvas_width, pnet.canvas_height)
        offsets = np.random.default_rng(0).uniform(-jitter, jitter, size=centres.shape)
        assert centres.tobytes() == dgrid.clamp(base + offsets).tobytes()
        assert not np.array_equal(centres, dgrid.clamp(base))

    @pytest.mark.parametrize("run", ["place_clusters", "spread_movable"])
    @pytest.mark.parametrize("overflows, rows", [
        ((0.5, 0.4, 0.45, 0.3, 0.2, 0.2), 3),  # row 2 rises above row 1
        ((0.4, 0.4, 0.3, 0.3, 0.2, 0.2), 6),  # ties never stop: the budget
    ])
    def test_descent_stops_at_the_first_overflow_rise(self, monkeypatch, run, overflows, rows):
        """With the trace rows' overflow scripted (all above
        `overflow_stop`), the descent stops at the first row whose overflow
        is strictly above the lowest before it, and returns that row's
        placement, bit for bit; a tie does not stop it."""
        scripted = iter(overflows)
        monkeypatch.setattr("macroplace.placer.density_overflow",
                            lambda *args, **kwargs: next(scripted))
        if run == "spread_movable":
            bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
            clustered = cluster_std_cells(bundle.netlist, k=8)
            entry, start = spread_movable, base_placement(clustered, bundle.placement)
        else:
            clustered, start = clustered_synthetic(seed=7)
            entry = place_clusters
        config = PlacerConfig(engine="analytical", max_outer_iters=len(overflows))
        placement, trace = entry(clustered, start, config)
        assert [row.overflow for row in trace] == list(overflows[:rows])
        assert placement.positions.tobytes() == trace[rows - 1].placement.positions.tobytes()

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
        # Row i is outer iteration i: its penalty weight has grown i times.
        assert 0 < len(trace) <= config.max_outer_iters
        for index, row in enumerate(trace):
            assert np.isfinite(row.wl)
            assert np.isfinite(row.overflow)
            assert row.lam is not None and row.lam > 0
            assert row.lam == trace[0].lam * analytical.LAMBDA_GROWTH ** index

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
        for budget in (3, 30):
            config = PlacerConfig(engine="fd", max_outer_iters=budget)
            _, trace = place_clusters(clustered, fixed, config)
            assert len(trace) == min(budget, 10)  # force_directed.FIELD_ITERS
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

    @pytest.mark.parametrize("run", ["fd", "analytical", "spread_movable"])
    def test_placement_is_the_last_row_and_fixed_nodes_keep_their_start(self, run):
        """Each engine writes the movable rows of its placement once per
        outer iteration, so the placement it returns is its last trace
        row's, and every fixed node keeps its start position; both bit for
        bit. Under `spread_movable` the macros move too, and the movable ids
        skip the terminals between them and the clusters."""
        if run == "spread_movable":
            bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
            clustered = cluster_std_cells(bundle.netlist, k=8)
            start = base_placement(clustered, bundle.placement)
            movable = clustered.placement_netlist.node_arrays.movable
            assert (np.diff(np.flatnonzero(movable)) > 1).any()
            placement, trace = spread_movable(clustered, start, PlacerConfig(max_outer_iters=8))
        else:
            clustered, start = clustered_synthetic(seed=7)
            movable = movable_cluster_mask(clustered)
            placement, trace = place_clusters(
                clustered, start, PlacerConfig(engine=run, max_outer_iters=6))
        assert trace
        assert placement.positions.tobytes() == trace[-1].placement.positions.tobytes()
        fixed = ~movable
        assert fixed.any()
        assert placement.positions[fixed].tobytes() == start.positions[fixed].tobytes()

    @pytest.mark.parametrize("run", ["analytical", "spread_movable"])
    def test_analytical_stops_below_overflow_stop_on_a_rise_or_at_the_budget(self, run):
        """The descent's stop contract: no row before the last rises above
        the lowest overflow before it, and the last row is below
        `overflow_stop`, rises above that lowest, or ends the budget."""
        if run == "spread_movable":
            bundle = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
            clustered = cluster_std_cells(bundle.netlist, k=8)
            config = PlacerConfig(max_outer_iters=8)
            _, trace = spread_movable(clustered, base_placement(clustered, bundle.placement),
                                      config)
        else:
            clustered, start = clustered_synthetic(seed=7)
            config = PlacerConfig(engine="analytical", max_outer_iters=6)
            _, trace = place_clusters(clustered, start, config)
        overflows = [row.overflow for row in trace]
        lowest = np.minimum.accumulate([np.inf] + overflows)  # lowest[i]: before row i
        assert all(overflows[i] <= lowest[i] for i in range(len(trace) - 1))
        assert (overflows[-1] < PlacerConfig.overflow_stop or overflows[-1] > lowest[-2]
                or len(trace) == config.max_outer_iters)

    @pytest.mark.parametrize("engine", ["fd", "analytical"])
    def test_floating_group_warns_once_per_placement(self, engine):
        """c1 and c2 reach no fixed node: each placement warns once, in
        words true of both engines (the analytical engine runs the
        force-directed one for its start), and names the group."""
        clustered = cluster_std_cells(floating_netlist(), k=3)
        fixed = Placement.empty(clustered.placement_netlist.num_nodes)
        fixed.positions[0] = (2.0, 2.0)
        fixed.placed[0] = True
        pnet = clustered.placement_netlist
        group = [pnet.nodes[clustered.cluster_to_placement[ci]].name
                 for ci, c in enumerate(clustered.clusters) if c.members in ((2,), (3,))]
        config = PlacerConfig(engine=engine, max_outer_iters=5)
        with pytest.warns(UserWarning, match="no connectivity") as caught:
            place_clusters(clustered, base_placement(clustered, fixed), config)
        messages = [str(w.message) for w in caught]
        assert messages == [
            "clusters with no connectivity to a fixed node: no net pulls them toward the "
            f"fixed nodes, so the density field alone sets where they go: {group}"]

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
