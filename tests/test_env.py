import gc
import hashlib
import weakref

import numpy as np
import pytest

from macroplace.bookshelf import parse_bookshelf, write_bookshelf
from macroplace.clustering import base_placement, cluster_std_cells
from macroplace.design import (
    DesignBundle,
    SyntheticSpec,
    edit_for_movable_macros,
    generate_synthetic,
)
from macroplace.env import (
    EnvConfig,
    MacroPlacementEnv,
    Trajectory,
    rollout,
    uniform_random_policy,
)
from macroplace.errors import DesignError, PlacementError
from macroplace.netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
)
from macroplace.placer import PlacerConfig, place_clusters, spread_movable
from macroplace.placer.density import density_energy_and_grad, solve_density_field
from macroplace.placer.wirelength import smooth_wl_and_grad

from conftest import count_calls
from oracles import mask_bruteforce


def bundle_from(nodes, nets, canvas, target=1.0, terminal_corners=True):
    nl = Netlist(list(nodes), list(nets), canvas, canvas, target_density=target)
    pl = Placement.empty(nl.num_nodes)
    for n in nl.nodes:
        if n.kind == KIND_TERMINAL:
            pl.positions[n.id] = (n.width / 2, n.height / 2)
            pl.placed[n.id] = True
    return DesignBundle(netlist=nl, placement=pl)


def small_design(grid=4, macros=None, cells=3, canvas=40.0, target=1.0):
    """(bundle, config) of a chain of macros, cells and one terminal."""
    if macros is None:
        macros = [(9.0, 9.0), (6.0, 6.0)]
    nodes = []
    for i, (w, h) in enumerate(macros):
        nodes.append(Node(len(nodes), f"m{i}", w, h, KIND_MACRO, True))
    for i in range(cells):
        nodes.append(Node(len(nodes), f"c{i}", 1.5, 1.5, KIND_STD, True))
    nodes.append(Node(len(nodes), "p0", 0.5, 0.5, KIND_TERMINAL, False))
    nets = []
    ids = list(range(len(nodes)))
    for i in range(len(nodes) - 1):
        nets.append(Net(len(nets), f"n{i}", (Pin(ids[i]), Pin(ids[i + 1])), 1.0))
    bundle = bundle_from(nodes, nets, canvas, target)
    config = EnvConfig(grid_rows=grid, grid_cols=grid,
                       placer=PlacerConfig(engine="fd", max_outer_iters=5, bins=16),
                       clusters_k=2)
    return bundle, config


def small_env(**kwargs):
    return MacroPlacementEnv(*small_design(**kwargs))


class TestReset:
    def test_macro_order_by_area_desc(self):
        env = small_env(macros=[(3.0, 3.0), (1.0, 1.0), (2.0, 2.0)])
        names = [env.pnet.nodes[pid].name for pid in env.macro_order]
        assert names == ["m0", "m2", "m1"]

    def test_equal_area_tie_breaks_by_id(self):
        env = small_env(macros=[(2.0, 2.0), (2.0, 2.0)])
        names = [env.pnet.nodes[pid].name for pid in env.macro_order]
        assert names == ["m0", "m1"]

    def test_reset_deterministic(self):
        env = small_env()
        _, obs1 = env.reset()
        _, obs2 = env.reset()
        np.testing.assert_array_equal(obs1.occupancy, obs2.occupancy)
        np.testing.assert_array_equal(obs1.mask, obs2.mask)
        assert obs1.macro_id == obs2.macro_id

    def test_zero_macros_rejected(self):
        nodes = [Node(0, "c", 1.0, 1.0, KIND_STD, True)]
        bundle = bundle_from(nodes, [], 10.0)
        with pytest.raises(DesignError, match="no macros"):
            MacroPlacementEnv(bundle, EnvConfig())

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            MacroPlacementEnv(small_design()[0], EnvConfig(clusters_k=0))

    def test_macro_that_fits_no_cell_center_rejected(self):
        """9.9 wide on a 10-wide canvas: the center must lie in [4.95, 5.05],
        which holds none of the 4x4 grid's cell centers, so `reset` would
        hand the policy an all-false mask."""
        with pytest.raises(DesignError,
                           match="macro 'm0' fits no cell center of the empty 4x4 grid"):
            small_env(grid=4, macros=[(9.9, 2.0)], canvas=10.0)

    def test_fixed_node_without_position_rejected(self):
        """A terminal without a position (as one missing from a Bookshelf
        .pl) would otherwise fail only in `finish`, after every macro step."""
        bundle, config = small_design()
        MacroPlacementEnv(bundle, config)
        bundle.placement.placed[:] = False
        with pytest.raises(DesignError, match="fixed node 'p0' has no position"):
            MacroPlacementEnv(bundle, config)

    def test_parsed_design_is_not_kept(self):
        """The environment keeps the placement netlist and its start, not
        the design it was built from: once the caller drops the bundle, an
        episode still runs and the original netlist is freed."""
        bundle, config = small_design()
        env = MacroPlacementEnv(bundle, config)
        netlist = weakref.ref(bundle.netlist)
        del bundle
        gc.collect()
        assert netlist() is None
        assert not rollout(env, uniform_random_policy, seed=0).dead_end


class TestStep:
    def test_single_macro_episode(self):
        env = small_env(macros=[(9.0, 9.0)])
        state, obs = env.reset()
        action = int(np.flatnonzero(obs.mask.ravel())[0])
        transition, state2 = env.step(state, action)
        assert transition.done
        assert np.isfinite(transition.reward)
        assert transition.metrics is not None
        assert state2.step_index == 1

    @staticmethod
    def blocking_env():
        # 3x3 grid on a 30x30 canvas: the 28x28 macro only fits dead center
        # and covers every cell, leaving nothing for the second macro.
        nodes = [
            Node(0, "big", 28.0, 28.0, KIND_MACRO, True),
            Node(1, "small", 5.0, 5.0, KIND_MACRO, True),
            Node(2, "c0", 1.0, 1.0, KIND_STD, True),
            Node(3, "p0", 0.5, 0.5, KIND_TERMINAL, False),
        ]
        nets = [Net(0, "n0", (Pin(0), Pin(1), Pin(2), Pin(3)), 1.0)]
        bundle = bundle_from(nodes, nets, 30.0)
        config = EnvConfig(grid_rows=3, grid_cols=3, clusters_k=1,
                           placer=PlacerConfig(engine="fd", max_outer_iters=3,
                                               bins=16))
        return MacroPlacementEnv(bundle, config)

    def test_blocking_fixture_pays_dead_end_penalty(self):
        env = self.blocking_env()
        state, obs = env.reset()
        feasible = np.flatnonzero(obs.mask.ravel())
        assert list(feasible) == [4]  # the center cell only
        transition, state2 = env.step(state, 4)
        assert transition.done
        assert transition.dead_end
        assert transition.reward == -2.0
        # confirm by enumeration that the second macro truly has no cell
        brute = mask_bruteforce(state2.grid, env.pnet.nodes[env.macro_order[1]])
        assert not any(brute.values())

    def test_infeasible_action_is_contract_violation(self):
        env = small_env(macros=[(14.0, 14.0), (6.0, 6.0)])
        state, obs = env.reset()
        infeasible = np.flatnonzero(~obs.mask.ravel())
        assert len(infeasible) > 0
        with pytest.raises(PlacementError, match="infeasible"):
            env.step(state, int(infeasible[0]))

    @pytest.mark.parametrize("action", [-1, 36, 37])
    def test_out_of_range_action_is_contract_violation(self, action):
        env = small_env(grid=6)
        state, _obs = env.reset()
        with pytest.raises(PlacementError, match=f"action {action} is outside"):
            env.step(state, action)

    def test_reward_zero_until_done(self):
        env = small_env()
        state, obs = env.reset()
        action = int(np.flatnonzero(obs.mask.ravel())[0])
        transition, state = env.step(state, action)
        assert transition.reward == 0.0
        assert not transition.done

    def test_episode_length_equals_macro_count(self):
        env = small_env(macros=[(6.0, 6.0), (5.0, 5.0), (4.0, 4.0)])
        traj = rollout(env, uniform_random_policy, seed=5)
        assert len(traj) == 3
        assert not traj.dead_end


class TestDeterminism:
    def test_same_actions_same_reward_bitwise(self):
        env = small_env()
        rewards = []
        for _ in range(2):
            state, obs = env.reset()
            total = []
            while True:
                action = int(np.flatnonzero(obs.mask.ravel())[0])
                transition, state = env.step(state, action)
                total.append(transition.reward)
                if transition.done:
                    break
                obs = env.observation(state)
            rewards.append(total)
        assert rewards[0] == rewards[1]

    def test_rollout_seed_determinism(self, training_bundle):
        config = EnvConfig(grid_rows=8, grid_cols=8, clusters_k=8,
                           placer=PlacerConfig(engine="fd", max_outer_iters=5,
                                               bins=16))
        env = MacroPlacementEnv(training_bundle, config)
        t1 = rollout(env, uniform_random_policy, seed=42)
        t2 = rollout(env, uniform_random_policy, seed=42)
        assert t1.reward == t2.reward
        assert [s.action for s in t1.steps] == [s.action for s in t2.steps]

    def test_fd_rewards_at_benchmark_scale_are_pinned(self, tmp_path):
        """The benchmark's rollout-fd-M design (16 macros, 2000 cells, 2500
        nets, design seed 1, ingested through Bookshelf) rolled out with the
        FD engine. The rewards were recorded by these rollouts when FD
        first moved clusters by the density field (at most 10 outer
        iterations); they hold to 1e-9 relative, so a change that sums in
        another order needs no new record."""
        spec = SyntheticSpec(16, 2000, 2500, seed=1)
        write_bookshelf(generate_synthetic(spec), tmp_path, "m")
        bundle = edit_for_movable_macros(parse_bookshelf(tmp_path))
        env = MacroPlacementEnv(bundle, EnvConfig(placer=PlacerConfig(engine="fd")))
        rewards = [rollout(env, uniform_random_policy, seed).reward for seed in (0, 1, 2)]
        recorded = [-0.5767173631747178, -0.5846374358693687, -0.5906302825816085]
        assert rewards == pytest.approx(recorded, rel=1e-9, abs=0.0)

    def test_analytical_results_at_benchmark_scale_are_pinned(self, tmp_path, monkeypatch):
        """The benchmark's rollout-nesterov-S design (8 macros, 500 cells,
        600 nets, design seed 1, ingested through Bookshelf) rolled out with
        the analytical engine at episode seeds 1 (stops below
        `overflow_stop`) and 2 (stops at row 8, whose overflow rises above
        row 7's), and `spread_movable` on a small design. Seed 2's reward,
        trace length and kernel calls were recorded when the descent first
        stopped on an overflow rise; seed 1's, none of whose rows rises,
        when the engine first started from the force-directed placement.
        All hold exactly. `spread_movable`'s trace length and the SHA-256
        of its positions were recorded when it first started from the
        force-directed placement, as `place_clusters` does, and hold
        exactly.

        Each gradient evaluation calls each of the three gradient kernels
        once, through the bindings a benchmark trace wraps: lambda_0's,
        which also starts the first Nesterov run, one per later run's start
        and one per Nesterov try. The force-directed pass that gives the
        start adds min(budget, FIELD_ITERS) = 10 calls to each density
        kernel and none to smooth-WL, so the smooth-WL calls alone count
        the gradient evaluations."""
        spec = SyntheticSpec(8, 500, 600, seed=1)
        write_bookshelf(generate_synthetic(spec), tmp_path, "s")
        bundle = edit_for_movable_macros(parse_bookshelf(tmp_path))
        env = MacroPlacementEnv(bundle, EnvConfig(placer=PlacerConfig(engine="analytical")))
        kernels = [count_calls(monkeypatch, fn) for fn in
                   (smooth_wl_and_grad, solve_density_field, density_energy_and_grad)]
        lengths = []
        kernel_calls = []

        def recorded_place_clusters(*args):
            before = [len(calls) for calls in kernels]
            placement, trace = place_clusters(*args)
            lengths.append(len(trace))
            kernel_calls.append([len(calls) - b for calls, b in zip(kernels, before)])
            return placement, trace

        monkeypatch.setattr("macroplace.env.place_clusters", recorded_place_clusters)
        rewards = [rollout(env, uniform_random_policy, seed).reward for seed in (1, 2)]
        assert rewards == [-0.5539366809820492, -0.5933538793205432]
        assert lengths == [6, 9]
        assert kernel_calls == [[141, 151, 151], [220, 230, 230]]

        small = generate_synthetic(SyntheticSpec(3, 60, 80, seed=21))
        clustered = cluster_std_cells(small.netlist, k=8)
        placement, trace = spread_movable(clustered, base_placement(clustered, small.placement),
                                          PlacerConfig(max_outer_iters=8))
        assert len(trace) == 1
        assert hashlib.sha256(placement.positions.tobytes()).hexdigest() == (
            "f7daa9bd73423ff5e2bf3d7a5929ec0d05ec4ea1fd1599e0cb1720629db64b8a")

    def test_engine_swap_changes_only_reward(self, training_bundle):
        placements = {}
        masks = {}
        rewards = {}
        for engine in ("fd", "analytical"):
            config = EnvConfig(
                grid_rows=8, grid_cols=8, clusters_k=6,
                placer=PlacerConfig(engine=engine, max_outer_iters=4, bins=16))
            env = MacroPlacementEnv(training_bundle, config)
            state, obs = env.reset()
            actions = []
            mask_log = []
            while True:
                mask_log.append(obs.mask.copy())
                action = int(np.flatnonzero(obs.mask.ravel())[0])
                actions.append(action)
                transition, state = env.step(state, action)
                if transition.done:
                    rewards[engine] = transition.reward
                    placements[engine] = state.placement.positions[
                        env.macro_order].copy()
                    break
                obs = env.observation(state)
            masks[engine] = mask_log
        # identical legality and macro positions; only the reward differs
        assert len(masks["fd"]) == len(masks["analytical"])
        for a, b in zip(masks["fd"], masks["analytical"]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(placements["fd"], placements["analytical"])


class TestRolloutBookkeeping:
    def test_trajectory_records(self, training_bundle):
        config = EnvConfig(grid_rows=8, grid_cols=8, clusters_k=6,
                           placer=PlacerConfig(engine="fd", max_outer_iters=4,
                                               bins=16))
        env = MacroPlacementEnv(training_bundle, config)
        traj = rollout(env, uniform_random_policy, seed=1)
        assert len(traj) == env.num_macros
        for step in traj.steps:
            assert step.observation.mask.ravel()[step.action]
            assert np.isfinite(step.log_prob)
        assert traj.metrics is not None
        assert traj.final_placement.placed.all()

    def test_one_mask_per_macro(self, training_bundle, monkeypatch):
        import macroplace.env as menv

        config = EnvConfig(grid_rows=8, grid_cols=8, clusters_k=6,
                           placer=PlacerConfig(engine="fd", max_outer_iters=2,
                                               bins=16))
        env = MacroPlacementEnv(training_bundle, config)
        masked = []
        real = menv.feasibility_mask

        def counting(grid, macro):
            masked.append(macro.id)
            return real(grid, macro)

        monkeypatch.setattr(menv, "feasibility_mask", counting)
        traj = rollout(env, uniform_random_policy, seed=1)
        assert not traj.dead_end
        assert masked == env.macro_order

    def test_no_overlap_over_random_rollouts(self, training_bundle):
        config = EnvConfig(grid_rows=10, grid_cols=10, clusters_k=6,
                           placer=PlacerConfig(engine="fd", max_outer_iters=3,
                                               bins=16))
        env = MacroPlacementEnv(training_bundle, config)
        for seed in range(25):
            state, obs = env.reset()
            covered = 0
            while True:
                rng = np.random.default_rng(seed * 1000 + state.step_index)
                choices = np.flatnonzero(obs.mask.ravel())
                action = int(rng.choice(choices))
                prev = state.grid.occupancy.sum()
                transition, state = env.step(state, action)
                if transition.dead_end:
                    break
                newly = state.grid.occupancy.sum() - prev
                covered += newly
                assert state.grid.occupancy.sum() == covered  # disjoint unions
                if transition.done:
                    break
                obs = env.observation(state)
