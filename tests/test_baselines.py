"""Random search, simulated annealing and the exhaustive oracle on a
3-macro design small enough to enumerate, and simulated annealing against
its per-move rebuild reference on an 8-macro design."""

import re

import pytest

from macroplace.agent import baselines
from macroplace.agent.baselines import (
    baseline_random,
    baseline_sim_anneal,
    oracle_exhaustive,
)
from macroplace.design import SyntheticSpec, generate_synthetic
from macroplace.env import EnvConfig, MacroPlacementEnv
from macroplace.errors import BudgetError
from macroplace.grid import feasibility_mask
from macroplace.placer import PlacerConfig

from oracles import sim_anneal_rebuild_loop

FD = PlacerConfig(engine="fd", max_outer_iters=3, bins=16)


def grid_env(bundle, rows, cols):
    return MacroPlacementEnv(bundle, EnvConfig(grid_rows=rows, grid_cols=cols, placer=FD))


@pytest.fixture(scope="module")
def oracle_env():
    bundle = generate_synthetic(
        SyntheticSpec(macro_count=3, std_cell_count=120, net_count=150,
                      rent_like_fanout=3.0, seed=11, canvas_width=100.0,
                      canvas_height=100.0))
    return grid_env(bundle, 3, 3)


@pytest.fixture(scope="module")
def oracle(oracle_env):
    return oracle_exhaustive(oracle_env)


@pytest.mark.parametrize("macros,side", [(4, 3), (3, 17)])
def test_oracle_refuses_beyond_its_limits(macros, side):
    bundle = generate_synthetic(SyntheticSpec(macro_count=macros, std_cell_count=30,
                                              net_count=40, seed=3))
    env = grid_env(bundle, side, side)
    count = (side * side) ** macros
    with pytest.raises(BudgetError, match=re.escape(f"up to {count} sequences")):
        oracle_exhaustive(env)


def test_oracle_enumerates_every_sequence(oracle):
    assert len(oracle.rewards) > 1
    assert oracle.best_reward == max(oracle.rewards)
    assert len(oracle.best_actions) == 3


def test_random_never_beats_oracle(oracle_env, oracle):
    result = baseline_random(oracle_env, episodes=6, seed=0)
    assert len(result.rewards) == 6
    assert result.best_reward <= oracle.best_reward


@pytest.mark.parametrize("episodes", [0, -1])
def test_random_rejects_an_empty_budget(oracle_env, episodes):
    with pytest.raises(ValueError, match=f"episodes must be >= 1, got {episodes}"):
        baseline_random(oracle_env, episodes)


def test_sim_anneal_never_beats_oracle_and_replays(oracle_env, oracle):
    result = baseline_sim_anneal(oracle_env, moves=6, seed=0)
    assert len(result.rewards) > 1
    assert max(result.rewards) == result.best_reward <= oracle.best_reward
    # The best cells, placed one macro per step, give the same reward.
    state, _obs = oracle_env.reset()
    for action in result.best_actions:
        transition, state = oracle_env.step(state, action)
    assert transition.done and not transition.dead_end
    assert transition.reward == result.best_reward


def assert_same_anneal(result, reference):
    assert result.rewards == reference.rewards
    assert result.best_reward == reference.best_reward
    assert result.best_actions == reference.best_actions
    for name in ("positions", "placed"):
        assert (getattr(result.best_placement, name).tobytes()
                == getattr(reference.best_placement, name).tobytes())


def test_sim_anneal_equals_the_per_move_rebuild(oracle_env):
    """Lifting the moved macro off the incumbent grid gives the rewards,
    best cells and best placement of rebuilding the grid every move."""
    result = baseline_sim_anneal(oracle_env, moves=6, seed=0)
    reference, _outcomes = sim_anneal_rebuild_loop(oracle_env, moves=6, seed=0)
    assert_same_anneal(result, reference)


@pytest.fixture(scope="module")
def eight_macro_env():
    bundle = generate_synthetic(
        SyntheticSpec(macro_count=8, std_cell_count=200, net_count=260,
                      rent_like_fanout=3.0, seed=1))
    return grid_env(bundle, 12, 12)


def test_sim_anneal_equals_the_per_move_rebuild_with_skips(eight_macro_env, monkeypatch):
    """Eight macros over moves that accept, reject and skip. A lifted
    macro's own cell is always in its mask, so a move is skipped only when
    the mask refuses the macro: here the mask refuses the smallest one."""
    env = eight_macro_env
    refused = env.macro_order[-1]

    def refusing(grid, macro):
        return feasibility_mask(grid, macro) & (macro.id != refused)

    monkeypatch.setattr(baselines, "feasibility_mask", refusing)
    result = baseline_sim_anneal(env, moves=40, seed=0)
    reference, outcomes = sim_anneal_rebuild_loop(env, moves=40, seed=0, mask=refusing)
    assert {"accept", "reject", "skip"} <= set(outcomes)
    assert len(result.rewards) == 1 + outcomes.count("accept") + outcomes.count("reject")
    assert_same_anneal(result, reference)
