"""Random search, simulated annealing and the exhaustive oracle on a
3-macro design small enough to enumerate."""

import re

import pytest

from macroplace.agent.baselines import (
    baseline_random,
    baseline_sim_anneal,
    oracle_exhaustive,
)
from macroplace.design import SyntheticSpec, generate_synthetic
from macroplace.env import EnvConfig, MacroPlacementEnv
from macroplace.errors import BudgetError
from macroplace.placer import PlacerConfig

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
