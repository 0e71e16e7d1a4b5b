"""Policy network and training loop on a tiny synthetic design."""

import numpy as np

from macroplace.agent.network import DesignContext, forward_step, init_params
from macroplace.agent.train import TrainConfig, train
from macroplace.env import EnvConfig, MacroPlacementEnv
from macroplace.placer import PlacerConfig


def tiny_env(bundle):
    placer = PlacerConfig(engine="fd", max_outer_iters=3, bins=16)
    return MacroPlacementEnv(bundle, EnvConfig(grid_rows=6, grid_cols=6, placer=placer))


def test_forward_step_value_is_float(training_bundle):
    env = tiny_env(training_bundle)
    params = init_params(np.random.default_rng(0), 6, 6, rounds=1, embed_dim=8)
    _, obs = env.reset()
    _, logits, value = forward_step(params, DesignContext(env), obs)
    assert type(value) is float and np.isfinite(value)
    assert logits.shape == (36,)


def test_one_train_update_completes(training_bundle):
    env = tiny_env(training_bundle)
    start = init_params(np.random.default_rng(1), 6, 6, rounds=1, embed_dim=8)
    config = TrainConfig(updates=1, episodes_per_update=2, rounds=1, embed_dim=8, seed=3)
    params, curve = train(env, config, params=start.copy())
    assert len(curve) == 1
    assert np.isfinite(curve[0].loss)
    assert not np.array_equal(params.to_vector(), start.to_vector())
