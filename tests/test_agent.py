"""Policy network and training loop on a tiny synthetic design."""

import json
from dataclasses import replace

import numpy as np
import pytest

from macroplace.agent import network
from macroplace.agent.features import FEATURE_VERSION
from macroplace.agent.network import (
    DesignContext,
    forward_step,
    greedy_policy_from_params,
    init_params,
    load_params,
    policy_from_params,
    save_params,
)
from macroplace.agent.train import TrainConfig, loss_and_grads, train
from macroplace.env import EnvConfig, MacroPlacementEnv, rollout, uniform_random_policy
from macroplace.errors import TrainingError
from macroplace.placer import PlacerConfig

from conftest import run_in_fresh_interpreter
from oracles import params_from_vector, params_to_vector


def tiny_env(bundle):
    placer = PlacerConfig(engine="fd", max_outer_iters=3, bins=16)
    return MacroPlacementEnv(bundle, EnvConfig(grid_rows=6, grid_cols=6, placer=placer))


def drawn_params(seed, cells, rounds, embed_dim):
    """`init_params` with the grid decoder drawn away from its zero start,
    so the logits differ per cell and depend on the trunk."""
    rng = np.random.default_rng(seed)
    params = init_params(rng, cells, rounds, embed_dim)
    params.arrays["dec_w"] = rng.normal(size=(cells, embed_dim))
    params.arrays["dec_b"] = rng.normal(scale=0.1, size=cells)
    return params


def test_forward_step_value_is_float(training_bundle):
    env = tiny_env(training_bundle)
    params = drawn_params(0, env.num_cells, rounds=1, embed_dim=8)
    _, obs = env.reset()
    _, logits, value = forward_step(params, DesignContext(env), obs)
    assert type(value) is float and np.isfinite(value)
    assert logits.shape == (36,)


def test_first_policy_is_uniform(training_bundle):
    """A fresh policy's zero decoder gives every feasible cell the same
    probability, bit for bit the uniform random policy's."""
    env = tiny_env(training_bundle)
    params = init_params(np.random.default_rng(0), env.num_cells, rounds=2, embed_dim=16)
    _, obs = env.reset()
    probs, _ = policy_from_params(params, DesignContext(env))(obs)
    np.testing.assert_array_equal(probs, uniform_random_policy(obs)[0])


@pytest.mark.parametrize("make_policy", [policy_from_params, greedy_policy_from_params])
def test_policy_for_another_grid_is_refused(training_bundle, make_policy):
    env = tiny_env(training_bundle)
    params = init_params(np.random.default_rng(0), 25, rounds=1, embed_dim=4)
    with pytest.raises(ValueError, match="the policy scores 25 cells, but the "
                                         "environment's grid has 36"):
        make_policy(params, DesignContext(env))


def test_agent_loads_no_scipy():
    """A fresh interpreter imports the trainer (and with it the network)
    without loading any scipy module."""
    probe = ("import json, sys, macroplace.agent.train\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert run_in_fresh_interpreter(probe) == []


def test_one_train_update_completes(training_bundle):
    env = tiny_env(training_bundle)
    config = TrainConfig(updates=1, episodes_per_update=2, rounds=1, embed_dim=8, seed=3)
    # What `train` draws as its start.
    start = init_params(np.random.default_rng(config.seed), env.num_cells, rounds=1,
                        embed_dim=8)
    params, curve = train(env, config)
    assert len(curve) == 1
    assert np.isfinite(curve[0].loss)
    assert not np.array_equal(params_to_vector(params), params_to_vector(start))


def test_loss_gradients_match_central_differences(training_bundle):
    """Every parameter's gradient (policy, value and entropy terms through
    backward_step) against central differences of the loss. The decoder is
    drawn away from zero first: at zero no policy gradient reaches the trunk
    or the graph rounds."""
    env = tiny_env(training_bundle)
    ctx = DesignContext(env)
    params = drawn_params(2, env.num_cells, rounds=2, embed_dim=4)
    policy = policy_from_params(params, ctx)
    batch = [rollout(env, policy, seed) for seed in (0, 1)]
    assert not any(traj.dead_end for traj in batch)

    _, grads, _ = loss_and_grads(params, ctx, batch)
    assert all(np.abs(g).max() > 0 for g in grads.values())
    analytic = params_to_vector(replace(params, arrays=grads))
    vec = params_to_vector(params)
    h = 1e-6
    numeric = np.empty_like(vec)
    for i in range(len(vec)):
        step = np.zeros_like(vec)
        step[i] = h
        plus, _, _ = loss_and_grads(params_from_vector(params, vec + step), ctx, batch)
        minus, _, _ = loss_and_grads(params_from_vector(params, vec - step), ctx, batch)
        numeric[i] = (plus - minus) / (2 * h)
    # Round-off of the differences is ~eps * |loss| / h ~ 3e-9 here.
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5,
                               atol=1e-7 * np.abs(analytic).max())


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    params = drawn_params(4, 36, rounds=2, embed_dim=4)
    path = tmp_path / "policy.npz"
    save_params(params, path)
    loaded = load_params(path)
    np.testing.assert_array_equal(params_to_vector(loaded), params_to_vector(params))
    assert ((loaded.rounds, loaded.embed_dim, loaded.cells)
            == (params.rounds, params.embed_dim, params.cells) == (2, 4, 36))
    assert {k: v.shape for k, v in loaded.arrays.items()} == {
        k: v.shape for k, v in params.arrays.items()}

    # A checkpoint of another feature layout is refused, not misread.
    stale = tmp_path / "stale.npz"
    with monkeypatch.context() as patch:
        patch.setattr(network, "FEATURE_VERSION", FEATURE_VERSION + 1)
        save_params(params, stale)
    with pytest.raises(ValueError, match=f"feature version {FEATURE_VERSION + 1}"):
        load_params(stale)

    # A checkpoint of the tiled per-cell scorer (format v1) is refused too.
    v1 = tmp_path / "v1.npz"
    with monkeypatch.context() as patch:
        patch.setattr(network, "CHECKPOINT_FORMAT", "macroplace-policy-v1")
        save_params(params, v1)
    with pytest.raises(ValueError, match="not a policy checkpoint"):
        load_params(v1)


def test_checkpoint_without_npz_suffix_round_trips(tmp_path):
    """The checkpoint lands at the path given, whatever its suffix."""
    params = init_params(np.random.default_rng(5), 36, rounds=1, embed_dim=4)
    path = tmp_path / "ckpt"
    save_params(params, path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    np.testing.assert_array_equal(params_to_vector(load_params(path)),
                                  params_to_vector(params))


@pytest.mark.parametrize("episodes", [0, -2])
def test_train_config_rejects_an_empty_batch(episodes):
    with pytest.raises(ValueError, match=f"episodes_per_update must be >= 1, got {episodes}"):
        TrainConfig(episodes_per_update=episodes)


@pytest.mark.parametrize("name", ["rounds", "embed_dim", "updates"])
def test_train_config_rejects_an_empty_network(name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
        TrainConfig(**{name: 0})


def test_greedy_policy_is_the_masked_argmax(training_bundle):
    env = tiny_env(training_bundle)
    ctx = DesignContext(env)
    params = drawn_params(6, env.num_cells, rounds=1, embed_dim=8)
    _, obs = env.reset()
    _, logits, _ = forward_step(params, ctx, obs)
    # Close the cell of the largest logit and every other cell in its row.
    top = int(np.argmax(logits))
    feasible = np.ones(env.num_cells, dtype=bool)
    feasible[top - top % 6:top - top % 6 + 6] = False
    obs = replace(obs, mask=feasible.reshape(6, 6))

    probs, value = greedy_policy_from_params(params, ctx)(obs)
    expected = np.zeros(env.num_cells)
    expected[np.argmax(np.where(feasible, logits, -np.inf))] = 1.0
    np.testing.assert_array_equal(probs, expected)
    assert not probs[~feasible].any()
    assert value == policy_from_params(params, ctx)(obs)[1]

    # Equal logits everywhere: the lowest feasible index wins.
    params.arrays["dec_w"][:] = 0.0
    params.arrays["dec_b"][:] = 0.0
    probs, _ = greedy_policy_from_params(params, ctx)(obs)
    expected = np.zeros(env.num_cells)
    expected[np.flatnonzero(feasible)[0]] = 1.0
    np.testing.assert_array_equal(probs, expected)


def test_train_deterministic_per_seed(training_bundle):
    env = tiny_env(training_bundle)
    config = TrainConfig(updates=2, episodes_per_update=2, rounds=1, embed_dim=4, seed=5)
    params_a, curve_a = train(env, config)
    params_b, curve_b = train(env, config)
    assert curve_a == curve_b
    np.testing.assert_array_equal(params_to_vector(params_a), params_to_vector(params_b))


def test_non_finite_loss_dumps_batch(training_bundle, monkeypatch, tmp_path):
    import macroplace.agent.train as train_module

    def nan_loss(params, ctx, batch):
        _, grads, aux = loss_and_grads(params, ctx, batch)
        return float("nan"), grads, aux

    monkeypatch.setattr(train_module, "loss_and_grads", nan_loss)
    env = tiny_env(training_bundle)
    config = TrainConfig(updates=1, episodes_per_update=3, rounds=1, embed_dim=4, seed=0)
    dump = tmp_path / "batch.json"
    with pytest.raises(TrainingError, match="non-finite loss at update 0"):
        train(env, config, dump_path=dump)
    payload = json.loads(dump.read_text())
    assert payload["loss"] == "nan"
    assert len(payload["episodes"]) == 3
    assert all(len(e["steps"]) == env.num_macros for e in payload["episodes"])
