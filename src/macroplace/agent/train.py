"""REINFORCE with a learned value baseline, batched over masked episodes.

One training run learns one design: every episode of a batch is a rollout
of the same environment, as the paper trains one policy per design. The
loss over a batch of trajectories is

    sum_t [ -A_t * log pi(a_t | s_t) ] + VALUE_COEF * sum_t (R - V(s_t))^2
    - ENTROPY_BETA * sum_t entropy(pi(. | s_t))

with the advantage A_t = R - V_collect(s_t) frozen at collection time, so
the loss is a pure function of the parameters given the stored batch (that
is what the finite-difference checks differentiate). Updates use Adam with
step LEARNING_RATE and moment decays ADAM_BETA1 / ADAM_BETA2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..env import MacroPlacementEnv, rollout
from ..errors import TrainingError
from .network import (
    DesignContext,
    PolicyParams,
    backward_step,
    forward_step,
    init_params,
    masked_distribution,
    policy_from_params,
)

VALUE_COEF = 0.5  # weight of the squared value error in the loss
ENTROPY_BETA = 0.01  # weight of the entropy bonus, which keeps exploring
LEARNING_RATE = 0.02
ADAM_BETA1 = 0.9  # decay of the gradient mean
ADAM_BETA2 = 0.999  # decay of the squared-gradient mean
ADAM_EPS = 1e-8  # keeps the Adam step finite where the second moment is 0


@dataclass(frozen=True)
class TrainConfig:
    updates: int = 60
    episodes_per_update: int = 8
    rounds: int = 2
    embed_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("updates", "episodes_per_update", "rounds", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class CurvePoint:
    update: int
    mean_reward: float
    best_reward: float
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float


def loss_and_grads(params: PolicyParams, ctx: DesignContext, trajectories):
    """Scalar loss and parameter gradients over the trajectories of one
    design."""
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    loss = policy_loss = value_loss = entropy_total = 0.0
    for traj in trajectories:
        ret = traj.reward
        for step in traj.steps:
            obs = step.observation
            cache, logits, value = forward_step(params, ctx, obs)
            probs, feasible, log_probs_f = masked_distribution(
                logits, obs.mask.ravel())
            adv = ret - step.value  # frozen at collection time
            lp = float(np.log(probs[step.action]))
            ent = float(-(probs[feasible] * log_probs_f).sum())
            resid = value - ret

            policy_loss += -adv * lp
            value_loss += resid * resid
            entropy_total += ent
            loss += -adv * lp + VALUE_COEF * resid * resid - ENTROPY_BETA * ent

            dlogits = np.zeros_like(logits)
            # d(-adv*logpi)/dz
            dlogits[feasible] += adv * probs[feasible]
            dlogits[step.action] -= adv
            # d(-beta*entropy)/dz
            dlogits[feasible] += ENTROPY_BETA * probs[feasible] * (log_probs_f + ent)
            dvalue = 2.0 * VALUE_COEF * resid
            backward_step(params, ctx, cache, dlogits, dvalue, grads)
    aux = {"policy_loss": policy_loss, "value_loss": value_loss,
           "entropy": entropy_total}
    return loss, grads, aux


class AdamState:
    def __init__(self, params: PolicyParams):
        self.m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        self.t = 0

    def update(self, params: PolicyParams, grads: dict) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k in params.arrays:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            params.arrays[k] -= LEARNING_RATE * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _episode_seed(seed: int, update: int, episode: int):
    return np.random.SeedSequence([seed, update, episode])


def train(env: MacroPlacementEnv, train_config: TrainConfig = TrainConfig(),
          dump_path=None):
    """Train a policy on one environment; returns (params, curve).

    Fully deterministic for a given seed. A non-finite loss aborts with a
    TrainingError and, when dump_path is given, a JSON dump of the batch
    that produced it.
    """
    ctx = DesignContext(env)
    rng = np.random.default_rng(train_config.seed)
    params = init_params(rng, env.num_cells, rounds=train_config.rounds,
                         embed_dim=train_config.embed_dim)
    adam = AdamState(params)
    curve: list[CurvePoint] = []

    for update in range(train_config.updates):
        policy = policy_from_params(params, ctx)
        batch = [rollout(env, policy, _episode_seed(train_config.seed, update, episode))
                 for episode in range(train_config.episodes_per_update)]
        rewards = [traj.reward for traj in batch]
        loss, grads, aux = loss_and_grads(params, ctx, batch)
        if not np.isfinite(loss):
            if dump_path is not None:
                _dump_batch(batch, loss, dump_path)
                raise TrainingError(
                    f"non-finite loss at update {update}; batch dumped to {dump_path}")
            raise TrainingError(f"non-finite loss at update {update}")
        adam.update(params, grads)
        curve.append(CurvePoint(
            update=update,
            mean_reward=float(np.mean(rewards)),
            best_reward=float(np.max(rewards)),
            loss=float(loss),
            policy_loss=float(aux["policy_loss"]),
            value_loss=float(aux["value_loss"]),
            entropy=float(aux["entropy"]),
        ))
    return params, curve


def _dump_batch(batch, loss, path) -> None:
    payload = {
        "loss": repr(loss),
        "episodes": [
            {
                "reward": traj.reward,
                "dead_end": traj.dead_end,
                "steps": [
                    {"action": s.action, "log_prob": s.log_prob, "value": s.value}
                    for s in traj.steps
                ],
            }
            for traj in batch
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
