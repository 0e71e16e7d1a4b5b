"""Shallow policy/value networks with in-module backpropagation.

Forward pass per step:
  1. R rounds of graph propagation h <- tanh(W_self h + W_nbr (P h) + b),
     P = row-normalized weighted adjacency of the placement netlist's
     clique graph, held as a dense (n, n) array. `default_cluster_count`
     caps the clusters at 512, so n is at most 512 plus the macro and
     terminal count (84 on the benchmark's M design).
  2. Trunk u = tanh(W [global mean embedding || current-macro embedding] + b).
  3. Grid decoder logits = dec_w u + dec_b, one row per grid cell, then a
     masked softmax over the feasible cells. This is the one-layer case of
     the deconvolution decoder of Mirhoseini et al. (Nature 2021). dec_w and
     dec_b start at zero, so the first policy is uniform over the feasible
     cells; they tie a checkpoint to one grid size.
  4. Value head over [global embedding || fill fraction || placed fraction].

Everything is plain numpy; gradients are assembled by hand and checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..env import MacroPlacementEnv, Observation
from .features import FEATURE_VERSION, NUM_FEATURES, fill_dynamic, static_features

CHECKPOINT_FORMAT = "macroplace-policy-v2"


@dataclass
class PolicyParams:
    """Network weights by name; the round count, layer width and grid cell
    count are read from their keys and shapes."""

    arrays: dict

    @property
    def rounds(self) -> int:
        return sum(1 for k in self.arrays if k.startswith("emb_self_"))

    @property
    def embed_dim(self) -> int:
        return len(self.arrays["trunk_b"])

    @property
    def cells(self) -> int:
        return len(self.arrays["dec_b"])

    def copy(self) -> "PolicyParams":
        return PolicyParams({k: v.copy() for k, v in self.arrays.items()})


def init_params(rng: np.random.Generator, cells: int, rounds: int,
                embed_dim: int) -> PolicyParams:
    """Xavier-uniform weights and zero biases, a zero grid decoder onto
    `cells` cells, and a value hidden layer `embed_dim` wide."""

    def xavier(out_dim, in_dim):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-limit, limit, size=(out_dim, in_dim))

    arrays = {}
    for r in range(rounds):
        in_dim = NUM_FEATURES if r == 0 else embed_dim
        arrays[f"emb_self_{r}"] = xavier(embed_dim, in_dim)
        arrays[f"emb_nbr_{r}"] = xavier(embed_dim, in_dim)
        arrays[f"emb_bias_{r}"] = np.zeros(embed_dim)
    arrays["trunk_w"] = xavier(embed_dim, 2 * embed_dim)
    arrays["trunk_b"] = np.zeros(embed_dim)
    arrays["dec_w"] = np.zeros((cells, embed_dim))
    arrays["dec_b"] = np.zeros(cells)
    arrays["value_w1"] = xavier(embed_dim, embed_dim + 2)
    arrays["value_b1"] = np.zeros(embed_dim)
    arrays["value_w2"] = xavier(1, embed_dim)
    arrays["value_b2"] = np.zeros(1)
    return PolicyParams(arrays)


def save_params(params: PolicyParams, path) -> None:
    """Write an `.npz` checkpoint at exactly `path` (no suffix is added)."""
    meta = {"format": CHECKPOINT_FORMAT, "feature_version": FEATURE_VERSION}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **params.arrays)


def load_params(path) -> PolicyParams:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a policy checkpoint: {path}")
    if meta.get("feature_version") != FEATURE_VERSION:
        raise ValueError(f"checkpoint {path} has feature version "
                         f"{meta.get('feature_version')}, this build reads {FEATURE_VERSION}")
    return PolicyParams(arrays)


class DesignContext:
    """Per-design precomputation shared by every episode: the graph
    propagation matrix, the static features and the grid's cell count.
    `pbar` is the placement netlist's `clique_graph` as a dense (n, n) array
    over both edge directions with each row divided by its sum, so (P h)_i
    is the weighted mean of i's neighbours (an isolated node's row stays
    zero)."""

    def __init__(self, env: MacroPlacementEnv):
        self.pnet = env.pnet
        graph = self.pnet.clique_graph
        pbar = np.zeros((graph.num_nodes, graph.num_nodes))
        pbar[graph.edges_i, graph.edges_j] = graph.weights
        pbar[graph.edges_j, graph.edges_i] = graph.weights
        strength = pbar.sum(axis=1, keepdims=True)
        self.pbar = pbar / np.where(strength > 0, strength, 1.0)
        self.static = static_features(self.pnet)
        self.num_cells = env.num_cells
        self.num_macros = env.num_macros

    def features_for(self, obs: Observation) -> np.ndarray:
        return fill_dynamic(self.static, self.pnet, obs.positions, obs.placed)


def forward_step(params: PolicyParams, ctx: DesignContext, obs: Observation):
    """Forward pass for one observation; returns (cache, logits, value)."""
    A = params.arrays
    X = ctx.features_for(obs)
    hs = [X]
    agg = []
    h = X
    for r in range(params.rounds):
        ph = ctx.pbar @ h
        agg.append(ph)
        pre = h @ A[f"emb_self_{r}"].T + ph @ A[f"emb_nbr_{r}"].T + A[f"emb_bias_{r}"]
        h = np.tanh(pre)
        hs.append(h)
    g = h.mean(axis=0)
    e = h[obs.macro_id]
    t_in = np.concatenate([g, e])
    u = np.tanh(A["trunk_w"] @ t_in + A["trunk_b"])
    logits = A["dec_w"] @ u + A["dec_b"]

    fill = float(obs.occupancy.mean())
    placed_frac = obs.step_index / max(ctx.num_macros, 1)
    d_in = np.concatenate([g, [fill, placed_frac]])
    qv = np.tanh(A["value_w1"] @ d_in + A["value_b1"])
    value = float((A["value_w2"] @ qv + A["value_b2"])[0])

    cache = {"hs": hs, "agg": agg, "t_in": t_in, "u": u, "d_in": d_in, "qv": qv,
             "macro_id": obs.macro_id}
    return cache, logits, value


def masked_distribution(logits: np.ndarray, mask_flat: np.ndarray):
    """Masked softmax: infeasible cells get probability exactly 0."""
    feasible = np.flatnonzero(mask_flat)
    if len(feasible) == 0:
        raise ValueError("all-false mask reached the policy")
    z = logits[feasible]
    zmax = z.max()
    ez = np.exp(z - zmax)
    total = ez.sum()
    probs = np.zeros_like(logits)
    probs[feasible] = ez / total
    log_probs_f = (z - zmax) - np.log(total)
    return probs, feasible, log_probs_f


def backward_step(params: PolicyParams, ctx: DesignContext, cache: dict,
                  dlogits: np.ndarray, dvalue: float, grads: dict) -> None:
    """Accumulate d(loss)/d(params) for one step into `grads`."""
    A = params.arrays
    D = params.embed_dim

    # value head
    qv, d_in = cache["qv"], cache["d_in"]
    grads["value_w2"] += dvalue * qv[None, :]
    grads["value_b2"] += dvalue
    dqv = (A["value_w2"].ravel() * dvalue) * (1.0 - qv * qv)
    grads["value_w1"] += np.outer(dqv, d_in)
    grads["value_b1"] += dqv
    dg = A["value_w1"].T @ dqv
    dg_total = dg[:D]

    # grid decoder
    u, t_in = cache["u"], cache["t_in"]
    grads["dec_w"] += np.outer(dlogits, u)
    grads["dec_b"] += dlogits
    du = A["dec_w"].T @ dlogits

    # trunk
    dupre = du * (1.0 - u * u)
    grads["trunk_w"] += np.outer(dupre, t_in)
    grads["trunk_b"] += dupre
    dt_in = A["trunk_w"].T @ dupre
    dg_total = dg_total + dt_in[:D]
    de = dt_in[D:]

    # graph rounds
    hs, agg = cache["hs"], cache["agg"]
    n = hs[0].shape[0]
    dh = np.tile(dg_total / n, (n, 1))
    dh[cache["macro_id"]] += de
    for r in range(params.rounds - 1, -1, -1):
        h_out = hs[r + 1]
        dpre = dh * (1.0 - h_out * h_out)
        grads[f"emb_self_{r}"] += dpre.T @ hs[r]
        grads[f"emb_nbr_{r}"] += dpre.T @ agg[r]
        grads[f"emb_bias_{r}"] += dpre.sum(axis=0)
        dh = dpre @ A[f"emb_self_{r}"] + ctx.pbar.T @ (dpre @ A[f"emb_nbr_{r}"])


def policy_from_params(params: PolicyParams, ctx: DesignContext):
    """Rollout-compatible policy: Observation -> (probs, value). A policy
    whose decoder was built for another grid size is refused."""
    if params.cells != ctx.num_cells:
        raise ValueError(f"the policy scores {params.cells} cells, but the "
                         f"environment's grid has {ctx.num_cells}")

    def policy(obs: Observation):
        _cache, logits, value = forward_step(params, ctx, obs)
        probs, _, _ = masked_distribution(logits, obs.mask.ravel())
        return probs, value

    return policy


def greedy_policy_from_params(params: PolicyParams, ctx: DesignContext):
    """Deterministic argmax policy (lowest cell index wins ties). Infeasible
    cells have probability 0, so they never win."""
    sample = policy_from_params(params, ctx)

    def policy(obs: Observation):
        probs, value = sample(obs)
        out = np.zeros_like(probs)
        out[int(np.argmax(probs))] = 1.0
        return out, value

    return policy
