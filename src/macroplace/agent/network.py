"""Shallow policy/value networks with in-module backpropagation.

Forward pass per step:
  1. R rounds of graph propagation h <- tanh(W_self h + W_nbr (P h) + b),
     P = row-normalized weighted adjacency of the placement netlist's
     clique graph.
  2. Trunk over [global mean embedding || current-macro embedding].
  3. Per-cell 2-layer scorer over [trunk || 3x3 occupancy patch || cell row,
     col], masked softmax over feasible cells.
  4. Value head over [global embedding || fill fraction || placed fraction].

Everything is plain numpy; gradients are assembled by hand and checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from ..env import MacroPlacementEnv, Observation
from .features import FEATURE_VERSION, NUM_FEATURES, fill_dynamic, static_features

CHECKPOINT_FORMAT = "macroplace-policy-v1"
PATCH = 9  # 3x3 occupancy window
CELL_EXTRA = PATCH + 2  # patch + normalized (row, col)


@dataclass
class PolicyParams:
    """Network weights by name; the round count and layer width are read
    from their keys and shapes."""

    arrays: dict

    @property
    def rounds(self) -> int:
        return sum(1 for k in self.arrays if k.startswith("emb_self_"))

    @property
    def embed_dim(self) -> int:
        return len(self.arrays["trunk_b"])

    def copy(self) -> "PolicyParams":
        return PolicyParams({k: v.copy() for k, v in self.arrays.items()})


def init_params(rng: np.random.Generator, rounds: int = 2,
                embed_dim: int = 16) -> PolicyParams:
    """Xavier-uniform weights and zero biases; the scorer and value hidden
    layers are `embed_dim` wide. The per-cell scorer fits any grid size."""

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
    arrays["score_w1"] = xavier(embed_dim, embed_dim + CELL_EXTRA)
    arrays["score_b1"] = np.zeros(embed_dim)
    arrays["score_w2"] = xavier(1, embed_dim)
    arrays["score_b2"] = np.zeros(1)
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
    """Per-design precomputation shared by every episode: graph propagation
    matrix, static features, and cell coordinate channels. `pbar` is the
    placement netlist's `clique_graph` over both edge directions with each
    row divided by its sum, so (P h)_i is the weighted mean of i's
    neighbours (an isolated node's row stays zero)."""

    def __init__(self, env: MacroPlacementEnv):
        self.pnet = env.pnet
        graph = self.pnet.clique_graph
        n = graph.num_nodes
        ends = (np.concatenate([graph.edges_i, graph.edges_j]),
                np.concatenate([graph.edges_j, graph.edges_i]))
        self.pbar = csr_matrix((np.tile(graph.weights, 2), ends), shape=(n, n))
        strength = self.pbar @ np.ones(n)
        self.pbar.data /= np.repeat(np.where(strength > 0, strength, 1.0),
                                    np.diff(self.pbar.indptr))
        self.static = static_features(self.pnet)
        rows, cols = env.config.grid_rows, env.config.grid_cols
        r = np.arange(rows, dtype=np.float64) / max(rows - 1, 1)
        c = np.arange(cols, dtype=np.float64) / max(cols - 1, 1)
        self.cell_coords = np.stack(
            [np.repeat(r, cols), np.tile(c, rows)], axis=1)  # (G, 2)
        self.num_macros = env.num_macros

    def patches(self, occupancy: np.ndarray) -> np.ndarray:
        """(G, 9) 3x3 occupancy windows; outside the canvas counts occupied."""
        padded = np.pad(occupancy.astype(np.float64), 1, constant_values=1.0)
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
        return windows.reshape(-1, 9)

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

    patches = ctx.patches(obs.occupancy)
    G = patches.shape[0]
    Z = np.concatenate(
        [np.tile(u, (G, 1)), patches, ctx.cell_coords], axis=1)
    Q = np.tanh(Z @ A["score_w1"].T + A["score_b1"])
    logits = (Q @ A["score_w2"].T).ravel() + A["score_b2"][0]

    fill = float(obs.occupancy.mean())
    placed_frac = obs.step_index / max(ctx.num_macros, 1)
    d_in = np.concatenate([g, [fill, placed_frac]])
    qv = np.tanh(A["value_w1"] @ d_in + A["value_b1"])
    value = float((A["value_w2"] @ qv + A["value_b2"])[0])

    cache = {"X": X, "hs": hs, "agg": agg, "g": g, "e": e, "t_in": t_in, "u": u,
             "Z": Z, "Q": Q, "d_in": d_in, "qv": qv, "macro_id": obs.macro_id}
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
    Q, Z = cache["Q"], cache["Z"]
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

    # per-cell scorer
    grads["score_w2"] += (dlogits @ Q)[None, :]
    grads["score_b2"] += dlogits.sum()
    dQ = np.outer(dlogits, A["score_w2"].ravel())
    dQpre = dQ * (1.0 - Q * Q)
    grads["score_w1"] += dQpre.T @ Z
    grads["score_b1"] += dQpre.sum(axis=0)
    dZ = dQpre @ A["score_w1"]
    du = dZ[:, :D].sum(axis=0)

    # trunk
    u, t_in = cache["u"], cache["t_in"]
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
    """Rollout-compatible policy: Observation -> (probs, value)."""

    def policy(obs: Observation):
        _cache, logits, value = forward_step(params, ctx, obs)
        probs, _, _ = masked_distribution(logits, obs.mask.ravel())
        return probs, value

    return policy


def greedy_policy_from_params(params: PolicyParams, ctx: DesignContext):
    """Deterministic argmax policy (lowest cell index wins ties)."""

    def policy(obs: Observation):
        _cache, logits, value = forward_step(params, ctx, obs)
        probs, feasible, _ = masked_distribution(logits, obs.mask.ravel())
        best = feasible[int(np.argmax(probs[feasible]))]
        out = np.zeros_like(probs)
        out[best] = 1.0
        return out, value

    return policy
