"""Nesterov-accelerated electrostatic placement engine.

Minimizes smooth_wl(x) + lambda * energy(x) over movable-node centers with
positions projected in-canvas. The penalty weight starts where the L1 norms
of both gradient terms balance and doubles every outer iteration; the
wirelength smoothing gamma anneals toward a floor. Stops at the first
outer iteration whose trace row's density overflow drops below
`PlacerConfig.overflow_stop` or rises strictly above the lowest overflow of
the rows before it, and returns that row: both stops read the overflow, as
RePlAce's does (Cheng et al., TCAD 2018). A tie does not stop. One
`DensityGrid` per placement holds the fixed nodes' charge and the Poisson
eigenvalues, so each gradient rasterizes and differentiates the movable
nodes only.

The descent starts from the placement of the force-directed iterations on
the same start, movable set, config and `DensityGrid`
(`force_directed_pass`), plus a jitter of 1 % of the shorter canvas side
(one draw per node and axis from `np.random.default_rng(0)`), clamped: a
wirelength-driven start, as in ePlace (Lu et al., TODAES 2015) and RePlAce
(Cheng et al., TCAD 2018). That pass costs min(budget,
`force_directed.FIELD_ITERS`) calls of each density kernel and no smooth-WL
evaluation. Its rows are not in the returned trace: the budget bounds the
pass and the descent each. The jitter is the start's only symmetry
breaker. Identical clusters with identical connections get identical rows
in the force-directed solve and identical field moves, so force-directed
leaves them on top of each other, and the density gradient of two
coincident boxes is the same for both: without the jitter the descent
cannot separate them.

Like the force-directed engine, the loop runs on the movable nodes' (m, 2)
centres, in `DensityGrid.ids` order: the Nesterov iterates u and v and the
gradient g. Each evaluated iterate is written into the movable rows of one
(N, 2) buffer that the smooth-WL gather reads, a copy of the start
placement's positions, so its fixed rows never change; the density solve
reads the iterate itself, the same floats as those rows. The placement is
written once per outer iteration, for its trace row. Each evaluation's
gwl + lam * genergy is formed in the density rows' buffer, and a step's
norms are math.sqrt(d.dot(d)) of the raveled difference, which is how
`np.linalg.norm` computes a float array's 2-norm, so they are its floats.
The engine reads only
gradients. The gradient rows that set lambda_0 are taken at the start point
with the first gamma, so they also give the first Nesterov run's start
gradient and the first step length: one evaluation per placement fewer.

Each Nesterov step tries a step length and re-estimates the local Lipschitz
step from the gradient at the trial point. The trial is accepted when its
length is within STEP_SLACK of that estimate; otherwise the estimate becomes
the next trial's length. After BACKTRACK_LIMIT rejected trials the step
falls back to FALLBACK_STEP_FRAC * diag / max|g|, which moves the
largest-gradient node that share of the canvas diagonal. An accepted step
regrows by the same STEP_SLACK, so the next trial is retried only if the
local Lipschitz step shrank. Every trial is one gradient evaluation: smooth
wirelength, density solve and density gradient.
"""

from __future__ import annotations

import math

import numpy as np

from ..clustering import ClusteredNetlist
from ..netlist import Placement
from .density import density_energy_and_grad, solve_density_field
from .force_directed import force_directed_pass
from .wirelength import smooth_wl_and_grad

# Wirelength smoothing: gamma starts at GAMMA_BINS mean bin dimensions,
# shrinks by GAMMA_ANNEAL per outer iteration, and stops at GAMMA_FLOOR_BINS.
GAMMA_BINS = 4.0
GAMMA_ANNEAL = 0.8
GAMMA_FLOOR_BINS = 0.5
LAMBDA_GROWTH = 2.0  # density-penalty multiplier per outer iteration
INNER_ITERS = 20  # Nesterov steps per outer iteration
BACKTRACK_LIMIT = 8  # step-length tries per Nesterov step before the fallback
# A trial step is accepted within this factor of its Lipschitz estimate, and
# an accepted step regrows by it.
STEP_SLACK = 1.02
# Fallback step: moves the largest-gradient node this share of the canvas
# diagonal. Also the first step of a placement.
FALLBACK_STEP_FRAC = 1e-2


def _gradient_rows(pnet, positions, centres, gamma, dgrid):
    """The (wirelength, density) gradient rows of the movable nodes, in
    `dgrid.ids` order, at their centres `centres` (m, 2). Writes them into
    the movable rows of the node centres `positions` (N, 2) that the
    smooth-WL gather reads."""
    positions[dgrid.ids] = centres
    gwl = smooth_wl_and_grad(pnet, positions, gamma)
    field = solve_density_field(centres, dgrid)
    return gwl.take(dgrid.ids, axis=0), density_energy_and_grad(field)


def _norm(d):
    """The 2-norm of the (m, 2) array `d` as `np.linalg.norm` computes it:
    the square root of its raveled dot product."""
    d = d.ravel()
    return math.sqrt(d.dot(d))


def _fallback_step(g, diag, otherwise):
    """FALLBACK_STEP_FRAC * diag / max|g|, or `otherwise` when g is 0."""
    gmax = np.abs(g).max()
    return FALLBACK_STEP_FRAC * diag / gmax if gmax > 0 else otherwise


def run_analytical(clustered: ClusteredNetlist, start: Placement,
                   movable: np.ndarray, config):
    """The Nesterov descent over the nodes `movable` from their
    force-directed placement plus the start jitter, clamped. Returns
    (placement, trace)."""
    from . import TraceRow, engine_start

    pnet, placement, dgrid, eval_grid = engine_start(clustered, start, movable, config)
    ids = dgrid.ids
    if not len(ids):
        return placement, []
    force_directed_pass(clustered, config, pnet, placement, dgrid, eval_grid)
    bin_dim = 0.5 * (pnet.canvas_width + pnet.canvas_height) / config.bins
    gamma = GAMMA_BINS * bin_dim
    gamma_floor = GAMMA_FLOOR_BINS * bin_dim
    diag = float(np.hypot(pnet.canvas_width, pnet.canvas_height))
    # The smooth-WL gather reads every node: the fixed rows keep the start,
    # the movable rows hold the iterate being evaluated.
    positions = placement.positions.copy()
    jitter = 0.01 * min(pnet.canvas_width, pnet.canvas_height)
    u = dgrid.clamp(positions[ids] + np.random.default_rng(0).uniform(
        -jitter, jitter, size=(len(ids), 2)))

    def combined(gwl, genergy):
        """gwl + lam * genergy, in genergy's buffer."""
        genergy *= lam
        genergy += gwl
        return genergy

    def gradient(centres):
        """(m, 2) gradient of smooth_wl + lam * energy at the movable
        centres `centres`."""
        return combined(*_gradient_rows(pnet, positions, centres, gamma, dgrid))

    # lambda_0: balance the L1 norms of the two gradient terms.
    start_wl, start_energy = _gradient_rows(pnet, positions, u, gamma, dgrid)
    gwl_norm = np.abs(start_wl).sum()
    gen_norm = np.abs(start_energy).sum()
    lam = gwl_norm / gen_norm if gen_norm > 0 and gwl_norm > 0 else 1.0
    g_v = combined(start_wl, start_energy)
    step = _fallback_step(g_v, diag, 1.0)

    def nesterov_step(step):
        """One accelerated step of length `step` from the current (u, v, a,
        g_v); returns (u', v', a', gradient at v')."""
        u_new = dgrid.clamp(v - step * g_v)
        a_new = (1.0 + math.sqrt(4.0 * a * a + 1.0)) / 2.0
        v_new = dgrid.clamp(u_new + (a - 1.0) / a_new * (u_new - u))
        return u_new, v_new, a_new, gradient(v_new)

    trace = []
    for outer in range(config.max_outer_iters):
        # One Nesterov run at this (lambda, gamma), from the last one's u;
        # the first starts at lambda_0's point and gamma, so at its rows.
        v = u
        a = 1.0
        if outer:
            g_v = gradient(v)
        for _ in range(INNER_ITERS):
            for _try in range(BACKTRACK_LIMIT):
                u_new, v_new, a_new, g_new = nesterov_step(step)
                denom = _norm(g_new - g_v)
                lipschitz_step = _norm(v_new - v) / denom if denom > 0 else step
                if step <= lipschitz_step * STEP_SLACK or lipschitz_step == 0.0:
                    break
                step = lipschitz_step
            else:
                step = _fallback_step(g_v, diag, step)
                u_new, v_new, a_new, g_new = nesterov_step(step)
            u, v, a, g_v = u_new, v_new, a_new, g_new
            step *= STEP_SLACK
        # In place: the rows of `trace` hold their own copies.
        placement.positions[ids] = u

        # Pure-overlap overflow (target 1.0): solid clusters keep their
        # interior bins at density 1, so the design target would be an
        # unreachable floor here; overlap removal is the actual stop goal.
        # Stop below overflow_stop, or at the first row whose overflow rises
        # strictly above the lowest before it: no earlier row rose, so that
        # lowest is the previous row's (cached) overflow. A tie does not
        # stop.
        row = TraceRow(lam=lam, netlist=pnet, placement=placement, grid=eval_grid)
        trace.append(row)
        if row.overflow < config.overflow_stop or (outer and row.overflow > trace[-2].overflow):
            break
        lam *= LAMBDA_GROWTH
        gamma = max(gamma * GAMMA_ANNEAL, gamma_floor)
    return placement, trace
