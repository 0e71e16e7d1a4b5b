"""Nesterov-accelerated electrostatic placement engine.

Minimizes smooth_wl(x) + lambda * energy(x) over movable-node centers with
positions projected in-canvas. The penalty weight starts where the L1 norms
of both gradient terms balance and doubles every outer iteration; the
wirelength smoothing gamma anneals toward a floor. Stops when the density
overflow of an outer iteration's trace row drops below
`PlacerConfig.overflow_stop`. One `DensityGrid` per placement holds the
fixed nodes' charge and the Poisson eigenvalues, so each gradient rasterizes
and differentiates the movable nodes only.

Like the force-directed engine, the loop runs on the movable nodes' (m, 2)
centres, in `DensityGrid.ids` order: the Nesterov iterates u and v and the
gradient g. Each evaluated iterate is written into the movable rows of one
(N, 2) buffer that the smooth-WL gather reads, a copy of the start
placement's positions, so its fixed rows never change. The placement is
written once per outer iteration, for its trace row. The engine reads only
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

import numpy as np

from ..clustering import ClusteredNetlist
from ..netlist import Placement
from .density import density_energy_and_grad, solve_density_field
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


def _gradient_rows(pnet, positions, gamma, dgrid):
    """The (wirelength, density) gradient rows of the movable nodes, in
    `dgrid.ids` order, at the node centres `positions` (N, 2)."""
    gwl = smooth_wl_and_grad(pnet, positions, gamma)
    field = solve_density_field(positions.take(dgrid.ids, axis=0), dgrid)
    return gwl.take(dgrid.ids, axis=0), density_energy_and_grad(field)


def _fallback_step(g, diag, otherwise):
    """FALLBACK_STEP_FRAC * diag / max|g|, or `otherwise` when g is 0."""
    gmax = np.abs(g).max()
    return FALLBACK_STEP_FRAC * diag / gmax if gmax > 0 else otherwise


def run_analytical(clustered: ClusteredNetlist, start: Placement,
                   movable: np.ndarray, config):
    from . import TraceRow, engine_start

    pnet, placement, dgrid, eval_grid = engine_start(clustered, start, movable, config)
    ids = dgrid.ids
    if not len(ids):
        return placement, []

    bin_dim = 0.5 * (pnet.canvas_width + pnet.canvas_height) / config.bins
    gamma = GAMMA_BINS * bin_dim
    gamma_floor = GAMMA_FLOOR_BINS * bin_dim
    diag = float(np.hypot(pnet.canvas_width, pnet.canvas_height))
    # The smooth-WL gather reads every node: the fixed rows keep the start,
    # the movable rows hold the iterate being evaluated.
    positions = placement.positions.copy()

    def gradient(centres):
        """(m, 2) gradient of smooth_wl + lam * energy at the movable
        centres `centres`."""
        positions[ids] = centres
        gwl, genergy = _gradient_rows(pnet, positions, gamma, dgrid)
        return gwl + lam * genergy

    # lambda_0: balance the L1 norms of the two gradient terms.
    start_wl, start_energy = _gradient_rows(pnet, positions, gamma, dgrid)
    gwl_norm = np.abs(start_wl).sum()
    gen_norm = np.abs(start_energy).sum()
    lam = gwl_norm / gen_norm if gen_norm > 0 and gwl_norm > 0 else 1.0
    g_v = start_wl + lam * start_energy
    step = _fallback_step(g_v, diag, 1.0)

    def nesterov_step(step):
        """One accelerated step of length `step` from the current (u, v, a,
        g_v); returns (u', v', a', gradient at v')."""
        u_new = dgrid.clamp(v - step * g_v)
        a_new = (1.0 + np.sqrt(4.0 * a * a + 1.0)) / 2.0
        v_new = dgrid.clamp(u_new + (a - 1.0) / a_new * (u_new - u))
        return u_new, v_new, a_new, gradient(v_new)

    u = positions[ids]
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
                denom = float(np.linalg.norm(g_new - g_v))
                lipschitz_step = float(np.linalg.norm(v_new - v)) / denom if denom > 0 else step
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
        row = TraceRow(iteration=outer, lam=lam, netlist=pnet,
                       placement=placement, grid=eval_grid)
        trace.append(row)
        if row.overflow < config.overflow_stop:
            break
        lam *= LAMBDA_GROWTH
        gamma = max(gamma * GAMMA_ANNEAL, gamma_floor)
    return placement, trace
