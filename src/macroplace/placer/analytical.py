"""Nesterov-accelerated electrostatic placement engine.

Minimizes smooth_wl(x) + lambda * energy(x) over movable-node centers with
positions projected in-canvas. The penalty weight starts where the L1 norms
of both gradient terms balance and doubles every outer iteration; the
wirelength smoothing gamma anneals toward a floor. Stops when the density
overflow of an outer iteration's trace row drops below the configured
threshold. One `DensityGrid` per placement holds the fixed nodes' charge and
the Poisson eigenvalues, so each gradient rasterizes and differentiates the
movable nodes only.
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
# Fallback step: moves the largest-gradient node this share of the canvas
# diagonal. Also the first step of a placement.
FALLBACK_STEP_FRAC = 1e-2


def _gradient(pnet, placement, movable, gamma, lam, dgrid):
    """Gradient of smooth_wl + lam * energy, zero on fixed nodes."""
    _, gwl = smooth_wl_and_grad(pnet, placement, gamma)
    _, genergy = density_energy_and_grad(solve_density_field(placement, dgrid), pnet)
    grad = gwl + lam * genergy
    grad[~movable] = 0.0
    return grad


def run_analytical(clustered: ClusteredNetlist, start: Placement,
                   movable: np.ndarray, config):
    from . import TraceRow, clamp_in_canvas, engine_start

    pnet, bounds, placement, dgrid, eval_grid = engine_start(clustered, start, movable, config)
    if not len(bounds.ids):
        return placement, []

    bin_dim = 0.5 * (pnet.canvas_width + pnet.canvas_height) / config.bins
    gamma = GAMMA_BINS * bin_dim
    gamma_floor = GAMMA_FLOOR_BINS * bin_dim
    diag = float(np.hypot(pnet.canvas_width, pnet.canvas_height))

    # lambda_0: balance the L1 norms of the two gradient terms.
    _, gwl = smooth_wl_and_grad(pnet, placement, gamma)
    _, genergy = density_energy_and_grad(solve_density_field(placement, dgrid), pnet)
    gwl_norm = np.abs(gwl[movable]).sum()
    gen_norm = np.abs(genergy[movable]).sum()
    lam = gwl_norm / gen_norm if gen_norm > 0 and gwl_norm > 0 else 1.0

    def project(pl):
        return clamp_in_canvas(pl, bounds)

    def nesterov_step(step):
        """One accelerated step of length `step` from the current (u, v, a,
        g_v); returns (u', v', a', gradient at v')."""
        u_new = project(Placement(v.positions - step * g_v, v.placed.copy()))
        a_new = (1.0 + np.sqrt(4.0 * a * a + 1.0)) / 2.0
        momentum = (a - 1.0) / a_new * (u_new.positions - u.positions)
        v_new = project(Placement(u_new.positions + momentum, u_new.placed.copy()))
        return u_new, v_new, a_new, _gradient(pnet, v_new, movable, gamma, lam, dgrid)

    trace = []
    step = None
    for outer in range(config.max_outer_iters):
        # One Nesterov run at this (lambda, gamma).
        u = placement.copy()
        v = placement.copy()
        a = 1.0
        g_v = _gradient(pnet, v, movable, gamma, lam, dgrid)
        if step is None:
            gmax = np.abs(g_v).max()
            step = FALLBACK_STEP_FRAC * diag / gmax if gmax > 0 else 1.0
        for _ in range(INNER_ITERS):
            for _try in range(BACKTRACK_LIMIT):
                u_new, v_new, a_new, g_new = nesterov_step(step)
                dv = v_new.positions - v.positions
                dg = g_new - g_v
                denom = float(np.linalg.norm(dg))
                lipschitz_step = float(np.linalg.norm(dv)) / denom if denom > 0 else step
                if step <= lipschitz_step * 1.02 or lipschitz_step == 0.0:
                    break
                step = lipschitz_step
            else:
                gmax = np.abs(g_v).max()
                step = FALLBACK_STEP_FRAC * diag / gmax if gmax > 0 else step
                u_new, v_new, a_new, g_new = nesterov_step(step)
            u, v, a, g_v = u_new, v_new, a_new, g_new
            # Allow the step to grow back; cheap re-estimate next round.
            step *= 1.2
        placement = project(u)

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
