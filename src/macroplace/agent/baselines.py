"""Non-learning baselines: random search, simulated annealing, and the
exhaustive oracle, which the tests use as the exact best reward of small
designs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env import MacroPlacementEnv, rollout, uniform_random_policy
from ..errors import BudgetError
from ..grid import Grid, feasibility_mask, lift_from_grid, place_on_grid
from ..netlist import Placement

ORACLE_MAX_MACROS = 3
ORACLE_MAX_CELLS = 16 * 16
# Annealing temperature at move m: SA_T0 * SA_ALPHA**m, in proxy-cost units.
SA_T0 = 0.05
SA_ALPHA = 0.97


@dataclass
class BaselineResult:
    best_reward: float
    best_actions: list
    best_placement: Placement | None
    rewards: list  # per-evaluation rewards, in evaluation order


def baseline_random(env: MacroPlacementEnv, episodes: int,
                    seed: int = 0) -> BaselineResult:
    """Best of N uniform masked rollouts. Episode i draws from a seed
    derived from (seed, i), so prefixes are nested across budgets."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    best = None
    rewards = []
    for i in range(episodes):
        traj = rollout(env, uniform_random_policy,
                       np.random.SeedSequence([seed, i]))
        rewards.append(traj.reward)
        if best is None or traj.reward > best.reward:
            best = traj
    return BaselineResult(
        best_reward=best.reward,
        best_actions=[s.action for s in best.steps],
        best_placement=best.final_placement,
        rewards=rewards,
    )


def baseline_sim_anneal(env: MacroPlacementEnv, moves: int, seed: int = 0) -> BaselineResult:
    """Relocate one macro at a time under Metropolis acceptance.

    Starts from one uniform masked rollout. Each move draws a macro and a
    feasible cell for it, and accepts a worse cost with probability
    exp(-increase / t) at the geometric temperature t = SA_T0 * SA_ALPHA**move.
    Once t underflows to 0 (after ~24k moves) only improvements are accepted.

    The incumbent's grid and macro centres are kept: a move lifts macro k
    off the incumbent grid (`lift_from_grid`), draws from its mask there and
    places it once, so the other macros are not placed again. That mask
    always holds the macro's own cell: `place_on_grid` admitted it there by
    the in-canvas test and footprint window the mask reads
    (`grid.mask_windows`), and placed footprints are disjoint. So every move
    has a cell to draw, and every move evaluates one placement.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
    start = rollout(env, uniform_random_policy, np.random.SeedSequence([seed, 0]))
    if start.dead_end:
        raise BudgetError("could not draw a feasible starting placement")
    cells = [s.action for s in start.steps]
    cost = -start.reward
    rewards = [start.reward]
    best_cells, best_cost, best_placement = list(cells), cost, start.final_placement

    cols = env.config.grid_cols
    macros = [env.pnet.nodes[pid] for pid in env.macro_order]
    grid = Grid.empty(env.config.grid_rows, cols, env.pnet.canvas_width, env.pnet.canvas_height)
    centres = np.empty((len(macros), 2))
    for j, (macro, cell) in enumerate(zip(macros, cells)):
        grid, centres[j] = place_on_grid(grid, macro, *divmod(cell, cols))
    for move in range(moves):
        k = int(rng.integers(len(cells)))
        macro = macros[k]
        lifted = lift_from_grid(grid, macro)
        choices = np.flatnonzero(feasibility_mask(lifted, macro))
        proposal = list(cells)
        proposal[k] = int(rng.choice(choices))
        moved, centre = place_on_grid(lifted, macro, *divmod(proposal[k], cols))
        placement = env.start_placement()
        placement.positions[env.macro_order] = centres
        placement.positions[macro.id] = centre
        placement.placed[env.macro_order] = True
        placement, metrics = env.finish(placement)
        rewards.append(metrics.reward)
        new_cost = -metrics.reward
        t = SA_T0 * SA_ALPHA**move
        accept = new_cost < cost or (
            t > 0 and rng.random() < np.exp(-(new_cost - cost) / t)
        )
        if accept:
            cells, cost, grid = proposal, new_cost, moved
            centres[k] = centre
            if new_cost < best_cost:
                best_cells, best_cost, best_placement = list(cells), new_cost, placement
    return BaselineResult(best_reward=-best_cost, best_actions=best_cells,
                          best_placement=best_placement, rewards=rewards)


def oracle_exhaustive(env: MacroPlacementEnv) -> BaselineResult:
    """Exact best reward over every masked action sequence.

    Guarded: refuses designs beyond 3 macros or 16x16 grids, quoting the
    sequence count it would have to evaluate.
    """
    cells_total = env.num_cells
    if env.num_macros > ORACLE_MAX_MACROS or cells_total > ORACLE_MAX_CELLS:
        raise BudgetError(
            f"exhaustive oracle refused: up to {cells_total ** env.num_macros} "
            f"sequences ({env.num_macros} macros on {cells_total} cells); "
            f"limits are {ORACLE_MAX_MACROS} macros and {ORACLE_MAX_CELLS} cells"
        )
    rewards = []
    best = {"reward": -np.inf, "actions": None, "placement": None}

    def recurse(state, actions):
        obs = env.observation(state)
        for action in np.flatnonzero(obs.mask):
            transition, nxt = env.step(state, int(action))
            seq = actions + [int(action)]
            if transition.done:
                rewards.append(transition.reward)
                if transition.reward > best["reward"]:
                    best.update(reward=transition.reward, actions=seq,
                                placement=transition.final_placement)
            else:
                recurse(nxt, seq)

    state, _obs = env.reset()
    recurse(state, [])
    return BaselineResult(best_reward=best["reward"], best_actions=best["actions"],
                          best_placement=best["placement"], rewards=rewards)
