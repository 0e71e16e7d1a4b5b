"""The macro-placement MDP.

One macro is placed per step on the masked grid; after the last macro the
configured engine places the standard-cell clusters and the episode ends
with reward = -proxy_cost. Dead ends (an all-false mask before the last
macro) terminate immediately with reward -DEAD_END_PENALTY. Macros go in
descending area order, ties by id (Mirhoseini et al.). States are values:
`step` returns a new EnvState and never mutates its input, so concurrent
rollouts can share one environment object. A state carries the feasibility
mask of the macro it places next, computed once when `reset` or `step` makes
it: `step` checks legality against it and `observation` hands it out. As in
Mirhoseini et al., the mask is always applied: an action outside it is a
contract violation, not a move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .clustering import base_placement, cluster_std_cells, default_cluster_count
from .design import DesignBundle
from .errors import DesignError, PlacementError
from .grid import Grid, feasibility_mask, place_on_grid
from .metrics import DEFAULT_CAPACITY, Metrics, RewardWeights, evaluate
from .netlist import Placement
from .placer import PlacerConfig, movable_cluster_mask, place_clusters

DEAD_END_PENALTY = 2.0  # reward of an episode that ends in a dead end, negated


@dataclass(frozen=True)
class EnvConfig:
    grid_rows: int = 32
    grid_cols: int = 32
    clusters_k: int | None = None  # None -> default_cluster_count(macros)
    placer: PlacerConfig = field(default_factory=PlacerConfig)
    weights: ClassVar[RewardWeights] = RewardWeights()
    capacity_h: ClassVar[float] = DEFAULT_CAPACITY
    capacity_v: ClassVar[float] = DEFAULT_CAPACITY


@dataclass(frozen=True)
class EnvState:
    grid: Grid
    step_index: int
    placement: Placement  # placement-netlist coordinates, macros placed so far
    # The next macro's (rows, cols) bool feasibility; None once all are placed.
    mask: np.ndarray | None


@dataclass(frozen=True)
class Observation:
    occupancy: np.ndarray  # bool copy of the grid occupancy
    macro_id: int  # placement-netlist node id of the macro to place
    mask: np.ndarray  # (rows, cols) bool feasibility of that macro
    positions: np.ndarray  # placement snapshot for feature building
    placed: np.ndarray
    step_index: int


@dataclass(frozen=True)
class Transition:
    reward: float
    done: bool
    metrics: Metrics | None = None
    final_placement: Placement | None = None
    dead_end: bool = False


@dataclass
class StepRecord:
    observation: Observation
    action: int
    log_prob: float
    value: float


@dataclass
class Trajectory:
    steps: list[StepRecord]
    reward: float
    metrics: Metrics | None
    final_placement: Placement | None
    dead_end: bool = False

    def __len__(self) -> int:
        return len(self.steps)


class MacroPlacementEnv:
    """Environment bound to one design; all episode state lives in EnvState.

    It keeps the clustered placement netlist, the macro order and the start
    placement, and not the parsed design: the `DesignBundle` it was built
    from, with the original netlist, its nets' CSR layout and clique graph,
    is free once the caller drops it.

    Refuses with DesignError a design no episode can finish: a fixed node
    without a position, or a macro that fits no cell center of the empty
    grid.
    """

    def __init__(self, bundle: DesignBundle, config: EnvConfig = EnvConfig()):
        netlist = bundle.netlist
        macros = netlist.macros()
        if not macros:
            raise DesignError("design has no macros to place")
        self.config = config
        k = config.clusters_k
        if k is None:
            k = default_cluster_count(len(macros))
        # Clustering is computed once per design and shared across episodes.
        self.clustered = cluster_std_cells(netlist, k=k)
        self.pnet = self.clustered.placement_netlist

        ordered = sorted(macros, key=lambda n: (-n.area, n.id))
        self.macro_order = [
            int(self.clustered.orig_to_placement[n.id]) for n in ordered
        ]

        base = base_placement(self.clustered, bundle.placement)
        base.placed[self.macro_order] = False  # macros are placed by the agent
        # The fixed nodes `place_clusters` requires placed, macros aside.
        unplaced = ~movable_cluster_mask(self.clustered) & ~base.placed
        unplaced[self.macro_order] = False
        if unplaced.any():
            node = self.pnet.nodes[int(np.argmax(unplaced))]
            raise DesignError(f"fixed node '{node.name}' has no position")
        self._base_placement = base
        self._eval_grid = Grid.empty(config.grid_rows, config.grid_cols,
                                     netlist.canvas_width, netlist.canvas_height)
        # An empty grid of the episode's shape: every macro needs a cell on it.
        for pid in self.macro_order:
            if not feasibility_mask(self._eval_grid, self.pnet.nodes[pid]).any():
                raise DesignError(
                    f"macro '{self.pnet.nodes[pid].name}' fits no cell center of "
                    f"the empty {config.grid_rows}x{config.grid_cols} grid")

    @property
    def num_macros(self) -> int:
        return len(self.macro_order)

    @property
    def num_cells(self) -> int:
        return self.config.grid_rows * self.config.grid_cols

    def start_placement(self) -> Placement:
        """A fresh copy of the episode's start: terminals placed, macros and
        clusters not."""
        return self._base_placement.copy()

    def finish(self, placement: Placement) -> tuple[Placement, Metrics]:
        """Place the clusters around the macros of `placement` with the
        configured engine and score the result; returns (final placement,
        metrics). `placement` must place every macro."""
        final, _ = place_clusters(self.clustered, placement, self.config.placer)
        metrics = evaluate(self.pnet, final, self._eval_grid,
                           weights=self.config.weights,
                           capacity_h=self.config.capacity_h,
                           capacity_v=self.config.capacity_v)
        return final, metrics

    def current_macro(self, state: EnvState) -> int:
        return self.macro_order[state.step_index]

    def _state(self, grid: Grid, step_index: int, placement: Placement) -> EnvState:
        mask = None
        if step_index < self.num_macros:
            mask = feasibility_mask(grid, self.pnet.nodes[self.macro_order[step_index]])
        return EnvState(grid=grid, step_index=step_index, placement=placement, mask=mask)

    def observation(self, state: EnvState) -> Observation:
        return Observation(
            occupancy=state.grid.occupancy.copy(),
            macro_id=self.current_macro(state),
            mask=state.mask,
            positions=state.placement.positions.copy(),
            placed=state.placement.placed.copy(),
            step_index=state.step_index,
        )

    def reset(self) -> tuple[EnvState, Observation]:
        grid = Grid.empty(self.config.grid_rows, self.config.grid_cols,
                          self.pnet.canvas_width, self.pnet.canvas_height)
        state = self._state(grid, 0, self.start_placement())
        return state, self.observation(state)

    def step(self, state: EnvState, action: int) -> tuple[Transition, EnvState]:
        if state.step_index >= self.num_macros:
            raise PlacementError("episode is already done")
        action = int(action)
        macro = self.pnet.nodes[self.current_macro(state)]
        if not 0 <= action < self.num_cells:
            raise PlacementError(
                f"action {action} is outside the grid's {self.num_cells} cells")
        row, col = divmod(action, self.config.grid_cols)
        if not state.mask[row, col]:
            raise PlacementError(
                f"action {action} is infeasible for macro '{macro.name}'")

        grid, (x, y) = place_on_grid(state.grid, macro, row, col)
        next_state = self._state(grid, state.step_index + 1,
                                 state.placement.updated(macro.id, x, y))

        if next_state.mask is None:
            final_placement, metrics = self.finish(next_state.placement)
            transition = Transition(reward=metrics.reward, done=True, metrics=metrics,
                                    final_placement=final_placement)
            return transition, next_state

        if not next_state.mask.any():
            transition = Transition(reward=-DEAD_END_PENALTY, done=True, dead_end=True)
            return transition, next_state
        return Transition(reward=0.0, done=False), next_state


def uniform_random_policy(obs: Observation):
    """Uniform distribution over feasible cells; value estimate 0."""
    flat = obs.mask.ravel().astype(np.float64)
    total = flat.sum()
    if total == 0:
        raise PlacementError("uniform policy called with an all-false mask")
    return flat / total, 0.0


def rollout(env: MacroPlacementEnv, policy, seed: int) -> Trajectory:
    """Run one episode; the policy maps an Observation to (probs, value).

    probs must be a distribution over grid cells with exactly zero mass on
    infeasible cells. Actions are sampled with the trajectory seed.
    """
    rng = np.random.default_rng(seed)
    state, obs = env.reset()
    steps: list[StepRecord] = []
    while True:
        probs, value = policy(obs)
        action = int(rng.choice(env.num_cells, p=probs))
        log_prob = float(np.log(probs[action]))
        transition, state = env.step(state, action)
        steps.append(StepRecord(observation=obs, action=action,
                                log_prob=log_prob, value=float(value)))
        if transition.done:
            return Trajectory(steps=steps, reward=transition.reward,
                              metrics=transition.metrics,
                              final_placement=transition.final_placement,
                              dead_end=transition.dead_end)
        obs = env.observation(state)
