"""The macro-placement MDP.

One macro is placed per step on the masked grid; after the last macro the
configured engine places the standard-cell clusters and the episode ends
with reward = -proxy_cost. Dead ends (an all-false mask before the last
macro) terminate immediately with a fixed penalty. States are values:
`step` returns a new EnvState and never mutates its input, so concurrent
rollouts can share one environment object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import base_placement, cluster_std_cells, default_cluster_count
from .design import DesignBundle
from .errors import DesignError, PlacementError
from .grid import Grid, Mask, feasibility_mask, place_on_grid
from .metrics import DEFAULT_CAPACITY, Metrics, RewardWeights, evaluate
from .netlist import KIND_MACRO, Placement
from .placer import PlacerConfig, place_clusters


@dataclass(frozen=True)
class EnvConfig:
    grid_rows: int = 32
    grid_cols: int = 32
    clusters_k: int | None = None  # None -> default_cluster_count(macros)
    placer: PlacerConfig = field(default_factory=PlacerConfig)
    weights: RewardWeights = field(default_factory=RewardWeights)
    capacity_h: float = DEFAULT_CAPACITY
    capacity_v: float = DEFAULT_CAPACITY
    dead_end_penalty: float = 2.0
    macro_order: str = "area_desc"  # or "id"
    use_mask: bool = True
    graph_model: str = "clique"
    seed: int = 0


@dataclass(frozen=True)
class EnvState:
    grid: Grid
    step_index: int
    placement: Placement  # placement-netlist coordinates, macros placed so far


@dataclass(frozen=True)
class Observation:
    occupancy: np.ndarray  # bool copy of the grid occupancy
    macro_id: int  # placement-netlist node id of the macro to place
    mask: Mask
    positions: np.ndarray  # placement snapshot for feature building
    placed: np.ndarray
    step_index: int


@dataclass(frozen=True)
class Transition:
    observation: Observation
    action: int
    mask: Mask
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
    """Environment bound to one design; all episode state lives in EnvState."""

    def __init__(self, bundle: DesignBundle, config: EnvConfig = EnvConfig()):
        netlist = bundle.netlist
        macros = netlist.macros()
        if not macros:
            raise DesignError("design has no macros to place")
        self.bundle = bundle
        self.config = config
        k = config.clusters_k or default_cluster_count(len(macros))
        # Clustering is computed once per design and shared across episodes.
        self.clustered = cluster_std_cells(netlist, k=k, seed=config.seed)
        self.pnet = self.clustered.placement_netlist

        if config.macro_order == "area_desc":
            ordered = sorted(macros, key=lambda n: (-n.area, n.id))
        elif config.macro_order == "id":
            ordered = sorted(macros, key=lambda n: n.id)
        else:
            raise DesignError(f"unknown macro_order '{config.macro_order}'")
        self.macro_order = [
            int(self.clustered.orig_to_placement[n.id]) for n in ordered
        ]

        base = base_placement(self.clustered, bundle.placement)
        base.placed[self.macro_order] = False  # macros are placed by the agent
        self._base_placement = base
        self._eval_grid = Grid.empty(config.grid_rows, config.grid_cols,
                                     netlist.canvas_width, netlist.canvas_height)

    @property
    def num_macros(self) -> int:
        return len(self.macro_order)

    @property
    def num_cells(self) -> int:
        return self.config.grid_rows * self.config.grid_cols

    def current_macro(self, state: EnvState) -> int:
        return self.macro_order[state.step_index]

    def _mask_for(self, grid: Grid, macro_pid: int) -> Mask:
        macro = self.pnet.nodes[macro_pid]
        mask = feasibility_mask(grid, macro)
        if not self.config.use_mask:
            # ablation: only the in-canvas constraint is exposed to the agent
            empty = Grid.empty(grid.rows, grid.cols, grid.canvas_width,
                               grid.canvas_height)
            mask = feasibility_mask(empty, macro)
        return mask

    def observation(self, state: EnvState) -> Observation:
        pid = self.current_macro(state)
        return Observation(
            occupancy=state.grid.occupancy.copy(),
            macro_id=pid,
            mask=self._mask_for(state.grid, pid),
            positions=state.placement.positions.copy(),
            placed=state.placement.placed.copy(),
            step_index=state.step_index,
        )

    def reset(self) -> tuple[EnvState, Observation]:
        grid = Grid.empty(self.config.grid_rows, self.config.grid_cols,
                          self.pnet.canvas_width, self.pnet.canvas_height)
        state = EnvState(grid=grid, step_index=0,
                         placement=self._base_placement.copy())
        return state, self.observation(state)

    def step(self, state: EnvState, action: int) -> tuple[Transition, EnvState]:
        if state.step_index >= self.num_macros:
            raise PlacementError("episode is already done")
        obs = self.observation(state)
        row, col = divmod(int(action), self.config.grid_cols)
        macro = self.pnet.nodes[obs.macro_id]
        true_mask = feasibility_mask(state.grid, macro)
        if not true_mask.feasible[row, col]:
            if self.config.use_mask:
                raise PlacementError(
                    f"action {action} is infeasible for macro '{macro.name}'"
                )
            # maskless ablation: collision ends the episode with the penalty
            transition = Transition(observation=obs, action=int(action),
                                    mask=obs.mask,
                                    reward=-self.config.dead_end_penalty,
                                    done=True, dead_end=True)
            return transition, state

        grid, (x, y) = place_on_grid(state.grid, macro, row, col)
        placement = state.placement.updated(macro.id, x, y)
        next_state = EnvState(grid=grid, step_index=state.step_index + 1,
                              placement=placement)

        if next_state.step_index == self.num_macros:
            final_placement, _ = place_clusters(self.clustered, placement,
                                                self.config.placer)
            metrics = evaluate(
                self.pnet, final_placement, self._eval_grid,
                weights=self.config.weights,
                capacity_h=self.config.capacity_h,
                capacity_v=self.config.capacity_v,
            )
            transition = Transition(observation=obs, action=int(action),
                                    mask=obs.mask, reward=metrics.reward,
                                    done=True, metrics=metrics,
                                    final_placement=final_placement)
            return transition, next_state

        next_mask = self._mask_for(next_state.grid,
                                   self.current_macro(next_state))
        if not next_mask.any:
            transition = Transition(observation=obs, action=int(action),
                                    mask=obs.mask,
                                    reward=-self.config.dead_end_penalty,
                                    done=True, dead_end=True)
            return transition, next_state
        transition = Transition(observation=obs, action=int(action),
                                mask=obs.mask, reward=0.0, done=False)
        return transition, next_state


def uniform_random_policy(obs: Observation):
    """Uniform distribution over feasible cells; value estimate 0."""
    flat = obs.mask.flat().astype(np.float64)
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
