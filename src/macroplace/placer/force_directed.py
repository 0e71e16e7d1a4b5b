"""Force-directed (quadratic) placement engine.

Alternates (a) an exact quadratic-wirelength solve over the placement
netlist's clique graph with fixed nodes as anchors and (b) one move of
every cluster down the electrostatic field of the density, the Poisson
solve the analytical engine descends. Moved positions feed back into the
next solve as pseudo-anchors whose weight ramps up over the iterations,
the classic fixed-point trick that keeps spreading from being undone
(Kraftwerk2: Spindler, Schlichtmann and Johannes, TCAD 2008; ePlace: Lu
et al., TODAES 2015).

Solve. The graph is `Netlist.clique_graph`, built once per design from
`net_csr`: w/(p-1) between every pin pair of a p-pin net, one edge per node
pair. The movable-block Laplacian A (node degrees D on its diagonal, edges
to fixed nodes included) is filled as a dense matrix, with array
operations over the graph's edges (`_fd_system`).
Iteration `it` of T adds the anchor weights D * t, t = it / T, so its
matrix is D^1/2 (M + t I) D^1/2 with M = D^-1/2 A D^-1/2 fixed.
`_spectrum` eigendecomposes M, M = Q diag(lam) Q^T, and every iteration's
solve (`spsolve`) is exact:

    x = D^-1/2 Q ((Q^T D^-1/2 rhs) / (lam + t))

A group of clusters with no path to a fixed node (a lone cluster on no net
is the smallest) has a zero eigenvalue, so its system is singular at t = 0.
Such a group is anchored with a weight that does not ramp: D * max(t, 1),
where an isolated cluster's D counts as 1. It is diagonalised on its own,
so that its shift never mixes with the anchored clusters' modes.

Neither A nor its spectrum depends on positions, so they are built once
per design, with the edges between a movable and a fixed node: on the
first placement of a `ClusteredNetlist` with a given movable set (the
`DensityGrid`'s ids), and kept while that netlist lives (`_system_for`).
Per placement only the fixed nodes' pull along those edges
(`FixedPull.rhs`) and the fixed raster are computed again.

Spreading. One `DensityGrid` per placement holds the raster of the fixed
charge, the clusters' in-canvas bounds and their half sizes; each
iteration solves the density field of the clamped solve
(`density.solve_density_field`) and takes its energy gradient
(`density.density_energy_and_grad`), the two kernels of the analytical
engine. Cluster i moves by

    d_i = -g_i / (s * a_i * rho_bar)

with g_i its gradient row, s the field's `norm_scale`, a_i its area and
rho_bar the mean charge density, the charge area over the canvas area.
g_i / (s * a_i) is the potential's gradient averaged over the cluster's
footprint, through the exact overlap-area derivative. As lap(psi) =
-(rho - rho_bar), the displacement -grad(psi) / rho_bar flattens the
density to first order (the linearised continuity equation), so the step
has no tuned scale. The move includes the fixed macros' charge: clusters
leave the bins the macros cover too. It flattens the density in few
iterations, so the engine runs at most FIELD_ITERS of the outer budget,
and the anchor ramp t = it / T spans those T. Within an iteration the
clusters' centres stay in one (m, 2) array, from the solve through both
clamps and the move, and reach the placement once, for the trace row. The
trace rows the engine appends are never read here: their HPWL and overflow
cost nothing unless a caller reads them.
"""

from __future__ import annotations

import warnings
import weakref
from typing import NamedTuple

import numpy as np

from ..clustering import ClusteredNetlist
from ..netlist import Placement
from .density import density_energy_and_grad, solve_density_field

# Outer iterations of a placement, at most. Over uniform-random rollouts of
# the benchmark's S, M and L designs the mean reward at 10 is at least the
# one at 30 on each design; at 8 it is 0.011 lower on L.
FIELD_ITERS = 10


class FixedPull(NamedTuple):
    """The graph's edges between a movable and a fixed node, in graph-edge
    order."""
    to: np.ndarray  # (e,) movable end, as an index into the movable ids
    fixed: np.ndarray  # (e,) fixed end, as a node id
    w: np.ndarray  # (e,) edge weight
    m: int  # number of movable nodes

    def rhs(self, positions: np.ndarray) -> np.ndarray:
        """(m, 2) pull of the fixed neighbours at `positions`, summed per
        movable node in edge order."""
        pull = self.w[:, None] * positions[self.fixed]
        return np.stack([np.bincount(self.to, weights=pull[:, axis], minlength=self.m)
                         for axis in (0, 1)], axis=1)


def _fd_system(graph, movable_ids: np.ndarray):
    """Linear system of the quadratic solve over the movable nodes.

    Returns (A, diag, pull, pinned): the dense (m, m) movable-block
    Laplacian with the node degrees on its diagonal, the degrees, the
    `FixedPull` of the fixed neighbours, and which movable nodes have a
    fixed neighbour. Degrees sum in graph-edge order; edges between two
    fixed nodes contribute nothing. The graph has no parallel edges or
    self-loops, so every off-diagonal entry is one edge's weight, negated.
    """
    m = len(movable_ids)
    k = np.arange(m)
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    local[movable_ids] = k
    li, lj, w = local[graph.edges_i], local[graph.edges_j], graph.weights

    # Interleaved (i, j) ends, so each node's degree sums its edges in order.
    ends = np.stack([li, lj], axis=1).ravel()
    on_movable = ends >= 0
    diag = np.bincount(ends[on_movable], weights=np.repeat(w, 2)[on_movable],
                       minlength=m)

    mixed = (li >= 0) != (lj >= 0)
    to = np.where(li >= 0, li, lj)[mixed]
    fixed = np.where(li >= 0, graph.edges_j, graph.edges_i)[mixed]

    both = (li >= 0) & (lj >= 0)
    a, b = li[both], lj[both]
    A = np.zeros((m, m))
    A[a, b] = A[b, a] = -w[both]
    A[k, k] = diag
    pinned = np.bincount(to, minlength=m) > 0
    return A, diag, FixedPull(to, fixed, w[mixed], m), pinned


class Spectrum(NamedTuple):
    """The FD system of one design, diagonalised: at t it is A plus
    `anchor_weights(t)` on the diagonal, and it equals
    B^1/2 Q diag(vals + max(t, floor)) Q^T B^1/2 with B = `base`. Q is
    orthogonal and block-diagonal over the anchored and the other
    clusters; column k holds a mode of node k's block."""
    base: np.ndarray  # (m,) anchor-weight scale: the degree, 1 where it is 0
    floor: np.ndarray  # (m,) 1 on clusters with no path to a fixed node, else 0
    left: np.ndarray  # (m, m) B^-1/2 Q
    right: np.ndarray  # (m, m) Q^T B^-1/2
    vals: np.ndarray  # (m,) eigenvalues of B^-1/2 A B^-1/2, one per column of Q

    def anchor_weights(self, t: float) -> np.ndarray:
        return self.base * np.maximum(t, self.floor)


def _spectrum(A: np.ndarray, diag: np.ndarray, pinned: np.ndarray) -> Spectrum:
    """Eigendecompose B^-1/2 A B^-1/2 (B = `Spectrum.base`) once, in one
    block for the clusters a fixed node anchors and one for the rest."""
    linked = A != 0.0
    anchored = pinned
    while True:  # grow the anchored set by one edge until it stops growing
        grown = anchored | linked[:, anchored].any(axis=1)
        if (grown == anchored).all():
            break
        anchored = grown
    floor = np.where(anchored, 0.0, 1.0)
    base = np.where(diag > 0, diag, 1.0)
    scale = 1.0 / np.sqrt(base)
    normalised = scale[:, None] * A * scale[None, :]
    left = np.zeros_like(normalised)
    vals = np.empty(len(base))
    for nodes in (np.flatnonzero(anchored), np.flatnonzero(~anchored)):
        block = np.ix_(nodes, nodes)
        vals[nodes], vecs = np.linalg.eigh(normalised[block])
        left[block] = scale[nodes, None] * vecs
    return Spectrum(base, floor, left, np.ascontiguousarray(left.T), vals)


def spsolve(spectrum: Spectrum, rhs: np.ndarray, t: float) -> np.ndarray:
    """Solution x of (A + diag(spectrum.anchor_weights(t))) x = rhs, for an
    (m, 2) right-hand side. The name is the solve's span in the benchmark's
    per-layer trace (`placer.force_directed.spsolve`)."""
    shifted = spectrum.vals + np.maximum(t, spectrum.floor)
    return spectrum.left @ ((spectrum.right @ rhs) / shifted[:, None])


class FDSystem(NamedTuple):
    """The force-directed system of one design with one movable set: all
    of it but the positions of the fixed nodes."""
    ids: np.ndarray  # (m,) the movable node ids it was built for
    spectrum: Spectrum
    pull: FixedPull
    floating: list  # names of the movable nodes no fixed node reaches


# One system per live ClusteredNetlist, dropped with it.
_SYSTEMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _system_for(clustered: ClusteredNetlist, ids: np.ndarray) -> FDSystem:
    """The `FDSystem` of `clustered` with the nodes `ids` moving, built on
    the first call for those ids. It keeps `ids` itself, a density grid's,
    which no one writes."""
    system = _SYSTEMS.get(clustered)
    if system is None or not np.array_equal(system.ids, ids):
        pnet = clustered.placement_netlist
        A, diag, pull, pinned = _fd_system(pnet.clique_graph, ids)
        spectrum = _spectrum(A, diag, pinned)
        floating = [pnet.nodes[int(ids[k])].name for k in np.flatnonzero(spectrum.floor)]
        system = FDSystem(ids, spectrum, pull, floating)
        _SYSTEMS[clustered] = system
    return system


def run_force_directed(clustered: ClusteredNetlist, start: Placement,
                       movable: np.ndarray, config):
    from . import engine_start

    return force_directed_pass(clustered, config,
                               *engine_start(clustered, start, movable, config))


def force_directed_pass(clustered: ClusteredNetlist, config,
                        pnet, placement: Placement, grid, eval_grid):
    """The force-directed iterations from `engine_start`'s output, moving
    the density grid's ids. Sets their rows of `placement` in place;
    returns (placement, trace)."""
    from . import TraceRow

    ids = grid.ids
    if not len(ids):
        return placement, []
    system = _system_for(clustered, ids)
    if system.floating:
        warnings.warn(
            "clusters with no connectivity to a fixed node: no net pulls them toward the "
            f"fixed nodes, so the density field alone sets where they go: {system.floating}",
            stacklevel=3,
        )

    spectrum = system.spectrum
    fixed_rhs = system.pull.rhs(placement.positions)
    center = np.array([pnet.canvas_width / 2, pnet.canvas_height / 2])
    # a_i * rho_bar: each cluster's area at the mean charge density.
    mean_density = grid.charge_area / (pnet.canvas_width * pnet.canvas_height)
    charge = (2 * grid.half).prod(axis=1) * mean_density
    trace = []
    anchors = np.tile(center, (len(ids), 1))
    T = min(config.max_outer_iters, FIELD_ITERS)
    for it in range(T):
        t = it / T
        rhs = fixed_rhs + spectrum.anchor_weights(t)[:, None] * anchors
        centres = grid.clamp(spsolve(spectrum, rhs, t))
        field = solve_density_field(centres, grid)
        step = density_energy_and_grad(field) / (field.norm_scale * charge)[:, None]
        anchors = grid.clamp(centres - step)
        # In place: the rows of `trace` hold their own copies.
        placement.positions[ids] = anchors
        trace.append(TraceRow(lam=None, netlist=pnet, placement=placement,
                              grid=eval_grid))
    return placement, trace
