"""The CSR net kernel and the clique graph built on it, the shared box
rasterizer and the force-directed linear system, solve and field move
against the loops and routines they replaced (tests/oracles.py).

HPWL, the clique graph, node degrees, the per-axis overlap lengths, the
density gradient (against the dense edge-slope gradient) and the FD system
compute in the references' order, so their outputs must be bit-equal. The rasterized
maps (one matrix product per map), the smooth-WL and density-gradient
kernels reassociate float sums, and the spectral solve replaces a sparse
LU solve, so they and the field move built on the density gradient are
held to 1e-12 of the reference's scale.
"""

import re

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve as superlu_solve

from macroplace.clustering import base_placement, cluster_std_cells, default_cluster_count
from macroplace.design import SyntheticSpec, generate_synthetic
from macroplace.errors import EvaluationError
from macroplace.grid import Grid
from macroplace.metrics import congestion_map, rasterize_area
from macroplace.netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
    hpwl,
)
from macroplace.placer import PlacerConfig, force_directed, movable_cluster_mask
from macroplace.placer.density import density_energy_and_grad, density_grid, solve_density_field
from macroplace.placer.force_directed import _fd_system, _spectrum, run_force_directed, spsolve
from macroplace.placer.wirelength import smooth_wl_and_grad
from macroplace.raster import axis_overlap, node_boxes

from conftest import assert_close_to_scale, floating_netlist, random_design
from oracles import (
    _axis_overlap,
    clique_graph_loop,
    congestion_map_loop,
    density_energy_and_grad_loop,
    density_grad_dense_slopes,
    fd_anchor_weights_loop,
    fd_system_loop,
    field_move_loop,
    hpwl_bruteforce,
    node_degrees_loop,
    rasterize_area_loop,
    smooth_wl_loop,
)

CANVAS = (64.0, 48.0)


def edge_case_design(rng, n_nodes=30, n_nets=25):
    """Random design with every case the kernels must handle: fixed macros,
    terminals, unplaced nodes, boxes partly or wholly off canvas, box edges
    exactly on bin boundaries (for 8-wide bins), 0- and 1-pin nets and a net
    that lists one node twice."""
    W, H = CANVAS
    nodes = []
    for i in range(n_nodes):
        u = rng.random()
        if u < 0.15:
            nodes.append(Node(i, f"m{i}", float(rng.uniform(6, 20)),
                              float(rng.uniform(6, 20)), KIND_MACRO, bool(rng.random() < 0.5)))
        elif u < 0.25:
            nodes.append(Node(i, f"t{i}", 1.0, 1.0, KIND_TERMINAL, False))
        else:
            nodes.append(Node(i, f"c{i}", float(rng.uniform(0.5, 9)),
                              float(rng.uniform(0.5, 9)), KIND_STD, True))
    # Two nodes whose edges sit exactly on multiples of 8, two off canvas.
    nodes[0] = Node(0, "on_grid_a", 16.0, 8.0, KIND_MACRO, True)
    nodes[1] = Node(1, "on_grid_b", 8.0, 24.0, KIND_STD, True)
    nodes[2] = Node(2, "off_a", 7.0, 5.0, KIND_STD, True)
    nodes[3] = Node(3, "off_b", 4.0, 4.0, KIND_MACRO, False)

    pl = Placement.empty(n_nodes)
    for node in nodes:
        pl.positions[node.id] = (rng.uniform(0, W), rng.uniform(0, H))
        pl.placed[node.id] = True
    pl.positions[0] = (24.0, 36.0)  # box [16, 32] x [32, 40]
    pl.positions[1] = (8.0, 12.0)  # box [4, 12] x [0, 24]
    pl.positions[2] = (-2.0, H + 1.5)  # partly off the lower-left/top
    pl.positions[3] = (W + 30.0, -30.0)  # wholly off canvas

    nets = []
    for i in range(n_nets):
        members = rng.choice(n_nodes, size=int(rng.integers(2, 7)), replace=False)
        pins = tuple(Pin(int(m), float(rng.uniform(-0.2, 0.2)),
                         float(rng.uniform(-0.2, 0.2))) for m in members)
        nets.append(Net(len(nets), f"net{i}", pins, float(rng.uniform(0.5, 2.0))))
    nets.insert(3, Net(3, "empty", (), 1.0))
    nets.insert(7, Net(7, "single", (Pin(5, 0.1, -0.1),), 1.5))
    nets.insert(9, Net(9, "twice", (Pin(6), Pin(8, 0.3, 0.0), Pin(6, -0.2, 0.1)), 0.7))
    nets = [Net(k, net.name, net.pins, net.weight) for k, net in enumerate(nets)]
    return Netlist(nodes, nets, W, H, target_density=0.8), pl


def random_cluster_placement(rng, n_nodes=80, n_nets=60, k=30):
    """A clustered `edge_case_design` with its clusters placed at random,
    partly off canvas, and some fixed charge under them."""
    nl, pl = edge_case_design(rng, n_nodes=n_nodes, n_nets=n_nets)
    clustered = cluster_std_cells(nl, k=k)
    pnet = clustered.placement_netlist
    ppl = base_placement(clustered, pl)
    movable = movable_cluster_mask(clustered)
    ppl.positions[movable] = rng.uniform(-5.0, 70.0, size=(movable.sum(), 2))
    ppl.placed[movable] = True
    fixed = np.flatnonzero(pnet.node_arrays.charge & ppl.placed & ~movable)
    assert len(fixed)
    return clustered, ppl, movable


GRIDS = [(6, 8), (5, 7), (1, 1), (16, 16)]  # (6, 8) has 8x8 bins


class TestRasterizer:
    @pytest.mark.parametrize("rows,cols", GRIDS)
    def test_axis_overlap_bit_equal(self, rng, rows, cols):
        """Each row holds the loop's overlap floats on the cells the loop
        covers and 0 elsewhere, for every node's box: edges on bin
        boundaries, boxes partly and wholly off the grid."""
        cell_w, cell_h = CANVAS[0] / cols, CANVAS[1] / rows
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            x0, x1, y0, y1 = node_boxes(nl, pl, np.arange(nl.num_nodes))
            for lo, hi, cell, count in ((x0, x1, cell_w, cols), (y0, y1, cell_h, rows)):
                w = axis_overlap(lo, hi, cell, count)
                assert w.shape == (nl.num_nodes, count)
                for i in range(nl.num_nodes):
                    first, ref = _axis_overlap(lo[i], hi[i], cell, count)
                    expected = np.zeros(count)
                    expected[first:first + len(ref)] = ref
                    np.testing.assert_array_equal(w[i], expected)

    @pytest.mark.parametrize("count", [1, 5, 8, 16])
    def test_axis_overlap_both_axes_bit_equal(self, rng, count):
        """Both axes in one pass give each axis's own matrix, contiguous and
        float for float, and a non-finite edge on either axis raises."""
        cells = np.array([CANVAS[0] / count, CANVAS[1] / count])
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            x0, x1, y0, y1 = node_boxes(nl, pl, np.arange(nl.num_nodes))
            lo, hi = np.stack([x0, y0], axis=1), np.stack([x1, y1], axis=1)
            both = axis_overlap(lo.T, hi.T, cells, count)
            assert both.shape == (2, nl.num_nodes, count)
            for axis in (0, 1):
                assert both[axis].flags.c_contiguous
                np.testing.assert_array_equal(
                    both[axis], axis_overlap(lo[:, axis], hi[:, axis], cells[axis], count))
        for axis in (0, 1):
            for corners in (lo, hi):
                saved = corners[3, axis]
                corners[3, axis] = np.inf
                with pytest.raises(ValueError, match="box edges must be finite"):
                    axis_overlap(lo.T, hi.T, cells, count)
                corners[3, axis] = saved

    @pytest.mark.parametrize("rows,cols", GRIDS)
    def test_rasterize_area_bit_equal(self, rng, rows, cols):
        """Named for its former bit-equality: the product sums each bin in
        BLAS order, so the map matches the loop to rounding."""
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            pl.placed[[4, 9]] = False
            cell_w, cell_h = CANVAS[0] / cols, CANVAS[1] / rows
            assert_close_to_scale(
                rasterize_area(nl, pl, rows, cols, cell_w, cell_h),
                rasterize_area_loop(nl, pl, rows, cols, cell_w, cell_h))

    @pytest.mark.parametrize("rows,cols", GRIDS)
    def test_congestion_map_bit_equal(self, rng, rows, cols):
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            grid = Grid.empty(rows, cols, *CANVAS)
            cmap = congestion_map(nl, pl, grid)
            ref_h, ref_v = congestion_map_loop(nl, pl, grid)
            assert_close_to_scale(cmap.demand_h, ref_h)
            assert_close_to_scale(cmap.demand_v, ref_v)

    def test_density_charge_bit_equal(self, rng):
        for bins in (4, 8, 32):
            nl, pl = edge_case_design(rng)
            pl.placed[9] = False
            everything = np.ones(nl.num_nodes, dtype=bool)
            grid = density_grid(nl, pl, everything, bins)
            field = solve_density_field(pl.positions[grid.ids], grid)
            area = rasterize_area_loop(nl, pl, bins, bins, field.bin_w, field.bin_h)
            assert_close_to_scale(field.rho,
                                  area * (field.norm_scale / (field.bin_w * field.bin_h)))

    def test_density_charge_fixed_raster_bit_equal(self, rng):
        """A cluster placement's grid rasterizes the macros once and adds
        the clusters onto that raster per solve: the field and its gradient
        equal the one-pass field's (nothing fixed) to rounding."""
        for bins in (4, 4, 8, 8, 32, 32):
            clustered, ppl, movable = random_cluster_placement(rng)
            pnet = clustered.placement_netlist
            grid = density_grid(pnet, ppl, movable, bins)
            seeded = solve_density_field(ppl.positions[grid.ids], grid)
            np.testing.assert_array_equal(grid.ids, np.flatnonzero(movable))
            everything = np.ones(pnet.num_nodes, dtype=bool)
            one_pass_grid = density_grid(pnet, ppl, everything, bins)
            one_pass = solve_density_field(ppl.positions[one_pass_grid.ids], one_pass_grid)
            assert_close_to_scale(seeded.rho, one_pass.rho)
            assert_close_to_scale(seeded.psi, one_pass.psi)
            area = rasterize_area_loop(pnet, ppl, bins, bins, seeded.bin_w, seeded.bin_h)
            assert_close_to_scale(seeded.rho,
                                  area * (seeded.norm_scale / (seeded.bin_w * seeded.bin_h)))
            grad = density_energy_and_grad(seeded)
            ref = density_energy_and_grad(one_pass)
            assert grad.shape == (movable.sum(), 2)
            assert_close_to_scale(grad, ref[np.isin(one_pass_grid.ids, grid.ids)])

    @pytest.mark.parametrize("bins", [4, 8, 32, 64])
    def test_density_gradient_bit_equal(self, rng, bins):
        """The gradient, gathered at each box edge's cell, equals the one
        through dense edge-slope matrices bit for bit: with box edges on
        bin boundaries and boxes partly or wholly off the grid among them,
        on grids with everything movable and with only the clusters
        movable."""
        bin_w, bin_h = CANVAS[0] / bins, CANVAS[1] / bins
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            pl.placed[9] = False
            # The 8 x 24 node with its lower edges on interior boundaries
            # of both axes, and its upper edges on boundaries too.
            inner = pl.copy()
            inner.positions[1] = (3 * bin_w + 4.0, 2 * bin_h + 12.0)
            clustered, ppl, movable = random_cluster_placement(rng)
            everything = np.ones(nl.num_nodes, dtype=bool)
            for netlist, placement, moving in (
                    (nl, pl, everything), (nl, inner, everything),
                    (clustered.placement_netlist, ppl, movable)):
                grid = density_grid(netlist, placement, moving, bins)
                field = solve_density_field(placement.positions[grid.ids], grid)
                grad = density_energy_and_grad(field)
                assert grad.shape == (len(grid.ids), 2)
                np.testing.assert_array_equal(grad, density_grad_dense_slopes(field))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_box_edges_raise(self, rng, bad):
        nl, pl = edge_case_design(rng)
        movable = nl.node_arrays.movable
        grid = density_grid(nl, pl, movable, 8)
        node = next(p.node for net in nl.nets for p in net.pins
                    if movable[p.node] and nl.node_arrays.charge[p.node])
        pl.positions[node, 0] = bad
        with pytest.raises(ValueError, match="box edges must be finite"):
            rasterize_area(nl, pl, 6, 8, 8.0, 8.0)
        with pytest.raises(ValueError, match="box edges must be finite"):
            congestion_map(nl, pl, Grid.empty(6, 8, *CANVAS))
        with pytest.raises(ValueError, match="box edges must be finite"):
            solve_density_field(pl.positions[grid.ids], grid)

    def test_congestion_unplaced_names_net_and_node(self, rng):
        nl, pl = edge_case_design(rng)
        pl.placed[8] = False  # a pin of net "twice", among others
        first = next(net for net in nl.nets if any(p.node == 8 for p in net.pins))
        message = f"net '{first.name}' references unplaced node '{nl.nodes[8].name}'"
        with pytest.raises(EvaluationError, match=re.escape(message)):
            congestion_map(nl, pl, Grid.empty(4, 4, *CANVAS))

    def test_no_nets_no_nodes(self):
        nl = Netlist([], [], *CANVAS)
        pl = Placement.empty(0)
        grid = Grid.empty(3, 4, *CANVAS)
        cmap = congestion_map(nl, pl, grid)
        assert cmap.demand_h.dtype == np.float64
        np.testing.assert_array_equal(cmap.demand_h, np.zeros((3, 4)))
        area = rasterize_area(nl, pl, 3, 4, 16.0, 16.0)
        assert area.dtype == np.float64 and not area.any()
        assert hpwl(nl, pl) == 0.0
        grad = smooth_wl_and_grad(nl, pl.positions, 1.0)
        assert grad.dtype == np.float64 and grad.shape == (0, 2)


class TestNetKernel:
    def test_hpwl_bit_equal(self, rng):
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            assert hpwl(nl, pl) == hpwl_bruteforce(nl, pl)

    def test_smooth_wl_matches_loop(self, rng):
        for _ in range(5):
            nl, pl = edge_case_design(rng)
            for gamma in (0.05, 1.0, 40.0):
                _, ref_grad = smooth_wl_loop(nl, pl, gamma)
                assert_close_to_scale(smooth_wl_and_grad(nl, pl.positions, gamma), ref_grad)

    def test_one_pin_nets_contribute_nothing(self):
        nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
                 Node(1, "b", 1.0, 1.0, KIND_STD, True)]
        pl = Placement.empty(2)
        pl.positions[:] = [(3.0, 4.0), (10.0, 1.0)]
        pl.placed[:] = True
        pair = Net(0, "pair", (Pin(0), Pin(1)), 1.0)
        lone = Net(1, "lone", (Pin(1, 0.3, 0.2),), 2.0)
        bare = Netlist(nodes, [pair], 20.0, 20.0)
        extra = Netlist(nodes, [pair, lone, Net(2, "none", (), 1.0)], 20.0, 20.0)
        assert hpwl(extra, pl) == hpwl(bare, pl)
        np.testing.assert_array_equal(smooth_wl_and_grad(extra, pl.positions, 0.7),
                                      smooth_wl_and_grad(bare, pl.positions, 0.7))


class TestCliqueGraph:
    """`Netlist.clique_graph` and `node_degrees` against the dict loops."""

    @staticmethod
    def check(netlist):
        num_nodes, *ref = clique_graph_loop(netlist)
        graph = netlist.clique_graph
        assert graph.num_nodes == num_nodes
        for got, want in zip(graph[1:], ref):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(netlist.node_degrees, node_degrees_loop(netlist))

    def test_random_designs_bit_equal(self, rng):
        for _ in range(5):
            for nl, _ in (random_design(rng, n_nodes=40, n_nets=60), edge_case_design(rng)):
                self.check(nl)
                for k in (3, 12):
                    self.check(cluster_std_cells(nl, k=k).placement_netlist)

    @pytest.mark.parametrize("spec", [SyntheticSpec(8, 500, 600, seed=1),
                                      SyntheticSpec(16, 2000, 2500, seed=1),
                                      SyntheticSpec(32, 8000, 10000, seed=1)],
                             ids=["S", "M", "L"])
    def test_benchmark_designs_bit_equal(self, spec):
        nl = generate_synthetic(spec).netlist
        self.check(nl)
        k = default_cluster_count(spec.macro_count)
        self.check(cluster_std_cells(nl, k=k).placement_netlist)

    def test_node_listed_twice_and_short_nets(self):
        nodes = [Node(i, f"c{i}", 1.0, 1.0, KIND_STD, True) for i in range(4)]
        nets = [Net(0, "twice", (Pin(0), Pin(1), Pin(0)), 1.0),
                Net(1, "single", (Pin(2),), 1.0),
                Net(2, "self", (Pin(3), Pin(3)), 2.0),
                Net(3, "empty", (), 1.0)]
        nl = Netlist(nodes, nets, 10.0, 10.0)
        graph = nl.clique_graph
        # Both pin pairs of c0 and c1 count, 1/2 each; c3 with itself adds nothing.
        assert (graph.edges_i.tolist(), graph.edges_j.tolist(),
                graph.weights.tolist()) == ([0], [1], [1.0])
        assert nl.node_degrees.tolist() == [1, 1, 1, 1]
        self.check(nl)

    def test_no_nets(self):
        nodes = [Node(0, "c0", 1.0, 1.0, KIND_STD, True)]
        self.check(Netlist(nodes, [], 10.0, 10.0))
        self.check(Netlist(nodes, [Net(0, "empty", (), 1.0)], 10.0, 10.0))


class TestDensityGradient:
    @pytest.mark.parametrize("movable_only", [True, False])
    def test_matches_loop(self, rng, movable_only):
        for bins in (4, 8, 32):
            nl, pl = edge_case_design(rng)
            pl.placed[9] = False
            movable = nl.node_arrays.movable if movable_only else np.ones(nl.num_nodes, bool)
            grid = density_grid(nl, pl, movable, bins)
            field = solve_density_field(pl.positions[grid.ids], grid)
            grad = density_energy_and_grad(field)
            _, ref_grad = density_energy_and_grad_loop(field, nl, pl, movable_only)
            assert grad.shape == (len(grid.ids), 2)
            assert_close_to_scale(grad, ref_grad[grid.ids])
            # The loop gives no node outside grid.ids a gradient either.
            outside = np.ones(nl.num_nodes, dtype=bool)
            outside[grid.ids] = False
            assert not ref_grad[outside].any()


def fd_design():
    """Two macros, a terminal and six std cells, the last on no net: with
    one cluster per cell its graph has macro-macro, macro-terminal,
    cluster-macro, cluster-terminal and cluster-cluster edges and one
    isolated cluster."""
    nodes = [Node(0, "m0", 8.0, 8.0, KIND_MACRO, True),
             Node(1, "m1", 6.0, 6.0, KIND_MACRO, True),
             Node(2, "p0", 1.0, 1.0, KIND_TERMINAL, False)]
    nodes += [Node(3 + i, f"c{i}", 1.0, 1.0, KIND_STD, True) for i in range(6)]
    members = [(0, 1), (0, 2), (3, 4, 0), (4, 5), (5, 6, 2), (6, 7), (3, 7, 1, 2), (4, 5)]
    nets = [Net(k, f"n{k}", tuple(Pin(i) for i in ids), 1.0 + 0.25 * k)
            for k, ids in enumerate(members)]
    return Netlist(nodes, nets, *CANVAS)


class TestForceDirectedSystem:
    def check_against_loop(self, clustered, rng):
        """The dense matrix and right-hand side equal the per-edge dict
        assembly with no anchor weights."""
        graph = clustered.placement_netlist.clique_graph
        movable_ids = np.flatnonzero(movable_cluster_mask(clustered))
        positions = rng.uniform(0.0, 50.0, size=(graph.num_nodes, 2))
        A, diag, pull, _ = _fd_system(graph, movable_ids)
        fixed_rhs = pull.rhs(positions)
        ref, ref_rhs = fd_system_loop(graph, movable_ids, positions,
                                      np.zeros(len(movable_ids)))
        np.testing.assert_array_equal(A, ref.toarray())
        np.testing.assert_array_equal(fixed_rhs, ref_rhs)
        return diag

    def test_hand_design_bit_equal(self, rng):
        clustered = cluster_std_cells(fd_design(), k=6)
        movable = movable_cluster_mask(clustered)
        graph = clustered.placement_netlist.clique_graph
        ends = set(zip(movable[graph.edges_i], movable[graph.edges_j]))
        assert ends == {(False, False), (False, True), (True, True)}
        diag = self.check_against_loop(clustered, rng)
        assert (diag == 0.0).sum() == 1  # the isolated cluster

    @pytest.mark.parametrize("k", [3, 8, 40])
    def test_random_designs_bit_equal(self, rng, k):
        for _ in range(5):
            nl, _ = edge_case_design(rng)
            self.check_against_loop(cluster_std_cells(nl, k=k), rng)


class TestForceDirectedSolve:
    T = 30

    def check_against_superlu(self, clustered, rng):
        """At every iteration's t, the spectral solve equals SuperLU on the
        per-edge assembly with the reference anchor weights on its
        diagonal; returns the clusters with no path to a fixed node."""
        graph = clustered.placement_netlist.clique_graph
        movable_ids = np.flatnonzero(movable_cluster_mask(clustered))
        positions = rng.uniform(0.0, 50.0, size=(graph.num_nodes, 2))
        A, diag, _, pinned = _fd_system(graph, movable_ids)
        spectrum = _spectrum(A, diag, pinned)
        anchors = rng.uniform(0.0, 50.0, size=(len(movable_ids), 2))
        for it in range(self.T):
            t = it / self.T
            anchor_w = fd_anchor_weights_loop(graph, movable_ids, t)
            np.testing.assert_array_equal(spectrum.anchor_weights(t), anchor_w)
            ref, ref_rhs = fd_system_loop(graph, movable_ids, positions, anchor_w)
            rhs = ref_rhs + anchor_w[:, None] * anchors
            expected = superlu_solve(ref.tocsc(), rhs).reshape(rhs.shape)
            x = spsolve(spectrum, rhs, t)
            assert np.isfinite(x).all()
            assert_close_to_scale(x, expected)
        return np.flatnonzero(fd_anchor_weights_loop(graph, movable_ids, 0.0) > 0)

    def test_hand_design_matches_superlu(self, rng):
        clustered = cluster_std_cells(fd_design(), k=6)
        assert len(self.check_against_superlu(clustered, rng)) == 1  # the isolated cluster

    def test_floating_group_matches_superlu(self, rng):
        """The group's system is singular at t = 0 without its own anchor."""
        clustered = cluster_std_cells(floating_netlist(), k=3)
        floating = self.check_against_superlu(clustered, rng)
        names = [clustered.clusters[k].members for k in floating]
        assert sorted(names) == [(2,), (3,)]

    @pytest.mark.parametrize("k", [3, 8, 40])
    def test_random_designs_match_superlu(self, rng, k):
        for _ in range(5):
            nl, _ = edge_case_design(rng)
            self.check_against_superlu(cluster_std_cells(nl, k=k), rng)


class TestSpreading:
    @pytest.mark.parametrize("bins", [4, 8, 32, 64])
    def test_spread_once_bit_equal(self, rng, monkeypatch, bins):
        """Every outer iteration's spreading pass, one field move, moves
        each cluster from its clamped solve by `field_move_loop`'s
        displacement, clamped, to the rounding of the raster's matrix
        product and the gradient's sums."""
        for _ in range(3):
            clustered, ppl, movable = random_cluster_placement(rng)
            pnet = clustered.placement_netlist
            solved = []

            def recorded(centres, grid):
                solved.append((centres.copy(), grid))
                return solve_density_field(centres, grid)

            monkeypatch.setattr(force_directed, "solve_density_field", recorded)
            _, trace = run_force_directed(clustered, ppl, movable,
                                          PlacerConfig(engine="fd", bins=bins))
            assert len(solved) == len(trace) == force_directed.FIELD_ITERS
            for (centres, grid), row in zip(solved, trace):
                at = row.placement.copy()
                at.positions[grid.ids] = centres
                field = solve_density_field(centres, grid)
                move = field_move_loop(field, pnet, at)[grid.ids]
                assert np.abs(move).max() > 0
                assert_close_to_scale(row.placement.positions[grid.ids],
                                      grid.clamp(centres + move))
