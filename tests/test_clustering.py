import hashlib

import numpy as np
import pytest

from macroplace.clustering import (
    base_placement,
    cluster_std_cells,
    default_cluster_count,
)
from macroplace.design import SyntheticSpec, generate_synthetic
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

from conftest import random_design
from oracles import greedy_merge_bruteforce


def chain_netlist(n_cells, canvas=100.0):
    """n std cells in a path: c0-c1, c1-c2, ..."""
    nodes = [Node(i, f"c{i}", 2.0, 2.0, KIND_STD, True) for i in range(n_cells)]
    nets = [
        Net(i, f"n{i}", (Pin(i), Pin(i + 1)), 1.0) for i in range(n_cells - 1)
    ]
    return Netlist(nodes, nets, canvas, canvas, target_density=0.5)


def unit_grid_netlist(rows, cols):
    """rows x cols unit-area std cells, each joined to its right and lower
    neighbour by a unit-weight two-pin net: every score ties."""
    n = rows * cols
    nodes = [Node(i, f"c{i}", 1.0, 1.0, KIND_STD, True) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n) if (i + 1) % cols]
    pairs += [(i, i + cols) for i in range(n - cols)]
    nets = [Net(j, f"n{j}", (Pin(a), Pin(b)), 1.0) for j, (a, b) in enumerate(pairs)]
    return Netlist(nodes, nets, 50.0, 50.0)


def with_net_weights(netlist, weights):
    nets = [Net(n.id, n.name, n.pins, w) for n, w in zip(netlist.nets, weights)]
    return Netlist(netlist.nodes, nets, netlist.canvas_width, netlist.canvas_height)


def merge_order_digest(clustered):
    """SHA-256 over the clusters (members, area as a hex float), cluster_of
    and every rewired net's pins (node, offsets as hex floats)."""
    h = hashlib.sha256()
    for c in clustered.clusters:
        h.update(repr((c.members, c.area.hex())).encode())
    h.update(repr(clustered.cluster_of.tolist()).encode())
    for net in clustered.placement_netlist.nets:
        h.update(repr([(p.node, p.offset_x.hex(), p.offset_y.hex())
                       for p in net.pins]).encode())
    return h.hexdigest()


class TestClusterStdCells:
    def test_identity_clustering_preserves_hpwl(self, rng):
        nl, pl = random_design(rng, n_nodes=25, n_nets=18)
        clustered = cluster_std_cells(nl, k=nl.num_nodes)
        assert clustered.num_clusters == len([n for n in nl.nodes if n.kind == KIND_STD])
        # every cluster is a single cell
        assert all(len(c.members) == 1 for c in clustered.clusters)
        ppl = base_placement(clustered, pl)
        for ci, cl in enumerate(clustered.clusters):
            pid = clustered.cluster_to_placement[ci]
            ppl.positions[pid] = pl.positions[cl.members[0]]
            ppl.placed[pid] = True
        assert hpwl(clustered.placement_netlist, ppl) == pytest.approx(
            hpwl(nl, pl), rel=1e-12)

    def test_two_components_k2(self):
        # two disjoint chains of 6 and 4 cells
        nodes = [Node(i, f"c{i}", 2.0, 2.0, KIND_STD, True) for i in range(10)]
        nets = []
        for i in range(5):
            nets.append(Net(len(nets), f"a{i}", (Pin(i), Pin(i + 1)), 1.0))
        for i in range(6, 9):
            nets.append(Net(len(nets), f"b{i}", (Pin(i), Pin(i + 1)), 1.0))
        nl = Netlist(nodes, nets, 50.0, 50.0)
        clustered = cluster_std_cells(nl, k=2)
        groups = {tuple(sorted(c.members)) for c in clustered.clusters}
        assert groups == {tuple(range(6)), tuple(range(6, 10))}

    def test_area_conservation(self, rng):
        nl, _ = random_design(rng, n_nodes=100, n_nets=160, macro_prob=0.0)
        clustered = cluster_std_cells(nl, k=10)
        total_cells = sum(n.area for n in nl.nodes if n.kind == KIND_STD)
        total_clusters = sum(c.area for c in clustered.clusters)
        assert total_clusters == pytest.approx(total_cells, rel=1e-9)
        # every std cell in exactly one cluster
        counts = np.zeros(nl.num_nodes, dtype=int)
        for c in clustered.clusters:
            for m in c.members:
                counts[m] += 1
        for n in nl.nodes:
            assert counts[n.id] == (1 if n.kind == KIND_STD else 0)

    def test_macros_and_terminals_pass_through(self, rng):
        nl, _ = random_design(rng, n_nodes=40, macro_prob=0.3)
        clustered = cluster_std_cells(nl, k=5)
        pnet = clustered.placement_netlist
        passthrough = [n for n in pnet.nodes if n.kind != KIND_STD]
        originals = [n for n in nl.nodes if n.kind != KIND_STD]
        assert [(n.name, n.width, n.height, n.kind) for n in passthrough] == [
            (n.name, n.width, n.height, n.kind) for n in originals
        ]

    def test_internal_nets_dropped(self):
        nl = chain_netlist(6)
        clustered = cluster_std_cells(nl, k=1)
        assert clustered.placement_netlist.nets == []

    def test_deterministic(self, rng):
        nl, _ = random_design(rng, n_nodes=80, n_nets=120, macro_prob=0.1)
        a = cluster_std_cells(nl, k=8)
        b = cluster_std_cells(nl, k=8)
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)

    def test_rewired_net_count_monotone_in_k(self, rng):
        for _ in range(5):
            nl, _ = random_design(rng, n_nodes=60, n_nets=90, macro_prob=0.1)
            counts = []
            for k in (40, 20, 10, 5, 2):
                clustered = cluster_std_cells(nl, k=k)
                counts.append(len(clustered.placement_netlist.nets))
            assert counts == sorted(counts, reverse=True)

    def test_k_nonpositive_rejected(self):
        nl = chain_netlist(4)
        with pytest.raises(ValueError):
            cluster_std_cells(nl, k=0)

    def test_default_cluster_count(self):
        assert default_cluster_count(1) == 16
        assert default_cluster_count(10) == 40
        assert default_cluster_count(200) == 512


class TestExpandToGraph:
    """The clique expansion of a placement netlist (`Netlist.clique_graph`)."""

    def test_two_pin_clique(self):
        nl = chain_netlist(2)
        clustered = cluster_std_cells(nl, k=2)
        g = clustered.placement_netlist.clique_graph
        assert len(g.weights) == 1
        assert g.weights[0] == pytest.approx(1.0)

    def test_three_pin_triangle(self):
        nodes = [Node(i, f"c{i}", 2.0, 2.0, KIND_STD, True) for i in range(3)]
        nets = [Net(0, "n", (Pin(0), Pin(1), Pin(2)), 1.0)]
        nl = Netlist(nodes, nets, 50.0, 50.0)
        clustered = cluster_std_cells(nl, k=3)
        g = clustered.placement_netlist.clique_graph
        assert len(g.weights) == 3
        np.testing.assert_allclose(g.weights, 0.5)

    def test_clique_total_weight_closed_form(self, rng):
        nl, _ = random_design(rng, n_nodes=30, n_nets=40)
        clustered = cluster_std_cells(nl, k=nl.num_nodes)  # identity: keep all pins
        g = clustered.placement_netlist.clique_graph
        expected = sum(
            net.weight * len(net.pins) / 2
            for net in clustered.placement_netlist.nets
            if len(net.pins) >= 2
        )
        assert g.weights.sum() == pytest.approx(expected, rel=1e-12)

    def test_no_self_loops_positive_weights(self, rng):
        nl, _ = random_design(rng, n_nodes=50, n_nets=70)
        clustered = cluster_std_cells(nl, k=6)
        g = clustered.placement_netlist.clique_graph
        assert (g.edges_i != g.edges_j).all()
        assert (g.weights > 0).all()
        assert (g.edges_i < g.edges_j).all()


class TestGreedyMergeOrder:
    """cluster_std_cells against an exhaustive scan of every live pair: the
    same groups in the same merge order, so areas agree to the bit."""

    @staticmethod
    def check(netlist, ks):
        for k in ks:
            got = [(c.members, c.area.hex()) for c in cluster_std_cells(netlist, k).clusters]
            want = [(m, a.hex()) for m, a in greedy_merge_bruteforce(netlist, k)]
            assert got == want, f"k={k}"

    def test_random_designs(self, rng):
        for _ in range(6):
            n = int(rng.integers(20, 90))
            nl, _ = random_design(rng, n_nodes=n, n_nets=int(rng.integers(n // 2, 2 * n)),
                                  macro_prob=0.1)
            self.check(nl, (1, 3, n // 8, n // 3))

    @pytest.mark.parametrize("netlist", [chain_netlist(13), unit_grid_netlist(5, 6)],
                             ids=["chain", "grid"])
    def test_ties_everywhere(self, netlist):
        self.check(netlist, range(1, netlist.num_nodes + 1))

    def test_zero_weight_nets_stop_the_greedy_merges(self, rng):
        # Pairs 0-1, 2-3, 4-5 carry weight; 1-2 and 3-4 only zero-weight nets.
        chain = with_net_weights(chain_netlist(6), [1.0, 0.0, 1.0, 0.0, 1.0])
        self.check(chain, range(1, 7))
        for _ in range(4):
            nl, _ = random_design(rng, n_nodes=40, n_nets=50, macro_prob=0.1)
            weights = [n.weight if rng.random() < 0.5 else 0.0 for n in nl.nets]
            self.check(with_net_weights(nl, weights), (1, 4, 10, 20))

    def test_std_cell_listed_twice_on_a_net(self, rng):
        # Net a lists c0 twice: its pin pairs join c0 and c1 twice at 1/2,
        # more than c1-c2's 0.8, so c0 and c1 merge first.
        nodes = [Node(i, f"c{i}", 1.0, 1.0, KIND_STD, True) for i in range(3)]
        nets = [Net(0, "a", (Pin(0), Pin(1), Pin(0)), 1.0),
                Net(1, "b", (Pin(1), Pin(2)), 0.8)]
        netlist = Netlist(nodes, nets, 50.0, 50.0)
        self.check(netlist, (1, 2, 3))
        assert [c.members for c in cluster_std_cells(netlist, 2).clusters] == [(0, 1), (2,)]
        for _ in range(4):
            nl, _ = random_design(rng, n_nodes=40, n_nets=50, macro_prob=0.1)
            nets = [Net(n.id, n.name, n.pins + n.pins[:1], n.weight)
                    if rng.random() < 0.3 else n for n in nl.nets]
            self.check(Netlist(nl.nodes, nets, nl.canvas_width, nl.canvas_height),
                       (1, 4, 10, 20))

    def test_disconnected_components_below_component_count(self):
        # Chains of 4, 3 and 5 cells plus two isolated cells: five components.
        nodes = [Node(i, f"c{i}", 1.0 + i % 3, 1.0, KIND_STD, True) for i in range(14)]
        nets = [Net(j, f"n{j}", (Pin(a), Pin(a + 1)), 1.0)
                for j, a in enumerate([0, 1, 2, 4, 5, 7, 8, 9, 10])]
        self.check(Netlist(nodes, nets, 50.0, 50.0), range(1, 6))

    @pytest.mark.parametrize("spec,digest", [
        (SyntheticSpec(8, 500, 600, seed=1),
         "e8c0b676fb60d5deab5751c7096d6cad8b218cdd4bc1cf96101eeddf2157749a"),
        (SyntheticSpec(16, 2000, 2500, seed=1),
         "28737b784db10dd73b10404af089cde6b5d8e9e63a922a80fa14079afecea227"),
        (SyntheticSpec(32, 8000, 10000, seed=1),
         "744eef37a51bf1b6b129bf486119745b81f77dbd7c97737239f2d2af88a99b9a"),
    ], ids=["S", "M", "L"])
    def test_benchmark_design_merge_order_is_pinned(self, spec, digest):
        # The rollout-nesterov-S, rollout-fd-M and sa-fd-L benchmark designs
        # at their default k (4 x macros). M's digest was recorded with
        # merge_order_digest at commit 94f9981, whose cluster_std_cells kept
        # one lazy heap entry per group pair; S's at commit 9b3c7ae, before a
        # merge revisited only the groups it changed; L's at commit a9edd16,
        # whose merges rescanned every group paired with the merged two.
        # On L one cluster ends with 7,859 of the 8,000 cells.
        bundle = generate_synthetic(spec)
        k = default_cluster_count(spec.macro_count)
        clustered = cluster_std_cells(bundle.netlist, k=k)
        assert clustered.num_clusters == k
        assert merge_order_digest(clustered) == digest
