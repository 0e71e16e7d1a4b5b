import numpy as np
import pytest

from macroplace.errors import EvaluationError
from macroplace.grid import Grid
from macroplace.metrics import congestion_map
from macroplace.netlist import (
    KIND_STD,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
    hpwl,
)

from conftest import random_design, tiny_netlist
from oracles import hpwl_bruteforce


def _place_all(netlist, coords):
    placement = Placement.empty(netlist.num_nodes)
    for i, (x, y) in enumerate(coords):
        placement.positions[i] = (x, y)
        placement.placed[i] = True
    return placement


class TestHpwl:
    def test_coincident_pins_zero(self):
        nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
                 Node(1, "b", 1.0, 1.0, KIND_STD, True)]
        nets = [Net(0, "n", (Pin(0), Pin(1)))]
        nl = Netlist(nodes, nets, 10.0, 10.0)
        pl = _place_all(nl, [(5.0, 5.0), (5.0, 5.0)])
        assert hpwl(nl, pl) == 0.0

    def test_single_bbox(self):
        nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True),
                 Node(1, "b", 1.0, 1.0, KIND_STD, True)]
        nets = [Net(0, "n", (Pin(0), Pin(1)))]
        nl = Netlist(nodes, nets, 10.0, 10.0)
        pl = _place_all(nl, [(0.5, 0.5), (3.5, 4.5)])
        assert hpwl(nl, pl) == pytest.approx(7.0)

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            nl, pl = random_design(rng, n_nodes=20, n_nets=15, with_offsets=True)
            assert hpwl(nl, pl) == pytest.approx(hpwl_bruteforce(nl, pl), rel=1e-12)

    def test_unplaced_node_named_in_error(self):
        nl = tiny_netlist()
        pl = Placement.empty(nl.num_nodes)
        pl.positions[0] = (5.0, 5.0)
        pl.placed[0] = True
        with pytest.raises(EvaluationError, match="b|p"):
            hpwl(nl, pl)

    def test_unplaced_error_is_the_congestion_map_error(self):
        nl = tiny_netlist()
        pl = Placement.empty(nl.num_nodes)
        pl.positions[0] = (5.0, 5.0)
        pl.placed[0] = True
        with pytest.raises(EvaluationError) as from_hpwl:
            hpwl(nl, pl)
        grid = Grid.empty(4, 4, nl.canvas_width, nl.canvas_height)
        with pytest.raises(EvaluationError) as from_rudy:
            congestion_map(nl, pl, grid)
        assert str(from_hpwl.value) == str(from_rudy.value)
        assert str(from_hpwl.value).startswith(f"net '{nl.nets[0].name}' references")

    def test_single_pin_net_contributes_zero(self):
        nodes = [Node(0, "a", 1.0, 1.0, KIND_STD, True)]
        nets = [Net(0, "n", (Pin(0),))]
        nl = Netlist(nodes, nets, 10.0, 10.0)
        pl = _place_all(nl, [(4.0, 4.0)])
        assert hpwl(nl, pl) == 0.0

    def test_offsets_off_equals_zeroed_offsets(self, rng):
        nl, pl = random_design(rng, with_offsets=True)
        zeroed_nets = [
            Net(n.id, n.name, tuple(Pin(p.node) for p in n.pins), n.weight)
            for n in nl.nets
        ]
        nl_zero = Netlist(nl.nodes, zeroed_nets, nl.canvas_width, nl.canvas_height,
                          nl.target_density)
        assert hpwl(nl, pl) == hpwl(nl_zero, pl)

    def test_translation_invariance(self, rng):
        nl, pl = random_design(rng, canvas=(1000.0, 1000.0))
        base = hpwl(nl, pl)
        shifted = pl.copy()
        shifted.positions += np.array([13.25, -7.5])
        assert hpwl(nl, shifted) == pytest.approx(base, abs=1e-9 * max(base, 1.0))

    def test_weight_scaling(self, rng):
        nl, pl = random_design(rng)
        doubled = Netlist(
            nl.nodes,
            [Net(n.id, n.name, n.pins, 2 * n.weight) for n in nl.nets],
            nl.canvas_width,
            nl.canvas_height,
            nl.target_density,
        )
        assert hpwl(doubled, pl) == pytest.approx(2 * hpwl(nl, pl), rel=1e-12)
