import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from macroplace.design import DesignBundle, SyntheticSpec, generate_synthetic
from macroplace.netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
)


REL = 1e-12  # tolerance of a kernel that reassociates its reference's float sums


def assert_close_to_scale(actual, expected, rel=REL):
    """|actual - expected| <= rel * max|expected|, elementwise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    assert np.abs(actual - expected).max(initial=0.0) <= rel * scale


def random_design(rng, n_nodes=20, n_nets=15, canvas=(100.0, 80.0), macro_prob=0.15,
                  with_offsets=False):
    """Random placed netlist for oracle comparisons."""
    W, H = canvas
    nodes = []
    for i in range(n_nodes):
        kind = KIND_MACRO if rng.random() < macro_prob else KIND_STD
        if kind == KIND_MACRO:
            w = rng.uniform(8.0, 25.0)
            h = rng.uniform(8.0, 25.0)
        else:
            w = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.5, 3.0)
        nodes.append(Node(i, f"n{i}", w, h, kind, movable=True))
    nets = []
    for i in range(n_nets):
        degree = int(rng.integers(2, 6))
        members = rng.choice(n_nodes, size=min(degree, n_nodes), replace=False)
        pins = []
        for m in members:
            node = nodes[int(m)]
            if with_offsets:
                ox = rng.uniform(-node.width / 2, node.width / 2)
                oy = rng.uniform(-node.height / 2, node.height / 2)
            else:
                ox = oy = 0.0
            pins.append(Pin(int(m), ox, oy))
        nets.append(Net(i, f"net{i}", tuple(pins), weight=float(rng.uniform(0.5, 2.0))))
    netlist = Netlist(nodes, nets, W, H, target_density=0.9)
    placement = Placement.empty(n_nodes)
    for node in nodes:
        x = rng.uniform(node.width / 2, W - node.width / 2)
        y = rng.uniform(node.height / 2, H - node.height / 2)
        placement.positions[node.id] = (x, y)
        placement.placed[node.id] = True
    return netlist, placement


def tiny_netlist():
    """3 nodes, 1 net: the smallest useful hand fixture."""
    nodes = [
        Node(0, "a", 4.0, 4.0, KIND_MACRO, True),
        Node(1, "b", 2.0, 2.0, KIND_STD, True),
        Node(2, "p", 1.0, 1.0, KIND_TERMINAL, False),
    ]
    nets = [Net(0, "n0", (Pin(0), Pin(1), Pin(2)), weight=1.0)]
    return Netlist(nodes, nets, 20.0, 20.0, target_density=0.5)


def floating_netlist():
    """A fixed macro on a net with c0, and c1 and c2 on a net of their own:
    with one cluster per cell, c1 and c2 form a group no fixed node
    reaches."""
    nodes = [Node(0, "m0", 1.0, 1.0, KIND_MACRO, False)]
    nodes += [Node(1 + i, f"c{i}", 1.0, 1.0, KIND_STD, True) for i in range(3)]
    nets = [Net(0, "n0", (Pin(0), Pin(1)), 1.0), Net(1, "n1", (Pin(2), Pin(3)), 1.0)]
    return Netlist(nodes, nets, 20.0, 20.0, target_density=1.0)


def run_in_fresh_interpreter(code):
    """Run `code` in a new Python process with this checkout's `src` first
    on its path; return its last line of standard output, read as JSON."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def count_calls(monkeypatch, fn):
    """Route every `macroplace` module binding of `fn` through a counter;
    returns the list that grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "macroplace" or name.startswith("macroplace."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def training_bundle() -> DesignBundle:
    """Small synthetic design used across env/agent tests."""
    return generate_synthetic(
        SyntheticSpec(macro_count=3, std_cell_count=120, net_count=150,
                      rent_like_fanout=3.0, seed=11, canvas_width=100.0,
                      canvas_height=100.0)
    )
