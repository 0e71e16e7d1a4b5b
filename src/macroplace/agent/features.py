"""Per-node feature vectors for the policy/value networks.

Layout (version 1), all entries in [-1, 1]:
  0-2  node kind one-hot (macro, std/cluster, terminal)
  3-5  width / canvas_w, height / canvas_h, area / canvas_area
  6    net degree / max degree
  7    placed flag
  8-9  x / canvas_w, y / canvas_h when placed, else 0
"""

from __future__ import annotations

import numpy as np

from ..netlist import KIND_MACRO, KIND_STD, KIND_TERMINAL, Netlist

FEATURE_VERSION = 1
NUM_FEATURES = 10

_KIND_SLOT = {KIND_MACRO: 0, KIND_STD: 1, KIND_TERMINAL: 2}


def static_features(pnet: Netlist) -> np.ndarray:
    """The 8 placement-independent columns (positions left zero)."""
    n = pnet.num_nodes
    arrays = pnet.node_arrays
    degrees = pnet.node_degrees
    out = np.zeros((n, NUM_FEATURES))
    out[np.arange(n), [_KIND_SLOT[node.kind] for node in pnet.nodes]] = 1.0
    out[:, 3] = arrays.width / pnet.canvas_width
    out[:, 4] = arrays.height / pnet.canvas_height
    out[:, 5] = arrays.width * arrays.height / pnet.canvas_area
    out[:, 6] = degrees / max(int(degrees.max(initial=0)), 1)
    return out


def fill_dynamic(features: np.ndarray, pnet: Netlist, positions: np.ndarray,
                 placed: np.ndarray) -> np.ndarray:
    """Copy static features and fill the placed flag and normalized position."""
    out = features.copy()
    out[:, 7] = placed.astype(np.float64)
    out[:, 8] = np.where(placed, positions[:, 0] / pnet.canvas_width, 0.0)
    out[:, 9] = np.where(placed, positions[:, 1] / pnet.canvas_height, 0.0)
    return out
