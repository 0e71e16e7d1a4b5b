"""Desk-scale macro placement with a masked RL loop and swappable
standard-cell cluster placers."""

from .design import DesignBundle, SyntheticSpec, edit_for_movable_macros, generate_synthetic
from .netlist import (
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

__all__ = [
    "DesignBundle",
    "KIND_MACRO",
    "KIND_STD",
    "KIND_TERMINAL",
    "Net",
    "Netlist",
    "Node",
    "Pin",
    "Placement",
    "SyntheticSpec",
    "edit_for_movable_macros",
    "generate_synthetic",
    "hpwl",
]

__version__ = "0.1.0"
