"""JSON design interchange.

The schema mirrors Netlist/Placement one-to-one; `bundle_to_dict` is its
reference. Node ids are implicit list positions.
"""

from __future__ import annotations

import json

from .design import DesignBundle
from .errors import ParseError
from .netlist import NODE_KINDS, Net, Netlist, Node, Pin, Placement

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "canvas", "target_density", "nodes", "nets",
             "positions", "provenance", "meta"}


def bundle_to_dict(bundle: DesignBundle) -> dict:
    netlist, placement = bundle.netlist, bundle.placement
    return {
        "format_version": FORMAT_VERSION,
        "canvas": {"width": netlist.canvas_width, "height": netlist.canvas_height},
        "target_density": netlist.target_density,
        "nodes": [
            {
                "name": n.name,
                "width": n.width,
                "height": n.height,
                "kind": n.kind,
                "movable": n.movable,
            }
            for n in netlist.nodes
        ],
        "nets": [
            {
                "name": net.name,
                "weight": net.weight,
                "pins": [
                    {"node": p.node, "offset_x": p.offset_x, "offset_y": p.offset_y}
                    for p in net.pins
                ],
            }
            for net in netlist.nets
        ],
        "positions": [
            {
                "node": i,
                "x": float(placement.positions[i, 0]),
                "y": float(placement.positions[i, 1]),
                "placed": bool(placement.placed[i]),
            }
            for i in range(netlist.num_nodes)
        ],
        "provenance": bundle.provenance,
        "meta": {"row_height": bundle.meta.get("row_height")},
    }


def bundle_from_dict(data: dict, source: str = "<dict>") -> DesignBundle:
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}", path=source)
    for key in ("canvas", "nodes", "nets", "positions"):
        if key not in data:
            raise ParseError(f"missing required key '{key}'", path=source)

    nodes = []
    for i, nd in enumerate(data["nodes"]):
        kind = nd["kind"]
        if kind not in NODE_KINDS:
            raise ParseError(f"node {i}: unknown kind '{kind}'", path=source)
        nodes.append(
            Node(
                id=i,
                name=nd["name"],
                width=float(nd["width"]),
                height=float(nd["height"]),
                kind=kind,
                movable=bool(nd["movable"]),
            )
        )
    nets = []
    for i, nt in enumerate(data["nets"]):
        pins = tuple(
            Pin(
                node=int(p["node"]),
                offset_x=float(p.get("offset_x", 0.0)),
                offset_y=float(p.get("offset_y", 0.0)),
            )
            for p in nt["pins"]
        )
        for p in pins:
            if p.node < 0 or p.node >= len(nodes):
                raise ParseError(f"net {i}: pin references node {p.node} out of range",
                                 path=source)
        nets.append(Net(id=i, name=nt["name"], pins=pins,
                        weight=float(nt.get("weight", 1.0))))

    netlist = Netlist(
        nodes=nodes,
        nets=nets,
        canvas_width=float(data["canvas"]["width"]),
        canvas_height=float(data["canvas"]["height"]),
        target_density=float(data.get("target_density", 1.0)),
    )
    placement = Placement.empty(len(nodes))
    for entry in data["positions"]:
        nid = int(entry["node"])
        placement.positions[nid] = (float(entry["x"]), float(entry["y"]))
        placement.placed[nid] = bool(entry.get("placed", True))

    meta = dict(data.get("meta") or {})
    return DesignBundle(
        netlist=netlist,
        placement=placement,
        provenance=data.get("provenance", source),
        meta=meta,
    )


def write_design_json(bundle: DesignBundle, path) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_dict(bundle), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_design_json(path) -> DesignBundle:
    with open(path, "r") as fh:
        data = json.load(fh)
    return bundle_from_dict(data, source=str(path))
