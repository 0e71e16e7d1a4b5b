"""Bookshelf subset reader/writer (.nodes/.nets/.pl, optional .scl).

The subset follows the academic convention: node sizes and a ``terminal``
tag in .nodes, net degrees with pin offsets measured from the node center
in .nets, lower-left node corners plus ``/FIXED`` flags in .pl, and core
rows in .scl. Coordinates are shifted on read so the canvas origin is
(0, 0); the shift is recorded in the bundle metadata and undone on write.

NumNodes, NumTerminals, NumNets, NumPins, NumRows and each NetDegree must
match the lines that follow. Every non-terminal node needs a finite,
positive width and height, and every terminal a finite, nonnegative one.
Every number read from the .pl (coordinates), the .nets (pin offsets) and
the .scl (the SCL_NUMERIC_FIELDS) must be finite, and no node may be placed
twice in the .pl. Every .scl CoreRow needs a Coordinate and an End, and the
canvas (the box around the rows and placed nodes) needs a positive width
and height. A malformed file raises ParseError with its path (and line,
where one line is at fault). Each file is read in one pass, and .nets pin
lines of the same text share one frozen Pin. The row height is
`infer_row_height` over the .scl row heights, or without rows over the
non-terminal node heights, as on write. The target density is
`round_up_density` of the movable area (1.0 if none).
"""

from __future__ import annotations

import math
import os
from collections import Counter

from .design import DesignBundle, round_up_density
from .errors import ParseError
from .netlist import (
    KIND_MACRO,
    KIND_STD,
    KIND_TERMINAL,
    Net,
    Netlist,
    Node,
    Pin,
    Placement,
)

DEFAULT_MACRO_THRESHOLD = 4.0  # macro iff min(w, h) >= threshold * row height
_SKIPPED_PREFIXES = ("#", "UCLA")  # starts of comment and header lines


def _content_lines(path):
    """Yield (line_number, stripped line) skipping blanks, comments, headers."""
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith(_SKIPPED_PREFIXES):
                yield lineno, line


def _count(text, what, path, lineno):
    """A nonnegative integer field, or ParseError naming `what`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(f"bad {what}: '{text.strip()}'", path=path, line=lineno)
    return value


def _check_declared(declared, parsed, path):
    """ParseError where a declared total (NumNodes, ...) differs from the parsed one."""
    for key, count in parsed.items():
        if declared.get(key, count) != count:
            raise ParseError(f"{key} {declared[key]} != {count} parsed", path=path)


def _resolve_paths(path):
    """Accept a directory, an .aux file, or any member file, as a str or
    os.PathLike; return the file map."""
    path = os.fspath(path)
    if os.path.isdir(path):
        nodes = [f for f in sorted(os.listdir(path)) if f.endswith(".nodes")]
        if len(nodes) != 1:
            raise ParseError(f"expected exactly one .nodes file, found {len(nodes)}", path=path)
        stem = os.path.join(path, nodes[0][: -len(".nodes")])
    elif path.endswith(".aux"):
        stem = path[: -len(".aux")]
        for _, line in _content_lines(path):
            if ":" in line:
                names = line.split(":", 1)[1].split()
                base = os.path.dirname(path)
                found = {os.path.splitext(n)[1]: os.path.join(base, n) for n in names}
                return {
                    "nodes": found.get(".nodes"),
                    "nets": found.get(".nets"),
                    "pl": found.get(".pl"),
                    "scl": found.get(".scl"),
                }
        raise ParseError("empty .aux file", path=path)
    else:
        stem = os.path.splitext(path)[0]
    files = {ext: stem + "." + ext for ext in ("nodes", "nets", "pl", "scl")}
    if not os.path.exists(files["scl"]):
        files["scl"] = None
    return files


def _parse_nodes(path):
    """Returns (names, sizes, terminal, name_to_id), the lists indexed by
    dense node id in file order."""
    declared = {}
    names, sizes, terminal = [], [], []
    name_to_id = {}
    for lineno, line in _content_lines(path):
        if line.startswith(("NumNodes", "NumTerminals")):
            key, _, val = line.partition(":")
            declared[key.strip()] = _count(val, key.strip(), path, lineno)
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"malformed node line: '{line}'", path=path, line=lineno)
        name = parts[0]
        if name in name_to_id:
            raise ParseError(f"duplicate node '{name}'", path=path, line=lineno)
        try:
            w, h = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad node dimensions: '{line}'",
                             path=path, line=lineno) from exc
        tag = len(parts) > 3 and parts[3].lower().startswith("terminal")
        if tag:
            if not (0.0 <= w < math.inf and 0.0 <= h < math.inf):
                raise ParseError(f"terminal '{name}' needs a finite, nonnegative width "
                                 f"and height: '{line}'", path=path, line=lineno)
        elif not (0.0 < w < math.inf and 0.0 < h < math.inf):
            raise ParseError(f"node '{name}' needs a finite, positive width and height: "
                             f"'{line}'", path=path, line=lineno)
        name_to_id[name] = len(names)
        names.append(name)
        sizes.append((w, h))
        terminal.append(tag)
    _check_declared(declared, {"NumNodes": len(names),
                               "NumTerminals": sum(terminal)}, path)
    return names, sizes, terminal, name_to_id


def _parse_nets(path, name_to_id):
    """Returns the Nets in file order. Pin lines of the same text share one
    (frozen) Pin, so a node's repeated pin is read and built once."""
    declared = {}
    nets = []  # (name, declared degree, NetDegree line, pins)
    shared = {}  # pin line -> its Pin; only lines read as pins enter
    pins = None  # the open net's pins
    for lineno, line in _content_lines(path):
        pin = shared.get(line)
        if pin is not None:
            pins.append(pin)
            continue
        if line.startswith(("NumNets", "NumPins")):
            key, _, val = line.partition(":")
            declared[key.strip()] = _count(val, key.strip(), path, lineno)
            continue
        if line.startswith("NetDegree"):
            parts = line.partition(":")[2].split()
            if not parts:
                raise ParseError("NetDegree without a degree", path=path, line=lineno)
            name = parts[1] if len(parts) > 1 else f"net{len(nets)}"
            pins = []
            nets.append((name, _count(parts[0], "net degree", path, lineno), lineno, pins))
            continue
        if pins is None:
            raise ParseError(f"pin line outside a net: '{line}'", path=path, line=lineno)
        parts = line.replace(":", " ").split()
        node = name_to_id.get(parts[0])
        if node is None:
            raise ParseError(f"unknown node name '{parts[0]}' in net '{nets[-1][0]}'",
                             path=path, line=lineno)
        try:
            ox = float(parts[2]) if len(parts) > 2 else 0.0
            oy = float(parts[3]) if len(parts) > 3 else 0.0
        except ValueError:
            raise ParseError(f"bad pin offset: '{line}'", path=path, line=lineno) from None
        if not (math.isfinite(ox) and math.isfinite(oy)):
            raise ParseError(f"non-finite pin offset: '{line}'", path=path, line=lineno)
        pin = shared[line] = Pin(node=node, offset_x=ox, offset_y=oy)
        pins.append(pin)
    for name, degree, lineno, pins in nets:
        if len(pins) != degree:
            raise ParseError(f"net '{name}' declares {degree} pins but has {len(pins)} "
                             "pin lines", path=path, line=lineno)
    _check_declared(declared, {"NumNets": len(nets),
                               "NumPins": sum(len(net[3]) for net in nets)}, path)
    return [Net(id=i, name=name, pins=tuple(pins), weight=1.0)
            for i, (name, _degree, _lineno, pins) in enumerate(nets)]


def _parse_pl(path, name_to_id):
    """Returns {node id: (llx, lly, fixed)} keyed by dense node id."""
    out = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"malformed placement line: '{line}'", path=path, line=lineno)
        nid = name_to_id.get(parts[0])
        if nid is None:
            raise ParseError(f"unknown node name '{parts[0]}' in .pl",
                             path=path, line=lineno)
        if nid in out:
            raise ParseError(f"node '{parts[0]}' is placed twice", path=path, line=lineno)
        try:
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad coordinates: '{line}'", path=path, line=lineno) from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite coordinates: '{line}'", path=path, line=lineno)
        out[nid] = (x, y, "/FIXED" in line)
    return out


SCL_NUMERIC_FIELDS = ("Coordinate", "Height", "Sitewidth", "Sitespacing",
                      "SubrowOrigin", "NumSites")


def _parse_scl(path):
    """Returns (rows, row_height) where rows are (x0, y0, width, height).

    The row fields in SCL_NUMERIC_FIELDS must be finite numbers; other
    fields (Siteorient, Sitesymmetry, ...) are not read."""
    declared = {}
    rows = []
    fields = None  # the open CoreRow's fields, opened on line `row_line`
    row_line = None
    for lineno, line in _content_lines(path):
        if line.startswith("NumRows"):
            declared["NumRows"] = _count(line.partition(":")[2], "NumRows", path, lineno)
            continue
        if line.startswith("CoreRow"):
            if fields is not None:
                raise ParseError("CoreRow without End", path=path, line=row_line)
            fields, row_line = {}, lineno
            continue
        if line.startswith("End"):
            if fields is not None:
                if "Coordinate" not in fields:
                    raise ParseError("CoreRow without Coordinate",
                                     path=path, line=row_line)
                height = fields.get("Height", 0.0)
                pitch = fields.get("Sitespacing", fields.get("Sitewidth", 1.0))
                width = fields.get("NumSites", 0.0) * pitch
                rows.append((fields.get("SubrowOrigin", 0.0), fields["Coordinate"],
                             width, height))
            fields = None
            continue
        if fields is None:
            continue
        # key : value pairs, possibly several per line (SubrowOrigin ... NumSites ...)
        tokens = line.replace(":", " : ").split()
        for i in range(len(tokens) - 2):
            if tokens[i + 1] == ":" and tokens[i] in SCL_NUMERIC_FIELDS:
                try:
                    value = float(tokens[i + 2])
                except ValueError:
                    raise ParseError(f"bad {tokens[i]}: '{tokens[i + 2]}'",
                                     path=path, line=lineno) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite {tokens[i]}: '{tokens[i + 2]}'",
                                     path=path, line=lineno)
                fields[tokens[i]] = value
    if fields is not None:
        raise ParseError("CoreRow without End", path=path, line=row_line)
    _check_declared(declared, {"NumRows": len(rows)}, path)
    return rows, infer_row_height(r[3] for r in rows if r[3] > 0)


def infer_row_height(heights):
    """Most common of `heights` compared to 1e-9, returned as the first
    exact height of the winning group (ties go to the group seen first);
    None for no heights."""
    first = {}
    counts = Counter()
    for h in heights:
        key = round(h, 9)
        first.setdefault(key, h)
        counts[key] += 1
    return first[counts.most_common(1)[0][0]] if counts else None


def parse_bookshelf(path) -> DesignBundle:
    """Parse a Bookshelf file set into a DesignBundle.

    `path` may be a directory containing one design, an .aux file, or any
    of the member files. Node kinds: ``terminal`` tag wins; otherwise a node
    is a macro when min(width, height) >= DEFAULT_MACRO_THRESHOLD * row height.
    """
    files = _resolve_paths(path)
    for key in ("nodes", "nets", "pl"):
        if files.get(key) is None or not os.path.exists(files[key]):
            raise FileNotFoundError(f"missing .{key} file for design at '{path}'")

    names, sizes, terminal, name_to_id = _parse_nodes(files["nodes"])
    nets = _parse_nets(files["nets"], name_to_id)
    pl = _parse_pl(files["pl"], name_to_id)

    rows, row_height = [], None
    if files["scl"]:
        rows, row_height = _parse_scl(files["scl"])

    # Canvas: bounding box of core rows plus every placed node's bounding box.
    xs, ys = [], []
    for x0, y0, w, h in rows:
        xs += [x0, x0 + w]
        ys += [y0, y0 + h]
    placed = sorted(pl)
    for nid in placed:
        llx, lly, _ = pl[nid]
        w, h = sizes[nid]
        xs += [llx, llx + w]
        ys += [lly, lly + h]
    if not xs:
        raise ParseError("cannot derive a canvas: no rows and no placed nodes",
                         path=files["pl"])
    origin = (min(xs), min(ys))
    canvas_w, canvas_h = max(xs) - origin[0], max(ys) - origin[1]
    if not (canvas_w > 0 and canvas_h > 0):
        raise ParseError(f"derived canvas is {canvas_w:g} x {canvas_h:g}; its width and "
                         "height must be positive", path=files["pl"])

    if row_height is None:
        row_height = infer_row_height(h for (_, h), tag in zip(sizes, terminal) if not tag)
    nodes = []
    for i, (name, (w, h), tag) in enumerate(zip(names, sizes, terminal)):
        if tag:
            kind, movable = KIND_TERMINAL, False
        else:
            kind = (KIND_MACRO if min(w, h) >= DEFAULT_MACRO_THRESHOLD * row_height
                    else KIND_STD)
            movable = not (i in pl and pl[i][2])
        nodes.append(Node(id=i, name=name, width=w, height=h, kind=kind, movable=movable))

    netlist = Netlist(
        nodes=nodes,
        nets=nets,
        canvas_width=canvas_w,
        canvas_height=canvas_h,
        target_density=1.0,
    )
    placement = Placement.empty(len(nodes))
    if placed:
        centres = []
        for nid in placed:
            llx, lly, _ = pl[nid]
            w, h = sizes[nid]
            centres.append((llx - origin[0] + w / 2, lly - origin[1] + h / 2))
        placement.positions[placed] = centres
        placement.placed[placed] = True

    movable_area = netlist.movable_area
    if movable_area > 0:
        netlist.target_density = round_up_density(movable_area / netlist.canvas_area)

    return DesignBundle(netlist=netlist, placement=placement,
                        meta={"origin": origin, "row_height": row_height})


def _fmt(value) -> str:
    """Full-precision number formatting that round-trips through float()."""
    value = float(value)
    return repr(round(value, 12) if value == round(value, 12) else value)


def write_bookshelf(bundle: DesignBundle, directory, basename: str) -> dict:
    """Write .nodes/.nets/.pl/.scl files; returns the file map."""
    os.makedirs(directory, exist_ok=True)
    netlist, placement = bundle.netlist, bundle.placement
    origin = bundle.meta.get("origin", (0.0, 0.0))
    row_height = (bundle.meta.get("row_height")
                  or infer_row_height(n.height for n in netlist.nodes
                                      if n.kind != KIND_TERMINAL)
                  or 1.0)

    paths = {ext: os.path.join(directory, f"{basename}.{ext}")
             for ext in ("nodes", "nets", "pl", "scl")}

    terminals = [n for n in netlist.nodes if n.kind == KIND_TERMINAL]
    with open(paths["nodes"], "w") as fh:
        fh.write("UCLA nodes 1.0\n\n")
        fh.write(f"NumNodes : {len(netlist.nodes)}\n")
        fh.write(f"NumTerminals : {len(terminals)}\n")
        for n in netlist.nodes:
            tag = "\tterminal" if n.kind == KIND_TERMINAL else ""
            fh.write(f"\t{n.name}\t{_fmt(n.width)}\t{_fmt(n.height)}{tag}\n")

    num_pins = sum(len(net.pins) for net in netlist.nets)
    with open(paths["nets"], "w") as fh:
        fh.write("UCLA nets 1.0\n\n")
        fh.write(f"NumNets : {len(netlist.nets)}\n")
        fh.write(f"NumPins : {num_pins}\n")
        for net in netlist.nets:
            fh.write(f"NetDegree : {len(net.pins)}\t{net.name}\n")
            for pin in net.pins:
                name = netlist.nodes[pin.node].name
                fh.write(f"\t{name}\tB : {_fmt(pin.offset_x)} {_fmt(pin.offset_y)}\n")

    with open(paths["pl"], "w") as fh:
        fh.write("UCLA pl 1.0\n\n")
        for n in netlist.nodes:
            if placement.placed[n.id]:
                cx, cy = placement.positions[n.id]
            else:
                cx, cy = n.width / 2, n.height / 2
            llx = cx - n.width / 2 + origin[0]
            lly = cy - n.height / 2 + origin[1]
            fixed = " /FIXED" if (n.kind == KIND_TERMINAL or not n.movable) else ""
            fh.write(f"{n.name}\t{_fmt(llx)}\t{_fmt(lly)}\t: N{fixed}\n")

    # Rows reproduce the canvas exactly: one site per row, pitch = canvas width.
    n_full = max(1, int(netlist.canvas_height // row_height))
    leftover = netlist.canvas_height - n_full * row_height
    with open(paths["scl"], "w") as fh:
        fh.write("UCLA scl 1.0\n\n")
        num_rows = n_full + (1 if leftover > 1e-9 else 0)
        fh.write(f"NumRows : {num_rows}\n\n")
        for i in range(num_rows):
            height = row_height if i < n_full else leftover
            fh.write("CoreRow Horizontal\n")
            fh.write(f"  Coordinate : {_fmt(i * row_height + origin[1])}\n")
            fh.write(f"  Height : {_fmt(height)}\n")
            fh.write("  Sitewidth : 1\n")
            fh.write(f"  Sitespacing : {_fmt(netlist.canvas_width)}\n")
            fh.write(f"  SubrowOrigin : {_fmt(origin[0])}  NumSites : 1\n")
            fh.write("End\n")

    return paths
