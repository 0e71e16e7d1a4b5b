import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from macroplace.bookshelf import parse_bookshelf, write_bookshelf
from macroplace.design import (
    DesignBundle,
    SyntheticSpec,
    edit_for_movable_macros,
    generate_synthetic,
    round_up_density,
)
from macroplace.errors import DesignError, ParseError
from macroplace.netlist import KIND_MACRO, KIND_STD, KIND_TERMINAL, hpwl


def kind_counts(netlist):
    return Counter(n.kind for n in netlist.nodes)


FIXTURE = {
    "fix.nodes": """UCLA nodes 1.0
# hand fixture
NumNodes : 3
NumTerminals : 1
  a  8  8
  b  1  1
  p  1  1  terminal
""",
    "fix.nets": """UCLA nets 1.0
NumNets : 1
NumPins : 3
NetDegree : 3  n0
  a I : 1.0 0.0
  b O : 0.0 0.0
  p B : 0.0 0.0
""",
    "fix.pl": """UCLA pl 1.0
a  2  2 : N /FIXED
b  12  12 : N
p  0  0 : N /FIXED
""",
    "fix.scl": """UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
  Coordinate : 0
  Height : 1
  Sitewidth : 1
  Sitespacing : 1
  SubrowOrigin : 0  NumSites : 20
End
CoreRow Horizontal
  Coordinate : 1
  Height : 1
  Sitewidth : 1
  Sitespacing : 1
  SubrowOrigin : 0  NumSites : 20
End
""",
}


def assert_well_formed(nl):
    """Every node has a finite, positive size, every pin names a node in
    range, and the target density lies in (0, 1]."""
    sizes = np.array([(n.width, n.height) for n in nl.nodes])
    assert np.isfinite(sizes).all() and (sizes > 0).all()
    assert all(0 <= p.node < nl.num_nodes for net in nl.nets for p in net.pins)
    assert 0 < nl.target_density <= 1


def bundle_digest(bundle):
    """SHA-256 over the nodes, every net with its pins (node, offsets as hex
    floats), the canvas and target density, the placement bytes and the
    meta (float reprs round-trip exactly)."""
    netlist, placement = bundle.netlist, bundle.placement
    h = hashlib.sha256()
    for n in netlist.nodes:
        h.update(repr((n.id, n.name, n.width.hex(), n.height.hex(), n.kind,
                       n.movable)).encode())
    for net in netlist.nets:
        h.update(repr((net.id, net.name, net.weight.hex(),
                       [(p.node, p.offset_x.hex(), p.offset_y.hex())
                        for p in net.pins])).encode())
    h.update(repr((netlist.canvas_width.hex(), netlist.canvas_height.hex(),
                   netlist.target_density.hex())).encode())
    h.update(placement.positions.tobytes())
    h.update(placement.placed.tobytes())
    h.update(repr(bundle.meta).encode())
    return h.hexdigest()


def write_fixture(tmp_path, files=FIXTURE):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


class TestBookshelfParse:
    def test_hand_fixture(self, tmp_path):
        bundle = parse_bookshelf(str(write_fixture(tmp_path)))
        nl = bundle.netlist
        assert nl.num_nodes == 3
        assert len(nl.nets) == 1
        assert [n.kind for n in nl.nodes] == [KIND_MACRO, KIND_STD, KIND_TERMINAL]
        assert not nl.nodes[0].movable  # /FIXED
        assert nl.nodes[1].movable
        # pins preserved in file order with their offsets
        assert [p.node for p in nl.nets[0].pins] == [0, 1, 2]
        assert nl.nets[0].pins[0].offset_x == 1.0
        # .pl coordinates are lower-left corners; centers follow
        np.testing.assert_allclose(bundle.placement.positions[0], [6.0, 6.0])
        np.testing.assert_allclose(bundle.placement.positions[1], [12.5, 12.5])
        assert_well_formed(nl)

    def test_unknown_node_in_nets_cites_line(self, tmp_path):
        files = dict(FIXTURE)
        files["fix.nets"] = files["fix.nets"].replace("  b O", "  zz O")
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match=r"nets:6.*zz|zz"):
            parse_bookshelf(str(tmp_path))

    def test_duplicate_node_rejected(self, tmp_path):
        files = dict(FIXTURE)
        files["fix.nodes"] = files["fix.nodes"].replace("  b  1  1\n", "  b  1  1\n  b  2  2\n")
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match="duplicate"):
            parse_bookshelf(str(tmp_path))

    def test_missing_file_is_io_error(self, tmp_path):
        files = {k: v for k, v in FIXTURE.items() if not k.endswith(".pl")}
        write_fixture(tmp_path, files)
        with pytest.raises(FileNotFoundError):
            parse_bookshelf(str(tmp_path))

    @pytest.mark.parametrize("edit,message", [
        (("NetDegree : 3", "NetDegree : 2"),
         r"fix\.nets:4: net 'n0' declares 2 pins but has 3 pin lines"),
        (("  b O : 0.0 0.0\n  p B : 0.0 0.0\n", ""),
         r"fix\.nets:4: net 'n0' declares 3 pins but has 1 pin lines"),
        (("NumNets : 1", "NumNets : 2"), r"fix\.nets: NumNets 2 != 1 parsed"),
        (("NumPins : 3", "NumPins : 4"), r"fix\.nets: NumPins 4 != 3 parsed"),
        (("NetDegree : 3", "NetDegree : three"), r"fix\.nets:4: bad net degree: 'three'"),
        (("a I : 1.0 0.0", "a I : one 0.0"), r"fix\.nets:5: bad pin offset"),
        (("a I : 1.0 0.0", "a I : nan 0.0"),
         r"fix\.nets:5: non-finite pin offset: 'a I : nan 0\.0'"),
        (("b O : 0.0 0.0", "b O : 0.0 1e999"),
         r"fix\.nets:6: non-finite pin offset: 'b O : 0\.0 1e999'"),
    ], ids=["extra-pin", "missing-pins", "num-nets", "num-pins", "bad-degree",
            "bad-offset", "nan-offset-x", "infinite-offset-y"])
    def test_nets_section_is_checked(self, tmp_path, edit, message):
        files = dict(FIXTURE)
        assert edit[0] in files["fix.nets"]
        files["fix.nets"] = files["fix.nets"].replace(*edit)
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match=message):
            parse_bookshelf(str(tmp_path))

    @pytest.mark.parametrize("name,edit,message", [
        ("fix.nodes", ("  b  1  1", "  b  0  0"),
         r"fix\.nodes:6: node 'b' needs a finite, positive width and height"),
        ("fix.nodes", ("  b  1  1", "  b  1  inf"),
         r"fix\.nodes:6: node 'b' needs a finite, positive width and height"),
        ("fix.nodes", ("NumTerminals : 1", "NumTerminals : 5"),
         r"fix\.nodes: NumTerminals 5 != 1 parsed"),
        ("fix.scl", ("Height : 1", "Height : x"), r"fix\.scl:5: bad Height: 'x'"),
        ("fix.scl", ("NumSites : 20", "NumSites : twenty"),
         r"fix\.scl:8: bad NumSites: 'twenty'"),
        ("fix.scl", ("NumRows : 2", "NumRows : 3"), r"fix\.scl: NumRows 3 != 2 parsed"),
        ("fix.scl", ("NumRows : 2", "NumRows : two"), r"fix\.scl:2: bad NumRows: 'two'"),
        ("fix.scl", ("  Coordinate : 1\n", ""), r"fix\.scl:10: CoreRow without Coordinate"),
        ("fix.nodes", ("  p  1  1", "  p  inf  1"),
         r"fix\.nodes:7: terminal 'p' needs a finite, nonnegative width and height"),
        ("fix.nodes", ("  p  1  1", "  p  1  nan"),
         r"fix\.nodes:7: terminal 'p' needs a finite, nonnegative width and height"),
        ("fix.nodes", ("  p  1  1", "  p  -1  1"),
         r"fix\.nodes:7: terminal 'p' needs a finite, nonnegative width and height"),
        ("fix.scl", ("Coordinate : 0", "Coordinate : nan"), r"fix\.scl:4: non-finite Coordinate"),
        ("fix.scl", ("Height : 1", "Height : inf"), r"fix\.scl:5: non-finite Height: 'inf'"),
        ("fix.scl", ("Sitewidth : 1", "Sitewidth : -inf"), r"fix\.scl:6: non-finite Sitewidth"),
        ("fix.scl", ("Sitespacing : 1", "Sitespacing : 1e999"),
         r"fix\.scl:7: non-finite Sitespacing: '1e999'"),
        ("fix.scl", ("SubrowOrigin : 0", "SubrowOrigin : nan"),
         r"fix\.scl:8: non-finite SubrowOrigin"),
        ("fix.scl", ("NumSites : 20", "NumSites : inf"), r"fix\.scl:8: non-finite NumSites"),
    ], ids=["zero-size-cell", "infinite-cell", "num-terminals", "bad-row-height",
            "bad-num-sites", "num-rows", "bad-num-rows", "row-without-coordinate",
            "infinite-terminal-width", "nan-terminal-height", "negative-terminal-width",
            "nan-row-coordinate", "infinite-row-height", "infinite-site-width",
            "infinite-site-spacing", "nan-subrow-origin", "infinite-num-sites"])
    def test_nodes_and_scl_sections_are_checked(self, tmp_path, name, edit, message):
        files = dict(FIXTURE)
        assert edit[0] in files[name]
        files[name] = files[name].replace(*edit, 1)
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match=message):
            parse_bookshelf(str(tmp_path))

    @pytest.mark.parametrize("edit,message", [
        (("a  2  2", "a  nan  2"),
         r"fix\.pl:2: non-finite coordinates: 'a  nan  2 : N /FIXED'"),
        (("b  12  12", "b  12  1e999"), r"fix\.pl:3: non-finite coordinates"),
        (("p  0  0 : N /FIXED\n", "p  0  0 : N /FIXED\nb  1  1 : N\n"),
         r"fix\.pl:5: node 'b' is placed twice"),
    ], ids=["nan-x", "infinite-y", "placed-twice"])
    def test_pl_section_is_checked(self, tmp_path, edit, message):
        """A non-finite coordinate would reach the canvas and every centre;
        a second line for one node would silently win over the first."""
        files = dict(FIXTURE)
        assert edit[0] in files["fix.pl"]
        files["fix.pl"] = files["fix.pl"].replace(*edit)
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match=message):
            parse_bookshelf(str(tmp_path))

    @pytest.mark.parametrize("scl,line", [
        (FIXTURE["fix.scl"].removesuffix("End\n"), 10),
        (FIXTURE["fix.scl"].replace("End\n", "", 1), 3),
    ], ids=["at-eof", "before-next-row"])
    def test_core_row_without_end_cites_its_line(self, tmp_path, scl, line):
        """A CoreRow still open at the end of the file, or when the next
        one starts, is an error at the CoreRow's line."""
        write_fixture(tmp_path, {**FIXTURE, "fix.scl": scl})
        with pytest.raises(ParseError, match=rf"fix\.scl:{line}: CoreRow without End"):
            parse_bookshelf(str(tmp_path))

    @pytest.mark.parametrize("size,canvas", [("0  0", "0 x 0"), ("0  3", "0 x 3")],
                             ids=["point", "zero-width"])
    def test_degenerate_canvas_names_the_pl(self, tmp_path, size, canvas):
        """Without rows, a .pl that places only a terminal of zero width
        derives a canvas that later code would divide by."""
        files = {k: v for k, v in FIXTURE.items() if not k.endswith(".scl")}
        files["fix.nodes"] = files["fix.nodes"].replace("  p  1  1", f"  p  {size}")
        files["fix.pl"] = "UCLA pl 1.0\np  5  5 : N /FIXED\n"
        write_fixture(tmp_path, files)
        with pytest.raises(ParseError, match=rf"fix\.pl: derived canvas is {canvas};"):
            parse_bookshelf(str(tmp_path))

    def test_row_heights_vote_to_one_part_in_a_billion(self, tmp_path):
        """Row heights equal to 9 decimals vote as one group, and the row
        height is the first of them exactly as written."""
        row = ("CoreRow Horizontal\n  Coordinate : {y}\n  Height : {h}\n"
               "  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 20\nEnd\n")
        rows = [("0", "2"), ("2", "1.00000000002"), ("3.00000000002", "1.00000000004")]
        scl = "UCLA scl 1.0\nNumRows : 3\n" + "".join(row.format(y=y, h=h) for y, h in rows)
        write_fixture(tmp_path, {**FIXTURE, "fix.scl": scl})
        assert parse_bookshelf(str(tmp_path)).meta["row_height"] == 1.00000000002

    @pytest.mark.parametrize("member", ["", "fix.aux", "fix.nodes"],
                             ids=["directory", "aux", "member-file"])
    def test_path_objects_are_accepted(self, tmp_path, member):
        files = {**FIXTURE, "fix.aux": "RowBasedPlacement : fix.nodes fix.nets fix.pl fix.scl\n"}
        write_fixture(tmp_path, files)
        expected = parse_bookshelf(str(tmp_path))
        bundle = parse_bookshelf(tmp_path / member)
        assert [n.name for n in bundle.netlist.nodes] == ["a", "b", "p"]
        np.testing.assert_array_equal(bundle.placement.positions,
                                      expected.placement.positions)
        assert bundle.netlist.canvas_width == expected.netlist.canvas_width

    def test_zero_size_terminal_and_symbolic_row_fields_parse(self, tmp_path):
        files = dict(FIXTURE)
        files["fix.nodes"] = files["fix.nodes"].replace("  p  1  1", "  p  0  0")
        files["fix.scl"] = files["fix.scl"].replace(
            "  Sitespacing : 1\n", "  Sitespacing : 1\n  Siteorient : N\n  Sitesymmetry : Y\n")
        bundle = parse_bookshelf(str(write_fixture(tmp_path, files)))
        assert bundle.netlist.nodes[2].area == 0.0
        assert bundle.meta["row_height"] == 1.0

    def test_target_density_is_rounded_up(self, tmp_path):
        spec = SyntheticSpec(macro_count=4, std_cell_count=46, net_count=60, seed=3)
        bundle = generate_synthetic(spec)
        write_bookshelf(bundle, tmp_path, "rt")
        nl = parse_bookshelf(str(tmp_path)).netlist
        utilization = nl.movable_area / nl.canvas_area
        assert nl.target_density == round_up_density(utilization) > utilization
        assert nl.target_density == bundle.netlist.target_density
        # Nothing movable (every node /FIXED): the density target stays 1.0.
        files = dict(FIXTURE)
        files["fix.pl"] = files["fix.pl"].replace("12 : N\n", "12 : N /FIXED\n")
        (tmp_path / "fixed").mkdir()
        fixed = parse_bookshelf(str(write_fixture(tmp_path / "fixed", files))).netlist
        assert fixed.movable_area == 0 and fixed.target_density == 1.0

    def test_canvas_without_scl_comes_from_pl_extents(self, tmp_path):
        files = {k: v for k, v in FIXTURE.items() if not k.endswith(".scl")}
        write_fixture(tmp_path, files)
        bundle = parse_bookshelf(str(tmp_path))
        assert bundle.netlist.canvas_width == pytest.approx(13.0)

    def test_roundtrip_preserves_stats_and_hpwl(self, tmp_path, rng):
        spec = SyntheticSpec(macro_count=4, std_cell_count=46, net_count=60, seed=3)
        bundle = generate_synthetic(spec)
        nl = bundle.netlist
        # place everything so hpwl is defined
        placement = bundle.placement
        for node in nl.nodes:
            if not placement.placed[node.id]:
                placement.positions[node.id] = (
                    rng.uniform(node.width / 2, nl.canvas_width - node.width / 2),
                    rng.uniform(node.height / 2, nl.canvas_height - node.height / 2),
                )
                placement.placed[node.id] = True
        write_bookshelf(bundle, tmp_path, "rt")
        again = parse_bookshelf(str(tmp_path / "rt.nodes"))
        assert kind_counts(again.netlist) == kind_counts(nl)
        assert again.netlist.movable_area / again.netlist.canvas_area == pytest.approx(
            nl.movable_area / nl.canvas_area, rel=1e-9)
        assert hpwl(again.netlist, again.placement) == pytest.approx(
            hpwl(nl, placement), rel=1e-9)

    @pytest.mark.parametrize("spec,digest", [
        (SyntheticSpec(8, 500, 600, seed=1),
         "47d25a4249f2292bc79fac7a5106fd84589dd3423a41295eb109e546a7d495c2"),
        (SyntheticSpec(16, 2000, 2500, seed=1),
         "67aae529193cf904ae91e084b4edd3264258c0b70717eb954f767dfd416d48f8"),
    ], ids=["S", "M"])
    def test_benchmark_design_bundles_are_pinned(self, tmp_path, spec, digest):
        """The rollout-nesterov-S and rollout-fd-M benchmark designs, written
        and read back. The digests were recorded with bundle_digest at commit
        9b3c7ae, before the reader went to one pass with shared pins."""
        write_bookshelf(generate_synthetic(spec), tmp_path, "design")
        assert bundle_digest(parse_bookshelf(tmp_path)) == digest

    def test_double_roundtrip_is_stable(self, tmp_path):
        bundle = parse_bookshelf(str(write_fixture(tmp_path)))
        write_bookshelf(bundle, tmp_path / "w1", "fix")
        b2 = parse_bookshelf(str(tmp_path / "w1"))
        write_bookshelf(b2, tmp_path / "w2", "fix")
        t1 = (tmp_path / "w1" / "fix.nodes").read_text()
        t2 = (tmp_path / "w2" / "fix.nodes").read_text()
        assert t1 == t2


class TestEdit:
    def test_macros_become_movable(self, tmp_path):
        bundle = parse_bookshelf(str(write_fixture(tmp_path)))
        edited = edit_for_movable_macros(bundle)
        assert all(n.movable for n in edited.netlist.nodes if n.kind == KIND_MACRO)
        assert kind_counts(edited.netlist) == kind_counts(bundle.netlist)

    def test_density_rounding(self):
        assert round_up_density(0.71) == pytest.approx(0.75)
        assert round_up_density(0.75) == pytest.approx(0.75)
        assert round_up_density(0.96) == 1.0

    def test_edit_is_idempotent(self, tmp_path):
        bundle = parse_bookshelf(str(write_fixture(tmp_path)))
        once = edit_for_movable_macros(bundle)
        twice = edit_for_movable_macros(once)
        assert once.netlist.target_density == twice.netlist.target_density
        assert [dataclasses.astuple(n) for n in once.netlist.nodes] == [
            dataclasses.astuple(n) for n in twice.netlist.nodes
        ]
        np.testing.assert_array_equal(once.placement.positions, twice.placement.positions)
        assert once.meta == twice.meta

    def test_everything_else_unchanged(self, tmp_path):
        bundle = parse_bookshelf(str(write_fixture(tmp_path)))
        edited = edit_for_movable_macros(bundle)
        for before, after in zip(bundle.netlist.nodes, edited.netlist.nodes):
            assert (before.name, before.width, before.height, before.kind) == (
                after.name, after.width, after.height, after.kind)
            if before.kind != KIND_MACRO:
                assert before.movable == after.movable
        assert bundle.netlist.nets is edited.netlist.nets

    def test_macro_larger_than_canvas(self):
        from macroplace.netlist import Net, Netlist, Node, Pin, Placement

        nodes = [Node(0, "m", 30.0, 5.0, KIND_MACRO, False)]
        nl = Netlist(nodes, [], 20.0, 20.0)
        bundle = DesignBundle(nl, Placement.empty(1))
        with pytest.raises(DesignError, match="larger than the canvas"):
            edit_for_movable_macros(bundle)


class TestSynthetic:
    def test_deterministic_for_seed(self):
        a = generate_synthetic(SyntheticSpec(2, 100, 120, seed=7))
        b = generate_synthetic(SyntheticSpec(2, 100, 120, seed=7))
        assert (a.netlist.canvas_width, a.netlist.canvas_height, a.netlist.target_density) == (
            b.netlist.canvas_width, b.netlist.canvas_height, b.netlist.target_density)
        assert a.netlist.nodes == b.netlist.nodes
        assert a.netlist.nets == b.netlist.nets
        np.testing.assert_array_equal(a.placement.positions, b.placement.positions)
        np.testing.assert_array_equal(a.placement.placed, b.placement.placed)
        assert a.meta == b.meta

    def test_counts(self):
        bundle = generate_synthetic(SyntheticSpec(2, 100, 120, seed=1))
        assert kind_counts(bundle.netlist) == {KIND_MACRO: 2, KIND_STD: 100, KIND_TERMINAL: 4}

    def test_unplaced_except_corner_terminals(self):
        bundle = generate_synthetic(SyntheticSpec(2, 50, 60, seed=5))
        placed_ids = np.flatnonzero(bundle.placement.placed)
        kinds = [bundle.netlist.nodes[i].kind for i in placed_ids]
        assert kinds == [KIND_TERMINAL] * 4

    def test_area_budget_over_random_specs(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            spec = SyntheticSpec(
                macro_count=int(rng.integers(0, 8)),
                std_cell_count=int(rng.integers(10, 400)),
                net_count=int(rng.integers(0, 200)),
                rent_like_fanout=float(rng.uniform(2.0, 5.0)),
                seed=int(rng.integers(0, 2**63 - 1)),
                canvas_width=float(rng.uniform(40, 200)),
                canvas_height=float(rng.uniform(40, 200)),
            )
            bundle = generate_synthetic(spec)
            nl = bundle.netlist
            total_movable = sum(n.area for n in nl.nodes if n.movable)
            assert total_movable <= nl.target_density * nl.canvas_area + 1e-9
            assert_well_formed(nl)

    def test_macro_areas_relative_to_cells(self):
        bundle = generate_synthetic(SyntheticSpec(5, 200, 100, seed=2))
        nl = bundle.netlist
        cell_areas = [n.area for n in nl.nodes if n.kind == KIND_STD]
        mean_cell = float(np.mean(cell_areas))
        for macro in nl.macros():
            ratio = macro.area / mean_cell
            assert 8.0 <= ratio <= 135.0  # 10-100x the nominal area, cells jitter +-25%

    def test_invalid_specs_rejected(self):
        with pytest.raises(DesignError):
            generate_synthetic(SyntheticSpec(-1, 10, 10))
        with pytest.raises(DesignError):
            generate_synthetic(SyntheticSpec(1, 10, 10, rent_like_fanout=1.0))

