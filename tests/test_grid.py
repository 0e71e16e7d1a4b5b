import numpy as np
import pytest

from macroplace.errors import PlacementError
from macroplace.grid import (
    Grid,
    feasibility_mask,
    lift_from_grid,
    mask_windows,
    place_on_grid,
)
from macroplace.netlist import KIND_MACRO, Node

from oracles import footprint_raster, mask_bruteforce


def macro(w, h, mid=0, name=None):
    return Node(mid, name or f"m{mid}", w, h, KIND_MACRO, True)


def covered(grid, m, r, c):
    """The cells that placing `m` at (r, c) on an empty grid of `grid`'s
    shape occupies: its footprint."""
    empty = Grid(grid.rows, grid.cols, grid.cell_w, grid.cell_h,
                 np.zeros_like(grid.occupancy))
    placed, _ = place_on_grid(empty, m, r, c)
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(placed.occupancy))}


class TestFootprint:
    """The footprint rule, through the occupancy `place_on_grid` writes."""

    def test_small_macro_single_cell(self):
        grid = Grid.empty(8, 8, 80.0, 80.0)
        m = macro(6.0, 4.0)
        for r, c in [(0, 0), (3, 5), (7, 7)]:
            assert covered(grid, m, r, c) == {(r, c)}

    def test_full_canvas_macro_covers_everything(self):
        grid = Grid.empty(5, 5, 50.0, 50.0)
        m = macro(50.0, 50.0)
        assert covered(grid, m, 2, 2) == {(r, c) for r in range(5) for c in range(5)}

    def test_boundary_touch_not_covered(self):
        grid = Grid.empty(4, 4, 40.0, 40.0)
        m = macro(10.0, 10.0)  # exactly one cell; edges touch neighbors
        assert covered(grid, m, 1, 1) == {(1, 1)}

    def test_matches_fine_raster_oracle(self, rng):
        """40 draws at a random cell where the box stays in the canvas;
        a draw with no such cell is drawn again."""
        checked = 0
        while checked < 40:
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(2, 9))
            grid = Grid.empty(rows, cols, float(rng.uniform(20, 120)),
                              float(rng.uniform(20, 120)))
            m = macro(float(rng.uniform(0.3, 0.9) * grid.canvas_width),
                      float(rng.uniform(0.3, 0.9) * grid.canvas_height))
            cells = np.flatnonzero(feasibility_mask(grid, m))
            if not len(cells):
                continue
            r, c = divmod(int(rng.choice(cells)), cols)
            assert covered(grid, m, r, c) == footprint_raster(grid, m, r, c)
            checked += 1


class TestFeasibilityMask:
    def test_empty_grid_small_macro_all_feasible(self):
        grid = Grid.empty(6, 7, 70.0, 60.0)
        mask = feasibility_mask(grid, macro(5.0, 5.0))
        assert mask.all()

    def test_full_canvas_macro_unique_center(self):
        grid = Grid.empty(5, 5, 50.0, 50.0)  # odd grid: a centered cell exists
        mask = feasibility_mask(grid, macro(50.0, 50.0))
        assert mask.sum() == 1
        assert mask[2, 2]

    def test_matches_bruteforce_after_one_placement(self):
        grid = Grid.empty(8, 8, 80.0, 80.0)
        m0 = macro(20.0, 20.0, mid=0)  # spans 2x2 cells exactly when centered
        grid, _ = place_on_grid(grid, m0, 1, 1)
        m1 = macro(20.0, 20.0, mid=1)
        mask = feasibility_mask(grid, m1)
        brute = mask_bruteforce(grid, m1)
        for (r, c), want in brute.items():
            assert mask[r, c] == want, (r, c)

    def test_all_false_mask_is_legal(self):
        grid = Grid.empty(2, 2, 20.0, 20.0)
        grid.occupancy[:] = True
        mask = feasibility_mask(grid, macro(5.0, 5.0))
        assert not mask.any()

    def test_random_grids_match_bruteforce(self, rng):
        for _ in range(25):
            rows = int(rng.integers(3, 8))
            cols = int(rng.integers(3, 8))
            grid = Grid.empty(rows, cols, float(rng.uniform(30, 100)),
                              float(rng.uniform(30, 100)))
            # occupy a random rectangle
            r0 = int(rng.integers(0, rows))
            c0 = int(rng.integers(0, cols))
            r1 = int(rng.integers(r0, rows))
            c1 = int(rng.integers(c0, cols))
            grid.occupancy[r0:r1 + 1, c0:c1 + 1] = True
            m = macro(float(rng.uniform(0.1, 0.7) * grid.canvas_width),
                      float(rng.uniform(0.1, 0.7) * grid.canvas_height))
            mask = feasibility_mask(grid, m)
            brute = mask_bruteforce(grid, m)
            for (r, c), want in brute.items():
                assert mask[r, c] == want, (r, c, rows, cols)


    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (6, 1), (1, 9), (9, 1)])
    def test_single_row_or_column_grids_match_bruteforce(self, rng, rows, cols):
        for _ in range(20):
            grid = Grid.empty(rows, cols, float(rng.uniform(30, 100)),
                              float(rng.uniform(30, 100)))
            grid.occupancy[:] = rng.random((rows, cols)) < 0.3
            m = macro(float(rng.uniform(0.05, 1.0) * grid.canvas_width),
                      float(rng.uniform(0.05, 1.0) * grid.canvas_height))
            mask = feasibility_mask(grid, m)
            for (r, c), want in mask_bruteforce(grid, m).items():
                assert mask[r, c] == want, (r, c, rows, cols)

    @pytest.mark.parametrize("rows,cols", [(5, 5), (3, 7), (7, 3), (1, 5), (5, 1)])
    def test_footprint_past_every_edge_matches_bruteforce(self, rng, rows, cols):
        """Footprints as wide and tall as the canvas: their offsets run past
        every edge of the grid from every cell but the centre, and with the
        canvas boundary's tolerance (1 + 1e-9) from the centre too, where
        the box still counts as inside. The windows are clipped, so the
        centre's runs past an edge exactly when the next cell's still
        reaches it."""
        for _ in range(10):
            grid = Grid.empty(rows, cols, float(rng.uniform(30, 100)),
                              float(rng.uniform(30, 100)))
            grid.occupancy[:] = rng.random((rows, cols)) < 0.1
            for fw, fh in ((1.0, 1.0), (1.0 + 1e-9, 1.0 + 1e-9), (1.0 + 1e-9, 0.6),
                           (0.999, 1.0)):
                m = macro(fw * grid.canvas_width, fh * grid.canvas_height)
                _, r_lo, r_hi, c_lo, c_hi = mask_windows(
                    rows, cols, grid.cell_w, grid.cell_h, m.width, m.height)
                if fw > 1.0 and cols > 1:
                    assert c_lo[cols // 2 + 1] == 0 and c_hi[cols // 2 - 1] == cols
                if fh > 1.0 and rows > 1:
                    assert r_lo[rows // 2 + 1] == 0 and r_hi[rows // 2 - 1] == rows
                mask = feasibility_mask(grid, m)
                for (r, c), want in mask_bruteforce(grid, m).items():
                    assert mask[r, c] == want, (r, c, rows, cols, fw, fh)


class TestMaskWindows:
    """The in-canvas mask and footprint windows `feasibility_mask` reads
    from its cache of read-only arrays."""

    def test_random_shapes_and_sizes_match_bruteforce(self, rng):
        for _ in range(40):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            grid = Grid.empty(rows, cols, float(rng.uniform(20, 150)),
                              float(rng.uniform(20, 150)))
            grid.occupancy[:] = rng.random((rows, cols)) < 0.2
            # Sizes off and on whole cell counts.
            fw = rng.choice([float(rng.uniform(0.02, 1.0)), int(rng.integers(1, cols + 1)) / cols])
            fh = rng.choice([float(rng.uniform(0.02, 1.0)), int(rng.integers(1, rows + 1)) / rows])
            m = macro(float(fw) * grid.canvas_width, float(fh) * grid.canvas_height)
            mask = feasibility_mask(grid, m)
            for (r, c), want in mask_bruteforce(grid, m).items():
                assert mask[r, c] == want, (r, c, rows, cols)

    def test_one_macro_on_two_grid_geometries(self, rng):
        """Alternating between two grids, the same macro gets each grid's
        own mask."""
        m = macro(17.0, 23.0)
        grids = [Grid.empty(8, 8, 80.0, 80.0), Grid.empty(5, 7, 70.0, 50.0)]
        for grid in grids:
            grid.occupancy[:] = rng.random(grid.occupancy.shape) < 0.15
        for grid in grids + grids:
            mask = feasibility_mask(grid, m)
            assert mask.shape == (grid.rows, grid.cols)
            for (r, c), want in mask_bruteforce(grid, m).items():
                assert mask[r, c] == want, (r, c, grid.rows, grid.cols)

    def test_mutating_a_mask_leaves_the_next_unchanged(self):
        grid = Grid.empty(6, 6, 60.0, 60.0)
        grid.occupancy[2, 3] = True
        m = macro(25.0, 15.0)
        first = feasibility_mask(grid, m)
        expected = first.copy()
        first[:] = ~first
        np.testing.assert_array_equal(feasibility_mask(grid, m), expected)
        # Also for a macro no cell of the canvas holds.
        wide = macro(70.0, 5.0)
        empty = feasibility_mask(grid, wide)
        assert not empty.any()
        empty[:] = True
        assert not feasibility_mask(grid, wide).any()
        for array in mask_windows(6, 6, 10.0, 10.0, 25.0, 15.0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]


class TestLiftFromGrid:
    def test_place_then_lift_restores_the_grid(self, rng):
        """Placing any macro of a random rollout and lifting it again gives
        the occupancy and `placed_macros` of before, and lifting a macro
        placed earlier frees exactly its footprint."""
        for _ in range(30):
            rows = int(rng.integers(3, 11))
            cols = int(rng.integers(3, 11))
            grid = Grid.empty(rows, cols, float(rng.uniform(40, 150)),
                              float(rng.uniform(40, 150)))
            placed = []
            for k in range(6):
                m = macro(float(rng.uniform(0.05, 0.4) * grid.canvas_width),
                          float(rng.uniform(0.05, 0.4) * grid.canvas_height), mid=k)
                mask = feasibility_mask(grid, m)
                if not mask.any():
                    break
                r, c = divmod(int(rng.choice(np.flatnonzero(mask))), cols)
                after, _ = place_on_grid(grid, m, r, c)
                lifted = lift_from_grid(after, m)
                np.testing.assert_array_equal(lifted.occupancy, grid.occupancy)
                assert lifted.placed_macros == grid.placed_macros
                assert after.placed_macros[-1] == (k, r, c)  # the input is kept
                grid = after
                placed.append((m, r, c))
            if len(placed) < 2:
                continue
            m, r, c = placed[int(rng.integers(len(placed)))]
            lifted = lift_from_grid(grid, m)
            freed = grid.occupancy & ~lifted.occupancy
            assert {(int(i), int(j)) for i, j in zip(*np.nonzero(freed))} == covered(grid, m, r, c)
            assert not (lifted.occupancy & ~grid.occupancy).any()
            assert lifted.placed_macros == [p for p in grid.placed_macros if p[0] != m.id]
            assert feasibility_mask(lifted, m)[r, c]

    def test_lifting_an_unplaced_macro_raises(self):
        grid = Grid.empty(4, 4, 40.0, 40.0)
        placed, _ = place_on_grid(grid, macro(15.0, 15.0, mid=0), 1, 1)
        other = macro(15.0, 15.0, mid=1, name="m1")
        with pytest.raises(PlacementError, match="'m1' is not placed"):
            lift_from_grid(placed, other)
        with pytest.raises(PlacementError, match="'m1' is not placed"):
            lift_from_grid(grid, other)
        assert placed.placed_macros == [(0, 1, 1)]
        assert placed.occupancy.sum() == 9


class TestPlaceOnGrid:
    def test_place_then_previously_covered_infeasible(self):
        grid = Grid.empty(8, 8, 80.0, 80.0)
        m0 = macro(20.0, 20.0, mid=0)
        grid2, pos = place_on_grid(grid, m0, 2, 2)
        np.testing.assert_allclose(pos, (25.0, 25.0))
        mask = feasibility_mask(grid2, macro(20.0, 20.0, mid=1))
        # any cell whose footprint would hit the covered block is infeasible
        assert not mask[2, 2]
        assert not mask[1, 1]
        assert mask[5, 5]

    def test_sequential_union_and_disjoint(self, rng):
        for _ in range(30):
            grid = Grid.empty(10, 10, 100.0, 100.0)
            footprints = []
            for k in range(6):
                m = macro(float(rng.uniform(5, 35)), float(rng.uniform(5, 35)), mid=k)
                mask = feasibility_mask(grid, m)
                if not mask.any():
                    break
                choices = np.flatnonzero(mask.ravel())
                cell = int(rng.choice(choices))
                r, c = divmod(cell, grid.cols)
                grid, _ = place_on_grid(grid, m, r, c)
                footprints.append(covered(grid, m, r, c))
            union = set().union(*footprints) if footprints else set()
            got = {(r, c) for r, c in zip(*np.nonzero(grid.occupancy))}
            assert got == union
            total = sum(len(f) for f in footprints)
            assert total == len(union)  # pairwise disjoint

    def test_masked_false_cell_raises(self):
        grid = Grid.empty(4, 4, 40.0, 40.0)
        m0 = macro(15.0, 15.0, mid=0)
        grid, _ = place_on_grid(grid, m0, 1, 1)
        with pytest.raises(PlacementError, match="overlaps"):
            place_on_grid(grid, macro(15.0, 15.0, mid=1), 1, 2)
        with pytest.raises(PlacementError, match="leaves the canvas"):
            place_on_grid(grid, macro(15.0, 15.0, mid=1), 0, 3)
        with pytest.raises(PlacementError, match="out of range"):
            place_on_grid(grid, macro(5.0, 5.0, mid=2), 9, 0)

    def test_already_placed_macro_raises(self):
        grid = Grid.empty(4, 4, 40.0, 40.0)
        m0 = macro(5.0, 5.0, mid=0)
        placed, _ = place_on_grid(grid, m0, 0, 0)
        with pytest.raises(PlacementError, match="'m0' is already placed"):
            place_on_grid(placed, m0, 3, 3)
        # The guard leaves the grid it was given as it was.
        assert placed.placed_macros == [(0, 0, 0)]
        assert placed.occupancy.sum() == 1

    def test_mask_soundness_random_rollouts(self, rng):
        """Every feasible cell must accept the macro and every refused cell
        must raise; occupancy stays disjoint."""
        for _ in range(60):
            rows = int(rng.integers(4, 12))
            cols = int(rng.integers(4, 12))
            grid = Grid.empty(rows, cols, float(rng.uniform(40, 150)),
                              float(rng.uniform(40, 150)))
            placed_area_cells = 0
            for k in range(8):
                m = macro(float(rng.uniform(0.05, 0.5) * grid.canvas_width),
                          float(rng.uniform(0.05, 0.5) * grid.canvas_height), mid=k)
                mask = feasibility_mask(grid, m)
                for r, c in zip(*np.nonzero(~mask)):
                    with pytest.raises(PlacementError):
                        place_on_grid(grid, m, int(r), int(c))
                if not mask.any():
                    break
                cell = int(rng.choice(np.flatnonzero(mask.ravel())))
                r, c = divmod(cell, cols)
                cells = covered(grid, m, r, c)
                grid, _ = place_on_grid(grid, m, r, c)  # must not raise
                placed_area_cells += len(cells)
                assert grid.occupancy.sum() == placed_area_cells
