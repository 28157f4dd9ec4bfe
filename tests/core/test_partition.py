"""Tests for Equation 1 and the tiled spatial partitioning function."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KEYPTR_SIZE,
    SCHEME_HASH,
    SCHEME_ROUND_ROBIN,
    SpatialPartitioner,
    TileGrid,
    coefficient_of_variation,
    estimate_num_partitions,
    profile_partitioning,
)
from repro.core.partition import rect_array
from repro.geometry import Rect

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)


@st.composite
def universe_rects(draw, max_size=30.0):
    x = draw(st.floats(min_value=0, max_value=99))
    y = draw(st.floats(min_value=0, max_value=99))
    w = draw(st.floats(min_value=0, max_value=max_size))
    h = draw(st.floats(min_value=0, max_value=max_size))
    return Rect(x, y, min(x + w, 100.0), min(y + h, 100.0))


def tiles_of(grid, rect):
    """The tiles ``slots_all`` places the rectangle in."""
    return grid.slots_all(rect_array([rect])).tile.tolist()


def partitions_of(partitioner, rect):
    """The partitions ``route_all`` places the rectangle in."""
    routed = partitioner.route_all(rect_array([rect]))
    return {p for p, slots in enumerate(routed) if len(slots.ordinal)}


class TestEquationOne:
    def test_fits_in_memory_is_one_partition(self):
        assert estimate_num_partitions(100, 100, 10**6) == 1

    def test_formula(self):
        # P = ceil((||R|| + ||S||) * size_keyptr / M)
        mem = 10_000
        assert estimate_num_partitions(500, 500, mem) == -(
            -(1000 * KEYPTR_SIZE) // mem
        )

    def test_exact_boundary(self):
        mem = 100 * KEYPTR_SIZE
        assert estimate_num_partitions(50, 50, mem) == 1
        assert estimate_num_partitions(50, 51, mem) == 2

    def test_zero_memory_raises(self):
        with pytest.raises(ValueError):
            estimate_num_partitions(1, 1, 0)


class TestTileGrid:
    def test_for_tiles_near_square(self):
        grid = TileGrid.for_tiles(UNIVERSE, 12)
        assert grid.num_tiles >= 12
        assert abs(grid.rows - grid.cols) <= 1

    def test_numbering_row_major_from_upper_left(self):
        grid = TileGrid(UNIVERSE, rows=2, cols=3)
        # Tile 0 is the upper-left: high y, low x.
        r0 = grid.tile_rect(0)
        assert r0.xl == 0.0 and r0.yu == 100.0
        r5 = grid.tile_rect(5)
        assert r5.xu == 100.0 and r5.yl == 0.0

    def test_tiles_for_rect_single(self):
        grid = TileGrid(UNIVERSE, rows=2, cols=2)
        assert tiles_of(grid, Rect(10, 60, 20, 70)) == [0]
        assert tiles_of(grid, Rect(60, 60, 70, 70)) == [1]
        assert tiles_of(grid, Rect(10, 10, 20, 20)) == [2]
        assert tiles_of(grid, Rect(60, 10, 70, 20)) == [3]

    def test_tiles_for_rect_spanning(self):
        grid = TileGrid(UNIVERSE, rows=2, cols=2)
        assert set(tiles_of(grid, Rect(40, 40, 60, 60))) == {0, 1, 2, 3}

    def test_rect_outside_universe_clamped(self):
        grid = TileGrid(UNIVERSE, rows=2, cols=2)
        assert tiles_of(grid, Rect(-50, -50, -10, -10)) == [2]

    def test_bad_tile_count(self):
        with pytest.raises(ValueError):
            TileGrid.for_tiles(UNIVERSE, 0)

    @given(universe_rects())
    @settings(max_examples=100)
    def test_every_rect_lands_in_some_tile(self, rect):
        grid = TileGrid.for_tiles(UNIVERSE, 64)
        tiles = tiles_of(grid, rect)
        assert tiles
        # Every reported tile really overlaps the rect.
        for t in tiles:
            assert grid.tile_rect(t).intersects(rect)


class TestPartitioner:
    def test_schemes_validated(self):
        with pytest.raises(ValueError):
            SpatialPartitioner(UNIVERSE, 4, 16, scheme="bogus")

    def test_tiles_ge_partitions_enforced(self):
        with pytest.raises(ValueError):
            SpatialPartitioner(UNIVERSE, 8, 4)

    def test_round_robin_mapping(self):
        p = SpatialPartitioner(UNIVERSE, 3, 12, scheme=SCHEME_ROUND_ROBIN)
        assert [p.partition_of_tile(t) for t in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_hash_mapping_in_range(self):
        p = SpatialPartitioner(UNIVERSE, 5, 100, scheme=SCHEME_HASH)
        for t in range(p.num_tiles):
            assert 0 <= p.partition_of_tile(t) < 5

    def test_spanning_rect_goes_to_multiple_partitions(self):
        p = SpatialPartitioner(UNIVERSE, 4, 4, scheme=SCHEME_ROUND_ROBIN)
        assert len(partitions_of(p, Rect(40, 40, 60, 60))) > 1

    @given(universe_rects(), universe_rects())
    @settings(max_examples=200)
    def test_overlapping_rects_share_a_partition(self, a, b):
        """The PBSM correctness invariant: if two MBRs overlap, the tiled
        partitioning must route them to at least one common partition."""
        if not a.intersects(b):
            return
        for scheme in (SCHEME_HASH, SCHEME_ROUND_ROBIN):
            p = SpatialPartitioner(UNIVERSE, 7, 64, scheme=scheme)
            assert partitions_of(p, a) & partitions_of(p, b)

    @given(universe_rects())
    @settings(max_examples=100)
    def test_more_tiles_never_lose_rects(self, rect):
        for tiles in (8, 64, 256):
            p = SpatialPartitioner(UNIVERSE, 8, tiles)
            assert partitions_of(p, rect)


class TestMetrics:
    def test_cov_of_uniform_is_zero(self):
        assert coefficient_of_variation([5, 5, 5, 5]) == 0.0

    def test_cov_of_skewed_positive(self):
        assert coefficient_of_variation([100, 0, 0, 0]) > 1.0

    def test_cov_empty_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_cov_all_zero(self):
        assert coefficient_of_variation([0, 0]) == 0.0

    def test_profile_replication_overhead(self):
        # One big rect spanning everything is replicated to all partitions.
        mbrs = [Rect(0, 0, 100, 100), Rect(1, 1, 2, 2)]
        profile = profile_partitioning(mbrs, UNIVERSE, 4, 16, SCHEME_HASH)
        assert profile.input_tuples == 2
        assert profile.placed_tuples >= 5  # 4 copies + 1
        assert profile.replication_overhead >= 1.5

    def test_profile_no_replication_for_tiny_rects(self):
        # Points strictly inside distinct tiles are never replicated.
        grid = TileGrid.for_tiles(UNIVERSE, 16)
        mbrs = []
        for t in range(grid.num_tiles):
            tr = grid.tile_rect(t)
            cx, cy = tr.center
            mbrs.append(Rect(cx, cy, cx, cy))
        profile = profile_partitioning(mbrs, UNIVERSE, 4, 16, SCHEME_ROUND_ROBIN)
        assert profile.replication_overhead == 0.0

    def test_finer_tiles_improve_balance_on_skew(self):
        # All data in one corner: with tiles == partitions everything maps
        # to one partition; with many hashed tiles the load spreads.
        mbrs = [
            Rect(x / 10, y / 10, x / 10 + 0.05, y / 10 + 0.05)
            for x in range(100)
            for y in range(100)
        ]  # all inside [0, 10) x [0, 10) — one corner of the universe
        coarse = profile_partitioning(mbrs, UNIVERSE, 4, 4, SCHEME_HASH)
        fine = profile_partitioning(mbrs, UNIVERSE, 4, 1600, SCHEME_HASH)
        assert fine.cov < coarse.cov
