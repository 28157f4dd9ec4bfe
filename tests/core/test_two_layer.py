"""Two-layer partitioning, property-checked.

Three invariants carry the whole duplicate-free design:

* **assignment** — every object lands in exactly one ``(tile, class)``
  slot per tile its MBR overlaps, with exactly one class-A slot (the
  tile holding the MBR's bottom-left corner, after clamping);
* **uniqueness** — for any intersecting pair, exactly *one* shared tile
  carries a class combination the mini-join table enables, and it is the
  pair's reference tile;
* **end-to-end** — partitioning both inputs and merging every partition
  emits each intersecting pair exactly once, with no coordinator dedup.

These hold for arbitrary rectangles (degenerate, clamped, spanning),
which is what Hypothesis is for.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    ALLOWED_CLASS_COMBOS,
    ALLOWED_COMBO_TABLE,
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    SCHEME_HASH,
    SCHEME_ROUND_ROBIN,
    SpatialPartitioner,
    TileGrid,
    rect_array,
)
from repro.core.pbsm import merge_partition_pair
from repro.geometry import Rect

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)


@st.composite
def universe_rects(draw, max_size=40.0):
    # Deliberately allowed to poke outside the universe: clamping is part
    # of the contract under test.
    x = draw(st.floats(min_value=-10, max_value=105))
    y = draw(st.floats(min_value=-10, max_value=105))
    w = draw(st.floats(min_value=0, max_value=max_size))
    h = draw(st.floats(min_value=0, max_value=max_size))
    return Rect(x, y, x + w, y + h)


@st.composite
def grids(draw):
    rows = draw(st.integers(min_value=1, max_value=9))
    cols = draw(st.integers(min_value=1, max_value=9))
    return TileGrid(UNIVERSE, rows=rows, cols=cols)


class TestAssignment:
    @given(grids(), universe_rects())
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_slot_per_overlapped_tile(self, grid, rect):
        assignments = grid.tile_assignments(rect)
        tiles = [tile for tile, _cls in assignments]
        # One slot per overlapped tile, no tile twice, nothing invented.
        r0, r1, c0, c1 = grid.tile_span(rect)
        rows, cols = range(r0, r1 + 1), range(c0, c1 + 1)
        assert tiles == [grid.tile_id(r, c) for r in rows for c in cols]
        assert len(tiles) == len(set(tiles))
        # The batch twin places it in the same slots, in the same order.
        _ordinal, tile, cls = grid.slots_all(rect_array([rect]))
        assert list(zip(tile.tolist(), cls.tolist())) == assignments

    @given(grids(), universe_rects())
    @settings(max_examples=300, deadline=None)
    def test_classes_encode_position_relative_to_the_first_tile(
        self, grid, rect
    ):
        r0, r1, c0, c1 = grid.tile_span(rect)
        expected_class = {
            (r, c): (
                CLASS_A if (r == r1 and c == c0)
                else CLASS_B if r == r1
                else CLASS_C if c == c0
                else CLASS_D
            )
            for r in range(r0, r1 + 1)
            for c in range(c0, c1 + 1)
        }
        by_class = Counter()
        for tile, cls in grid.tile_assignments(rect):
            r, c = divmod(tile, grid.cols)
            assert cls == expected_class[(r, c)]
            by_class[cls] += 1
        # Exactly one class-A copy: the tile holding the clamped
        # bottom-left corner — the object's "first" tile.
        assert by_class[CLASS_A] == 1


def oracle_routing(partitioner, rects):
    """The scalar routing rule, one rectangle at a time: per partition,
    the ``(ordinal, tile, class)`` rows in input order, a rectangle's
    slots in ``tile_assignments`` order."""
    rows = [[] for _ in range(partitioner.num_partitions)]
    for ordinal, rect in enumerate(rects):
        for tile, cls in partitioner.tile_assignments(rect):
            rows[partitioner.partition_of_tile(tile)].append(
                (ordinal, tile, cls)
            )
    return rows


@st.composite
def routing_cases(draw):
    """A partitioner and rectangles biased toward what batch arithmetic
    gets wrong first: bounds exactly on tile edges (and one ulp either
    side), zero-area MBRs, MBRs on and beyond the universe's edges."""
    num_partitions = draw(st.sampled_from([1, 3, 8, 16]))
    partitioner = SpatialPartitioner(
        UNIVERSE,
        num_partitions,
        num_partitions + draw(st.integers(min_value=0, max_value=60)),
        draw(st.sampled_from([SCHEME_HASH, SCHEME_ROUND_ROBIN])),
    )
    grid = partitioner.grid
    edges_x = [UNIVERSE.xl + UNIVERSE.width * c / grid.cols
               for c in range(grid.cols + 1)]
    edges_y = [UNIVERSE.yl + UNIVERSE.height * r / grid.rows
               for r in range(grid.rows + 1)]

    def coordinate(edges):
        on_edge = st.sampled_from(edges)
        near_edge = st.builds(
            math.nextafter, on_edge, st.sampled_from([-math.inf, math.inf])
        )
        anywhere = st.floats(min_value=-1e6, max_value=1e6)
        return st.one_of(on_edge, near_edge, anywhere, st.just(1e30))

    def rect():
        xa, xb = draw(coordinate(edges_x)), draw(coordinate(edges_x))
        ya, yb = draw(coordinate(edges_y)), draw(coordinate(edges_y))
        if draw(st.booleans()):  # zero area: a point or a segment
            xb = xa
        return Rect(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))

    return partitioner, [rect() for _ in range(draw(st.integers(0, 12)))]


class TestRouting:
    @given(routing_cases())
    @settings(max_examples=400, deadline=None)
    def test_route_all_equals_the_scalar_oracle(self, case):
        # Every placement in the program goes through route_all's
        # slots_all; the oracle applies the scalar functions one rectangle
        # at a time.  They must agree slot for slot, or copies of one
        # object disagree on their tags.
        partitioner, rects = case
        routed = partitioner.route_all(rect_array(rects))
        assert len(routed) == partitioner.num_partitions
        for slots, expected in zip(routed, oracle_routing(partitioner, rects)):
            assert list(zip(
                slots.ordinal.tolist(), slots.tile.tolist(), slots.cls.tolist()
            )) == expected
            assert slots.tuple_ordinals.tolist() == sorted(
                {ordinal for ordinal, _tile, _cls in expected}
            )

    @given(st.lists(universe_rects(), min_size=1, max_size=8),
           st.lists(universe_rects(), min_size=1, max_size=8))
    def test_for_inputs_takes_the_union_of_both_sides(self, rects_r, rects_s):
        partitioner = SpatialPartitioner.for_inputs(
            rect_array(rects_r), rect_array(rects_s), 4, 16
        )
        assert partitioner.grid.universe == Rect.union_all(rects_r + rects_s)


class TestUniqueness:
    @given(grids(), universe_rects(), universe_rects())
    @settings(max_examples=300, deadline=None)
    def test_enabled_combo_appears_in_exactly_one_shared_tile(
        self, grid, a, b
    ):
        if not a.intersects(b):
            return
        cls_a = dict(grid.tile_assignments(a))
        cls_b = dict(grid.tile_assignments(b))
        enabled = [
            tile
            for tile in cls_a.keys() & cls_b.keys()
            if ALLOWED_COMBO_TABLE[cls_a[tile]][cls_b[tile]]
        ]
        # The reference tile: the pair's (max(xl), max(yl)) corner.
        _, r1_a, c0_a, _ = grid.tile_span(a)
        _, r1_b, c0_b, _ = grid.tile_span(b)
        reference = grid.tile_id(min(r1_a, r1_b), max(c0_a, c0_b))
        assert enabled == [reference]
        # One partition per tile, round robin: the owner is the tile.
        partitioner = SpatialPartitioner(UNIVERSE, grid.num_tiles, scheme=SCHEME_ROUND_ROBIN)
        partitioner.grid = grid
        owners = partitioner.owners(rect_array([a, b]), rect_array([b, a]))
        assert owners.tolist() == [reference, reference]

    @given(grids(), universe_rects(), universe_rects())
    @settings(max_examples=200, deadline=None)
    def test_table_and_frozenset_forms_agree(self, grid, a, b):
        for cls_r in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
            for cls_s in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
                assert ALLOWED_COMBO_TABLE[cls_r][cls_s] == (
                    (cls_r, cls_s) in ALLOWED_CLASS_COMBOS
                )

    def test_mini_join_table_is_the_papers_nine_combos(self):
        assert ALLOWED_CLASS_COMBOS == {
            (CLASS_A, CLASS_A), (CLASS_A, CLASS_B), (CLASS_A, CLASS_C),
            (CLASS_A, CLASS_D), (CLASS_B, CLASS_A), (CLASS_B, CLASS_C),
            (CLASS_C, CLASS_A), (CLASS_C, CLASS_B), (CLASS_D, CLASS_A),
        }


class TestEndToEnd:
    @given(
        st.lists(universe_rects(), min_size=0, max_size=18),
        st.lists(universe_rects(), min_size=0, max_size=18),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([SCHEME_HASH, SCHEME_ROUND_ROBIN]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_result_pair_is_emitted_exactly_once(
        self, rects_r, rects_s, num_partitions, scheme, tile_seed
    ):
        """Partition both sides, merge every partition independently, and
        concatenate: the multiset of emitted pairs is exactly the set of
        intersecting pairs — one copy each, no dedup pass anywhere."""
        num_tiles = num_partitions * (4 + tile_seed)
        partitioner = SpatialPartitioner(
            UNIVERSE, num_partitions, num_tiles, scheme=scheme
        )

        def bucket(rects, keys):
            buckets = {p: [] for p in range(num_partitions)}
            for key, rect in zip(keys, rects):
                for tile, cls in partitioner.tile_assignments(rect):
                    buckets[partitioner.partition_of_tile(tile)].append(
                        (rect, key, tile, cls)
                    )
            return buckets

        buckets_r = bucket(rects_r, range(len(rects_r)))
        buckets_s = bucket(rects_s, range(1000, 1000 + len(rects_s)))

        emitted = Counter()
        for p in range(num_partitions):
            merge_partition_pair(
                buckets_r[p], buckets_s[p],
                lambda a, b: emitted.update([(a, b)]),
                memory=1 << 30,
            )

        expected = {
            (i, 1000 + j)
            for i, rect_r in enumerate(rects_r)
            for j, rect_s in enumerate(rects_s)
            if rect_r.intersects(rect_s)
        }
        assert set(emitted) == expected
        duplicates = {pair: n for pair, n in emitted.items() if n != 1}
        assert not duplicates, f"pairs emitted more than once: {duplicates}"
