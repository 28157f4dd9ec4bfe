"""The tiled spatial partitioning function of §3.4, plus Equation 1.

The universe is regularly decomposed into ``NT >= P`` tiles, numbered
row-major from the upper-left corner; each tile is mapped to one of the
``P`` partitions by round robin or by hashing the tile number.  A key-pointer
element is inserted into *every* partition whose tiles its MBR overlaps.

Replication is **two-layer** (Tsitsigkos et al., "Parallel In-Memory
Evaluation of Spatial Joins"): each copy carries a class tag relative to
the MBR's *first* tile — the tile containing its bottom-left corner:

* class **A** — the first tile itself (holds the MBR's ``(xl, yl)``);
* class **B** — same bottom tile row, further right: the MBR enters the
  tile across its *left* border;
* class **C** — same left tile column, further up: enters across the
  *bottom* border;
* class **D** — up and right of the first tile: enters across the corner
  (both borders).

A candidate pair is emitted only inside the tile that holds the pair's
*reference point* ``(max(xl_r, xl_s), max(yl_r, yl_s))`` — equivalently,
only for the class combinations in :data:`ALLOWED_CLASS_COMBOS` — so the
merge output is duplicate-free by construction and no sorted-set dedup
barrier is needed downstream.

This is the spatial analog of virtual-processor round-robin partitioning
for skew handling in parallel relational joins [DNSS92]; Figure 4 (partition
balance), Figures 5/6 (replication overhead) and the round-robin "spikes"
all come from this module's behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..geometry import Rect
from .keypointer import KEYPTR_SIZE

SCHEME_ROUND_ROBIN = "round_robin"
SCHEME_HASH = "hash"
SCHEMES = (SCHEME_ROUND_ROBIN, SCHEME_HASH)

CLASS_A = 0
"""The copy in the MBR's first tile (contains its bottom-left corner)."""
CLASS_B = 1
"""Crosses only the tile's left border (same bottom row, right of A)."""
CLASS_C = 2
"""Crosses only the tile's bottom border (same column, above A)."""
CLASS_D = 3
"""Crosses both borders (up and right of the first tile)."""

CLASS_NAMES = "ABCD"

ALLOWED_CLASS_COMBOS = frozenset({
    (CLASS_A, CLASS_A), (CLASS_A, CLASS_B), (CLASS_A, CLASS_C),
    (CLASS_A, CLASS_D),
    (CLASS_B, CLASS_A), (CLASS_B, CLASS_C),
    (CLASS_C, CLASS_A), (CLASS_C, CLASS_B),
    (CLASS_D, CLASS_A),
})
"""The mini-join table: the 9 (class_r, class_s) combinations a tile may
join without ever producing a duplicate.  A combination is allowed in tile
T iff T holds the pair's reference point, i.e. the tile column is the
first column of r *or* of s (``class in {A, C}``) and the tile row is the
bottom row of r *or* of s (``class in {A, B}``)."""

ALLOWED_COMBO_TABLE: Tuple[Tuple[bool, bool, bool, bool], ...] = tuple(
    tuple((cr, cs) in ALLOWED_CLASS_COMBOS for cs in range(4))
    for cr in range(4)
)
""":data:`ALLOWED_CLASS_COMBOS` as a 4x4 lookup (``table[cls_r][cls_s]``)
for the merge's emit filter hot path."""

TileAssignment = Tuple[int, int]
"""One replica slot: ``(tile id, class)``."""


def rect_array(rects: Sequence[Rect]) -> np.ndarray:
    """The N×4 float64 ``(xl, yl, xu, yu)`` array of the rectangles — the
    form batch routing and batch rounding take an input in."""
    flat = np.fromiter(
        (bound for r in rects for bound in (r.xl, r.yl, r.xu, r.yu)),
        np.float64,
        4 * len(rects),
    )
    return flat.reshape(len(rects), 4)


def mbr_array(items: Sequence) -> np.ndarray:
    """:func:`rect_array` of the items' ``.mbr``."""
    return rect_array([item.mbr for item in items])


class RoutedSlots(NamedTuple):
    """Replica slots of an input, as columns — every slot
    (:meth:`TileGrid.slots_all`) or one partition's
    (:meth:`SpatialPartitioner.route_all`).

    Row ``i`` is one ``(tile, class)`` slot of input tuple ``ordinal[i]``;
    rows are in input order, a tuple's slots in ``tile_assignments``
    order (so they are adjacent)."""

    ordinal: np.ndarray
    tile: np.ndarray
    cls: np.ndarray

    @property
    def tuple_ordinals(self) -> np.ndarray:
        """The distinct tuples placed in the partition, in input order."""
        ordinal = self.ordinal
        keep = np.ones(len(ordinal), dtype=bool)
        keep[1:] = ordinal[1:] != ordinal[:-1]
        return ordinal[keep]


def estimate_num_partitions(
    card_r: int,
    card_s: int,
    memory_bytes: int,
    keyptr_size: int = KEYPTR_SIZE,
) -> int:
    """Equation 1: ``P = ceil((||R|| + ||S||) * size_keyptr / M)``."""
    if memory_bytes <= 0:
        raise ValueError("memory budget must be positive")
    return max(1, math.ceil((card_r + card_s) * keyptr_size / memory_bytes))


def _hash_tile(tile):
    """A deterministic integer hash (Fibonacci multiply + xor-fold) of a
    tile number, or elementwise of a ``uint64`` array of them.

    The xor-fold matters: a bare multiplicative hash keeps its low bits
    equal to ``tile``'s low bits, which would make ``hash % P`` collapse to
    round robin whenever P divides a power of two.
    """
    h = (tile * 0x9E3779B1) & 0xFFFFFFFF
    return h ^ (h >> 16)


@dataclass(frozen=True)
class TileGrid:
    """A regular rows x cols decomposition of a universe rectangle."""

    universe: Rect
    rows: int
    cols: int

    @staticmethod
    def for_tiles(universe: Rect, num_tiles: int) -> "TileGrid":
        """Near-square grid with at least ``num_tiles`` tiles."""
        if num_tiles < 1:
            raise ValueError("need at least one tile")
        cols = max(1, round(math.sqrt(num_tiles)))
        rows = max(1, math.ceil(num_tiles / cols))
        return TileGrid(universe, rows, cols)

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def tile_id(self, row: int, col: int) -> int:
        """Row-major numbering from the upper-left corner (§3.4)."""
        return row * self.cols + col

    def tile_span(self, rect: Rect) -> Tuple[int, int, int, int]:
        """The rectangle's tile range ``(r0, r1, c0, c1)``, clamped.

        ``r1`` is the *bottom* row (row 0 is the upper row, per the
        paper's figure) and ``c0`` the left column, so the first tile —
        the one holding the MBR's bottom-left corner — is ``(r1, c0)``.
        """
        u = self.universe
        width = u.width or 1.0
        height = u.height or 1.0
        c0 = int((rect.xl - u.xl) / width * self.cols)
        c1 = int((rect.xu - u.xl) / width * self.cols)
        r0 = int((u.yu - rect.yu) / height * self.rows)
        r1 = int((u.yu - rect.yl) / height * self.rows)
        c0 = min(max(c0, 0), self.cols - 1)
        c1 = min(max(c1, 0), self.cols - 1)
        r0 = min(max(r0, 0), self.rows - 1)
        r1 = min(max(r1, 0), self.rows - 1)
        return r0, r1, c0, c1

    def tile_span_all(self, mbrs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """:meth:`tile_span` over an N×4 float64 ``(xl, yl, xu, yu)``
        array: four int64 columns ``(r0, r1, c0, c1)``.

        The same f64 arithmetic, operation for operation; clamping before
        the truncation instead of after it gives the same integers and
        keeps out-of-universe values inside int64."""
        u = self.universe
        width = u.width or 1.0
        height = u.height or 1.0

        def index(distance: np.ndarray, extent: float, count: int) -> np.ndarray:
            return np.clip(distance / extent * count, 0, count - 1).astype(np.int64)

        return (
            index(u.yu - mbrs[:, 3], height, self.rows),
            index(u.yu - mbrs[:, 1], height, self.rows),
            index(mbrs[:, 0] - u.xl, width, self.cols),
            index(mbrs[:, 2] - u.xl, width, self.cols),
        )

    def tile_assignments(self, rect: Rect) -> List[TileAssignment]:
        """Every overlapped tile with its two-layer class tag.

        Exactly one assignment per overlapped tile, and exactly one of
        them is class A (the first tile, ``(r1, c0)``); the split into
        B/C/D records which of that tile's borders the MBR crossed to
        reach each other tile.  The scalar form of :meth:`slots_all`:
        the tests' oracle and the benchmark replay's router.
        """
        r0, r1, c0, c1 = self.tile_span(rect)
        out: List[TileAssignment] = []
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                if r == r1:
                    cls = CLASS_A if c == c0 else CLASS_B
                else:
                    cls = CLASS_C if c == c0 else CLASS_D
                out.append((self.tile_id(r, c), cls))
        return out

    def slots_all(self, mbrs: np.ndarray) -> RoutedSlots:
        """Every two-layer ``(tile, class)`` slot of an N×4 float64
        ``(xl, yl, xu, yu)`` array, as columns: rows in input order, each
        MBR's slots in :meth:`tile_assignments` order.

        This is the placement rule every caller shares — the spill pass
        and the serial join through :meth:`SpatialPartitioner.route_all`,
        single-node PBSM a heap page at a time, §3.5 repartitioning on a
        finer grid — and it agrees slot for slot with
        :meth:`tile_assignments` applied to each rectangle in turn: the
        merge's per-tile class filter is only duplicate-free when every
        copy of an object carries the same tags whoever placed it.
        """
        r0, r1, c0, c1 = self.tile_span_all(mbrs)
        width = c1 - c0 + 1
        slots = (r1 - r0 + 1) * width
        ordinal = np.repeat(np.arange(len(mbrs)), slots)
        # Position of each slot inside its MBR's row-major tile block.
        within = np.arange(len(ordinal)) - np.repeat(np.cumsum(slots) - slots, slots)
        row = r0[ordinal] + within // width[ordinal]
        col = c0[ordinal] + within % width[ordinal]
        # Off the bottom row is C, off the left column is B, both is D.
        cls = (row != r1[ordinal]) * CLASS_C + (col != c0[ordinal]) * CLASS_B
        return RoutedSlots(ordinal, row * self.cols + col, cls)

    def tile_rect(self, tile: int) -> Rect:
        """The geometric extent of a tile (for visualisation/tests)."""
        row, col = divmod(tile, self.cols)
        u = self.universe
        tw = u.width / self.cols
        th = u.height / self.rows
        return Rect(
            u.xl + col * tw,
            u.yu - (row + 1) * th,
            u.xl + (col + 1) * tw,
            u.yu - row * th,
        )


class SpatialPartitioner:
    """Maps MBRs to the PBSM partitions their tiles belong to."""

    def __init__(
        self,
        universe: Rect,
        num_partitions: int,
        num_tiles: int | None = None,
        scheme: str = SCHEME_HASH,
    ):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if num_tiles is None:
            num_tiles = num_partitions
        if num_tiles < num_partitions:
            raise ValueError(
                f"num_tiles ({num_tiles}) must be >= num_partitions "
                f"({num_partitions})"
            )
        self.grid = TileGrid.for_tiles(universe, num_tiles)
        self.num_partitions = num_partitions
        self.scheme = scheme

    @classmethod
    def for_inputs(
        cls,
        mbrs_r: np.ndarray,
        mbrs_s: np.ndarray,
        num_partitions: int,
        num_tiles: int,
        scheme: str = SCHEME_HASH,
    ) -> "SpatialPartitioner":
        """The partitioner a join of these two (non-empty) inputs uses,
        from their N×4 ``(xl, yl, xu, yu)`` MBR arrays (:func:`mbr_array`):
        the universe is the union of both sides' MBRs, tiled at least once
        per partition.  Every parallel backend and the serve tier's
        admission estimate build theirs here, so they always agree on the
        grid."""
        low = np.minimum(mbrs_r[:, :2].min(axis=0), mbrs_s[:, :2].min(axis=0))
        high = np.maximum(mbrs_r[:, 2:].max(axis=0), mbrs_s[:, 2:].max(axis=0))
        universe = Rect(float(low[0]), float(low[1]), float(high[0]), float(high[1]))
        return cls(
            universe, num_partitions, max(num_tiles, num_partitions), scheme
        )

    @property
    def num_tiles(self) -> int:
        return self.grid.num_tiles

    def partition_of_tile(self, tile):
        """The partition of a tile number (or of each of a ``uint64``
        array of them)."""
        if self.scheme == SCHEME_ROUND_ROBIN:
            return tile % self.num_partitions
        return _hash_tile(tile) % self.num_partitions

    def tile_assignments(self, rect: Rect) -> List[TileAssignment]:
        """The MBR's two-layer ``(tile, class)`` replica slots."""
        return self.grid.tile_assignments(rect)

    def route_all(self, mbrs: np.ndarray) -> List[RoutedSlots]:
        """Every MBR's replica slots (:meth:`TileGrid.slots_all`), grouped
        by receiving partition: element ``p`` of the result holds
        partition ``p``'s slots, in input order."""
        ordinal, tile, cls = self.grid.slots_all(mbrs)
        partition = self.partition_of_tile(tile.astype(np.uint64))
        order = np.argsort(partition, kind="stable")
        bounds = np.searchsorted(
            partition[order], np.arange(self.num_partitions + 1)
        )
        return [
            RoutedSlots(ordinal[chosen], tile[chosen], cls[chosen])
            for chosen in (
                order[start:end] for start, end in zip(bounds, bounds[1:])
            )
        ]

    def owners(self, mbrs_r: np.ndarray, mbrs_s: np.ndarray) -> np.ndarray:
        """The partition whose merge emits each pair ``(mbrs_r[i],
        mbrs_s[i])`` — the global uniqueness anchor for dedup-free merging.

        A pair's reference tile holds its reference point ``(max(xl),
        max(yl))``: column ``max(c0_r, c0_s)``, row ``min(r1_r, r1_s)``.
        For overlapping MBRs it is the unique tile both are assigned to
        whose class combination :data:`ALLOWED_CLASS_COMBOS` admits."""
        _, r1_r, c0_r, _ = self.grid.tile_span_all(mbrs_r)
        _, r1_s, c0_s, _ = self.grid.tile_span_all(mbrs_s)
        tile = np.minimum(r1_r, r1_s) * self.grid.cols + np.maximum(c0_r, c0_s)
        return self.partition_of_tile(tile.astype(np.uint64))


# ---------------------------------------------------------------------- #
# partition-quality metrics (Figures 4–6)
# ---------------------------------------------------------------------- #


def coefficient_of_variation(counts: Sequence[int]) -> float:
    """Std-dev / mean of a partition size distribution (Figure 4 metric)."""
    if not counts:
        raise ValueError("no partitions")
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    return math.sqrt(var) / mean


@dataclass
class PartitioningProfile:
    """Outcome of test-partitioning a dataset (no I/O, statistics only)."""

    counts: List[int]
    input_tuples: int
    placed_tuples: int

    @property
    def replication_overhead(self) -> float:
        """Fractional increase in tuples due to replication (Figures 5/6)."""
        if self.input_tuples == 0:
            return 0.0
        return (self.placed_tuples - self.input_tuples) / self.input_tuples

    @property
    def cov(self) -> float:
        return coefficient_of_variation(self.counts)


def profile_partitioning(
    mbrs: Sequence[Rect],
    universe: Rect,
    num_partitions: int,
    num_tiles: int,
    scheme: str,
) -> PartitioningProfile:
    """Dry-run the partitioning function over a sequence of MBRs."""
    partitioner = SpatialPartitioner(universe, num_partitions, num_tiles, scheme)
    counts = [
        len(routed.tuple_ordinals)
        for routed in partitioner.route_all(rect_array(mbrs))
    ]
    return PartitioningProfile(counts, len(mbrs), sum(counts))
