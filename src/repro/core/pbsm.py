"""PBSM — Partition Based Spatial-Merge join (§3, the paper's contribution).

Execution plan::

    Partition R   scan R, append <MBR, OID> key-pointers to partition files
    Partition S   same for S (same partitioning function)
    Merge         per partition pair: read both sides into memory, sort on
                  MBR.xl, plane-sweep, emit candidate OID pairs
    Refinement    sort + dedup candidates, batched fetch, exact predicate

The number of partitions follows Equation 1; the partitioning function is
the tiled scheme of §3.4, replicated under the **two-layer** class scheme
of :mod:`repro.core.partition`: every key-pointer carries its ``(tile,
class)`` slot, the merge sweeps each tile's group separately, and the
emit filter admits only the class combinations of the mini-join table.
Each result pair therefore surfaces at exactly one tile — the one holding
its reference point — and the candidate stream is duplicate-free by
construction; no sorted-set dedup barrier is needed downstream.  When a
single partition pair fits in memory (P = 1) the key-pointers are kept in
memory and the merge runs directly, as the paper describes for small
inputs.

§3.5's partition-skew handling (dynamic repartitioning of an overflown
tile group) is *not* in the paper's implementation; here it is available
behind ``PBSMConfig.handle_partition_skew`` as a documented extension.
The recursion re-tiles the group with a finer grid and re-tags each copy,
folding the parent tile's class filter into the recursive emit — so the
output stays duplicate-free at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..geometry import Rect, sweep_join, sweep_join_interval_tree
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.buffer import BufferPool
from ..storage.disk import PAGE_SIZE
from ..storage.relation import Relation
from .keypointer import KEYPTR_SIZE, CandidateFile, KeyPointer, KeyPointerFile
from .partition import (
    ALLOWED_COMBO_TABLE,
    CLASS_A,
    SCHEME_HASH,
    SpatialPartitioner,
    TileGrid,
    estimate_num_partitions,
    rect_array,
)
from .predicates import Predicate
from .refine import refine
from .stats import JoinReport, JoinResult, PhaseMeter

DEFAULT_NUM_TILES = 1024
"""The tile count the paper settled on for its experiments (§4.3)."""

K = TypeVar("K")
"""Key-pointer payload: an OID in the single-node join, a feature id where
tests hold the process backend to it.  The merge phase never looks inside
it."""

TaggedKeyPointer = Tuple[Rect, K, int, int]
"""One merge-phase input record: ``(rect, key, tile, class)`` — the MBR, an
opaque payload, and the copy's two-layer replica slot."""


@dataclass(frozen=True)
class PBSMConfig:
    """Tuning knobs for a PBSM execution.

    Frozen (and containing only plain values), so a config travels by
    pickle to the worker processes of the multiprocess backend unchanged.

    ``use_interval_tree`` and ``handle_partition_skew`` choose *how*
    :func:`merge_partition_pair` finds a tile group's intersecting pairs,
    never which pairs: they matter to single-node :class:`PBSMJoin` (and
    its cost meter) and change nothing a worker of the process backend
    emits — its filter step is one array join
    (:func:`repro.parallel.tasks.sweep_pair`) that bounds its temporaries
    by chunking rather than by recursion.
    """

    num_tiles: int = DEFAULT_NUM_TILES
    scheme: str = SCHEME_HASH
    memory_bytes: Optional[int] = None
    """Memory budget M of Equation 1; defaults to the buffer pool size."""
    use_interval_tree: bool = False
    """Footnote-1 variant: interval tree for the y-overlap check."""
    handle_partition_skew: bool = False
    """§3.5 extension: recursively repartition overflowing partition pairs."""
    max_repartition_depth: int = 4
    collect_candidates: bool = False
    """Keep the filter step's candidate OID pairs on the ``JoinResult`` —
    needed by callers that account per-candidate costs (e.g. the parallel
    engine's remote-fetch charging)."""


def merge_partition_pair(
    kps_r: Sequence[Tuple[Rect, K, int, int]],
    kps_s: Sequence[Tuple[Rect, K, int, int]],
    emit: Callable[[K, K], None],
    memory: int,
    config: Optional[PBSMConfig] = None,
    *,
    depth: int = 0,
    label: str = "0",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Plane-sweep one partition pair; the heart of PBSM's merge phase.

    A module-level function over plain ``(Rect, key, tile, class)``
    sequences so it is independently executable: :class:`PBSMJoin` drives
    it against key-pointer files and a candidate file, and the process
    backend's array join (:func:`repro.parallel.tasks.sweep_pair`) is held
    to its output, pair for pair, by ``tests/parallel/test_array_join.py``.

    The sweep runs per tile group: copies of both sides sharing a tile are
    swept together and a pair is emitted only when its class combination
    is in the mini-join table — i.e. only in the tile holding the pair's
    reference point — so every result pair is emitted *exactly once*
    across all tiles and partitions.  §3.5 skew handling (recursive
    repartitioning of a tile group whose key-pointers exceed ``memory``)
    happens in here, behind ``config.handle_partition_skew``.  Returns the
    number of emitted pairs.
    """
    config = config or PBSMConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    with tracer.span("merge_pair", pair=label, depth=depth) as span:
        span.tag("len_r", len(kps_r))
        span.tag("len_s", len(kps_s))
        if not kps_r or not kps_s:
            return 0

        by_tile_r: Dict[int, List[Tuple[Rect, Tuple[K, int]]]] = {}
        for rect, key, tile, cls in kps_r:
            by_tile_r.setdefault(tile, []).append((rect, (key, cls)))
        by_tile_s: Dict[int, List[Tuple[Rect, Tuple[K, int]]]] = {}
        for rect, key, tile, cls in kps_s:
            by_tile_s.setdefault(tile, []).append((rect, (key, cls)))
        shared_tiles = sorted(by_tile_r.keys() & by_tile_s.keys())
        span.tag("tile_groups", len(shared_tiles))

        emitted = 0

        def filtered_emit(
            payload_r: Tuple[K, int], payload_s: Tuple[K, int]
        ) -> None:
            nonlocal emitted
            key_r, cls_r = payload_r
            key_s, cls_s = payload_s
            if ALLOWED_COMBO_TABLE[cls_r][cls_s]:
                emitted += 1
                emit(key_r, key_s)

        for tile in shared_tiles:
            group_r = by_tile_r[tile]
            group_s = by_tile_s[tile]
            oversized = (len(group_r) + len(group_s)) * KEYPTR_SIZE > memory
            can_recurse = (
                config.handle_partition_skew
                and oversized
                and depth < config.max_repartition_depth
            )
            if can_recurse:
                metrics.counter("pbsm.merge.repartitions").inc()
                emitted += _repartition_pair(
                    group_r, group_s, emit, memory, config,
                    depth=depth, label=f"{label}.t{tile}",
                    tracer=tracer, metrics=metrics,
                )
                continue
            if config.handle_partition_skew and oversized:
                # §3.5 gave up: the depth budget is spent (or was declared
                # spent by the no-progress fast-path in the recursion) and
                # the group still exceeds memory, so this sweep runs
                # over-budget.  Count it — it is the skew-handling failure
                # mode operators need to see.
                metrics.counter("pbsm.merge.repartition_exhausted").inc()
                span.tag("repartition_exhausted", True)
            if config.use_interval_tree:
                sweep_join_interval_tree(group_r, group_s, filtered_emit)
            else:
                sweep_join(group_r, group_s, filtered_emit)

        span.tag("candidates", emitted)
        metrics.counter("pbsm.merge.pairs_swept").inc()
        metrics.histogram("pbsm.merge.inputs_per_pair").observe(
            len(kps_r) + len(kps_s)
        )
        metrics.histogram("pbsm.merge.candidates_per_pair").observe(emitted)
        return emitted


def _repartition_pair(
    group_r: Sequence[Tuple[Rect, Tuple[K, int]]],
    group_s: Sequence[Tuple[Rect, Tuple[K, int]]],
    emit: Callable[[K, K], None],
    memory: int,
    config: PBSMConfig,
    *,
    depth: int,
    label: str,
    tracer: Optional[Tracer],
    metrics: Optional[MetricsRegistry],
) -> int:
    """§3.5 extension: split an overflowing tile group with a finer grid.

    The group's copies are re-tiled over a finer :class:`TileGrid` and
    re-tagged with their sub-tile classes; the parent tile's class filter
    is folded into the recursive emit (each payload carries its class in
    the parent grid), so a pair passes iff it passes the class filter at
    *every* level — exactly-once emission holds at any depth and no
    replicate-and-dedup fallback is ever needed.
    """
    sub_universe = Rect.union_all(rect for rect, _ in group_r).union(
        Rect.union_all(rect for rect, _ in group_s)
    )
    sub_p = max(2, estimate_num_partitions(len(group_r), len(group_s), memory))
    grid = TileGrid.for_tiles(sub_universe, sub_p)

    def retag(group):
        """The group's copies with their sub-tile slots, and the number
        of copies each sub-tile received."""
        ordinal, tile, cls = grid.slots_all(rect_array([rect for rect, _ in group]))
        copies = [
            (*group[i], tile_i, cls_i)
            for i, tile_i, cls_i in zip(ordinal.tolist(), tile.tolist(), cls.tolist())
        ]
        return copies, np.bincount(tile, minlength=grid.num_tiles)

    sub_r, sizes_r = retag(group_r)
    sub_s, sizes_s = retag(group_s)
    shared = (sizes_r > 0) & (sizes_s > 0)
    progress = bool(np.all(
        (sizes_r[shared] < len(group_r)) | (sizes_s[shared] < len(group_s))
    ))
    if not progress and metrics is not None:
        # Every input landed in some single sub-tile whole (e.g. identical
        # rectangles): a finer grid cannot split this group, so recursing
        # further would only re-run the same partitioning.  Jump straight to
        # the depth cap so the children sweep instead of recursing.
        metrics.counter("pbsm.merge.repartition_no_progress").inc()
    next_depth = depth + 1 if progress else config.max_repartition_depth

    delivered = 0

    def deliver(payload_r: Tuple[K, int], payload_s: Tuple[K, int]) -> None:
        nonlocal delivered
        key_r, cls_r = payload_r
        key_s, cls_s = payload_s
        if ALLOWED_COMBO_TABLE[cls_r][cls_s]:
            delivered += 1
            emit(key_r, key_s)

    merge_partition_pair(
        sub_r, sub_s, deliver, memory, config,
        depth=next_depth, label=f"{label}.r",
        tracer=tracer, metrics=metrics,
    )
    return delivered


class PBSMJoin:
    """Partition Based Spatial-Merge join over two relations.

    ``tracer``/``metrics`` opt the execution into ``repro.obs``: per-phase
    and per-partition-pair spans, partition-skew and candidates-per-pair
    histograms.  Both default to shared no-ops, so an uninstrumented join
    costs what it always did.
    """

    def __init__(
        self,
        pool: BufferPool,
        config: Optional[PBSMConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.pool = pool
        self.config = config or PBSMConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # ------------------------------------------------------------------ #

    def run(
        self,
        rel_r: Relation,
        rel_s: Relation,
        predicate: Predicate,
    ) -> JoinResult:
        """Execute the join; returns exact result pairs plus a cost report."""
        report = JoinReport(algorithm="PBSM")
        meter = PhaseMeter(self.pool.disk, report, tracer=self.tracer)
        if len(rel_r) == 0 or len(rel_s) == 0:
            return JoinResult([], report)

        cfg = self.config
        memory = cfg.memory_bytes or self.pool.capacity * PAGE_SIZE
        num_partitions = estimate_num_partitions(len(rel_r), len(rel_s), memory)
        universe = rel_r.universe.union(rel_s.universe)
        partitioner = SpatialPartitioner(
            universe,
            num_partitions,
            max(cfg.num_tiles, num_partitions),
            cfg.scheme,
        )
        report.notes["num_partitions"] = num_partitions
        report.notes["num_tiles"] = partitioner.num_tiles
        self.metrics.gauge("pbsm.num_partitions").set(num_partitions)
        self.metrics.gauge("pbsm.num_tiles").set(partitioner.num_tiles)

        in_memory = num_partitions == 1
        with meter.phase(f"Partition {rel_r.name}"):
            parts_r = self._partition_input(rel_r, partitioner, in_memory)
        with meter.phase(f"Partition {rel_s.name}"):
            parts_s = self._partition_input(rel_s, partitioner, in_memory)
        skew = self.metrics.histogram("pbsm.partition.keypointers")
        for part in (*parts_r, *parts_s):
            skew.observe(part.count if isinstance(part, KeyPointerFile) else len(part))

        candidate_file = CandidateFile(self.pool)
        with meter.phase("Merge Partitions"):
            for index, (part_r, part_s) in enumerate(zip(parts_r, parts_s)):
                self._merge_pair(
                    part_r, part_s, candidate_file, memory,
                    depth=0, label=str(index),
                )
            for part in (*parts_r, *parts_s):
                if isinstance(part, KeyPointerFile):
                    part.drop()
        report.candidates = candidate_file.count

        with meter.phase("Refinement"):
            candidates = candidate_file.read_all()
            candidate_file.drop()
            results = refine(
                rel_r, rel_s, candidates, predicate, memory,
                tracer=self.tracer, metrics=self.metrics,
            )
        report.result_count = len(results)
        result = JoinResult(results, report)
        if cfg.collect_candidates:
            result.candidate_pairs = candidates
        return result

    # ------------------------------------------------------------------ #
    # filter step internals
    # ------------------------------------------------------------------ #

    def _partition_input(
        self,
        relation: Relation,
        partitioner: SpatialPartitioner,
        in_memory: bool,
    ) -> List["KeyPointerFile | List[KeyPointer]"]:
        """Scan a relation, routing key-pointers to the partitions their
        MBRs' tiles map to — one tagged ``(tile, class)`` copy per
        overlapped tile, so the merge can group by tile and apply the
        duplicate-free class filter."""
        if in_memory:
            # P = 1: a single sweep over untiled input cannot produce
            # duplicates, so everything goes into one class-A group.
            bucket: List[KeyPointer] = []
            for oid, t in relation.scan():
                bucket.append((t.mbr, oid, 0, CLASS_A))
            return [bucket]
        files = [KeyPointerFile(self.pool) for _ in range(partitioner.num_partitions)]
        # Routed a heap page at a time, appended in scan order: the
        # interleaving of page reads and key-pointer writes is the I/O
        # the paper measures.
        for page in relation.scan_pages():
            ordinal, tile, cls = partitioner.grid.slots_all(
                rect_array([t.mbr for _oid, t in page])
            )
            partition = partitioner.partition_of_tile(tile.astype(np.uint64))
            for i, tile_i, cls_i, p in zip(
                ordinal.tolist(), tile.tolist(), cls.tolist(), partition.tolist()
            ):
                oid, t = page[i]
                files[p].append(t.mbr, oid, tile_i, cls_i)
        return files

    def _merge_pair(
        self,
        part_r: "KeyPointerFile | List[KeyPointer]",
        part_s: "KeyPointerFile | List[KeyPointer]",
        out: CandidateFile,
        memory: int,
        depth: int,
        label: str = "0",
    ) -> None:
        """Plane-sweep one partition pair, spilling to recursion on skew."""
        kps_r = part_r if isinstance(part_r, list) else part_r.read_all()
        kps_s = part_s if isinstance(part_s, list) else part_s.read_all()
        merge_partition_pair(
            kps_r, kps_s, out.append, memory, self.config,
            depth=depth, label=label, tracer=self.tracer, metrics=self.metrics,
        )
