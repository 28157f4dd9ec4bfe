"""The refinement step (§3.2), shared by PBSM and the R-tree join.

Input: candidate ``<OID_R, OID_S>`` pairs from a filter step (possibly with
duplicates from tile replication).  The step:

1. sorts the pairs on ``OID_R`` (primary) / ``OID_S`` (secondary) —
   eliminating duplicates during the sort.  When the pair set exceeds the
   memory budget the sort runs externally (sorted runs spilled through the
   buffer pool, k-way merged);
2. reads as many distinct R tuples as fit in the memory budget, in physical
   order (sequential I/O);
3. "swizzles" the pair array to point at the in-memory R tuples and re-sorts
   the batch on ``OID_S``, making the S accesses sequential too;
4. fetches the S tuples and evaluates the exact join predicate.

This is the [Val87]-style strategy the paper uses to avoid random seeks.
"""

from __future__ import annotations

import struct
from collections import abc
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.extsort import ExternalSorter
from ..storage.relation import OID, Relation
from ..storage.tuples import SpatialTuple, tuple_size_bytes
from .predicates import Predicate

# Big-endian packing makes lexicographic byte order equal pair order, so
# packed records sort correctly without unpacking in the sorter's key.
_PAIR = struct.Struct(">IIIIII")

CandidatePair = Tuple[OID, OID]


class SortedPairs(abc.Sequence):
    """A join's answer: ``(r, s)`` feature-id pairs, ascending and each
    once, held as one read-only ``(n, 2)`` int64 ``array``.

    It compares equal to the list of tuples it stands for and builds
    tuples only when iterated or indexed (a slice is a list); the digest
    and the wire read ``array`` itself.  :func:`merge_sorted_unique` makes
    it, and its sort is what the order rests on: ``SortedPairs()`` is the
    empty answer, and any other array handed in must already be sorted and
    distinct."""

    __slots__ = ("array",)

    def __init__(self, array=()):
        self.array = np.asarray(array, np.int64).reshape(-1, 2)
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        rows = self.array[index]
        return list(_tuples(rows)) if isinstance(index, slice) else tuple(rows.tolist())

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return _tuples(self.array)

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedPairs):
            return np.array_equal(self.array, other.array)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"SortedPairs({list(self)!r})"


def _tuples(rows: np.ndarray) -> Iterator[Tuple[int, int]]:
    return zip(rows[:, 0].tolist(), rows[:, 1].tolist())


def merge_sorted_unique(runs: Sequence) -> Tuple[SortedPairs, int]:
    """Merge runs of ``(r, s)`` feature-id pairs — ``(n, 2)`` arrays or
    lists of tuples — into one :class:`SortedPairs`, counting dups:
    ``(merged, dropped)``.

    Under two-layer partitioning every result pair is emitted by exactly
    one partition pair, so the runs are disjoint and ``dropped`` must read
    0 — the coordinator surfaces it as ``merge.duplicates_dropped``
    instead of silently paying a sorted-set union, and CI gates on it
    staying zero.  Disjoint runs need no interleave: one sort of all of
    them is the merge.  Ids that fit 32 bits sort as one uint64 key
    (``r << 32 | s``); wider or negative ones take a lexsort.
    """
    runs = [np.asarray(run, np.int64).reshape(-1, 2) for run in runs]
    pairs = np.concatenate([np.empty((0, 2), np.int64), *runs])
    if pairs.size and pairs.min() >= 0 and pairs.max() < 2**32:
        key = pairs.astype(np.uint64)
        key = np.sort(key[:, 0] << np.uint64(32) | key[:, 1])
        pairs = np.column_stack((key >> np.uint64(32), key & np.uint64(2**32 - 1)))
    else:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    merged, dropped = drop_adjacent(pairs)
    return SortedPairs(merged), dropped


def drop_adjacent(pairs: np.ndarray) -> Tuple[np.ndarray, int]:
    """A sorted ``(n, 2)`` pair array without its adjacent repeats, and how
    many there were: ``pairs`` itself, uncopied, when there were none."""
    repeat = (pairs[1:, 0] == pairs[:-1, 0]) & (pairs[1:, 1] == pairs[:-1, 1])
    dropped = int(np.count_nonzero(repeat))
    return (pairs[np.concatenate(([True], ~repeat))] if dropped else pairs), dropped


def dedup_sorted_pairs(pairs: List[CandidatePair]) -> List[CandidatePair]:
    """Drop adjacent duplicates from a sorted pair list."""
    out: List[CandidatePair] = []
    prev: Optional[CandidatePair] = None
    for pair in pairs:
        if pair != prev:
            out.append(pair)
            prev = pair
    return out


def _dedup_stream(pairs: Iterator[CandidatePair]) -> Iterator[CandidatePair]:
    prev: Optional[CandidatePair] = None
    for pair in pairs:
        if pair != prev:
            yield pair
            prev = pair


def _sorted_unique_pairs(
    rel_r: Relation,
    candidates: Sequence[CandidatePair],
    memory_bytes: int,
) -> Iterator[CandidatePair]:
    """Candidates in (OID_R, OID_S) order with duplicates removed.

    Small sets sort in memory; sets larger than the memory budget go
    through the external sorter using the relation's buffer pool.
    """
    if len(candidates) * _PAIR.size <= memory_bytes:
        return iter(dedup_sorted_pairs(sorted(candidates)))
    sorter = ExternalSorter(
        rel_r.heap.pool, key=lambda record: record, memory_bytes=memory_bytes
    )
    for oid_r, oid_s in candidates:
        sorter.add(_PAIR.pack(*oid_r, *oid_s))
    unpacked = (
        (OID(a, b, c), OID(d, e, f))
        for a, b, c, d, e, f in (
            _PAIR.unpack(record) for record in sorter.sorted_records()
        )
    )
    return _dedup_stream(unpacked)


def refine(
    rel_r: Relation,
    rel_s: Relation,
    candidates: Sequence[CandidatePair],
    predicate: Predicate,
    memory_bytes: int,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[CandidatePair]:
    """Run the full refinement step; returns the exact join result pairs."""
    if memory_bytes <= 0:
        raise ValueError("memory budget must be positive")
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS

    with tracer.span("refine.sort_dedup", candidates=len(candidates)):
        stream = _sorted_unique_pairs(rel_r, candidates, memory_bytes)
        # The in-memory path sorts eagerly here; the external path has
        # already built sorted runs, but merges lazily inside the batches.
        pending: Optional[CandidatePair] = next(stream, None)

    results: List[CandidatePair] = []
    # Reserve part of the budget for the S side (one tuple at a time plus
    # buffer-pool residency); the R batch gets the rest.
    r_budget = max(memory_bytes // 2, 1)
    batch_no = 0
    batch_size_hist = metrics.histogram("refine.pairs_per_batch")

    while pending is not None:
        with tracer.span("refine.batch", batch=batch_no) as span:
            # ---- load a memory-full batch of distinct R tuples ---- #
            batch: Dict[OID, SpatialTuple] = {}
            swizzled: List[Tuple[OID, SpatialTuple, OID]] = []
            used = 0
            while pending is not None:
                oid_r, oid_s = pending
                tuple_r = batch.get(oid_r)
                if tuple_r is None:
                    tuple_r = rel_r.fetch(oid_r)
                    size = tuple_size_bytes(tuple_r)
                    if batch and used + size > r_budget:
                        break  # batch full; ``pending`` starts the next one
                    batch[oid_r] = tuple_r
                    used += size
                swizzled.append((oid_s, tuple_r, oid_r))
                pending = next(stream, None)

            # ---- swizzled pairs sorted on OID_S: S accesses sequential ---- #
            swizzled.sort(key=lambda item: item[0])
            s_fetches = 0
            last_oid_s: Optional[OID] = None
            last_tuple_s: Optional[SpatialTuple] = None
            for oid_s, tuple_r, oid_r in swizzled:
                if oid_s != last_oid_s:
                    last_tuple_s = rel_s.fetch(oid_s)
                    last_oid_s = oid_s
                    s_fetches += 1
                assert last_tuple_s is not None
                if predicate(tuple_r, last_tuple_s):
                    results.append((oid_r, oid_s))

            span.tag("pairs", len(swizzled))
            span.tag("r_tuples", len(batch))
            span.tag("s_fetches", s_fetches)
            batch_size_hist.observe(len(swizzled))
            metrics.counter("refine.r_tuples_fetched").inc(len(batch))
            metrics.counter("refine.s_tuples_fetched").inc(s_fetches)
            metrics.counter("refine.pairs_checked").inc(len(swizzled))
            batch_no += 1

    metrics.counter("refine.batches").inc(batch_no)
    metrics.counter("refine.results").inc(len(results))
    results.sort()
    return results
