"""Partition-pair merge tasks: the picklable unit of multiprocess PBSM.

The coordinator partitions both inputs once with PBSM's own tiled
partitioning function and spills, per partition, two kinds of file a worker
process can read back (:mod:`repro.storage.spill`):

* a **key-pointer spill** — packed ``<MBR_f32, feature_id, tile, class>``
  records, the filter step's input: one record per two-layer ``(tile,
  class)`` replica slot (:mod:`repro.core.partition`), so a worker's merge
  groups by tile and applies the duplicate-free class filter without any
  geometry recomputation.  MBRs are rounded conservatively (exactly like
  the single-node key-pointer files), so the sweep's output stays a
  superset of the true result; tile/class tags are computed from the exact
  f64 MBR *before* rounding and persisted;
* a **tuple spill** — the partition's full tuples (``serialize_tuple``
  format), the refinement step's input.

Both are written as *blocks*: one CRC frame holds a partition's share of
a :data:`SPILL_BLOCK_RECORDS`-tuple window of the input — a key-pointer
frame is the records back to back, a tuple frame a feature-id/offset
directory followed by the serialised tuples — so neither side pays a
Python call per record for framing.  A worker reads and checks every frame
of both files and keeps them as the arrays they already are: the filter
step is one array join over the key-pointer records (:func:`sweep_pair`),
and the tuple spill opens as columns (:class:`StoredRecords` — the type
an :class:`InputSide` also gives its own records, for the coordinator's
rebuilds) from which :func:`refine_pair` either gathers coordinate runs
(polylines under ``intersects``, polygons under ``contains``) or decodes,
on first lookup, the tuples a candidate names.

A :class:`PairTask` names those files plus the join configuration; it
pickles in a few hundred bytes no matter how large the partition is.
:func:`run_pair_task` — a module-level function so it imports cleanly
under the ``spawn`` start method — executes merge *and* refinement for one
partition pair and returns exact feature-id result pairs, together with
the worker's spans and metrics in wire form for the coordinator to adopt.

Failure contract: any exception inside a worker is re-raised as
:class:`WorkerTaskError` carrying the pair index, the attempt number, the
worker pid, and the formatted cause — never a bare traceback with no clue
which partition pair died.  Spill corruption is flagged on the error so
the coordinator can quarantine the partition instead of burning retries on
a file that will never read clean.  Tasks may also carry a
:class:`~repro.faults.plan.WorkerFaults` slice of a fault plan, fired at
the top of the task by attempt number.

Flight-recorder hooks: when the coordinator runs a journal
(:mod:`repro.obs.journal`), workers ship their task-lifecycle events
(``task_started``/``task_finished``) back on the result wire alongside
spans and metrics, and ping a **heartbeat queue** — installed in each
pool worker by :func:`init_pool_worker` — at every phase boundary.
The queue is the only channel that outlives a worker crash: a result
wire from a dead process never arrives, but its last heartbeat already
did, which is exactly what the live view and the post-mortem need.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
import traceback
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.keypointer import conservative_f32
from ..core.partition import (
    ALLOWED_COMBO_TABLE,
    RoutedSlots,
    mbr_array,
)
from ..core.pbsm import PBSMConfig
from ..core.predicates import Predicate, contains, intersects
from ..faults.inject import apply_worker_faults
from ..faults.plan import WorkerFaults
from ..geometry.kernels import (
    dense_ranks,
    grouped_keys,
    polygons_contain_each,
    polylines_intersect_each,
    ragged_rows,
)
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.errors import SpillCorruptionError
from ..storage.spill import FRAME_HEADER_SIZE, SpillWriter, read_frames
from ..storage.tuples import (
    SpatialTuple,
    deserialize_tuple,
    polygon_runs,
    polyline_runs,
    serialize_tuple,
)

DEFAULT_TASK_MEMORY = 8 * 1024 * 1024
"""What callers hand :func:`sweep_pair` as ``memory_bytes``: the array
join has nothing to overflow, so no caller has another value to give."""

SPILL_BLOCK_RECORDS = 4096
"""Input ordinals per window, hence the most tuples a block holds: a
partition's share of one window is one frame in each of its files.  Large
enough that framing, CRC and the budget charge are paid per block rather
than per record; small enough that a window's serialised tuples are a few
hundred kilobytes."""

KEYPOINTER_DTYPE = np.dtype(
    [("mbr", "<f4", (4,)), ("fid", "<u4"), ("tile", "<u4"), ("cls", "u1")]
)
"""One spilled key-pointer — conservative f32 MBR + u32 feature id + u32
tile + u8 two-layer class, 25 bytes packed: one two-layer replica slot.  A
key-pointer frame is an array of these, and so is what a worker sweeps."""

_COMBOS = np.array(ALLOWED_COMBO_TABLE)
"""The mini-join table as a ``[class of r, class of s]`` lookup."""

_U32 = np.dtype("<u4")
"""The tuple block's directory words: record count, then one feature id
per record, then ``count + 1`` offsets into the payload area that
follows (``offsets[i]:offsets[i + 1]`` is record ``i``)."""

TupleRecord = Tuple[int, bytes]
"""``(feature_id, serialize_tuple bytes)`` — one tuple on its way to a
tuple spill."""

_FROZEN_PID = 0
"""The process whose inherited heap :func:`run_pair_task` already froze."""

PARENT_POLL_S = 0.25
"""How often a pool worker checks that its coordinator is still alive."""

_HEARTBEAT_QUEUE = None
"""Worker-process global: the coordinator's heartbeat queue, installed by
:func:`init_pool_worker` when the pool is spawned with a journal.
``None`` (the default) keeps the hot path ping-free."""


def init_pool_worker(heartbeats=None) -> None:
    """Pool initializer, run by every worker as it starts.

    *The worker dies with its coordinator.*  A hard-killed coordinator
    cannot shut its pool down, and a worker holds an end of the very pipe
    it waits on for calls (fork-started ones each other's as well), so
    the end-of-file that would stop it never arrives: without this the
    workers sit parentless for ever.  A daemon thread compares
    ``os.getppid()`` with the process that started this one — the same
    under ``fork`` and ``spawn``, in a run's own pool and in a shared
    one — every :data:`PARENT_POLL_S`, and leaves without clean-up, as
    the coordinator did.  Armed here and not by the first task: a worker
    that is still starting when the coordinator dies never gets one.

    *Its heartbeat channel is armed*, if the run journals: passed as
    ``initargs=(queue,)``, because multiprocessing queues survive that
    trip under every start method — they are process-constructor
    arguments, not task payloads.
    """
    global _HEARTBEAT_QUEUE
    _HEARTBEAT_QUEUE = heartbeats
    parent = multiprocessing.parent_process()

    def watch() -> None:
        while os.getppid() == parent.pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watchdog", daemon=True).start()


def _heartbeat(pair: int, attempt: int, phase: str) -> None:
    """Best-effort liveness ping; a sick queue must never fail the task."""
    queue = _HEARTBEAT_QUEUE
    if queue is None:
        return
    try:
        queue.put_nowait(
            {"pid": os.getpid(), "pair": pair, "attempt": attempt,
             "phase": phase}
        )
    except Exception:
        pass


class InputSide(tuple):
    """One materialised join input: the immutable sequence of its tuples,
    owning three column groups that are each built once, on first touch,
    and kept for as long as the input is:

    * the *routing columns* — ``mbrs`` (exact f64 N×4, what routing
      reads), ``mbrs_f32`` (conservatively rounded) and ``fids`` (what a
      key-pointer stores);
    * the *stored form* — ``payload`` (every ``serialize_tuple`` record
      back to back in one ``bytes``), ``offsets`` (N+1 int64: record ``i``
      is ``payload[offsets[i]:offsets[i + 1]]``) and ``crc`` (the
      order-sensitive CRC32 of the records, the run fingerprint's content
      check);
    * ``stored`` — the stored form and ``fids`` as :class:`StoredRecords`,
      sharing their memory: what refinement fetches from when the side
      itself, not a spill of it, is at hand.

    Whoever holds the input across joins (``QuerySpec.generate`` returns
    two of these; the server memoises them) therefore serialises it once;
    an engine handed any other sequence wraps it for the length of the
    run, and ``InputSide(side) is side`` as with any immutable.  This is
    the only place the engine and the server serialise a tuple."""

    _building = threading.RLock()
    """Held by whoever builds a column group, of any side: the builders
    are interpreter-bound, so two of them would take turns anyway.
    (Re-entrant: ``stored`` is built from the other two groups.)"""

    def __new__(cls, tuples: Iterable[SpatialTuple] = ()):
        return tuples if isinstance(tuples, cls) else super().__new__(cls, tuples)

    def __getattr__(self, name: str):
        """Reached only for a column not built yet: build its group — one
        builder at a time, and whoever finds a column missing waits here
        for it, so nobody holds a ``payload`` without its ``offsets``."""
        if name not in (
            "mbrs", "mbrs_f32", "fids", "payload", "offsets", "crc", "stored"
        ):
            raise AttributeError(name)
        with self._building:
            if name in self.__dict__:
                pass  # built while this thread waited for the lock
            elif name in ("payload", "offsets", "crc"):
                records = [serialize_tuple(t) for t in self]
                self.offsets = np.cumsum([0, *map(len, records)], dtype=np.int64)
                self.payload = b"".join(records)
                self.crc = zlib.crc32(self.payload)
            elif name == "stored":
                self.stored = StoredRecords(
                    self.payload, self.offsets[:-1], self.offsets[1:], self.fids, self
                )
            else:
                self.mbrs = mbr_array(self)
                self.mbrs_f32 = conservative_f32(self.mbrs)
                self.fids = np.fromiter((t.feature_id for t in self), _U32, len(self))
        return self.__dict__[name]

    def keypointers(self, routed: RoutedSlots) -> np.ndarray:
        """The key-pointer block of one partition's routed slots: rounded
        MBRs, tags from the exact-MBR routing."""
        block = np.empty(len(routed.ordinal), KEYPOINTER_DTYPE)
        block["mbr"] = self.mbrs_f32[routed.ordinal]
        block["fid"] = self.fids[routed.ordinal]
        block["tile"] = routed.tile
        block["cls"] = routed.cls
        return block

    def records(self, ordinals: np.ndarray) -> List[TupleRecord]:
        """The stored records of the tuples at ``ordinals``."""
        starts, ends = self.offsets[ordinals].tolist(), self.offsets[ordinals + 1].tolist()
        fids, payload = self.fids[ordinals].tolist(), self.payload
        return [(fid, payload[a:b]) for fid, a, b in zip(fids, starts, ends)]

    def blocks(
        self, routed: RoutedSlots
    ) -> Iterator[Tuple[range, np.ndarray, List[TupleRecord]]]:
        """One partition's spill, a block at a time: ``(window,
        key-pointers, tuple records)`` for every window of
        :data:`SPILL_BLOCK_RECORDS` input ordinals the partition places
        tuples of — its ``routed`` slots cut where ``ordinal //
        SPILL_BLOCK_RECORDS`` changes, which is what :func:`spill_bytes`
        counts.  Block after block, the records are the partition's in
        input order."""
        window = routed.ordinal // SPILL_BLOCK_RECORDS
        cuts = np.flatnonzero(np.diff(window, prepend=-1, append=-1)).tolist()
        for start, stop in zip(cuts, cuts[1:]):
            block = RoutedSlots(*(column[start:stop] for column in routed))
            first = int(window[start]) * SPILL_BLOCK_RECORDS
            yield (
                range(first, min(first + SPILL_BLOCK_RECORDS, len(self))),
                self.keypointers(block), self.records(block.tuple_ordinals),
            )


def pack_tuple_block(records: Sequence[TupleRecord]) -> bytes:
    """One tuple frame's payload: directory, then the tuples back to back."""
    fids, payloads = zip(*records)
    directory = np.zeros(2 * len(records) + 2, _U32)
    directory[0] = len(records)
    directory[1 : len(records) + 1] = fids
    directory[len(records) + 2 :] = np.cumsum([len(p) for p in payloads])
    return directory.tobytes() + b"".join(payloads)


def spill_bytes(routed: RoutedSlots, side: InputSide) -> int:
    """The bytes the spill pass puts on disk for one partition's routed
    slots: the block format's footprint, kept beside its writer so the
    two cannot drift, with the record sizes read off ``side.offsets``."""
    placed = routed.tuple_ordinals
    # Ascending, so a new block is a change of quotient.  (Counting them
    # with an index-less ``np.unique`` would import ``numpy.ma``.)
    blocks = (
        int(np.count_nonzero(np.diff(placed // SPILL_BLOCK_RECORDS))) + 1
        if len(placed) else 0
    )
    return (
        blocks * (2 * FRAME_HEADER_SIZE + 2 * _U32.itemsize)
        + len(routed.ordinal) * KEYPOINTER_DTYPE.itemsize
        + len(placed) * 2 * _U32.itemsize
        + int((side.offsets[placed + 1] - side.offsets[placed]).sum())
    )


class WorkerTaskError(RuntimeError):
    """A partition-pair task failed, with enough context to act on it.

    Carries the pair index, attempt number, and worker pid (``0`` when the
    failure happened before a worker could report), plus the formatted
    cause.  ``corruption`` marks spill-file damage: retrying cannot help,
    the coordinator must quarantine and rebuild.
    """

    def __init__(
        self,
        pair_index: int,
        attempt: int,
        worker_pid: int,
        cause_type: str,
        cause_message: str,
        traceback_text: str = "",
        corruption: bool = False,
    ):
        super().__init__(
            f"partition pair {pair_index} failed on attempt {attempt} "
            f"in worker {worker_pid or '<unknown>'}: "
            f"{cause_type}: {cause_message}"
        )
        self.pair_index = pair_index
        self.attempt = attempt
        self.worker_pid = worker_pid
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.traceback_text = traceback_text
        self.corruption = corruption

    def __reduce__(self):
        return (
            WorkerTaskError,
            (
                self.pair_index, self.attempt, self.worker_pid,
                self.cause_type, self.cause_message, self.traceback_text,
                self.corruption,
            ),
        )


class PartitionSpill:
    """Writer for one partition's key-pointer + tuple spill files.

    Records enter a block at a time (:meth:`extend`, the coordinator's
    pass) or one tuple at a time (:meth:`add`, which buffers a block's
    worth and then calls :meth:`extend`): one on-disk format, one place
    that writes it.

    :meth:`close` seals both files, :meth:`abort` deletes whatever reached
    the disk (a failed partitioning pass must not leak ``.kp``/``.tup``
    litter).  With ``atomic=True`` both files stage through ``*.tmp`` and
    only appear under their final names once complete — what checkpointed
    runs need so a resume can trust any spill file that *exists*.  With a
    ``budget`` every block is charged before it is written.
    """

    def __init__(
        self,
        directory: str,
        side: str,
        index: int,
        *,
        atomic: bool = False,
        budget=None,
    ):
        base = os.path.join(directory, f"part{index:04d}.{side}")
        self.kp_path = base + ".kp"
        self.tuple_path = base + ".tup"
        self._kp = SpillWriter(self.kp_path, atomic=atomic, budget=budget)
        self._tuples = SpillWriter(
            self.tuple_path, atomic=atomic, budget=budget
        )
        self.count = 0
        """Key-pointer records spilled — replica slots, which is exactly
        the sweep work a worker will do: the LPT cost seed."""
        self.tuples = 0
        """Tuples spilled (each once, however many slots it has)."""
        self._added: List[Tuple[SpatialTuple, Sequence[Tuple[int, int]]]] = []

    def release_budget(self) -> None:
        """Return both writers' charged bytes (the files left the disk)."""
        self._kp.release_budget()
        self._tuples.release_budget()

    def add(self, t: SpatialTuple, slots: Sequence[Tuple[int, int]]) -> None:
        """Spill one tuple with its two-layer ``(tile, class)`` slots: one
        key-pointer record per slot (the merge's per-tile groups), the
        full tuple once.  ``count`` / ``tuples`` include it once its block
        is written — at the latest by :meth:`close`."""
        self._added.append((t, slots))
        if len(self._added) == SPILL_BLOCK_RECORDS:
            self._extend_added()

    def _extend_added(self) -> None:
        """Hand the tuples buffered by :meth:`add` to :meth:`extend`."""
        added, self._added = self._added, []
        side = InputSide(t for t, _slots in added)
        ordinal = np.repeat(np.arange(len(side)), [len(slots) for _t, slots in added])
        tags = np.array([slot for _t, slots in added for slot in slots], np.int64)
        routed = RoutedSlots(ordinal, *tags.reshape(-1, 2).T)
        self.extend(side.keypointers(routed), side.records(np.arange(len(side))))

    def extend(
        self, keypointers: np.ndarray, records: Sequence[TupleRecord]
    ) -> None:
        """Spill one block: a run of key-pointer records
        (:data:`KEYPOINTER_DTYPE`) and the serialised tuples they point
        to, one frame in each file."""
        self._kp.append(keypointers.tobytes())
        self._tuples.append(pack_tuple_block(records))
        self.count += len(keypointers)
        self.tuples += len(records)

    def close(self) -> None:
        """Write what :meth:`add` still buffers and seal both files."""
        if self._added:
            self._extend_added()
        self._kp.close()
        self._tuples.close()

    def abort(self) -> None:
        """Discard both writes, deleting whatever reached the disk."""
        self._added = []
        self._kp.abort()
        self._tuples.abort()


@dataclass(frozen=True)
class SpillHandle:
    """A sealed partition spill adopted from a checkpoint, read-only.

    Duck-compatible with :class:`PartitionSpill` where the coordinator
    builds tasks (``kp_path`` / ``tuple_path`` / ``count``): a resumed run
    mixes adopted handles and freshly written spills without caring which
    is which.
    """

    kp_path: str
    tuple_path: str
    count: int


def read_keypointer_spill(path: str) -> np.ndarray:
    """A partition's key-pointer records, every frame checked: the
    :data:`KEYPOINTER_DTYPE` array the frames, back to back, already are."""
    blocks = [np.empty(0, KEYPOINTER_DTYPE)]
    for frame in read_frames(path):
        payload = frame.record
        if len(payload) % KEYPOINTER_DTYPE.itemsize:
            raise frame.violation(
                f"key-pointer block of {len(payload)} bytes is not a whole "
                f"number of {KEYPOINTER_DTYPE.itemsize}-byte records"
            )
        blocks.append(np.frombuffer(payload, KEYPOINTER_DTYPE))
    return np.concatenate(blocks)


class StoredRecords(Mapping):
    """A relation's stored records — every ``serialize_tuple`` record in
    one buffer, with the extents and feature id of each — as a read-only
    ``feature id → tuple`` mapping: what refinement fetches from.

    One type, two constructors.  :func:`read_tuple_spill` makes it of a
    partition's ``.tup`` file, and a lookup decodes the record on first
    use (and memoises it): most spilled tuples are never referenced by a
    candidate.  :class:`InputSide` makes it of its own columns, as views,
    and a lookup returns the side's ``live`` tuple — nothing is decoded,
    so a side kept across joins never grows a second copy of itself.
    Either way the records are located through a sorted feature-id index
    built once, and :meth:`columns` serves many of them without building
    a tuple at all.  ``len()`` is the number of records.
    """

    def __init__(
        self, buffer: bytes, starts: np.ndarray, ends: np.ndarray,
        fids: np.ndarray, live: Optional[Sequence[SpatialTuple]] = None,
    ):
        self._buffer, self._starts, self._ends = buffer, starts, ends
        self._fids, self._live = fids, live
        # Stable, so that of two records with one feature id the later is
        # found, as a mapping filled in record order would have it.
        self._order = np.argsort(fids, kind="stable")
        # (int64, as a spill's already are: what a lookup is asked for,
        # so no search converts the index again.)
        self._sorted_fids = fids[self._order].astype(np.int64, copy=False)
        self._found: Dict[int, SpatialTuple] = {}

    def __getitem__(self, feature_id: int) -> SpatialTuple:
        t = self._found.get(feature_id)
        if t is None:
            at = int(self._sorted_fids.searchsorted(feature_id, side="right")) - 1
            if at < 0 or self._sorted_fids[at] != feature_id:
                raise KeyError(feature_id)
            record = self._order[at]
            if self._live is not None:
                t = self._live[record]
            else:
                t = deserialize_tuple(
                    self._buffer[self._starts[record] : self._ends[record]]
                )
            self._found[feature_id] = t
        return t

    def __iter__(self) -> Iterator[int]:
        return iter(self._fids.tolist())

    def __len__(self) -> int:
        return len(self._fids)

    def columns(self, feature_ids: np.ndarray, decode):
        """The records of ``feature_ids`` as the coordinate columns
        ``decode`` makes of them (:func:`~repro.storage.tuples.polyline_runs`
        or :func:`~repro.storage.tuples.polygon_runs`), or ``None`` if one
        of them is not of its geometry; ``KeyError`` for an absent id.
        :meth:`__getitem__` for many ids at once, with no tuple built."""
        at = np.searchsorted(self._sorted_fids, feature_ids, side="right") - 1
        absent = (at < 0) | (self._sorted_fids[at] != feature_ids)
        if absent.any():
            raise KeyError(int(feature_ids[absent][0]))
        records = self._order[at]
        return decode(self._buffer, self._starts[records], self._ends[records])


def read_tuple_spill(path: str) -> StoredRecords:
    """A partition's tuple spill as :class:`StoredRecords`.

    Reads and CRC-checks **every** frame and validates every block
    directory — integrity is a property of the file read, not of the
    tuples used — and keeps the frames' payloads, directories included,
    as the one buffer the records' extents point into.
    """
    payloads: List[bytes] = []
    fids, starts, ends = ([np.empty(0, np.int64)] for _ in range(3))
    base = 0
    for frame in read_frames(path):
        payload = frame.record
        words = np.frombuffer(payload, _U32, len(payload) // _U32.itemsize)
        count = int(words[0]) if len(words) else 0
        body = (2 * count + 2) * _U32.itemsize
        bounds = words[count + 1 : 2 * count + 2].astype(np.int64) + body
        if (
            len(bounds) != count + 1
            or bounds[0] != body
            or bounds[-1] != len(payload)
            or (bounds[1:] < bounds[:-1]).any()
        ):
            raise frame.violation(
                "tuple block directory does not fit its payload"
            )
        payloads.append(payload)
        fids.append(words[1 : count + 1])
        starts.append(bounds[:-1] + base)
        ends.append(bounds[1:] + base)
        base += len(payload)
    return StoredRecords(
        b"".join(payloads), np.concatenate(starts), np.concatenate(ends),
        np.concatenate(fids),
    )


@dataclass(frozen=True)
class PairTask:
    """Everything a worker needs to merge + refine one partition pair."""

    index: int
    kp_r_path: str
    kp_s_path: str
    tuples_r_path: str
    tuples_s_path: str
    count_r: int
    count_s: int
    config: PBSMConfig
    predicate: Predicate
    observe: bool = False
    """Ship wire-form spans and a metrics snapshot back with the result."""
    attempt: int = 0
    """Which dispatch of this pair this is (0 = first); stamps results,
    errors, and fault-injection decisions."""
    faults: Optional[WorkerFaults] = None
    """This pair's slice of the active fault plan, if any."""

    @property
    def cost_estimate(self) -> int:
        """The LPT scheduling seed: total key-pointers in the pair."""
        return self.count_r + self.count_s


@dataclass
class PairTaskResult:
    """One executed partition pair, ready to merge at the coordinator."""

    index: int
    worker_pid: int
    pairs: List[Tuple[int, int]]
    candidates: int
    count_r: int
    count_s: int
    wall_s: float
    attempt: int = 0
    degraded: bool = False
    """True when the coordinator rebuilt this pair serially after the
    process path gave up on it (retry exhaustion or quarantined spill)."""
    degraded_reason: str = ""
    duplicates_dropped: int = 0
    """Duplicate candidates this pair's refinement had to drop.  Two-layer
    partitioning makes pair output duplicate-free by construction, so this
    must read 0; anything else is an invariant violation the coordinator
    rolls up into ``merge.duplicates_dropped``."""
    spans: List[dict] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    """Worker-side journal events (task_started/task_finished) with
    worker-relative ``t`` timestamps, shipped on the wire like spans; the
    coordinator re-emits them into its journal as ``worker_t``."""


def sweep_pair(
    kps_r: np.ndarray,
    kps_s: np.ndarray,
    memory_bytes: int,
    config: PBSMConfig,
    *,
    label: str,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> List[Tuple[int, int]]:
    """The filter step for one in-memory pair: candidate feature-id pairs.

    One array join over both sides' :data:`KEYPOINTER_DTYPE` records that
    emits what :func:`~repro.core.pbsm.merge_partition_pair` emits — per
    shared tile, every ``(r, s)`` whose closed MBRs meet and whose class
    combination the mini-join table admits, each exactly once — in no
    particular order.  The x-bounds of both sides are replaced by their
    ranks, so ``(tile, x)`` is one int64 key; with each side sorted on
    ``(tile, xl)``, the partners of a record are a contiguous range found
    by two binary searches: as the sweep has it, ``r`` meets the ``s`` that
    start inside it (``r.xl <= s.xl <= r.xu``) and ``s`` the ``r`` that
    start strictly inside it (``s.xl < r.xl <= s.xu``).  The ranges are
    expanded a bounded chunk at a time and the y-overlap and class tests
    are masks over the chunk.  ``memory_bytes`` and ``config`` change
    nothing here: the join has no tile group to overflow and nothing to
    recurse into (see :class:`~repro.core.pbsm.PBSMConfig`).
    """
    with tracer.span("merge_pair", pair=label, depth=0) as span:
        span.tag("len_r", len(kps_r))
        span.tag("len_s", len(kps_s))
        if not len(kps_r) or not len(kps_s):
            return []
        xl_r, yl_r, xu_r, yu_r = np.ascontiguousarray(kps_r["mbr"].T)
        xl_s, yl_s, xu_s, yu_s = np.ascontiguousarray(kps_s["mbr"].T)
        if (
            ((xl_r > xu_r) | (yl_r > yu_r)).any()
            or ((xl_s > xu_s) | (yl_s > yu_s)).any()
        ):
            raise ValueError("malformed rectangle in a key-pointer block")
        rank_xl_r, rank_xu_r, rank_xl_s, rank_xu_s = dense_ranks(
            xl_r, xu_r, xl_s, xu_s
        )
        from_r = grouped_keys(kps_r["tile"], rank_xl_r)
        to_r = grouped_keys(kps_r["tile"], rank_xu_r)
        from_s = grouped_keys(kps_s["tile"], rank_xl_s)
        to_s = grouped_keys(kps_s["tile"], rank_xu_s)
        order_r, order_s = np.argsort(from_r), np.argsort(from_s)
        sorted_r, sorted_s = from_r[order_r], from_s[order_s]
        cls_r, cls_s = kps_r["cls"], kps_s["cls"]
        found_r: List[np.ndarray] = [kps_r["fid"][:0]]
        found_s: List[np.ndarray] = [kps_s["fid"][:0]]

        def emit(r: np.ndarray, s: np.ndarray) -> None:
            keep = (
                (yl_r[r] <= yu_s[s]) & (yl_s[s] <= yu_r[r])
                & _COMBOS[cls_r[r], cls_s[s]]
            )
            found_r.append(kps_r["fid"][r[keep]])
            found_s.append(kps_s["fid"][s[keep]])

        low = np.searchsorted(sorted_s, from_r, side="left")
        high = np.searchsorted(sorted_s, to_r, side="right")
        for r, k in ragged_rows(high - low):
            emit(r, order_s[low[r] + k])
        low = np.searchsorted(sorted_r, from_s, side="right")
        high = np.searchsorted(sorted_r, to_s, side="right")
        for s, k in ragged_rows(high - low):
            emit(order_r[low[s] + k], s)

        candidates = list(zip(
            np.concatenate(found_r).tolist(), np.concatenate(found_s).tolist()
        ))
        if tracer.enabled:  # a set per side, for a tag nobody else reads
            span.tag("tile_groups", len(
                set(kps_r["tile"].tolist()).intersection(kps_s["tile"].tolist())
            ))
        span.tag("candidates", len(candidates))
        metrics.counter("pbsm.merge.pairs_swept").inc()
        metrics.histogram("pbsm.merge.inputs_per_pair").observe(
            len(kps_r) + len(kps_s)
        )
        metrics.histogram("pbsm.merge.candidates_per_pair").observe(
            len(candidates)
        )
        return candidates


def refine_pair(
    candidates: Sequence[Tuple[int, int]],
    records_r: StoredRecords,
    records_s: StoredRecords,
    predicate: Predicate,
    *,
    span=None,
) -> Tuple[List[Tuple[int, int]], int]:
    """Exact predicate over the sorted candidates of one pair.

    Two-layer partitioning makes the candidate stream duplicate-free by
    construction, so this no longer builds a dedup set — it sorts, applies
    the predicate, and *counts* any adjacent duplicates it still sees.
    Returns ``(sorted exact pairs, duplicates_dropped)``; a non-zero drop
    count means the dedup-free invariant broke and is surfaced all the way
    up to the coordinator's ``merge.duplicates_dropped`` metric.

    Two forms, one answer, chosen by the predicate and the records'
    geometry — not by who holds the records, a worker (a spill's) or the
    coordinator (the side's own).  When the predicate is ``intersects``
    with every record a candidate names a polyline, or ``contains`` with
    every one a polygon, the verdicts of all candidates come from
    coordinate columns in one pass
    (:func:`~repro.geometry.kernels.polylines_intersect_each`,
    :func:`~repro.geometry.kernels.polygons_contain_each`) and no tuple is
    built.  What needs a tuple — polygons under ``intersects``, mixed
    geometry, any other predicate — takes the loop: look both tuples up,
    call the predicate.  ``span``, if given, is tagged with which form
    ran, what it decoded and how many rows reached the exact tests.
    """
    pairs = np.array(candidates, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    fresh = np.ones(len(pairs), dtype=bool)
    fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    pairs = pairs[fresh]
    named_r, of_r = np.unique(pairs[:, 0], return_inverse=True)
    named_s, of_s = np.unique(pairs[:, 1], return_inverse=True)
    decode = decide = None
    if predicate is intersects:
        decode, decide = polyline_runs, polylines_intersect_each
    elif predicate is contains:
        decode, decide = polygon_runs, polygons_contain_each
    columns_r = columns_s = None
    if decode is not None:
        columns_r = records_r.columns(named_r, decode)
    if columns_r is not None:
        columns_s = records_s.columns(named_s, decode)
    rows = {"segment_pairs": 0, "vertex_rows": 0}
    if columns_s is not None:
        hits, tested = decide(columns_r, columns_s, of_r, of_s)
        rows.update(tested)
    else:
        hits = np.fromiter(
            (predicate(records_r[r], records_s[s]) for r, s in pairs.tolist()),
            dtype=bool, count=len(pairs),
        )
    if span is not None:
        span.tag("columnar", columns_s is not None)
        span.tag("records_decoded", len(named_r) + len(named_s))
        for name, count in rows.items():
            span.tag(name, count)
    results = pairs[hits]
    return (
        list(zip(results[:, 0].tolist(), results[:, 1].tolist())),
        len(candidates) - len(pairs),
    )


def run_pair_task(task: PairTask) -> PairTaskResult:
    """Execute one partition-pair task inside a worker process.

    Filter: read the key-pointer spills, join them per tile group with the
    two-layer class filter (:func:`sweep_pair`).  Refine: look the
    candidate feature-id pairs up in the partition's tuple spills and
    apply the exact predicate (:func:`refine_pair`).  The returned pair list is
    sorted, exact, and — because only one tile may emit any given pair —
    disjoint from every other task's, so the coordinator's merge is a
    plain ordered concatenation with no dedup barrier.

    Any failure is re-raised as :class:`WorkerTaskError` with the pair
    index, attempt, and pid attached (corruption flagged); planned faults
    fire first, keyed by the task's attempt number.
    """
    global _FROZEN_PID
    if _FROZEN_PID != os.getpid():
        # Once per process: a forked worker inherits the coordinator's
        # heap — both input relations, which no task touches — and every
        # collection a task triggers would walk all of it.  Frozen, the
        # collector sees only what tasks allocate.  (Under ``spawn`` there
        # is next to nothing to freeze.)
        gc.freeze()
        _FROZEN_PID = os.getpid()
    try:
        apply_worker_faults(task.faults, task.index, task.attempt)
        return _run_pair_task(task)
    except WorkerTaskError:
        raise
    except SpillCorruptionError as exc:
        raise WorkerTaskError(
            task.index, task.attempt, os.getpid(),
            type(exc).__name__, str(exc), traceback.format_exc(),
            corruption=True,
        ) from exc
    except Exception as exc:
        raise WorkerTaskError(
            task.index, task.attempt, os.getpid(),
            type(exc).__name__, str(exc), traceback.format_exc(),
        ) from exc


def _run_pair_task(task: PairTask) -> PairTaskResult:
    started = time.perf_counter()
    tracer = Tracer() if task.observe else NULL_TRACER
    metrics = MetricsRegistry() if task.observe else NULL_METRICS
    events: List[dict] = []

    def event(event_type: str, **fields) -> None:
        if task.observe:
            events.append(
                {"type": event_type,
                 "t": round(time.perf_counter() - started, 6),
                 "pair": task.index, "attempt": task.attempt,
                 "pid": os.getpid(), **fields}
            )

    event("task_started")
    _heartbeat(task.index, task.attempt, "merge")
    with tracer.span(
        "worker.task", pair=task.index, pid=os.getpid(), attempt=task.attempt
    ) as span:
        with tracer.span("worker.merge", pair=task.index):
            kps_r = read_keypointer_spill(task.kp_r_path)
            kps_s = read_keypointer_spill(task.kp_s_path)
            candidates = sweep_pair(
                kps_r, kps_s, DEFAULT_TASK_MEMORY, task.config,
                label=str(task.index), tracer=tracer, metrics=metrics,
            )

        _heartbeat(task.index, task.attempt, "refine")
        with tracer.span(
            "worker.refine", pair=task.index, candidates=len(candidates)
        ) as refine_span:
            tuples_r = read_tuple_spill(task.tuples_r_path)
            tuples_s = read_tuple_spill(task.tuples_s_path)
            pairs, dropped = refine_pair(
                candidates, tuples_r, tuples_s, task.predicate,
                span=refine_span,
            )

        span.tag("candidates", len(candidates))
        span.tag("results", len(pairs))
        metrics.counter("parallel.worker.candidates").inc(len(candidates))
        metrics.counter("parallel.worker.pairs_checked").inc(
            len(candidates) - dropped
        )
        metrics.counter("parallel.worker.results").inc(len(pairs))
        metrics.histogram("parallel.worker.task_keypointers").observe(
            task.cost_estimate
        )

    event("task_finished", candidates=len(candidates), results=len(pairs))
    _heartbeat(task.index, task.attempt, "done")
    return PairTaskResult(
        index=task.index,
        worker_pid=os.getpid(),
        pairs=pairs,
        candidates=len(candidates),
        count_r=task.count_r,
        count_s=task.count_s,
        wall_s=time.perf_counter() - started,
        attempt=task.attempt,
        duplicates_dropped=dropped,
        spans=tracer.export_wire(),
        metrics=metrics.snapshot() if task.observe else {},
        events=events,
    )
