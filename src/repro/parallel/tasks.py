"""Partition-pair merge tasks: the picklable unit of multiprocess PBSM.

As in the paper (§3.1–3.2), only key-pointers are partitioned; the
refinement fetches tuples from the base relations.  Two kinds of file
(:mod:`repro.storage.spill`) carry that to a worker process:

* one **relation file** per input — the side's stored records, in input
  order, written once on first touch (:attr:`InputSide.relation`):
  the refinement step's input.  A process maps each relation read-only
  and keeps it (:func:`open_relation`), so it checks a side once, not
  once per task; a coordinator about to fork its pool opens both first
  (:func:`check_relations`), so forked workers check nothing.  No process
  copies a relation: all of them read the same page-cache pages;
* one **key-pointer spill** per partition and side — packed
  ``<MBR_f32, feature_id, tile, class>`` records, the filter step's input:
  one record per two-layer ``(tile, class)`` replica slot
  (:mod:`repro.core.partition`), so a worker's merge groups by tile and
  applies the duplicate-free class filter without any geometry
  recomputation.  MBRs are rounded conservatively (exactly like the
  single-node key-pointer files), so the sweep's output stays a superset
  of the true result; tile/class tags are computed from the exact f64 MBR
  *before* rounding and persisted.

Both are written as *blocks*, one CRC frame per
:data:`SPILL_BLOCK_RECORDS`-tuple window of the input — a key-pointer
frame is a partition's records of the window back to back, a relation
frame the window's feature-id/offset directory followed by its serialised
tuples and, for polygons, their refine rows — so nothing pays a Python
call per record for framing.  A worker checks every frame of the files
it opens before it decodes any of them, and keeps them as the arrays
they already are: the filter step is one array join over the
key-pointer records (:func:`sweep_pair`), and a relation opens as columns
(:class:`StoredRecords` — the type an :class:`InputSide` also gives its
own records, for the coordinator's rebuilds) from which
:func:`refine_pair` either gathers coordinate runs (polylines under
``intersects``; under ``contains``, the polygons the stored refine rows
leave undecided) or decodes, on first lookup, the tuples a candidate
names.

A :class:`PairTask` names those files plus the join configuration; it
pickles in a few hundred bytes no matter how large the partition is.
:func:`run_pair_task` — a module-level function so it imports cleanly
under the ``spawn`` start method — executes merge *and* refinement for one
partition pair and returns its answer — exact feature-id pairs, one
sorted ``(n, 2)`` int64 array — and, on an observed run, the worker's
spans in wire form.  Everything else the coordinator records about the
pair (its metrics, its ``task_started`` / ``task_finished`` events) it
derives from the result's own fields.

Failure contract: any exception inside a worker is re-raised as
:class:`WorkerTaskError` carrying the pair index, the attempt number, the
worker pid, and the formatted cause — never a bare traceback with no clue
which partition pair died.  Spill corruption is flagged on the error so
the coordinator can quarantine the partition instead of burning retries on
a file that will never read clean.  Tasks may also carry a
:class:`~repro.faults.plan.WorkerFaults` slice of a fault plan, fired at
the top of the task by attempt number.

Flight-recorder hook: when the coordinator runs a journal
(:mod:`repro.obs.journal`), workers ping a **heartbeat queue** — installed
in each pool worker by :func:`init_pool_worker` — at every phase boundary.
The queue is the only channel that outlives a worker crash: a result
from a dead process never arrives, but its last heartbeat already did,
which is exactly what the live view and the post-mortem need.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import mmap
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import traceback
import zlib
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.keypointer import conservative_f32
from ..core.partition import ALLOWED_COMBO_TABLE, RoutedSlots, SpatialPartitioner, mbr_bounds
from ..core.pbsm import PBSMConfig
from ..core.predicates import Predicate, contains, intersects
from ..core.refine import drop_adjacent
from ..faults.inject import apply_worker_faults
from ..faults.plan import WorkerFaults
from ..geometry.kernels import (
    clearance_squares,
    polygon_extents,
    polygons_contain_each,
    polylines_intersect_each,
    ragged_rows,
)
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.errors import SpillCorruptionError
from ..storage.spill import FRAME_HEADER_SIZE, SpillWriter, read_frames, read_frames_bytes
from ..storage.tuples import (
    SPILL_BLOCK_RECORDS,
    Records,
    SpatialTuple,
    deserialize_tuple,
    polygon_runs,
    polyline_runs,
    record_columns,
    serialize_tuple,
)

DEFAULT_TASK_MEMORY = 8 * 1024 * 1024
"""What callers hand :func:`sweep_pair` as ``memory_bytes``: the array
join has nothing to overflow, so no caller has another value to give."""

RELATION_MEMO_ENTRIES = 4
"""Relations a process keeps open (:func:`open_relation`): both sides of
this join and of one more — the serve tier's shared pool outlives every
query, so the memo must not grow with them."""

KEYPOINTER_DTYPE = np.dtype(
    [("mbr", "<f4", (4,)), ("fid", "<u4"), ("tile", "<u4"), ("cls", "u1")]
)
"""One spilled key-pointer — conservative f32 MBR + u32 feature id + u32
tile + u8 two-layer class, 25 bytes packed: one two-layer replica slot.  A
key-pointer frame is an array of these, and so is what a worker sweeps."""

REFINE_DTYPE = np.dtype(
    [("mbr", "<f8", (4,)), ("extent", "<f8", (4,)), ("square", "<f8", (3,))]
)
"""One polygon's refine columns, 88 bytes: its exact shell MBR (its
``InputSide.mbrs`` row), its MBR over all rings, and its
:func:`~repro.geometry.kernels.clearance_squares` square ``(cx, cy,
half)`` — §4.4's enclosed rectangle, "precomputed and stored along with
each spatial feature", from which ``contains`` decides most candidates
without decoding either polygon."""

_U32 = np.dtype("<u4")
"""The tuple block's directory words: record count, then one feature id
per record, then ``count + 1`` offsets into the payload area that
follows (``offsets[i]:offsets[i + 1]`` is record ``i``)."""

_FROZEN_PID = 0
"""The process whose inherited heap :func:`run_pair_task` already froze."""

_RELATION_DIR = (0, "")
"""``(pid, path)``: the directory this process writes relation files in."""

_RELATION_SERIALS = itertools.count()
"""Relation file names are unique in their directory: two sides may hold
the same records, and each removes its own file."""

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
    arguments, not task payloads.  A worker's exit does not wait for its
    unsent pings: one that dies mid-send (a crash) takes the queue's
    shared write lock with it, and every other worker's exit — hence the
    pool's shutdown — would wait on that lock for ever.
    """
    global _HEARTBEAT_QUEUE
    _HEARTBEAT_QUEUE = heartbeats
    if heartbeats is not None:
        heartbeats.cancel_join_thread()
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


class InputSide(Sequence):
    """One materialised join input: a read-only sequence of its tuples,
    held in its stored form and owning column groups that are each built
    once, on first touch, and kept for as long as the input is:

    * the *stored form* — ``payload`` (every ``serialize_tuple`` record
      back to back in one ``bytes``), ``offsets`` (N+1 int64: record ``i``
      is ``payload[offsets[i]:offsets[i + 1]]``) and ``crc`` (the
      order-sensitive CRC32 of the records, the run fingerprint's content
      check);
    * the *routing columns*, taken from the records
      (:func:`~repro.storage.tuples.record_columns`) — ``mbrs`` (exact f64
      N×4, what routing reads), ``mbrs_f32`` (conservatively rounded) and
      ``fids`` (what a key-pointer stores) — and ``bounds``, their
      :func:`~repro.core.partition.mbr_bounds`;
    * the *routing memo* (:meth:`routing`) — what the partition phase
      derives from this side alone under one tiling, kept for the latest;
    * ``refine`` — the :data:`REFINE_DTYPE` rows of a polygon side
      (:func:`refine_columns`), ``None`` for any other;
    * ``stored`` — the stored form, ``fids`` and ``refine`` as :class:`StoredRecords`,
      sharing their memory: what refinement fetches from when the side
      itself, not a file of it, is at hand;
    * ``relation`` — the stored form written down once as the side's
      relation file, what a worker's refinement fetches from;
    * the tuples themselves.

    Built of :class:`~repro.storage.tuples.Records` — what the generators
    write (``QuerySpec.generate``) — a side *is* its stored form, and its
    tuples are decoded the first time something indexes or iterates it: a
    process-backend run never does.  Built of tuples, it serialises them
    on first touch of any column.  Whoever holds the input across joins
    (``QuerySpec.generate`` returns two of these; the server memoises
    them) therefore serialises and decodes it at most once; an engine
    handed any other sequence wraps it for the length of the run, and
    ``InputSide(side) is side``.  Like a ``tuple`` it compares, hashes and
    concatenates by its tuples.  This is the only place the engine and the
    server serialise a tuple."""

    # The tuples sit in a slot, so ``vars()`` holds exactly the column
    # groups built.
    __slots__ = ("_tuples", "__dict__")

    _building = threading.RLock()
    """Held by whoever builds a column group, of any side: the builders
    are interpreter-bound, so two of them would take turns anyway.
    (Re-entrant: ``stored`` and the relation file are built from the other
    groups.)"""

    def __new__(cls, tuples: Iterable[SpatialTuple] = ()):
        if isinstance(tuples, cls):
            return tuples
        side = super().__new__(cls)
        if isinstance(tuples, Records):
            side.payload, side.offsets = tuples.payload, tuples.offsets
        else:
            side._tuples = tuple(tuples)
        return side

    def __len__(self) -> int:
        return len(self.offsets) - 1 if "offsets" in vars(self) else len(self._tuples)

    def __getitem__(self, index):
        return self._tuples[index]

    def __eq__(self, other) -> bool:
        return self._tuples == getattr(other, "_tuples", other)

    def __hash__(self) -> int:
        return hash(self._tuples)

    def __add__(self, other) -> tuple:
        return self._tuples + tuple(other)

    def __getattr__(self, name: str):
        """Reached only for a column not built yet: build its group — one
        builder at a time, and whoever finds a column missing waits here
        for it, so nobody holds a ``payload`` without its ``offsets``."""
        if name not in (
            "mbrs", "mbrs_f32", "fids", "bounds", "payload", "offsets", "crc",
            "refine", "stored", "_relation", "_tuples",
        ):
            raise AttributeError(name)
        with self._building:
            try:
                return object.__getattribute__(self, name)  # built meanwhile
            except AttributeError:
                pass
            if name == "_tuples":
                # Made in bulk and acyclic: a collection meanwhile frees nothing,
                # and would walk every tuple made so far, again and again.
                collecting = gc.isenabled()
                gc.disable()
                try:
                    self._tuples = tuple(Records(self.payload, self.offsets))
                finally:
                    if collecting:
                        gc.enable()
            elif name in ("payload", "offsets", "crc"):
                if "payload" not in vars(self):
                    records = [serialize_tuple(t) for t in self]
                    self.offsets = np.cumsum([0, *map(len, records)], dtype=np.int64)
                    self.payload = b"".join(records)
                self.crc = zlib.crc32(self.payload)
            elif name == "refine":
                self.refine = refine_columns(self)
            elif name == "stored":
                self.stored = StoredRecords(
                    self.payload, self.offsets[:-1], self.offsets[1:], self.fids,
                    self.refine,
                )
            elif name == "_relation":
                self._relation = _RelationFile(self)
            elif name == "bounds":
                self.bounds = mbr_bounds(self.mbrs)
            else:
                self.fids, self.mbrs = record_columns(self.payload, self.offsets)
                self.mbrs_f32 = conservative_f32(self.mbrs)
        return object.__getattribute__(self, name)

    @property
    def relation(self) -> "_RelationFile":
        """The side's relation file, written on first touch — and again if
        something took it off the disk (a temporary-file cleaner outliving
        a long-running server's side); it goes when the side and every run
        holding it do."""
        if not os.path.exists(self._relation.path):
            with self._building:
                if not os.path.exists(self._relation.path):
                    self._relation = _RelationFile(self)
        return self._relation

    def forget_relation(self, damaged: Iterable[str]) -> None:
        """Drop the relation file if it is one of the ``damaged`` paths, so
        the next :attr:`relation` writes a fresh one: a file that failed
        its check in place stays failed.  A run still holding it keeps it
        on the disk until that run ends."""
        with self._building:
            relation = self.__dict__.get("_relation")
            if relation is not None and relation.path in damaged:
                del self.__dict__["_relation"]
                _evict_relation(relation.path)

    def tuple_block(self, start: int, stop: int) -> bytes:
        """Records ``start:stop`` as one tuple frame's payload
        (:func:`pack_tuple_block`), with their ``refine`` rows if any."""
        refine = None if self.refine is None else self.refine[start:stop]
        return pack_tuple_block(
            self.fids[start:stop], self.offsets[start : stop + 1], self.payload, refine
        )

    def keypointers(self, routed: RoutedSlots) -> np.ndarray:
        """The key-pointer block of routed slots: rounded MBRs, tags from
        the exact-MBR routing."""
        block = np.empty(len(routed.ordinal), KEYPOINTER_DTYPE)
        block["mbr"] = self.mbrs_f32[routed.ordinal]
        block["fid"] = self.fids[routed.ordinal]
        block["tile"] = routed.tile
        block["cls"] = routed.cls
        return block

    def routing(self, partitioner: SpatialPartitioner) -> "SideRouting":
        """The side's routing under ``partitioner``'s tiling (§3.1: nothing
        in it depends on the other side but the universe), derived on first
        use and kept until another tiling asks for the side's: one entry,
        the latest.  A caller holds what it is handed, so a run that a
        thread with another tiling overtakes still reads its own; only
        asking again pays a second derivation.  (No lock: two threads
        deriving one tiling at once derive the same arrays.)"""
        grid = partitioner.grid
        key = (grid.universe, grid.num_tiles, partitioner.num_partitions, partitioner.scheme)
        routing = vars(self).get("_routing")
        if routing is None or routing.key != key:
            slots, bounds = partitioner.route(self.mbrs)
            ordinal, keypointers = slots.ordinal.astype(np.int32), self.keypointers(slots)
            keypointers.flags.writeable = ordinal.flags.writeable = False
            cuts = list(zip(bounds.tolist(), bounds[1:].tolist()))
            ordinals, blocks = ([column[a:b] for a, b in cuts] for column in (ordinal, keypointers))
            routing = self._routing = SideRouting(key, ordinals, blocks, sum(map(_runs, ordinals)))
        return routing


class SideRouting(NamedTuple):
    """What the partition phase derives from one side alone under one
    tiling (:meth:`InputSide.routing`): 29 bytes a replica slot."""

    key: tuple
    """The tiling: the partitioner's universe, ``num_tiles``,
    ``num_partitions`` and scheme."""
    ordinals: List[np.ndarray]
    """Per partition, the input ordinal of each of its key-pointers:
    int32, ascending."""
    keypointers: List[np.ndarray]
    """Per partition, its :data:`KEYPOINTER_DTYPE` block, read-only: what
    its spill holds and a serial rebuild sweeps."""
    placed: int
    """Tuples placed, each once per partition it reaches: the numerator of
    ``storage_factor``, whichever path ran the join."""


def spill_blocks(
    ordinal: np.ndarray, keypointers: np.ndarray
) -> Iterator[Tuple[range, np.ndarray]]:
    """One partition's key-pointer spill, a block at a time: ``(window,
    key-pointers)`` for every window of :data:`SPILL_BLOCK_RECORDS` input
    ordinals the partition places tuples of — its key-pointers cut where
    ``ordinal // SPILL_BLOCK_RECORDS`` changes, which is what
    :func:`spill_bytes` counts.  (Cut by a binary search per window: a
    whole-array ``np.diff`` takes ~6× as long.)"""
    size, last = SPILL_BLOCK_RECORDS, int(ordinal[-1]) if len(ordinal) else -1
    cuts = np.searchsorted(ordinal, np.arange(0, last + size + 1, size)).tolist()
    for first, start, stop in zip(range(0, last + 1, size), cuts, cuts[1:]):
        if start < stop:
            yield range(first, first + size), keypointers[start:stop]


def pack_tuple_block(
    fids: np.ndarray, offsets: np.ndarray, payload: bytes,
    refine: Optional[np.ndarray] = None,
) -> bytes:
    """One tuple frame's payload: the directory of records ``fids``, then
    the records — ``payload[offsets[i]:offsets[i + 1]]`` — back to back,
    then their :data:`REFINE_DTYPE` rows, if given."""
    count = len(fids)
    directory = np.empty(2 * count + 2, _U32)
    directory[0] = count
    directory[1 : count + 1] = fids
    directory[count + 1 :] = offsets - offsets[0]
    records = payload[offsets[0] : offsets[-1]]
    return directory.tobytes() + records + (b"" if refine is None else refine.tobytes())


def refine_columns(side: InputSide) -> Optional[np.ndarray]:
    """The side's :data:`REFINE_DTYPE` rows, built a
    :data:`SPILL_BLOCK_RECORDS` window at a time — the window's records
    decoded into ring columns, its extents and squares taken, the ring
    columns dropped — or ``None`` unless every record is a polygon."""
    blocks = [np.empty(0, REFINE_DTYPE)]
    for start in range(0, len(side), SPILL_BLOCK_RECORDS):
        offsets = side.offsets[start : start + SPILL_BLOCK_RECORDS + 1]
        rings = polygon_runs(side.payload, offsets[:-1], offsets[1:])
        if rings is None:
            return None
        block = np.empty(len(offsets) - 1, REFINE_DTYPE)
        block["mbr"] = side.mbrs[start : start + len(block)]
        block["extent"] = np.column_stack(polygon_extents(*rings))
        block["square"] = np.column_stack(clearance_squares(*rings))
        blocks.append(block)
    return np.concatenate(blocks)


def _relation_dir() -> str:
    """This process's relation-file directory, under
    ``tempfile.gettempdir()``, made on first use (or again, if something
    removed it) and removed at exit — by this process only."""
    global _RELATION_DIR
    pid, path = _RELATION_DIR
    if pid != os.getpid() or not os.path.isdir(path):
        path = tempfile.mkdtemp(prefix="repro-relations-")
        atexit.register(_remove_relation_dir, path, os.getpid())
        _RELATION_DIR = (os.getpid(), path)
    return path


def _remove_relation_dir(path: str, pid: int) -> None:
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)


class _RelationFile:
    """One side's relation file: its stored records in input order, a
    tuple-block frame (:func:`pack_tuple_block`, with the window's
    ``refine`` rows on a polygon side) a :data:`SPILL_BLOCK_RECORDS`
    window — the layout
    :func:`read_relation` checks frame by frame — named by the side's
    ``crc`` in this process's relation directory.

    It is the input's stored form, not a spill: no run's disk budget
    charges it.  It is unlinked when this object is collected, which is
    when its side is (``InputSide`` is a ``tuple`` and takes no weak
    reference), and only by the process that wrote it: a forked worker
    holds a copy of the side, and nothing it collects may take the
    coordinator's file."""

    def __init__(self, side: InputSide):
        self.pid = os.getpid()
        self.path = os.path.join(_relation_dir(), f"{side.crc:08x}-{next(_RELATION_SERIALS)}.rel")
        with SpillWriter(self.path) as writer:
            for start in range(0, len(side), SPILL_BLOCK_RECORDS):
                writer.append(side.tuple_block(start, start + SPILL_BLOCK_RECORDS))

    def __del__(self) -> None:
        if os.getpid() == self.pid:
            _evict_relation(self.path)
            try:
                os.unlink(self.path)
            except OSError:
                pass


def spill_bytes(ordinal: np.ndarray) -> int:
    """The bytes the spill pass puts on disk for one partition whose
    key-pointers are of the input ordinals ``ordinal`` (ascending) — its
    key-pointer frames: the block format's footprint, kept beside the
    format so the two cannot drift."""
    frames = _runs(ordinal // SPILL_BLOCK_RECORDS)
    return frames * FRAME_HEADER_SIZE + len(ordinal) * KEYPOINTER_DTYPE.itemsize


def _runs(values: np.ndarray) -> int:
    """Runs of equal neighbours in ``values``.  (Not an index-less
    ``np.unique``, which would import ``numpy.ma``.)"""
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1 if len(values) else 0


class WorkerTaskError(RuntimeError):
    """A partition-pair task failed, with enough context to act on it.

    Carries the pair index, attempt number, and worker pid (``0`` when the
    failure happened before a worker could report), plus the formatted
    cause.  ``corruption`` marks spill-file damage: retrying cannot help,
    the coordinator must quarantine and rebuild; ``damaged_path`` names
    the file that failed its check.
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
        damaged_path: str = "",
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
        self.damaged_path = damaged_path

    def __reduce__(self):
        return (
            WorkerTaskError,
            (
                self.pair_index, self.attempt, self.worker_pid,
                self.cause_type, self.cause_message, self.traceback_text,
                self.corruption, self.damaged_path,
            ),
        )


class PartitionSpill:
    """One partition's key-pointer spill plus a ``.tup`` spill of the
    tuples it places, written a tuple at a time (:meth:`add`) — used only
    by ``benchmarks/perf/replay.py``, which ROADMAP item 1(a) deletes
    together with this class.  The engine spills key-pointers alone
    (``ProcessPBSM._spill_partition``); its ``.kp`` bytes are this class's
    (``tests/parallel/test_block_spill.py`` holds them equal)."""

    def __init__(self, directory: str, side: str, index: int):
        base = os.path.join(directory, f"part{index:04d}.{side}")
        self.kp_path = base + ".kp"
        self.tuple_path = base + ".tup"
        self._kp = SpillWriter(self.kp_path)
        self._tuples = SpillWriter(self.tuple_path)
        self.count = 0
        """Key-pointer records spilled — replica slots."""
        self._added: List[Tuple[SpatialTuple, Sequence[Tuple[int, int]]]] = []

    def add(self, t: SpatialTuple, slots: Sequence[Tuple[int, int]]) -> None:
        """Spill one tuple with its two-layer ``(tile, class)`` slots: one
        key-pointer record per slot, the full tuple once, a frame in each
        file per :data:`SPILL_BLOCK_RECORDS` tuples.  ``count`` includes
        it once its block is written — at the latest by :meth:`close`."""
        self._added.append((t, slots))
        if len(self._added) == SPILL_BLOCK_RECORDS:
            self._write_added()

    def _write_added(self) -> None:
        """Write the tuples buffered by :meth:`add` as one block."""
        added, self._added = self._added, []
        side = InputSide(t for t, _slots in added)
        ordinal = np.repeat(np.arange(len(side)), [len(slots) for _t, slots in added])
        tags = np.array([slot for _t, slots in added for slot in slots], np.int64)
        routed = RoutedSlots(ordinal, *tags.reshape(-1, 2).T)
        self._kp.append(side.keypointers(routed).tobytes())
        self._tuples.append(side.tuple_block(0, len(side)))
        self.count += len(ordinal)

    def close(self) -> None:
        """Write what :meth:`add` still buffers and seal both files."""
        if self._added:
            self._write_added()
        self._kp.close()
        self._tuples.close()


@dataclass(frozen=True)
class SpillHandle:
    """One partition's sealed key-pointer spill, as the coordinator builds
    tasks from it: freshly written or adopted from a checkpoint."""

    kp_path: str
    count: int
    """Key-pointer records spilled — replica slots, which is exactly the
    sweep work a worker will do: the LPT cost seed."""


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

    :func:`read_relation` makes it of a side's relation file, the buffer
    the file's read-only mapping, and :class:`InputSide` of its own
    columns, the buffer its ``payload``: views either way.  A lookup
    decodes the record on first use and memoises it — most tuples are
    never referenced by a candidate — the records are located through a
    sorted feature-id index built once, :meth:`columns` serves many of them
    without building a tuple at all, and ``refine`` — the records'
    :data:`REFINE_DTYPE` rows, or ``None`` — without decoding any.
    ``len()`` is the number of records.
    """

    identity: Optional[tuple] = None
    """The file's path and ``(st_ino, st_size, st_mtime_ns)`` when it was
    mapped and checked (:func:`read_relation`); ``None`` for a side's own
    columns."""
    check_s = 0.0
    """Seconds :func:`read_relation` spent walking and checking frames."""

    def __init__(
        self, buffer: bytes | mmap.mmap, starts: np.ndarray, ends: np.ndarray,
        fids: np.ndarray, refine: Optional[np.ndarray] = None,
    ):
        self._buffer, self._starts, self._ends = buffer, starts, ends
        self._fids, self.refine = fids, refine
        # Stable, so that of two records with one feature id the later is
        # found, as a mapping filled in record order would have it.  Ids
        # already in record order — every generated relation's — need no
        # permutation: ``_order`` is None and they are their own index.
        self._order = None if (fids[1:] >= fids[:-1]).all() else np.argsort(fids, kind="stable")
        # (int64, as a relation file's already are: what a lookup is asked for,
        # so no search converts the index again.)
        self._sorted_fids = (fids if self._order is None else fids[self._order]).astype(
            np.int64, copy=False
        )
        self._found: Dict[int, SpatialTuple] = {}

    def __getitem__(self, feature_id: int) -> SpatialTuple:
        t = self._found.get(feature_id)
        if t is None:
            at = int(self._sorted_fids.searchsorted(feature_id, side="right")) - 1
            if at < 0 or self._sorted_fids[at] != feature_id:
                raise KeyError(feature_id)
            record = at if self._order is None else self._order[at]
            t = deserialize_tuple(
                self._buffer[self._starts[record] : self._ends[record]]
            )
            self._found[feature_id] = t
        return t

    def __iter__(self) -> Iterator[int]:
        return iter(self._fids.tolist())

    def __len__(self) -> int:
        return len(self._fids)

    def records_of(self, feature_ids: np.ndarray) -> np.ndarray:
        """The record each of ``feature_ids`` is, as :meth:`__getitem__`
        finds it; ``KeyError`` for an absent id."""
        at = np.searchsorted(self._sorted_fids, feature_ids, side="right") - 1
        absent = (at < 0) | (self._sorted_fids[at] != feature_ids)
        if absent.any():
            raise KeyError(int(feature_ids[absent][0]))
        return at if self._order is None else self._order[at]

    def columns(self, feature_ids: np.ndarray, decode):
        """The records of ``feature_ids`` as the coordinate columns
        ``decode`` makes of them (:func:`~repro.storage.tuples.polyline_runs`
        or :func:`~repro.storage.tuples.polygon_runs`), or ``None`` if one
        of them is not of its geometry; ``KeyError`` for an absent id.
        :meth:`__getitem__` for many ids at once, with no tuple built."""
        records = self.records_of(feature_ids)
        return decode(self._buffer, self._starts[records], self._ends[records])


def read_relation(path: str, *, release: bool = False) -> StoredRecords:
    """A file of tuple blocks — a side's relation file — as
    :class:`StoredRecords`.

    Maps the file read-only — every process that opens it reads the same
    page-cache pages, and none copies them — and checks **every** frame's
    CRC in place and every block directory before anything decodes a
    byte of it: integrity is a property of the file opened, not of the
    tuples used.  The records' extents point into the mapping; the file's
    :func:`_identity` as checked is the relation's ``identity``, and the
    frame walk's seconds its ``check_s``.  A block's records end where its
    payload does, or where the :data:`REFINE_DTYPE` rows of all of them
    begin; the relation has ``refine`` rows if every block carries them.

    With ``release`` (it needs ``mmap.MADV_DONTNEED``), this process's
    page-table entries for the mapping go as the walk passes each frame,
    and all of them once the relation is built: its resident size never
    holds the file, and a later read faults the pages back in from the
    page cache, which keeps them.
    """
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        # ``mmap`` refuses an empty file, which is an empty relation.
        data: bytes | mmap.mmap = (
            mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if stat.st_size else b""
        )
    checked = time.perf_counter()
    fids, starts, ends = ([np.empty(0, np.int64)] for _ in range(3))
    refine: Optional[List[np.ndarray]] = [np.empty(0, REFINE_DTYPE)]
    dropped = data if release and isinstance(data, mmap.mmap) else None
    for frame in read_frames_bytes(data, label=path):
        if dropped is not None:  # every page wholly before this frame is checked
            dropped.madvise(mmap.MADV_DONTNEED, 0, frame.offset - frame.offset % mmap.PAGESIZE)
        payload = frame.record
        words = np.frombuffer(payload, _U32, len(payload) // _U32.itemsize)
        count = int(words[0]) if len(words) else 0
        body = (2 * count + 2) * _U32.itemsize
        bounds = words[count + 1 : 2 * count + 2].astype(np.int64) + body
        columns = len(payload) - count * REFINE_DTYPE.itemsize
        if (
            len(bounds) != count + 1
            or bounds[0] != body
            or bounds[-1] not in (columns, len(payload))
            or (bounds[1:] < bounds[:-1]).any()
        ):
            raise frame.violation(
                "tuple block directory does not fit its payload"
            )
        base = frame.offset + FRAME_HEADER_SIZE
        fids.append(words[1 : count + 1])
        starts.append(bounds[:-1] + base)
        ends.append(bounds[1:] + base)
        if refine is not None and bounds[-1] == columns:
            refine.append(np.frombuffer(payload[columns:], REFINE_DTYPE))
        else:
            refine = None
    check_s = time.perf_counter() - checked
    # A column at a time, its parts dropped as it is built: at the peak
    # one column is held twice, not all three.
    columns = []
    for parts in starts, ends, fids:
        columns.append(np.concatenate(parts))
        parts.clear()
    records = StoredRecords(
        data, *columns, refine=None if refine is None else np.concatenate(refine),
    )
    if dropped is not None:
        dropped.madvise(mmap.MADV_DONTNEED)
    records.identity, records.check_s = _identity(path, stat), check_s
    return records


def _identity(path: str, stat: os.stat_result) -> tuple:
    """What tells the file at ``path`` from another there, or from itself
    after a write: ``(path, st_ino, st_size, st_mtime_ns)``."""
    return path, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _check_unchanged(records: StoredRecords) -> None:
    """Raise :class:`SpillCorruptionError` if the file ``records`` were
    mapped and checked from has been written or replaced since: the
    refine may have decoded bytes nobody checked."""
    path = records.identity[0]
    if _identity(path, os.stat(path)) != records.identity:
        raise SpillCorruptionError("relation file changed after its check", path=path)


read_tuple_spill = read_relation
"""A :class:`PartitionSpill`'s ``.tup`` file — the relation file's block
layout — as :class:`StoredRecords`; this name is used only by
``benchmarks/perf/replay.py``, and ROADMAP item 1(a) deletes it with it."""


_RELATIONS: "OrderedDict[tuple, StoredRecords]" = OrderedDict()
"""This process's open relations (:func:`open_relation`) by the
:func:`_identity` they were checked as, least recently used first.  Each
step on it is one dictionary operation, atomic under the interpreter
lock, and no lock guards it: one held by another thread as a pool forks
would stay held in every worker, and one taken in a side's collection
(:func:`_evict_relation`) could be taken already by the thread
collecting.  Two threads between steps cost at most a second read of a
file, or one entry dropped early."""


def open_relation(path: str) -> StoredRecords:
    """A relation, mapped and checked (:func:`read_relation`) on first use
    and kept for the tasks after it — and, opened by a coordinator before
    its pool forks (:func:`check_relations`), for every forked worker.

    Kept by path *and* by the file's ``(st_ino, st_size, st_mtime_ns)``,
    so a different file at that path, or the same one written since, is
    mapped and checked afresh — and a task re-checks that key after its
    refine (:func:`_check_unchanged`); at most
    :data:`RELATION_MEMO_ENTRIES` are kept, least recently used dropped
    first, and the process that wrote a file drops it when the file goes
    (:func:`_evict_relation`)."""
    return _open_relation(path)[0]


def _open_relation(path: str, release: bool = False) -> Tuple[StoredRecords, bool]:
    """:func:`open_relation`, and whether the memo already had it;
    ``release`` as :func:`read_relation` has it."""
    records = _RELATIONS.pop(_identity(path, os.stat(path)), None)
    hit = records is not None
    if not hit:
        records = read_relation(path, release=release)
    _RELATIONS[records.identity] = records
    while len(_RELATIONS) > RELATION_MEMO_ENTRIES:
        _RELATIONS.popitem(last=False)
    return records, hit


def open_relation_keys() -> frozenset:
    """The keys of every relation this process keeps open: what a pool
    that forks now inherits, mapped and checked."""
    return frozenset(_RELATIONS)


def relation_key(path: str) -> tuple:
    """The key the relation file at ``path`` is kept under as it is now."""
    return _identity(path, os.stat(path))


def _evict_relation(path: str) -> None:
    """Drop whatever the memo keeps of the file at ``path``, its mapping
    with it: a file its writer removes must not stay pinned on the disk."""
    for key in [key for key in list(_RELATIONS) if key[0] == path]:
        _RELATIONS.pop(key, None)


def check_relations(*paths: str) -> Tuple[float, float]:
    """Open the relation files at ``paths`` into this process's memo, so
    that the workers a pool forks next inherit them mapped and checked:
    ``(open_s, check_s)`` of the opens the memo did not serve.

    Best effort: a file that fails its check is not kept and its error is
    dropped — the worker's own open raises it, as without this.  The check
    releases its pages as it goes (:func:`read_relation`'s ``release``),
    so this process's resident size does not grow by the file: workers
    fault the pages in as they read them.  Takes paths only, so nothing
    here holds a side's file on the disk past its run."""
    open_s = check_s = 0.0
    for path in paths:
        started = time.perf_counter()
        try:
            records, hit = _open_relation(path, release=hasattr(mmap, "MADV_DONTNEED"))
        except (OSError, ValueError):  # a SpillCorruptionError is a ValueError
            continue
        if not hit:
            open_s += time.perf_counter() - started
            check_s += records.check_s
    return open_s, check_s


@dataclass(frozen=True)
class PairTask:
    """Everything a worker needs to merge + refine one partition pair."""

    index: int
    kp_r_path: str
    kp_s_path: str
    relation_r_path: str
    relation_s_path: str
    count_r: int
    count_s: int
    config: PBSMConfig
    predicate: Predicate
    observe: bool = False
    """Ship wire-form spans back with the result."""
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
    """One executed partition pair: its answer and its spans.  The
    coordinator derives the pair's metrics and task events from these
    fields (``ProcessPBSM._account``)."""

    index: int
    worker_pid: int
    pairs: np.ndarray
    """The exact result, one sorted ``(n, 2)`` int64 array of
    ``(r, s)`` feature ids."""
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


def sweep_pair(
    kps_r: np.ndarray,
    kps_s: np.ndarray,
    memory_bytes: int,
    config: PBSMConfig,
    *,
    label: str,
    tracer: Tracer = NULL_TRACER,
) -> np.ndarray:
    """The filter step for one in-memory pair: candidate feature-id pairs,
    one sorted ``(n, 2)`` int64 array.

    One array join over both sides' :data:`KEYPOINTER_DTYPE` records that
    emits what :func:`~repro.core.pbsm.merge_partition_pair` emits — per
    shared tile, every ``(r, s)`` whose closed MBRs meet and whose class
    combination the mini-join table admits, each exactly once.  Each side
    is put in ``(tile, xl)`` order once (:func:`_order_keys`), so the
    partners of a record are a contiguous range of the other side's
    records found by two binary searches of sorted keys: as the sweep has
    it, ``r`` meets the ``s`` that start inside it (``r.xl <= s.xl <=
    r.xu``) and ``s`` the ``r`` that start strictly inside it (``s.xl <
    r.xl <= s.xu``).  The ranges are expanded a bounded chunk at a time;
    the y-overlap test is a mask over the chunk and the class table is
    looked up for the rows it keeps.  One sort of ``(fid_r, fid_s)`` keys
    orders the output.  ``memory_bytes`` and ``config`` change nothing
    here: the join has no tile group to overflow and nothing to recurse
    into (see :class:`~repro.core.pbsm.PBSMConfig`).
    """
    with tracer.span("merge_pair", pair=label, depth=0) as span:
        span.tag("len_r", len(kps_r))
        span.tag("len_s", len(kps_s))
        if not len(kps_r) or not len(kps_s):
            return np.empty((0, 2), np.int64)
        start_r, stop_r, yl_r, yu_r, cls_r, fid_r = _in_key_order(kps_r)
        start_s, stop_s, yl_s, yu_s, cls_s, fid_s = _in_key_order(kps_s)
        allowed = np.ravel(ALLOWED_COMBO_TABLE)
        found = [np.empty(0, np.uint64)]

        def emit(r: np.ndarray, s: np.ndarray) -> None:
            keep = (yl_r[r] <= yu_s[s]) & (yl_s[s] <= yu_r[r])
            r, s = r[keep], s[keep]
            keep = allowed[cls_r[r] * 4 + cls_s[s]]
            found.append((fid_r[r[keep]] << np.uint64(32)) | fid_s[s[keep]])

        low = np.searchsorted(start_s, start_r, side="left")
        high = np.searchsorted(start_s, stop_r, side="right")
        for r, k in ragged_rows(high - low):
            emit(r, low[r] + k)
        low = np.searchsorted(start_r, start_s, side="right")
        high = np.searchsorted(start_r, stop_s, side="right")
        for s, k in ragged_rows(high - low):
            emit(low[s] + k, s)

        pairs = np.sort(np.concatenate(found))
        candidates = np.empty((len(pairs), 2), np.int64)
        candidates[:, 0], candidates[:, 1] = pairs >> np.uint64(32), pairs & np.uint64(2**32 - 1)
        if tracer.enabled:  # for a tag nobody else reads
            tiles_r, tiles_s = start_r >> np.uint64(32), start_s >> np.uint64(32)
            tiles_r = tiles_r[np.concatenate(([True], tiles_r[1:] != tiles_r[:-1]))]
            span.tag("tile_groups", int(np.count_nonzero(
                tiles_s.searchsorted(tiles_r, "right") > tiles_s.searchsorted(tiles_r)
            )))
        span.tag("candidates", len(candidates))
        return candidates


def _order_keys(tiles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(tile, x)`` for a u32 tile and a float32 ``x`` that is not NaN as
    one uint64 that sorts as the pair does: the tile above ``x``'s bits
    mapped to a u32 in the float order.  ``x + 0`` turns ``-0.0`` into
    ``+0.0``; then a negative value's bits are flipped and a non-negative
    one's sign bit is set."""
    bits = (x + np.float32(0.0)).view(np.int32)
    bits ^= (bits >> 31) | np.int32(-(1 << 31))
    return (tiles.astype(np.uint64) << np.uint64(32)) | bits.view(np.uint32)


def _in_key_order(kps: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A side's sweep columns in ``(tile, xl)`` order, once its records
    are checked: that key, the ``(tile, xu)`` key, ``yl``, ``yu``, the
    class and the feature id (as uint64)."""
    mbr, tiles = kps["mbr"], kps["tile"]
    # Written so that a NaN bound fails it too.
    if not ((mbr[:, 0] <= mbr[:, 2]) & (mbr[:, 1] <= mbr[:, 3])).all() or (kps["cls"] > 3).any():
        raise ValueError("malformed rectangle in a key-pointer block")
    start = _order_keys(tiles, mbr[:, 0])
    order = np.argsort(start)
    return (
        start[order], _order_keys(tiles[order], mbr[order, 2]),
        mbr[order, 1], mbr[order, 3], kps["cls"][order], kps["fid"][order].astype(np.uint64),
    )


def refine_pair(
    candidates: np.ndarray,
    records_r: StoredRecords,
    records_s: StoredRecords,
    predicate: Predicate,
    *,
    span=None,
) -> Tuple[np.ndarray, int]:
    """Exact predicate over the sorted candidates of one pair, an
    ``(n, 2)`` int64 array as :func:`sweep_pair` returns them.

    Two-layer partitioning makes the candidate stream duplicate-free by
    construction, so this no longer builds a dedup set — it applies the
    predicate and *counts* any adjacent duplicates it still sees.
    Returns ``(exact pairs, duplicates_dropped)``, the pairs an array of
    the same form; a non-zero drop count means the dedup-free invariant
    broke and is surfaced all the way up to the coordinator's
    ``merge.duplicates_dropped`` metric.

    Two forms, one answer, chosen by the predicate and the records —
    not by who holds them, a worker (a file's) or the coordinator (the
    side's own).  Under ``intersects`` with every record a candidate names
    a polyline, the verdicts of all candidates come from coordinate
    columns in one pass (:func:`~repro.geometry.kernels.polylines_intersect_each`);
    under ``contains`` with ``refine`` rows on both sides, from those rows
    and, for what they leave undecided, ring columns (:func:`_contains_each`).
    No tuple is built.  What needs a tuple — polygons under ``intersects``,
    a side of mixed geometry, any other predicate — takes the loop: look
    both tuples up, call the predicate.  ``span``, if given, is tagged with
    which form ran, what it decoded, how many rows reached the exact tests,
    how many candidates were decided without them (``square_hits``), and
    the seconds spent decoding columns (``decode_s``) and deciding
    (``kernel_s``; all of the loop's, which decodes as it goes).
    """
    started, decode_s = time.perf_counter(), 0.0

    def fetch(records: StoredRecords, feature_ids: np.ndarray, decode):
        nonlocal decode_s
        at = time.perf_counter()
        found = records.columns(feature_ids, decode)
        decode_s += time.perf_counter() - at
        return found

    pairs, dropped = drop_adjacent(candidates)
    named_r, of_r = np.unique(pairs[:, 0], return_inverse=True)
    named_s, of_s = np.unique(pairs[:, 1], return_inverse=True)
    rows = {"segment_pairs": 0, "vertex_rows": 0, "square_hits": 0}
    hits = None
    stored = records_r.refine is not None and records_s.refine is not None
    if predicate is contains and stored:
        hits, named_r, named_s = _contains_each(pairs, records_r, records_s, rows, fetch)
    elif predicate is intersects:
        chains_r = fetch(records_r, named_r, polyline_runs)
        chains_s = None if chains_r is None else fetch(records_s, named_s, polyline_runs)
        if chains_s is not None:
            hits, tested = polylines_intersect_each(chains_r, chains_s, of_r, of_s)
            rows.update(tested)
    columnar = hits is not None
    if not columnar:
        hits = np.fromiter(
            (predicate(records_r[r], records_s[s]) for r, s in pairs.tolist()),
            dtype=bool, count=len(pairs),
        )
    if span is not None:
        rows.update(decode_s=decode_s, kernel_s=time.perf_counter() - started - decode_s)
        span.tag("columnar", columnar)
        span.tag("records_decoded", len(named_r) + len(named_s))
        for name, value in rows.items():
            span.tag(name, value)
    return pairs[hits], dropped


def _contains_each(pairs, records_r, records_s, rows, fetch):
    """``contains`` for every pair: the verdicts, and the feature ids of
    the polygons decoded, per side.

    From the stored rows first, with nothing decoded: the shell MBRs nest
    (``Rect.contains``), and of those the pairs whose inner extent — all
    rings: a hole need not lie within its shell, and hole edges take part
    in the crossing test — lies in the outer polygon's clearance square
    are contained.  Only the polygons the pairs still undecided name are
    decoded (``fetch`` of :func:`~repro.storage.tuples.polygon_runs`), and
    only those pairs reach the exact tests
    (:func:`~repro.geometry.kernels.polygons_contain_each`).
    """
    outer = records_r.refine[records_r.records_of(pairs[:, 0])]
    inner = records_s.refine[records_s.records_of(pairs[:, 1])]
    mbr, box, extent = outer["mbr"], inner["mbr"], inner["extent"]
    inside = (mbr[:, :2] <= box[:, :2]).all(1) & (box[:, 2:] <= mbr[:, 2:]).all(1)
    centre, half = outer["square"][:, :2], outer["square"][:, 2:]
    hits = inside & (centre - half <= extent[:, :2]).all(1)
    hits &= (extent[:, 2:] <= centre + half).all(1)
    rows["square_hits"] = int(hits.sum())
    undecided = np.flatnonzero(inside & ~hits)
    named_r, of_r = np.unique(pairs[undecided, 0], return_inverse=True)
    named_s, of_s = np.unique(pairs[undecided, 1], return_inverse=True)
    hits[undecided], tested = polygons_contain_each(
        fetch(records_r, named_r, polygon_runs), fetch(records_s, named_s, polygon_runs),
        of_r, of_s, box[undecided].T,
    )
    rows.update(tested)
    return hits, named_r, named_s


def run_pair_task(task: PairTask) -> PairTaskResult:
    """Execute one partition-pair task inside a worker process.

    Filter: read the key-pointer spills, join them per tile group with the
    two-layer class filter (:func:`sweep_pair`).  Refine: look the
    candidate feature-id pairs up in both sides' relations
    (:func:`open_relation`) and apply the exact predicate
    (:func:`refine_pair`), then make sure neither relation file changed
    since it was checked.  The returned pair array is sorted, exact,
    and — because only one tile may emit any given pair — disjoint from
    every other task's, so the coordinator's merge has no dedup barrier.

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
            corruption=True, damaged_path=exc.path,
        ) from exc
    except Exception as exc:
        raise WorkerTaskError(
            task.index, task.attempt, os.getpid(),
            type(exc).__name__, str(exc), traceback.format_exc(),
        ) from exc


def _run_pair_task(task: PairTask) -> PairTaskResult:
    started = time.perf_counter()
    tracer = Tracer() if task.observe else NULL_TRACER
    _heartbeat(task.index, task.attempt, "merge")
    with tracer.span(
        "worker.task", pair=task.index, pid=os.getpid(), attempt=task.attempt
    ) as span:
        with tracer.span("worker.merge", pair=task.index):
            kps_r = read_keypointer_spill(task.kp_r_path)
            kps_s = read_keypointer_spill(task.kp_s_path)
            candidates = sweep_pair(
                kps_r, kps_s, DEFAULT_TASK_MEMORY, task.config,
                label=str(task.index), tracer=tracer,
            )

        _heartbeat(task.index, task.attempt, "refine")
        with tracer.span(
            "worker.refine", pair=task.index, candidates=len(candidates)
        ) as refine_span:
            relations: List[StoredRecords] = []
            open_s = check_s = 0.0
            for path in task.relation_r_path, task.relation_s_path:
                opened = time.perf_counter()
                records, hit = _open_relation(path)
                relations.append(records)
                if not hit:
                    open_s += time.perf_counter() - opened
                    check_s += records.check_s
            refine_span.tag("open_s", open_s)
            refine_span.tag("check_s", check_s)
            records_r, records_s = relations
            try:
                pairs, dropped = refine_pair(
                    candidates, records_r, records_s, task.predicate, span=refine_span,
                )
            finally:
                # What the refine made of the mapped bytes counts only if
                # they are still the ones checked.
                for records in relations:
                    _check_unchanged(records)

        span.tag("candidates", len(candidates))
        span.tag("results", len(pairs))

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
    )
