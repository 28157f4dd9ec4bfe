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
pool worker by :func:`init_worker_heartbeats` — at every phase boundary.
The queue is the only channel that outlives a worker crash: a result
wire from a dead process never arrives, but its last heartbeat already
did, which is exactly what the live view and the post-mortem need.
"""

from __future__ import annotations

import os
import struct
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.keypointer import _f32_down, _f32_up
from ..core.pbsm import PBSMConfig, merge_partition_pair
from ..core.predicates import Predicate
from ..faults.inject import apply_worker_faults
from ..faults.plan import WorkerFaults
from ..geometry import Rect
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.errors import SpillCorruptionError
from ..storage.spill import FRAME_HEADER_SIZE, SpillWriter, read_spill
from ..storage.tuples import SpatialTuple, deserialize_tuple, serialize_tuple

_FIDKP = struct.Struct("<ffffIIB")
"""One spilled key-pointer: conservative f32 MBR + u32 feature id + u32
tile + u8 two-layer class."""

FidKeyPointer = Tuple[Rect, int, int, int]
"""``(rect, feature_id, tile, class)`` — one two-layer replica slot."""

_HEARTBEAT_QUEUE = None
"""Worker-process global: the coordinator's heartbeat queue, installed by
:func:`init_worker_heartbeats` when the pool is spawned with a journal.
``None`` (the default) keeps the hot path ping-free."""


def init_worker_heartbeats(queue) -> None:
    """Pool initializer: arm this worker's heartbeat channel.

    Passed as ``initializer=init_worker_heartbeats, initargs=(queue,)``
    to ``ProcessPoolExecutor`` — multiprocessing queues survive that trip
    under every start method because they are process-constructor
    arguments, not task payloads.
    """
    global _HEARTBEAT_QUEUE
    _HEARTBEAT_QUEUE = queue


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


def pack_fid_keypointer(
    rect: Rect, feature_id: int, tile: int = 0, cls: int = 0
) -> bytes:
    return _FIDKP.pack(
        _f32_down(rect.xl), _f32_down(rect.yl),
        _f32_up(rect.xu), _f32_up(rect.yu),
        feature_id, tile, cls,
    )


def unpack_fid_keypointer(record: bytes) -> FidKeyPointer:
    xl, yl, xu, yu, fid, tile, cls = _FIDKP.unpack(record)
    return Rect(xl, yl, xu, yu), fid, tile, cls


def fid_keypointer(t: SpatialTuple, tile: int = 0, cls: int = 0) -> FidKeyPointer:
    """The key-pointer a tuple spills to, with identical f32 rounding.

    The coordinator's degraded path rebuilds a partition from base tuples;
    routing through the pack/unpack pair guarantees the rebuilt MBRs are
    bit-identical to what a worker would have read from the spill file.
    Tile/class tags come from the exact f64 MBR, so the rebuilt replica
    slots are identical too.
    """
    return unpack_fid_keypointer(pack_fid_keypointer(t.mbr, t.feature_id, tile, cls))


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

    A context manager with writer semantics: a clean ``with`` exit seals
    both files, an exception aborts them (partial files are deleted, so a
    failed partitioning pass cannot leak ``.kp``/``.tup`` litter).  With
    ``atomic=True`` both files stage through ``*.tmp`` and only appear
    under their final names once complete — what checkpointed runs need so
    a resume can trust any spill file that *exists*.
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

    @property
    def count(self) -> int:
        return self._kp.count

    @property
    def charged(self) -> int:
        """Bytes this spill holds against its disk budget."""
        return self._kp.charged + self._tuples.charged

    def release_budget(self) -> None:
        """Return both writers' charged bytes (the files left the disk)."""
        self._kp.release_budget()
        self._tuples.release_budget()

    def add(self, t: SpatialTuple, slots: Sequence[Tuple[int, int]]) -> None:
        """Spill one tuple with its two-layer ``(tile, class)`` slots.

        One key-pointer record per slot (the merge's per-tile groups), the
        full tuple once.  ``count`` — the LPT cost seed — therefore counts
        replica slots, which is exactly the sweep work a worker will do.
        """
        for tile, cls in slots:
            self._kp.append(pack_fid_keypointer(t.mbr, t.feature_id, tile, cls))
        self._tuples.append(serialize_tuple(t))

    @staticmethod
    def record_bytes(t: SpatialTuple, slots: Sequence[Tuple[int, int]]) -> int:
        """The on-disk bytes one :meth:`add` of these arguments writes: a
        framed key-pointer per slot plus the framed tuple."""
        return (
            len(slots) * (FRAME_HEADER_SIZE + _FIDKP.size)
            + FRAME_HEADER_SIZE + len(serialize_tuple(t))
        )

    def close(self) -> None:
        self._kp.close()
        self._tuples.close()

    def abort(self) -> None:
        """Discard both writes, deleting whatever reached the disk."""
        self._kp.abort()
        self._tuples.abort()

    def remove(self) -> None:
        """Delete the files (a failed partitioning pass starts over)."""
        self.close()
        for path in (self.kp_path, self.tuple_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "PartitionSpill":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


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


def read_keypointer_spill(path: str) -> List[FidKeyPointer]:
    return [unpack_fid_keypointer(record) for record in read_spill(path)]


def read_tuple_spill(path: str) -> Dict[int, SpatialTuple]:
    """The partition's tuples keyed by feature id (refinement's lookup)."""
    out: Dict[int, SpatialTuple] = {}
    for record in read_spill(path):
        t = deserialize_tuple(record)
        out[t.feature_id] = t
    return out


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
    memory_bytes: int
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
    kps_r: Sequence[FidKeyPointer],
    kps_s: Sequence[FidKeyPointer],
    memory_bytes: int,
    config: PBSMConfig,
    *,
    label: str,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> List[Tuple[int, int]]:
    """The filter step for one in-memory pair: candidate feature-id pairs."""
    candidates: List[Tuple[int, int]] = []
    merge_partition_pair(
        kps_r, kps_s,
        lambda fid_r, fid_s: candidates.append((fid_r, fid_s)),
        memory_bytes, config,
        label=label, tracer=tracer, metrics=metrics,
    )
    return candidates


def refine_pair(
    candidates: Sequence[Tuple[int, int]],
    tuples_r: Dict[int, SpatialTuple],
    tuples_s: Dict[int, SpatialTuple],
    predicate: Predicate,
) -> Tuple[List[Tuple[int, int]], int]:
    """Exact predicate over the sorted candidates of one pair.

    Two-layer partitioning makes the candidate stream duplicate-free by
    construction, so this no longer builds a dedup set — it sorts, applies
    the predicate, and *counts* any adjacent duplicates it still sees.
    Returns ``(sorted exact pairs, duplicates_dropped)``; a non-zero drop
    count means the dedup-free invariant broke and is surfaced all the way
    up to the coordinator's ``merge.duplicates_dropped`` metric.
    """
    results: List[Tuple[int, int]] = []
    dropped = 0
    prev: Optional[Tuple[int, int]] = None
    for pair in sorted(candidates):
        if pair == prev:
            dropped += 1
            continue
        prev = pair
        fid_r, fid_s = pair
        if predicate(tuples_r[fid_r], tuples_s[fid_s]):
            results.append(pair)
    return results, dropped


def merge_refine_pair(
    kps_r: Sequence[FidKeyPointer],
    kps_s: Sequence[FidKeyPointer],
    tuples_r: Dict[int, SpatialTuple],
    tuples_s: Dict[int, SpatialTuple],
    predicate: Predicate,
    memory_bytes: int,
    config: PBSMConfig,
    *,
    label: str,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Tuple[List[Tuple[int, int]], int, int]:
    """Merge + refine one in-memory partition pair; the shared heart of the
    worker task and the coordinator's degraded rebuild.

    Returns ``(sorted exact feature-id pairs, candidate count, duplicates
    dropped)``.  Both callers feeding it identical inputs get identical
    output, which is what makes graceful degradation invisible in the
    final pair set.
    """
    candidates = sweep_pair(
        kps_r, kps_s, memory_bytes, config,
        label=label, tracer=tracer, metrics=metrics,
    )
    pairs, dropped = refine_pair(candidates, tuples_r, tuples_s, predicate)
    return pairs, len(candidates), dropped


def run_pair_task(task: PairTask) -> PairTaskResult:
    """Execute one partition-pair task inside a worker process.

    Filter: read the key-pointer spills, plane-sweep per tile group with
    the two-layer class filter (with §3.5 recursion if configured).
    Refine: look the candidate feature-id pairs up in the partition's
    tuple spills and apply the exact predicate.  The returned pair list is
    sorted, exact, and — because only one tile may emit any given pair —
    disjoint from every other task's, so the coordinator's merge is a
    plain ordered concatenation with no dedup barrier.

    Any failure is re-raised as :class:`WorkerTaskError` with the pair
    index, attempt, and pid attached (corruption flagged); planned faults
    fire first, keyed by the task's attempt number.
    """
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
                kps_r, kps_s, task.memory_bytes, task.config,
                label=str(task.index), tracer=tracer, metrics=metrics,
            )

        _heartbeat(task.index, task.attempt, "refine")
        with tracer.span(
            "worker.refine", pair=task.index, candidates=len(candidates)
        ):
            tuples_r = read_tuple_spill(task.tuples_r_path)
            tuples_s = read_tuple_spill(task.tuples_s_path)
            pairs, dropped = refine_pair(
                candidates, tuples_r, tuples_s, task.predicate
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
