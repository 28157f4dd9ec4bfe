"""True multiprocess PBSM: partition once, schedule pairs across cores.

Where :class:`repro.parallel.engine.ParallelPBSM` *simulates* §5's
shared-nothing machine on virtual nodes (modelled seconds, one process),
this backend executes the join on real worker processes and is measured in
real wall-clock seconds:

1. **Partition** — the coordinator runs PBSM's tiled partitioning function
   over both inputs once, spilling each partition's key-pointers to files
   workers can read; the tuples they refine with are each side's relation
   file, written once per input (:mod:`repro.parallel.tasks`).
2. **Schedule** — partition-pair merge tasks are submitted to a
   ``ProcessPoolExecutor`` kept between runs (:data:`RESIDENT_POOL`, the
   process's one pool: journaled, fault-injected, plain and served runs) in
   longest-processing-time-first order, seeded by per-pair key-pointer
   counts.  LPT places the big pairs first; the
   executor's single shared task queue then acts as the work-stealing
   fallback — when skew makes the estimate wrong, whichever worker frees
   up first simply pulls the next pair, so no worker idles while tasks
   remain.
3. **Merge** — exact per-pair results (sorted ``(n, 2)`` arrays of
   feature-id pairs) arrive *disjoint* under two-layer partitioning: only
   the tile holding a pair's reference point may emit it, so one sort of
   their concatenation is the merge, with no dedup barrier.
   ``merge.duplicates_dropped`` counts anything the merge still had to
   drop — it must read 0, and CI gates on it.  Each worker's spans come
   back in wire form and are adopted into the coordinator's tracer, so one
   trace shows every process's work in its own lane; each pair's metrics
   and task events the coordinator derives from the result itself.

The scheduler is **crash-recovering**.  A failed partition-pair task (a
worker exception, a killed process, a task past its timeout) is retried
with exponential backoff up to ``max_task_retries`` times, re-dispatched
to whatever workers survive; a ``BrokenProcessPool`` is healed by
respawning the pool and resubmitting every in-flight pair.  A spill file
that fails its CRC is *quarantined* — retrying a corrupt file cannot
help — and when a pair exhausts its retry budget or loses its spill to
corruption, the coordinator **degrades gracefully**: it rebuilds that
partition from the base relations it still holds and merges it serially
in-process.  Degraded or not, the result pair set is identical to the
serial and simulated backends for every seed — the cross-backend
equivalence tests and the fault-matrix suite assert exactly that.

Deterministic fault injection plugs in via ``fault_plan=`` (see
:mod:`repro.faults`); every recovery action is counted in the
``faults.*`` metrics and summarised on the result.

An engine is configuration only.  Each call on it is one run
(:class:`_Run`), which holds everything the call changes — tallies,
deadline, disk budget, checkpoint store, the scheduling loop's pool and
queue — so no call reports another's faults; the scheduling loop
(:meth:`ProcessPBSM._execute`) is a loop over the run's steps.  A
worker's task and the coordinator's rebuild of a pair join it with the
same :func:`~repro.parallel.tasks.join_pair`.

The coordinator itself is made killable by ``checkpoint_dir=``
(:mod:`repro.checkpoint`): the run writes a durable join manifest and a
per-pair result log, and :meth:`ProcessPBSM.resume` rebuilds the run from
them — re-partitioning both sides from the inputs, replaying committed
pairs' results and spans, and re-merging only the pairs that never
committed.  Spills are never durable: every pool run writes them to a
temporary directory of its own, removed when the run ends (a SIGKILLed
coordinator leaves it in ``TMPDIR``).
Kill + resume produces the byte-identical pair set of an uninterrupted
run; the kill-matrix suite asserts it at every checkpoint ordinal.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from collections import Counter as TallyCounter
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..checkpoint.manifest import (
    STATE_COMPLETE,
    STATE_MERGING,
    JoinManifest,
    RunFingerprint,
)
from ..checkpoint.store import CheckpointMismatchError, CheckpointStore
from ..core.partition import SpatialPartitioner
from ..core.pbsm import PBSMConfig
from ..core.refine import SortedPairs, merge_sorted_unique
from ..core.predicates import Predicate
from ..faults.inject import (
    CheckpointFaultGate,
    CoordinatorKilledError,
    DiskFullInjector,
    InjectedFaultError,
    WriteErrorInjector,
    tear_frame,
)
from ..faults.plan import FaultPlan
from ..obs.journal import (
    EVENT_DEADLINE_EXCEEDED,
    EVENT_DEGRADED,
    EVENT_DISK_FULL_RECOVERED,
    EVENT_DISK_PRESSURE,
    EVENT_FAULT_INJECTED,
    EVENT_PARTITION_SEALED,
    EVENT_POOL_RESPAWN,
    EVENT_QUARANTINED,
    EVENT_RETRY,
    EVENT_RUN_FINISHED,
    EVENT_RUN_STARTED,
    EVENT_SAMPLE,
    EVENT_SCHEDULE,
    EVENT_TASK_DISPATCHED,
    EVENT_TASK_FINISHED,
    EVENT_TASK_REPLAYED,
    EVENT_TASK_STARTED,
    EVENT_TIMEOUT,
    EVENT_WORKER_HEARTBEAT,
    NULL_JOURNAL,
)
from ..obs.metrics import LATENCY_BUCKETS_S, NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.errors import DiskFullError, ManifestCorruptionError
from ..storage.pressure import DiskBudget
from ..storage.spill import SpillWriter
from ..storage.tuples import SpatialTuple
from .engine import NodeReport, ParallelJoinResult, TaskReport
from .tasks import DEFAULT_TASK_MEMORY  # noqa: F401 -- benchmarks/perf/replay.py's import
from .tasks import (
    HeartbeatFile,
    InputSide,
    PairTask,
    PairTaskResult,
    SideRouting,
    SpillHandle,
    StoredRecords,
    WorkerTaskError,
    init_pool_worker,
    join_pair,
    run_pair_task,
    spill_blocks,
    spill_bytes,
)

SideSpills = List[SpillHandle]
"""One side's per-partition spills, as this run wrote them."""

DEFAULT_TASKS_PER_WORKER = 4
"""Partition count multiplier: more pairs than workers, so LPT ordering
and queue-based stealing have room to balance skewed pairs."""

START_METHOD_ENV = "REPRO_MP_START_METHOD"
"""Environment override for the multiprocessing start method (CI uses it
to force ``spawn`` on platforms that default to ``fork``)."""


def mp_context(start_method: Optional[str] = None):
    """The context a run starts its processes in: ``start_method``, else
    :data:`START_METHOD_ENV`, else the platform's default."""
    return multiprocessing.get_context(start_method or os.environ.get(START_METHOD_ENV))


DEFAULT_MAX_TASK_RETRIES = 2
"""Retry budget per partition pair before the coordinator degrades it."""

RETRY_BACKOFF_S = 0.05
"""Base of the exponential backoff between retries of one pair."""

PARTITION_WRITE_RETRIES = 3
"""Bounded rewrites of one partition's spill on a write error."""

_POLL_S = 0.25
"""Executor wait slice when task deadlines are armed."""

SAMPLE_INTERVAL_S = 0.5
"""Coordinator sampler cadence: how often a journaling run records its
queue depth / inflight / utilization timeseries."""


class DeadlineExceededError(RuntimeError):
    """The run blew its wall-clock deadline and was cooperatively cancelled.

    Raised by :class:`ProcessPBSM` when ``deadline_s`` elapses before the
    join completes: queued pair tasks stop being dispatched, in-flight
    futures are abandoned through the same pool-abandonment path a task
    timeout uses (a wedged worker cannot be killed inside
    ``ProcessPoolExecutor`` without breaking the pool), and this error
    surfaces.  Every pair harvested before the deadline was already
    committed through ``on_result``, so with a checkpoint directory the
    partial state stays adoptable — a retry *resumes* the join instead of
    restarting it.
    """

    def __init__(self, deadline_s: float, *, completed: int = 0, pending: int = 0):
        super().__init__(
            f"join exceeded its {deadline_s}s deadline "
            f"({completed} pairs committed, {pending} abandoned)"
        )
        self.deadline_s = deadline_s
        self.completed = completed
        self.pending = pending


class ResidentPoolProvider:
    """One pool kept from run to run, a *generation* at a time.

    The first run that asks starts it; ``release`` leaves it standing;
    the first ``discard`` of a generation (a broken pool, a task timeout,
    a run deadline) retires it, later discards of it are no-ops, and the
    next ``acquire`` starts the next generation — as does one that finds
    the pool broken (a worker killed between runs).  Either way
    :attr:`retired` counts it: the serve tier's circuit breaker reads it.
    A retired generation's workers are terminated when its last tenant
    releases it, so a wedged one holds up neither a co-tenant's running
    pairs nor the interpreter's exit; the current generation's workers
    exit with the interpreter (``concurrent.futures`` joins every live
    pool's workers first).  Its workers run
    :func:`~repro.parallel.tasks.init_pool_worker`, so they die with
    their coordinator.  Every run uses it the same way, journaled or with
    a fault plan or neither: a journaled run's heartbeats go to a file of
    its own, named by its tasks, not to any state of the pool's.

    A generation serves the runs it fits — same worker count and start
    method — whatever their sides: each worker opens the relation files
    it refines itself (:func:`~repro.parallel.tasks.open_relation`).  A
    run that does not fit retires the idle generation (no fault:
    :attr:`retired` stays) and starts the next; one that finds it busy
    (another thread's run) uses it as it is, so no tenant's pool is
    retired under it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._fits: tuple = ()
        """``(workers, start method)``."""
        self._held: Dict[ProcessPoolExecutor, list] = {}
        """``[tenants, worker processes]`` of the current generation and
        of each retired one a run still holds."""
        self.generation = 0
        """How many pools have been started; bumps on every new one."""
        self.retired = 0
        """How many generations a fault retired: discarded, or found broken."""

    def acquire(self, max_workers: int, context) -> ProcessPoolExecutor:
        """The resident pool, when it fits this run (started if need be).
        Every acquire is paired with one :meth:`release`."""
        fits = (max_workers, context.get_start_method())
        with self._lock:
            old = self._pool
            if old is not None and old._broken:  # type: ignore[attr-defined]
                self._retire_locked()
            elif old is not None and (self._held[old][0] or self._fits == fits):
                old = None  # it serves this run
            elif old is not None:
                self._pool = None  # idle, and does not fit: no fault
                del self._held[old]
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers, mp_context=context, initializer=init_pool_worker
                )
                self._fits = fits
                self._held[self._pool] = [0, self._pool._processes]  # type: ignore[attr-defined]
                self.generation += 1
            self._held[self._pool][0] += 1
            pool = self._pool
        if old is not None:  # idle or broken: gone before the next fork
            old.shutdown(wait=True)
        return pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Retire a broken or wedged generation without waiting on its
        workers (first caller wins; a retired one's late discards no-op).
        Its queued tasks are cancelled; its running ones keep their
        workers until its last tenant releases it."""
        with self._lock:
            if pool is not self._pool:
                return
            self._retire_locked()
        pool.shutdown(wait=False, cancel_futures=True)

    def release(self, pool: ProcessPoolExecutor) -> None:
        """The run is done with the pool.  The current generation stays
        standing; a retired one's workers are terminated with its last
        tenant."""
        with self._lock:
            held = self._held[pool]
            held[0] -= 1
            if held[0] or pool is self._pool:
                return
            del self._held[pool]
        for worker in list(held[1].values()):
            worker.terminate()

    def _retire_locked(self) -> None:
        if not self._held[self._pool][0]:
            del self._held[self._pool]
        self._pool = None
        self.retired += 1


RESIDENT_POOL = ResidentPoolProvider()
"""The process's one worker pool: every process-backend run, served or
not, and the S side's generator run on it."""


class _Run:
    """One call on a :class:`ProcessPBSM` and everything it changes.

    The engine is its configuration; a run is one call's state — its
    sides, deadline, fault tallies, disk budget and injector, checkpoint
    store and spill directory, and the scheduling loop's pool, queue and
    futures — made fresh by each :meth:`~ProcessPBSM.run`,
    :meth:`~ProcessPBSM.resume` or :meth:`~ProcessPBSM.run_serial`, so no
    call reads another's.  The engine's phases are handed it; its methods
    are the loop's steps (:meth:`ProcessPBSM._execute`): dispatch,
    harvest, fail, lose the pool, expire task timeouts, drain heartbeats
    and sample.
    """

    def __init__(
        self,
        engine: "ProcessPBSM",
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
        backend: str,
        budget: Optional[DiskBudget] = None,
        disk_injector: Optional[DiskFullInjector] = None,
    ):
        self.engine, self.predicate, self.backend = engine, predicate, backend
        # An InputSide is used as is — columns a caller's earlier join or
        # fingerprint built are read, not rebuilt; any other sequence
        # becomes one for the length of this run.
        self.side_r, self.side_s = InputSide(tuples_r), InputSide(tuples_s)
        self.budget, self.disk_injector = budget, disk_injector
        self.started = time.perf_counter()
        self.deadline_at = (
            None if engine.deadline_s is None
            else time.monotonic() + engine.deadline_s
        )
        self.faults: TallyCounter = TallyCounter()
        self.partitioner: Optional[SpatialPartitioner] = None
        self.routing: Tuple[SideRouting, ...] = ()
        """Both sides' routing, as a rebuild holds it."""
        self.store: Optional[CheckpointStore] = None
        self.spill_root = ""
        """This run's own temporary spill directory."""
        self.writers: List[SpillWriter] = []
        """Every spill this run wrote: released from the budget at its end."""
        self.write_errors = WriteErrorInjector(engine.fault_plan, journal=engine.journal)
        self.disk_degraded: Set[int] = set()
        """Partitions whose spill the disk budget denied twice."""
        self.damaged_files: Set[str] = set()
        """Relation files a task found changed or torn."""
        self.on_result: Optional[Callable[[PairTaskResult], None]] = None
        """Sees each finished pair before its spans are adopted — the
        checkpoint commits it there, so a kill mid-harvest loses at most
        the one uncommitted result."""
        self.pool: Optional[ProcessPoolExecutor] = None
        self.by_index: Dict[int, PairTask] = {}
        self.attempts: Dict[int, int] = {}
        self.to_submit: List[int] = []
        """Pair indices waiting for a worker, in LPT order."""
        self.backoff = None
        """The ``faults.retry_backoff_s`` histogram, from the loop's
        first :meth:`schedule` on."""
        self.inflight: Dict[Future, int] = {}
        self.deadlines: Dict[Future, float] = {}
        """Task-timeout deadlines, from each pair's first heartbeat."""
        self.outcomes: List[PairTaskResult] = []
        self.failed: Dict[int, str] = {}
        """Pairs the pool gave up on, mapped to why."""
        self.heartbeats: Optional[HeartbeatFile] = None
        self.worker_phase: Dict[int, str] = {}
        self.next_sample = 0.0
        self.kill_after: Optional[int] = engine.kill_coordinator_after
        """The explicit kill ordinal this run's checkpoint gate arms."""

    def begin(self, workers: int, **fields) -> Optional[ParallelJoinResult]:
        """Journal the run's start (``fields`` ride the event).  An empty
        input has nothing to partition: the run ends here and its (empty)
        result is returned; otherwise ``None``."""
        journal = self.engine.journal
        journal.emit(
            EVENT_RUN_STARTED,
            backend=self.backend,
            workers=workers,
            partitions=self.engine.num_partitions,
            tuples_r=len(self.side_r),
            tuples_s=len(self.side_s),
            **fields,
        )
        if self.side_r and self.side_s:
            return None
        journal.emit(EVENT_RUN_FINISHED, results=0, degraded_pairs=[])
        return ParallelJoinResult(
            SortedPairs(), backend=self.backend, wall_s=time.perf_counter() - self.started
        )

    def count(self, what: str, amount: int = 1) -> None:
        """One fault/recovery event: tallied on the run *and* in metrics."""
        self.faults[what] += amount
        self.engine.metrics.counter(f"faults.{what}").inc(amount)

    def gate_event(self, kind: str) -> None:
        """The checkpoint fault gate fired one of the plan's points."""
        if kind == "coordinator_kill":
            self.count("injected_coordinator_kills")
        elif kind == "torn_manifest":
            self.count("injected_torn_manifests")

    def fault_summary(self) -> dict:
        """The run's fault tallies plus spent disk_full plan points.

        The injector fires inside ``DiskBudget.charge`` — below the
        layers that tally recoveries — so its count is folded in here
        rather than at each catch site; that covers the spill and
        checkpoint layers uniformly."""
        summary = dict(self.faults)
        if self.disk_injector is not None and self.disk_injector.fired:
            summary["injected_disk_full"] = self.disk_injector.fired
        return summary

    def check_deadline(self, queued: int, completed: int) -> None:
        """Past the run's deadline, journal the expiry and raise
        :class:`DeadlineExceededError`, with ``queued`` pairs not started
        and ``completed`` ones done.

        Cooperative cancellation: everything harvested so far was already
        committed through :attr:`on_result`, so a checkpointed retry
        resumes instead of restarting.  Pairs in flight ride the same
        pool-loss path a task timeout uses (a wedged worker cannot be
        killed without breaking the pool); with nothing in flight the pool
        is left healthy for its other tenants."""
        if self.deadline_at is None or time.monotonic() <= self.deadline_at:
            return
        deadline_s, inflight = self.engine.deadline_s, sorted(self.inflight.values())
        self.count("deadline_exceeded")
        self.engine.journal.emit(
            EVENT_DEADLINE_EXCEEDED,
            deadline_s=deadline_s, queued=queued, inflight=inflight, completed=completed,
        )
        if inflight:
            self.lose_pool()
        raise DeadlineExceededError(
            deadline_s, completed=completed, pending=queued + len(inflight)
        )

    # ------------------------------------------------------------------ #
    # the scheduling loop's steps
    # ------------------------------------------------------------------ #

    def schedule(self, tasks: List[PairTask]) -> None:
        """Queue ``tasks`` (in LPT order).  A journaled or timed run's
        workers ping a heartbeat file of its own: a pair's timeout counts
        from its worker's first heartbeat (as read, within a poll slice),
        not from its submit, so time queued behind busy or still-starting
        workers is no task's."""
        engine = self.engine
        self.by_index.update((task.index, task) for task in tasks)
        self.attempts.update((task.index, 0) for task in tasks)
        self.to_submit.extend(task.index for task in tasks)
        self.backoff = engine.metrics.histogram("faults.retry_backoff_s", LATENCY_BUCKETS_S)
        if engine.journal.enabled or engine.task_timeout_s is not None:
            self.heartbeats = HeartbeatFile()
        self.next_sample = time.monotonic() + SAMPLE_INTERVAL_S

    def dispatch(self) -> bool:
        """Submit every queued pair, acquiring the pool first if the run
        holds none; whether pairs are then in flight on it.  A pool that
        refuses a submit is lost."""
        engine, journal = self.engine, self.engine.journal
        if self.pool is None:
            self.pool = RESIDENT_POOL.acquire(engine.workers, mp_context(engine.start_method))
        while self.to_submit:
            index = self.to_submit.pop(0)
            task = dataclasses.replace(
                self.by_index[index], attempt=self.attempts[index],
                heartbeats=self.heartbeats.path if self.heartbeats else None,
                timed=engine.task_timeout_s is not None,
            )
            try:
                future = self.pool.submit(run_pair_task, task)
            except RuntimeError:
                # BrokenProcessPool, or a co-tenant already discarded this
                # generation and submit raises "cannot schedule new
                # futures"; heal and resubmit everything (no attempt
                # charged — the task never reached a worker).
                self.to_submit.insert(0, index)
                self.lose_pool()
                return False
            self.inflight[future] = index
            journal.emit(
                EVENT_TASK_DISPATCHED,
                pair=index, attempt=task.attempt, cost=task.cost_estimate,
            )
            # Planned faults are journaled at dispatch, not at failure or
            # harvest: a dispatched attempt always executes its planned
            # injection, so the emitted set is a pure function of the plan
            # and tells *injected* trouble apart from collateral damage
            # (innocent pairs requeued by a BrokenProcessPool) —
            # harvest-time detection would race against whichever
            # unrelated crash broke the pool first.
            for kind in task.faults.firing(task.attempt) if task.faults else ():
                journal.emit(
                    EVENT_FAULT_INJECTED, kind=kind, pair=index, attempt=task.attempt,
                )
        return bool(self.inflight)

    def harvest(self) -> bool:
        """Take in every pair that finished, well or badly.  True when the
        pool died under one: it is then lost, and every pair in flight
        shares the crash's charge."""
        journal, broken = self.engine.journal, []
        for future in [f for f in self.inflight if f.done()]:
            index = self.inflight.pop(future)
            self.deadlines.pop(future, None)
            try:
                outcome = future.result()
            except WorkerTaskError as error:
                self.fail(index, error)
            except CancelledError:
                # A co-tenant's discard cancelled it before any worker
                # took it: requeued free, and the next submit finds the
                # generation retired.
                self.to_submit.append(index)
            except BrokenProcessPool:
                broken.append(index)
            else:
                self.outcomes.append(outcome)
                # The task's lifecycle, on the worker's clock (``worker_t``:
                # the two clocks are not comparable).
                ran = dict(pair=index, attempt=outcome.attempt, pid=outcome.worker_pid)
                wall_s = round(outcome.wall_s, 6)
                journal.emit(EVENT_TASK_STARTED, **ran, worker_t=0.0)
                journal.emit(
                    EVENT_TASK_FINISHED, **ran,
                    candidates=outcome.candidates, results=len(outcome.pairs),
                    worker_t=wall_s, wall_s=wall_s,
                )
                if self.on_result is not None:
                    self.on_result(outcome)
                if outcome.spans:
                    self.engine.tracer.adopt_wire(outcome.spans, worker=outcome.worker_pid)
        if broken:
            self.lose_pool(
                broken + list(self.inflight.values()),
                "BrokenProcessPool", "worker process died mid-task",
            )
        return bool(broken)

    def fail(self, index: int, error: WorkerTaskError) -> None:
        """Charge one attempt; requeue within budget, else give up."""
        journal = self.engine.journal
        self.count("task_failures")
        if error.corruption:
            # The file is wrong on disk — no retry can fix it.
            self.failed[index] = "corrupt_spill"
            self.damaged_files.add(error.damaged_path)
            self.count("quarantined")
            journal.emit(EVENT_QUARANTINED, pair=index, attempt=self.attempts[index])
            return
        attempt = self.attempts[index] = self.attempts[index] + 1
        if attempt > self.engine.max_task_retries:
            self.failed[index] = "retry_exhausted"
            self.count("retry_exhausted")
            return
        self.count("retries")
        backoff = RETRY_BACKOFF_S * (2 ** (attempt - 1))
        self.backoff.observe(backoff)
        journal.emit(
            EVENT_RETRY,
            pair=index, attempt=attempt,
            backoff_s=round(backoff, 6), cause=error.cause_type,
        )
        if backoff > 0:
            time.sleep(backoff)
        self.to_submit.append(index)

    def lose_pool(
        self, charged: Sequence[int] = (), cause: str = "", message: str = ""
    ) -> None:
        """The pool is gone — broken, wedged, or walked away from.

        Every ``charged`` pair pays one attempt for ``cause``; every other
        in-flight pair requeues free (it never got to finish).  The
        provider disposes without waiting: a hung worker must not hold the
        coordinator hostage."""
        survivors = [i for i in self.inflight.values() if i not in charged]
        self.inflight.clear()
        self.deadlines.clear()
        if self.pool is not None:
            RESIDENT_POOL.discard(self.pool)
            RESIDENT_POOL.release(self.pool)
            self.pool = None
        for index in charged:
            self.fail(index, WorkerTaskError(index, self.attempts[index], 0, cause, message))
        self.to_submit.extend(survivors)
        self.count("pool_respawns")
        self.engine.journal.emit(EVENT_POOL_RESPAWN, queued=len(self.to_submit))

    def expire(self) -> None:
        """Enforce task deadlines: a wedged worker cannot be killed inside
        ``ProcessPoolExecutor`` without breaking the pool, so the pool is
        abandoned wholesale and unfinished innocents are resubmitted
        uncharged.  A completed but unharvested future postpones this to
        the next round, so no result is dropped."""
        if not self.deadlines or any(f.done() for f in self.inflight):
            return
        now, timeout_s = time.monotonic(), self.engine.task_timeout_s
        timed_out = [
            self.inflight[f] for f, deadline in self.deadlines.items() if now > deadline
        ]
        for index in timed_out:
            self.count("timeouts")
            self.engine.journal.emit(
                EVENT_TIMEOUT, pair=index, attempt=self.attempts[index], timeout_s=timeout_s,
            )
        if timed_out:
            self.lose_pool(timed_out, "TaskTimeout", f"no result within {timeout_s}s")

    def drain_heartbeats(self) -> None:
        """Journal the pings since the last drain; a timed run's pair
        clocks start at their first."""
        if self.heartbeats is None:
            return
        timeout_s = self.engine.task_timeout_s
        # Only the current generation's workers start this run's clocks: a
        # retired one may still run a pair's earlier dispatch.
        workers = (self.pool and self.pool._processes) or {}  # type: ignore[attr-defined]
        for pid, pair, attempt, phase in self.heartbeats.read():
            self.worker_phase[pid] = phase
            self.engine.journal.emit(
                EVENT_WORKER_HEARTBEAT, pid=pid, pair=pair, attempt=attempt, phase=phase,
            )
            if timeout_s is not None and pid in workers:
                for future, index in self.inflight.items():
                    if index == pair and future not in self.deadlines:
                        self.deadlines[future] = time.monotonic() + timeout_s

    def sample(self) -> None:
        """A journaling run's scheduling state, every
        :data:`SAMPLE_INTERVAL_S`."""
        journal = self.engine.journal
        if not journal.enabled or time.monotonic() < self.next_sample:
            return
        self.next_sample = time.monotonic() + SAMPLE_INTERVAL_S
        journal.emit(
            EVENT_SAMPLE,
            queued=len(self.to_submit),
            inflight=sorted(self.inflight.values()),
            done=len(self.outcomes),
            total=len(self.by_index),
            workers={str(pid): phase for pid, phase in sorted(self.worker_phase.items())},
        )

    def stop(self) -> None:
        """The loop is over, however it ended.  An abandoned run (a
        coordinator kill, an exception) leaves the pool as it found it:
        its queued tasks cancelled, its running ones waited for — no later
        run queues behind them, and none reads a spill this run is about
        to remove."""
        if self.pool is not None:
            wait([future for future in self.inflight if not future.cancel()])
            RESIDENT_POOL.release(self.pool)
        self.drain_heartbeats()
        self.pool = None
        if self.heartbeats is not None:
            self.heartbeats.close()

    # ------------------------------------------------------------------ #
    # a rebuild's input (:func:`~repro.parallel.tasks.join_pair`)
    # ------------------------------------------------------------------ #

    def keypointers(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pair ``index``'s key-pointer blocks, as the spill pass wrote or
        would have written them."""
        routing_r, routing_s = self.routing
        return routing_r.keypointers[index], routing_s.keypointers[index]

    def stored(self, span=None) -> Tuple[StoredRecords, StoredRecords]:
        """The sides' own stored records (``InputSide.stored``)."""
        return self.side_r.stored, self.side_s.stored


class ProcessPBSM:
    """PBSM executed across real worker processes, surviving their faults.

    An engine is its configuration: it keeps what its constructor was
    given and nothing else.  Each call makes one :class:`_Run` and hands it
    through the phases — partition (:meth:`_spill_side`), build tasks
    (:meth:`_build_tasks`), execute (:meth:`_execute`), rebuild
    (:meth:`_rebuild_pairs`) and finish (:meth:`_finish`) — so what one
    call tallies, meters or injects no later call reports.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        num_partitions: Optional[int] = None,
        config: Optional[PBSMConfig] = None,
        start_method: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal=NULL_JOURNAL,
        fault_plan: Optional[FaultPlan] = None,
        task_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
        checkpoint_dir: Optional[str] = None,
        kill_coordinator_after: Optional[int] = None,
        kill_hard: bool = False,
        disk_budget: Optional[DiskBudget] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.config = config or PBSMConfig()
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions or workers * DEFAULT_TASKS_PER_WORKER
        self.start_method = start_method
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.journal = journal
        """Flight recorder (:class:`repro.obs.journal.RunJournal`); the
        default :data:`NULL_JOURNAL` records nothing.  When enabled, the
        run's workers also append heartbeats to a file of its own
        (:class:`~repro.parallel.tasks.HeartbeatFile`), and the coordinator
        samples its own scheduling state every :data:`SAMPLE_INTERVAL_S`."""
        self.fault_plan = fault_plan
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task timeout must be positive")
        self.task_timeout_s = task_timeout_s
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("run deadline must be positive")
        self.deadline_s = deadline_s
        """Wall-clock budget for the whole run.  Unlike ``task_timeout_s``
        (per-attempt), this bounds the run: past it the coordinator stops
        dispatching, abandons in-flight futures through the pool-abandonment
        path, and raises :class:`DeadlineExceededError`.  Committed
        checkpoint state survives, so a retry can :meth:`resume`."""
        if max_task_retries < 0:
            raise ValueError("retry budget cannot be negative")
        self.max_task_retries = max_task_retries
        self.checkpoint_dir = checkpoint_dir
        """Directory for durable run state (manifest, result log, spills);
        ``None`` disables checkpointing and keeps spills in a tempdir."""
        if checkpoint_dir is None and (
            kill_coordinator_after is not None
            or fault_plan is not None
            and (
                fault_plan.coordinator_kill_ordinals
                or fault_plan.torn_manifest_ordinals
            )
        ):
            raise ValueError(
                "coordinator kills / torn manifests need checkpoint_dir "
                "(--checkpoint-dir): without durable state a kill just "
                "loses the run and a planned one never fires"
            )
        if kill_coordinator_after is not None and kill_coordinator_after < 1:
            raise ValueError(
                "kill ordinal (--kill-coordinator-after) must be >= 1"
            )
        self.kill_coordinator_after = kill_coordinator_after
        self.kill_hard = kill_hard
        self.disk_budget = disk_budget
        """Optional :class:`~repro.storage.pressure.DiskBudget` every
        coordinator-side write (partition spills, checkpoint manifests,
        result-log commits) charges before touching disk.  A denied spill
        write triggers one reclaim-and-retry of that partition; a second
        denial degrades the pair to the serial no-spill path, which is
        byte-identical.  The budget stays in the coordinator — workers
        only ever *read* spills.  A ``fault_plan`` with ``disk_full``
        points auto-creates an unbounded metering budget so the injector
        has a clock to key on."""

    # ------------------------------------------------------------------ #

    def run(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """Partition, schedule, execute, recover, merge.  Pairs are feature
        ids; the set is identical to the serial reference even when the
        run degrades partitions after faults.

        With ``checkpoint_dir`` set, every durable step (manifest updates
        and per-pair result commits) is written through the atomic
        protocol first, so a died coordinator can be picked up by
        :meth:`resume`.  Existing checkpoint state for the same join is
        *discarded* — ``run()`` means start over; only ``resume()``
        replays it."""
        return self._run(tuples_r, tuples_s, predicate, resuming=False)

    def resume(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """Continue a checkpointed run from its durable state.

        Validates the run fingerprint (inputs, predicate, grid, config)
        against the checkpoint directory, re-partitions both sides from
        the inputs, replays committed pairs from the result log (their
        spans adopted into this run's trace, their metrics derived like any
        other pair's), and re-merges only the pairs that never committed.
        Raises :class:`~repro.checkpoint.store.CheckpointMismatchError`
        when the directory holds a *different* join's state; a missing or
        torn manifest degrades to a fresh (but still checkpointed) run.
        """
        if self.checkpoint_dir is None:
            raise ValueError("resume needs checkpoint_dir (--checkpoint-dir)")
        return self._run(tuples_r, tuples_s, predicate, resuming=True)

    def run_through_kill(
        self, tuples_r, tuples_s, predicate: Predicate, *, resume: bool = False
    ) -> Tuple[ParallelJoinResult, Optional[int]]:
        """:meth:`run` (or :meth:`resume`), recovered from a soft
        coordinator kill the way a crashed one-shot run is: by resuming
        from the same checkpoint directory, where everything committed
        before the kill must carry the rest of the join.

        Returns the result and the checkpoint ordinal the coordinator was
        killed after (``None``: nobody killed it).  The recovery run has
        the explicit ``kill_coordinator_after`` disarmed, or it would die
        at the same ordinal forever; the engine keeps it for later calls.
        A plan's kill points are never re-armed on a resume.
        """
        start = self.resume if resume else self.run
        try:
            return start(tuples_r, tuples_s, predicate), None
        except CoordinatorKilledError as exc:
            again = self._run(tuples_r, tuples_s, predicate, resuming=True, disarmed=True)
            return again, exc.ordinal

    def run_serial(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """The whole join, serially, in this process: the shed path.

        No pool, no spills, no checkpoint, no disk budget — the paper's
        first case (§3.1: both key-pointer sets fit in memory, so no
        partition file is written) with the base relations' own records
        fetched for the refinement.  Every partition pair is rebuilt
        through the same machinery the degraded path uses, so the answer
        is byte-identical to any other backend — the serve tier's circuit
        breaker leans on that to serve ``degraded`` responses whose
        digests match a healthy run's.  Worker faults never fire here
        (they live in ``run_pair_task``), and the run deadline still
        applies, checked between pairs.
        """
        run = _Run(self, tuples_r, tuples_s, predicate, "process-serial")
        early = run.begin(0, resuming=False)
        if early is not None:
            return early
        run.partitioner = self._partitioner(run.side_r, run.side_s)
        outcomes = self._rebuild_pairs(
            run, dict.fromkeys(range(self.num_partitions), "breaker_shed")
        )
        return self._finish(run, outcomes, *(routing.placed for routing in run.routing))

    def spill_footprint(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
    ) -> int:
        """The bytes this engine's partition phase would spill for these
        inputs — exactly an unconstrained run's metered spill peak, from
        the routed key-pointer counts.  Checkpoint manifest and result-log
        bytes are not included; the spills dominate by orders of magnitude.
        Nor is the sides' relation files: they are the inputs' stored
        form, which no run's budget charges.  It routes the sides as a run
        does, so a run after it on the same sides routes neither again."""
        if not tuples_r or not tuples_s:
            return 0
        sides = InputSide(tuples_r), InputSide(tuples_s)
        partitioner = self._partitioner(*sides)
        return sum(
            spill_bytes(ordinal) for side in sides
            for ordinal in side.routing(partitioner).ordinals
        )

    def _partitioner(self, side_r: InputSide, side_s: InputSide) -> SpatialPartitioner:
        """The run's partitioner, its universe both sides' bounds."""
        return SpatialPartitioner.for_inputs(
            side_r.bounds, side_s.bounds,
            self.num_partitions, self.config.num_tiles, self.config.scheme,
        )

    # ------------------------------------------------------------------ #
    # a pool run, start to finish
    # ------------------------------------------------------------------ #

    def _disk_meter(self) -> Tuple[Optional[DiskBudget], Optional[DiskFullInjector]]:
        """A pool run's disk budget, bound to this engine's metrics, and the
        injector of the plan's ``disk_full`` points, bound into it.  The
        injector needs a charged-byte clock to key on: without a budget of
        the caller's, an unbounded one meters without ever denying on its
        own."""
        plan = self.fault_plan
        injector = (
            DiskFullInjector(plan, journal=self.journal)
            if plan is not None and plan.disk_full_points else None
        )
        budget = self.disk_budget
        if budget is None and injector is not None:
            budget = DiskBudget()
        if budget is not None:
            budget.bind(metrics=self.metrics, injector=injector)
        return budget, injector

    def _run(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
        *,
        resuming: bool,
        disarmed: bool = False,
    ) -> ParallelJoinResult:
        """A pool run; ``disarmed`` runs it without the engine's explicit
        ``kill_coordinator_after``."""
        run = _Run(self, tuples_r, tuples_s, predicate, "process", *self._disk_meter())
        if disarmed:
            run.kill_after = None
        early = run.begin(
            self.workers,
            resuming=resuming,
            disk_budget=run.budget.max_bytes if run.budget is not None else None,
        )
        if early is not None:
            return early
        committed: Dict[int, PairTaskResult] = {}
        if self.checkpoint_dir is not None:
            committed = self._open_store(run, resuming)
        run.spill_root = tempfile.mkdtemp(prefix="repro-pbsm-")
        try:
            result = self._join(run, committed)
        finally:
            if run.store is not None:
                run.store.close()
            shutil.rmtree(run.spill_root, ignore_errors=True)
            # The spills just left the disk, and their charges with them.
            for writer in run.writers:
                writer.release_budget()
        self.metrics.gauge("parallel.process.partitions").set(self.num_partitions)
        self.metrics.gauge("parallel.process.workers").set(self.workers)
        self.metrics.counter("parallel.process.tasks").inc(len(result.tasks))
        return result

    def _join(
        self, run: _Run, committed: Dict[int, PairTaskResult]
    ) -> ParallelJoinResult:
        """Partition, execute the pairs not ``committed``, rebuild the ones
        the pool gave up on, finish."""
        side_r, side_s = run.side_r, run.side_s
        with self.tracer.span("process.partition"):
            run.partitioner = self._partitioner(side_r, side_s)
            spills_r, placed_r = self._spill_side(run, "r", side_r)
            spills_s, placed_s = self._spill_side(run, "s", side_s)
        if self.fault_plan and self.fault_plan.torn_frames:
            self._apply_torn_frames(run, spills_r, spills_s)
        # Held until the run ends: a concurrent run that drops a damaged
        # relation file must not take it off the disk under these tasks.
        # On a side's first run this writes its file, polygons' refine
        # rows and all.
        with self.tracer.span("process.relations"):
            relations = side_r.relation, side_s.relation
        all_tasks = self._build_tasks(run, spills_r, spills_s, *(r.path for r in relations))
        tasks = [t for t in all_tasks if t.index not in committed]
        self.journal.emit(
            EVENT_SCHEDULE,
            order=[{"pair": t.index, "cost": t.cost_estimate} for t in tasks],
        )
        for index in sorted(committed):
            prior = committed[index]
            self.journal.emit(
                EVENT_TASK_REPLAYED,
                pair=index, candidates=prior.candidates, results=len(prior.pairs),
            )
            if prior.spans:
                self.tracer.adopt_wire(prior.spans, worker=prior.worker_pid, replayed=True)
        store = run.store
        if store is not None:
            if store.manifest.pairs_total is None and store.manifest.state != STATE_COMPLETE:
                store.append_event(
                    {"type": "phase", "state": STATE_MERGING, "pairs_total": len(all_tasks)}
                )
            run.on_result = store.append_result
        with self.tracer.span("process.execute", tasks=len(tasks)):
            self._execute(run, tasks)
        # A relation file that failed its check is damaged in place: the
        # next run on these sides writes a fresh one.
        side_r.forget_relation(run.damaged_files)
        side_s.forget_relation(run.damaged_files)
        del relations  # the tasks are done with them
        # Partitions whose spills were dropped under disk pressure never
        # became tasks; like the pairs the pool gave up on, they are
        # rebuilt in memory — no spill, no budget charge — so the answer
        # stays byte-identical.
        run.failed.update(dict.fromkeys(run.disk_degraded - set(committed), "disk_full"))
        rebuilt = self._rebuild_pairs(run, run.failed)
        return self._finish(
            run, [*run.outcomes, *rebuilt, *committed.values()], placed_r, placed_s,
            resumed=sorted(committed),
        )

    def _finish(
        self,
        run: _Run,
        outcomes: List[PairTaskResult],
        placed_r: int,
        placed_s: int,
        *,
        resumed: Sequence[int] = (),
    ) -> ParallelJoinResult:
        """End a run: account for every pair, merge their results, mark the
        checkpoint complete, journal the finish and assemble the result."""
        outcomes.sort(key=attrgetter("index"))
        for outcome in outcomes:
            self._account(outcome)
        # Two-layer partitioning guarantees every result pair belongs to
        # exactly one task, so the per-task arrays are disjoint: merging
        # them is one sort, not a sorted-set union.  The drop counter is
        # the invariant's tripwire — it must stay 0 and CI gates on it.
        merge_started = time.perf_counter()
        with self.tracer.span("process.merge", streams=len(outcomes)):
            merged, concat_dropped = merge_sorted_unique([o.pairs for o in outcomes])
        coordinator_merge_s = time.perf_counter() - merge_started
        duplicates_dropped = concat_dropped + sum(o.duplicates_dropped for o in outcomes)
        self.metrics.counter("merge.duplicates_dropped").inc(duplicates_dropped)
        store = run.store
        if store is not None and store.manifest.state != STATE_COMPLETE:
            store.append_event({"type": "complete", "result_count": len(merged)})
        degraded_pairs = sorted(o.index for o in outcomes if o.degraded)
        self.journal.emit(
            EVENT_RUN_FINISHED,
            results=len(merged),
            degraded_pairs=degraded_pairs,
            replayed_pairs=list(resumed),
        )
        return ParallelJoinResult(
            merged,
            nodes=self._node_reports(outcomes),
            storage_factor_r=placed_r / len(run.side_r),
            storage_factor_s=placed_s / len(run.side_s),
            backend=run.backend,
            wall_s=time.perf_counter() - run.started,
            tasks=[
                TaskReport(
                    index=o.index,
                    cost_estimate=o.count_r + o.count_s,
                    candidates=o.candidates,
                    results=len(o.pairs),
                    wall_s=o.wall_s,
                    worker_pid=o.worker_pid,
                    attempts=o.attempt + 1,
                    degraded=o.degraded,
                    resumed=o.index in resumed,
                )
                for o in outcomes
            ],
            degraded_pairs=degraded_pairs,
            fault_summary=run.fault_summary(),
            resumed_pairs=list(resumed),
            checkpoint_run_id=store.fingerprint.run_id if store is not None else "",
            duplicates_dropped=duplicates_dropped,
            coordinator_merge_s=coordinator_merge_s,
        )

    # ------------------------------------------------------------------ #
    # checkpoint recovery
    # ------------------------------------------------------------------ #

    def _open_store(self, run: _Run, resuming: bool) -> Dict[int, PairTaskResult]:
        """Open the run's checkpoint store (``run.store``) and recover
        what the run starts from: the pairs already committed."""
        fingerprint = RunFingerprint.compute(
            run.side_r, run.side_s, run.predicate, self.num_partitions, self.config
        )
        # A resume is the recovery run: the plan's coordinator-kill and
        # torn-manifest points already fired (or are waived) — re-arming
        # them would make recovery unrecoverable.  An *explicit*
        # kill_coordinator_after still applies (killing the recovery
        # coordinator too is a legitimate test); run_through_kill disarms
        # it on its own recovery run only.
        gate = CheckpointFaultGate(
            None if resuming else self.fault_plan,
            hard=self.kill_hard,
            on_event=run.gate_event,
            extra_kills=() if run.kill_after is None else (run.kill_after,),
            journal=self.journal,
        )
        store = run.store = CheckpointStore(
            self.checkpoint_dir, fingerprint,  # type: ignore[arg-type]
            on_durable=gate.after_durable, journal=self.journal,
            budget=run.budget,
        )
        manifest, committed = self._recover_state(run, store, resuming)
        store.begin(manifest)
        return committed

    def _recover_state(
        self, run: _Run, store: CheckpointStore, resuming: bool
    ) -> Tuple[JoinManifest, Dict[int, PairTaskResult]]:
        """Decide what durable state this run starts from.

        ``run()`` (not resuming) owns its directory outright: same-
        fingerprint leftovers are discarded.  ``resume()`` loads the
        manifest — a torn tail recovers to its intact prefix, a corrupt
        manifest (or one for a directory holding only *other* joins) is
        handled per the contract in :meth:`resume` — and replays the
        result log's intact prefix into the committed-pair map; whatever
        followed the prefix is cut from the file before this run appends
        to it, and only the pairs behind the cut are requeued.
        """
        if not resuming:
            store.discard_results()
            return JoinManifest(store.fingerprint), {}
        try:
            manifest = store.load()
        except ManifestCorruptionError:
            run.count("manifest_discarded")
            store.discard_results()
            return JoinManifest(store.fingerprint), {}
        if manifest is None:
            siblings = store.sibling_run_ids()
            if siblings:
                raise CheckpointMismatchError(store.fingerprint.run_id, siblings)
            return JoinManifest(store.fingerprint), {}
        if manifest.recovered_torn_tail:
            run.count("torn_tail_recovered")
        committed, cut = store.replay_results()
        if cut:
            run.count("torn_tail_recovered")
        if committed:
            run.count("resumed_pairs", len(committed))
        return manifest, committed

    # ------------------------------------------------------------------ #
    # partitioning + spilling
    # ------------------------------------------------------------------ #

    def _spill_side(
        self, run: _Run, side: str, columns: InputSide
    ) -> Tuple[SideSpills, int]:
        """Spill one input's key-pointers, replicated across the partitions
        it overlaps: for each partition in turn, every tuple's two-layer
        ``(tile, class)`` slots there — routed from the exact f64 MBR — as
        one tagged key-pointer each.  A partition is written whole
        (:meth:`_spill_partition`) before the next is opened, so a failure
        costs the one being written.  Returns the side's spills (a
        degraded partition's is an empty file) and the tuples it placed."""
        routing = columns.routing(run.partitioner)  # type: ignore[arg-type]
        run.write_errors.arm_side(side, len(columns))
        writers: List[SpillWriter] = []
        try:
            for p in range(self.num_partitions):
                writers.append(self._spill_partition(run, side, p, routing))
                writers[-1].close()
        except BaseException:
            # Discard the output of the partitions before the one that
            # failed (which aborted its own): no spill litter.
            for writer in writers:
                writer.abort()
            raise
        run.writers.extend(writers)
        spills = [
            SpillHandle(w.path, 0 if p in run.disk_degraded else len(ordinal))
            for p, (w, ordinal) in enumerate(zip(writers, routing.ordinals))
        ]
        skew = self.metrics.histogram(f"parallel.partition.keypointers_{side}")
        for spill in spills:
            skew.observe(spill.count)
        self.journal.emit(
            EVENT_PARTITION_SEALED,
            side=side, placed=routing.placed, counts=[s.count for s in spills],
        )
        return spills, routing.placed

    def _spill_partition(
        self,
        run: _Run,
        side: str,
        p: int,
        routing: SideRouting,
    ) -> SpillWriter:
        """Write partition ``p``'s key-pointer spill, a block at a time
        (:func:`~repro.parallel.tasks.spill_blocks`), and retry *here*
        when a write fails — the one place a failed spill write is
        recovered; the writer comes back complete but unclosed.
        Whatever fails, the partial file is aborted — and its budget
        charge released — before anything else happens.

        * A write error (the plan's; the injector is one-shot, so it
          cannot starve the loop) → rewrite the partition, at most
          :data:`PARTITION_WRITE_RETRIES` times.
        * A write the disk budget denies → reclaim (the partial file and,
          when checkpointing, completed sibling runs) and rewrite **once**.
        * A second denial → the partition is *degraded*: its spill is an
          empty file, so no task is built, and the coordinator
          rebuilds the pair serially in memory after the merge phase (as
          it does for the other side of a partition already degraded).

        Every way the run finishes exact."""
        path = os.path.join(run.spill_root, f"part{p:04d}.{side}.kp")
        write_errors, denied = 0, False
        while p not in run.disk_degraded:
            spill = SpillWriter(path, budget=run.budget)
            try:
                blocks = spill_blocks(routing.ordinals[p], routing.keypointers[p])
                for window, keypointers in blocks:
                    run.write_errors.check(side, window)
                    spill.append(keypointers.tobytes())
            except InjectedFaultError:
                spill.abort()
                write_errors += 1
                run.count("injected_write_errors")
                run.count("partition_retries")
                if write_errors > PARTITION_WRITE_RETRIES:
                    raise
            except DiskFullError:
                spill.abort()
                if denied:
                    run.count("disk_degraded")
                    run.disk_degraded.add(p)
                    break
                denied = True
                run.count("disk_pressure")
                self.journal.emit(
                    EVENT_DISK_PRESSURE, category="spill", side=side, partition=p
                )
                if run.store is not None:
                    run.store.reclaim_completed_siblings()
            except BaseException:
                spill.abort()
                raise
            else:
                if denied:
                    run.count("disk_full_recovered")
                    self.journal.emit(
                        EVENT_DISK_FULL_RECOVERED, category="spill",
                        side=side, partition=p, action="sweep_retry",
                    )
                return spill
        return SpillWriter(path)

    def _apply_torn_frames(
        self, run: _Run, spills_r: SideSpills, spills_s: SideSpills
    ) -> None:
        """Corrupt the planned spill frames on disk, post-write.

        A torn frame in a partition that never becomes a task would go
        unread, so plans targeting an inactive pair are redirected onto an
        active one deterministically — the fault always has a victim."""
        assert self.fault_plan is not None
        active = [
            p
            for p, (spill_r, spill_s) in enumerate(zip(spills_r, spills_s))
            if spill_r.count and spill_s.count
        ]
        if not active:
            return
        active_set = set(active)
        for torn in self.fault_plan.torn_frames:
            partition = torn.partition % self.num_partitions
            if partition not in active_set:
                partition = active[torn.partition % len(active)]
            spill = (spills_r if torn.side == "r" else spills_s)[partition]
            if tear_frame(spill.kp_path, torn.frame) >= 0:
                run.count("injected_torn_frames")
                self.journal.emit(
                    EVENT_FAULT_INJECTED,
                    kind="torn_frame", side=torn.side, pair=partition,
                )

    def _build_tasks(
        self,
        run: _Run,
        spills_r: SideSpills,
        spills_s: SideSpills,
        relation_r_path: str,
        relation_s_path: str,
    ) -> List[PairTask]:
        """One task per non-empty partition pair, in LPT order, its
        refinement fetching from the sides' relation files."""
        observe = (
            self.tracer.enabled or self.metrics.enabled
            or self.journal.enabled
        )
        plan = self.fault_plan
        tasks = [
            PairTask(
                index=p,
                kp_r_path=spill_r.kp_path,
                kp_s_path=spill_s.kp_path,
                relation_r_path=relation_r_path,
                relation_s_path=relation_s_path,
                count_r=spill_r.count,
                count_s=spill_s.count,
                config=self.config,
                predicate=run.predicate,
                observe=observe,
                faults=plan.faults_for_pair(p) if plan else None,
            )
            for p, (spill_r, spill_s) in enumerate(zip(spills_r, spills_s))
            if spill_r.count and spill_s.count
        ]
        # Longest processing time first, seeded by key-pointer counts; ties
        # keep partition order (a reversed sort is still stable), so the
        # submission order is reproducible.
        tasks.sort(key=attrgetter("cost_estimate"), reverse=True)
        cost = self.metrics.histogram("parallel.task.cost_estimate")
        for task in tasks:
            cost.observe(task.cost_estimate)
        planned = sum(t.faults.total_points for t in tasks if t.faults)
        if planned:
            run.count("injected_worker_faults", planned)
        return tasks

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _execute(self, run: _Run, tasks: List[PairTask]) -> None:
        """Run the tasks on the pool, recovering from task and pool faults.

        Each pair ends in ``run.outcomes`` or in ``run.failed``, mapped to
        why the pool gave up on it — ``"retry_exhausted"`` (the retry
        budget ran out) or ``"corrupt_spill"`` (a spill file failed its
        integrity check); the caller rebuilds those serially.  The shared
        submission queue is what rebalances skew; retries simply re-enter
        it, so a re-dispatched pair lands on whichever worker survives and
        frees up first.
        """
        if not tasks:
            return
        run.schedule(tasks)
        try:
            while run.to_submit or run.inflight:
                run.check_deadline(len(run.to_submit), len(run.outcomes))
                if not run.dispatch():
                    continue
                # A run with heartbeats polls, so pings (which start a
                # timed run's pair clocks) and sampler ticks keep flowing
                # while tasks are quiet; otherwise the wait only needs a
                # slice when the whole-run deadline must be enforced.
                polls = run.heartbeats is not None or run.deadline_at is not None
                wait(
                    set(run.inflight),
                    timeout=_POLL_S if polls else None,
                    return_when=FIRST_COMPLETED,
                )
                run.drain_heartbeats()
                run.sample()
                if not run.harvest():
                    run.expire()
        finally:
            run.stop()

    # ------------------------------------------------------------------ #
    # graceful degradation
    # ------------------------------------------------------------------ #

    def _rebuild_pairs(self, run: _Run, reasons: Dict[int, str]) -> List[PairTaskResult]:
        """Serially rebuild pairs from the base relations, in index order.

        ``reasons`` maps each pair to why the process path does not have
        it: ``retry_exhausted`` / ``corrupt_spill`` (the pool gave up),
        ``disk_full`` (its spill was dropped under pressure) or
        ``breaker_shed`` (there is no pool: :meth:`run_serial`).  The
        coordinator still holds the base relations, so each pair is
        joined as a worker joins it (:func:`~repro.parallel.tasks.join_pair`)
        from the key-pointer blocks the spill pass wrote or would have
        written (the sides' :meth:`~repro.parallel.tasks.InputSide.routing`)
        and the sides' own stored records — bit-identical input — in
        process: slower, but exact.  The run deadline is checked between
        pairs; ``run.on_result`` commits each rebuilt pair as it completes.
        """
        if not reasons:
            return []
        # Held for the rebuild: a thread with another tiling that overtakes
        # this run re-derives the sides' routing, not this run's.
        run.routing = tuple(side.routing(run.partitioner) for side in (run.side_r, run.side_s))
        results: List[PairTaskResult] = []
        for index in sorted(reasons):
            run.check_deadline(len(reasons) - len(results), len(results))
            reason = reasons[index]
            with self.tracer.span("process.degraded_pair", pair=index) as span:
                span.tag("degraded", True)
                span.tag("reason", reason)
                outcome = join_pair(
                    index, partial(run.keypointers, index), run.stored,
                    run.predicate, self.config,
                    label=f"degraded.{index}", tracer=self.tracer, span=span,
                    degraded=True, degraded_reason=reason,
                )
                span.tag("results", len(outcome.pairs))
            run.count("degraded")
            self.journal.emit(EVENT_DEGRADED, pair=index, reason=reason)
            if run.on_result is not None:
                run.on_result(outcome)
            results.append(outcome)
        return results

    def _account(self, outcome: PairTaskResult) -> None:
        """Record one pair's metrics from its result's own fields — the one
        account of a pair, whether a worker returned it, the coordinator
        rebuilt it or a resume replayed it.  ``pbsm.merge.*`` counts the
        sweeps (:func:`~repro.parallel.tasks.sweep_pair` sweeps nothing
        when a side is empty); ``parallel.worker.*`` the pairs a worker
        ran, so not a degraded one."""
        metrics, keypointers = self.metrics, outcome.count_r + outcome.count_s
        if outcome.count_r and outcome.count_s:
            metrics.counter("pbsm.merge.pairs_swept").inc()
            metrics.histogram("pbsm.merge.inputs_per_pair").observe(keypointers)
            metrics.histogram("pbsm.merge.candidates_per_pair").observe(
                outcome.candidates
            )
        if not outcome.degraded:
            metrics.counter("parallel.worker.candidates").inc(outcome.candidates)
            metrics.counter("parallel.worker.pairs_checked").inc(
                outcome.candidates - outcome.duplicates_dropped
            )
            metrics.counter("parallel.worker.results").inc(len(outcome.pairs))
            metrics.histogram("parallel.worker.task_keypointers").observe(
                keypointers
            )

    def _node_reports(self, outcomes: List[PairTaskResult]) -> List[NodeReport]:
        """Per-worker rollups: which process did how much, for how long."""
        by_pid: Dict[int, NodeReport] = {}
        for outcome in outcomes:
            report = by_pid.get(outcome.worker_pid)
            if report is None:
                report = NodeReport(node_id=len(by_pid))
                by_pid[outcome.worker_pid] = report
            report.tuples_r += outcome.count_r
            report.tuples_s += outcome.count_s
            report.local_pairs += len(outcome.pairs)
            report.sim_seconds += outcome.wall_s
        return list(by_pid.values())
