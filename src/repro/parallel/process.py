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

The coordinator itself is made killable by ``checkpoint_dir=``
(:mod:`repro.checkpoint`): the run writes a durable join manifest and a
per-pair result log, and :meth:`ProcessPBSM.resume` rebuilds the run from
them — re-adopting intact partition spills, replaying committed pairs'
results and spans, and re-merging only the pairs that never committed.
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..checkpoint.manifest import (
    STATE_COMPLETE,
    STATE_MERGING,
    JoinManifest,
    RunFingerprint,
)
from ..checkpoint.store import CheckpointMismatchError, CheckpointStore
from ..core.partition import SpatialPartitioner
from ..core.pbsm import PBSMConfig
from ..core.refine import merge_sorted_unique, pair_tuples
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
from ..storage.spill import SpillWriter, sweep_orphan_spills
from ..storage.tuples import SpatialTuple
from .engine import NodeReport, ParallelJoinResult, TaskReport
from .tasks import (
    DEFAULT_TASK_MEMORY,
    HeartbeatFile,
    InputSide,
    PairTask,
    PairTaskResult,
    SideRouting,
    SpillHandle,
    WorkerTaskError,
    init_pool_worker,
    refine_pair,
    run_pair_task,
    spill_blocks,
    spill_bytes,
    sweep_pair,
)

SideSpills = List[SpillHandle]
"""One side's per-partition spills: freshly written or checkpoint-adopted."""

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


class ProcessPBSM:
    """PBSM executed across real worker processes, surviving their faults."""

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
        self._deadline_at: Optional[float] = None
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
        self._faults: TallyCounter = TallyCounter()
        self._disk_injector: Optional[DiskFullInjector] = None
        self._budget: Optional[DiskBudget] = None
        self._disk_degraded: Set[int] = set()
        self._active_store: Optional[CheckpointStore] = None

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
        adopts."""
        return self._run(tuples_r, tuples_s, predicate, resuming=False)

    def resume(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """Continue a checkpointed run from its durable state.

        Validates the run fingerprint (inputs, predicate, grid, config)
        against the checkpoint directory, re-adopts partition spills that
        are intact, replays committed pairs from the result log (their
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
        killed after (``None``: nobody killed it).  The explicit
        ``kill_coordinator_after`` is disarmed first, or the recovery run
        would die at the same ordinal forever; a plan's kill points are
        never re-armed on a resume.
        """
        start = self.resume if resume else self.run
        try:
            return start(tuples_r, tuples_s, predicate), None
        except CoordinatorKilledError as exc:
            self.kill_coordinator_after = None
            return self.resume(tuples_r, tuples_s, predicate), exc.ordinal

    def run_serial(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """The whole join, serially, in this process: the shed path.

        No pool, no spills, no checkpoint — the paper's first case (§3.1:
        both key-pointer sets fit in memory, so no partition file is
        written) with the base relations' own records fetched for the
        refinement.  Every partition pair is rebuilt through the same
        machinery the degraded path uses, so the answer is byte-identical
        to any other backend — the serve tier's circuit breaker leans on
        that to serve ``degraded`` responses whose digests match a healthy
        run's.  Worker faults never fire here (they live in
        ``run_pair_task``), and the run deadline still applies, checked
        between pairs.
        """
        side_r, side_s = InputSide(tuples_r), InputSide(tuples_s)
        early = self._start("process-serial", 0, side_r, side_s, resuming=False)
        if early is not None:
            return early
        partitioner = self._partitioner(side_r, side_s)
        outcomes = self._rebuild_pairs(
            dict.fromkeys(range(self.num_partitions), "breaker_shed"),
            side_r, side_s, partitioner, predicate,
        )
        return self._finish(
            "process-serial", outcomes, side_r, side_s,
            placed_r=side_r.routing(partitioner).placed,
            placed_s=side_s.routing(partitioner).placed,
        )

    # ------------------------------------------------------------------ #
    # run lifecycle: start, deadline, finish
    # ------------------------------------------------------------------ #

    def _start(
        self,
        backend: str,
        workers: int,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        **fields,
    ) -> Optional[ParallelJoinResult]:
        """Begin a run: reset the per-run tallies, arm the deadline and
        journal the start (``fields`` ride the event).  An empty input has
        nothing to partition: the run ends here and its (empty) result is
        returned; otherwise ``None``."""
        self._started = time.perf_counter()
        self._faults = TallyCounter()
        self._deadline_at = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None
            else None
        )
        self.journal.emit(
            EVENT_RUN_STARTED,
            backend=backend,
            workers=workers,
            partitions=self.num_partitions,
            tuples_r=len(tuples_r),
            tuples_s=len(tuples_s),
            **fields,
        )
        if tuples_r and tuples_s:
            return None
        self.journal.emit(EVENT_RUN_FINISHED, results=0, degraded_pairs=[])
        return ParallelJoinResult(
            [], backend=backend, wall_s=time.perf_counter() - self._started
        )

    def _deadline_expired(self) -> bool:
        return (
            self._deadline_at is not None
            and time.monotonic() > self._deadline_at
        )

    def _deadline_error(
        self, *, queued: int, inflight: List[int], completed: int
    ) -> DeadlineExceededError:
        """Journal the expiry and build the typed error (caller raises)."""
        assert self.deadline_s is not None
        self._count("deadline_exceeded")
        self.journal.emit(
            EVENT_DEADLINE_EXCEEDED,
            deadline_s=self.deadline_s,
            queued=queued,
            inflight=sorted(inflight),
            completed=completed,
        )
        return DeadlineExceededError(
            self.deadline_s,
            completed=completed,
            pending=queued + len(inflight),
        )

    def _finish(
        self,
        backend: str,
        outcomes: List[PairTaskResult],
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        *,
        placed_r: int,
        placed_s: int,
        resumed: Sequence[int] = (),
        store: Optional[CheckpointStore] = None,
    ) -> ParallelJoinResult:
        """End a run: account for every pair, merge their results, mark the
        checkpoint complete, journal the finish and assemble the result."""
        outcomes.sort(key=lambda o: o.index)
        for outcome in outcomes:
            self._account(outcome)
        # Two-layer partitioning guarantees every result pair belongs to
        # exactly one task, so the per-task arrays are disjoint: merging
        # them is one sort, not a sorted-set union.  The drop counter is
        # the invariant's tripwire — it must stay 0 and CI gates on it.
        merge_started = time.perf_counter()
        with self.tracer.span("process.merge", streams=len(outcomes)):
            merged, concat_dropped = merge_sorted_unique(
                [o.pairs for o in outcomes]
            )
            pairs = pair_tuples(merged)
        coordinator_merge_s = time.perf_counter() - merge_started
        duplicates_dropped = concat_dropped + sum(
            o.duplicates_dropped for o in outcomes
        )
        self.metrics.counter("merge.duplicates_dropped").inc(
            duplicates_dropped
        )
        if store is not None and store.manifest.state != STATE_COMPLETE:
            store.append_event(
                {"type": "complete", "result_count": len(merged)}
            )
        degraded_pairs = sorted(o.index for o in outcomes if o.degraded)
        self.journal.emit(
            EVENT_RUN_FINISHED,
            results=len(merged),
            degraded_pairs=degraded_pairs,
            replayed_pairs=list(resumed),
        )
        return ParallelJoinResult(
            pairs,
            nodes=self._node_reports(outcomes),
            storage_factor_r=placed_r / len(tuples_r),
            storage_factor_s=placed_s / len(tuples_s),
            backend=backend,
            wall_s=time.perf_counter() - self._started,
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
            fault_summary=self._fault_summary(),
            resumed_pairs=list(resumed),
            checkpoint_run_id=(
                store.fingerprint.run_id if store is not None else ""
            ),
            duplicates_dropped=duplicates_dropped,
            coordinator_merge_s=coordinator_merge_s,
        )

    def _run(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
        *,
        resuming: bool,
    ) -> ParallelJoinResult:
        self._disk_degraded = set()
        self._damaged_files: Set[str] = set()
        self._disk_injector = None
        budget = self.disk_budget
        if (
            budget is None
            and self.fault_plan is not None
            and self.fault_plan.disk_full_points
        ):
            # The injector needs a charged-byte clock to key on; an
            # unbounded budget meters without ever denying on its own.
            budget = DiskBudget()
        if budget is not None:
            budget.bind(metrics=self.metrics)
            if self.fault_plan is not None and self.fault_plan.disk_full_points:
                self._disk_injector = DiskFullInjector(
                    self.fault_plan, journal=self.journal
                )
                budget.bind(injector=self._disk_injector)
        self._budget = budget
        # An InputSide is used as is — columns a caller's earlier join or
        # fingerprint built are read, not rebuilt; any other sequence
        # becomes one for the length of this run.
        side_r, side_s = InputSide(tuples_r), InputSide(tuples_s)
        early = self._start(
            "process", self.workers, side_r, side_s,
            resuming=resuming,
            disk_budget=budget.max_bytes if budget is not None else None,
        )
        if early is not None:
            return early

        store: Optional[CheckpointStore] = None
        committed: Dict[int, PairTaskResult] = {}
        if self.checkpoint_dir is not None:
            fingerprint = RunFingerprint.compute(
                side_r, side_s, predicate, self.num_partitions, self.config
            )
            # A resume is the recovery run: the plan's coordinator-kill and
            # torn-manifest points already fired (or are waived) — re-arming
            # them would make recovery unrecoverable.  An *explicit*
            # kill_coordinator_after still applies (killing the recovery
            # coordinator too is a legitimate test), so callers that
            # auto-resume must clear it first.
            gate = CheckpointFaultGate(
                None if resuming else self.fault_plan,
                hard=self.kill_hard,
                on_event=self._gate_event,
                extra_kills=(
                    ()
                    if self.kill_coordinator_after is None
                    else (self.kill_coordinator_after,)
                ),
                journal=self.journal,
            )
            store = CheckpointStore(
                self.checkpoint_dir, fingerprint,
                on_durable=gate.after_durable, journal=self.journal,
                budget=budget,
            )
            store.run_dir.mkdir(parents=True, exist_ok=True)
            swept = store.sweep_orphans()
            if swept:
                self._count("orphan_spills_swept", len(swept))
            manifest, committed = self._recover_state(store, resuming)
            store.begin(manifest)
            spill_root = str(store.spill_dir)
        else:
            spill_root = tempfile.mkdtemp(prefix="repro-pbsm-")
        self._active_store = store

        fresh: Dict[str, List[SpillWriter]] = {}
        try:
            injector = WriteErrorInjector(self.fault_plan, journal=self.journal)
            with self.tracer.span("process.partition"):
                partitioner = self._partitioner(side_r, side_s)
                spills_r, placed_r = self._obtain_side(
                    "r", side_r, partitioner, spill_root, injector, store, fresh,
                )
                spills_s, placed_s = self._obtain_side(
                    "s", side_s, partitioner, spill_root, injector, store, fresh,
                )
            if self.fault_plan and self.fault_plan.torn_frames and fresh:
                # Only freshly written sides: for an adopted spill the
                # fault already happened in the run that wrote it.
                self._apply_torn_frames(spills_r, spills_s, set(fresh))
            # Held until the run ends: a concurrent run that drops a damaged
            # relation file must not take it off the disk under these tasks.
            # On a side's first run this writes its file, polygons' refine
            # rows and all.
            with self.tracer.span("process.relations"):
                relations = side_r.relation, side_s.relation
            all_tasks = self._build_tasks(
                spills_r, spills_s, *(r.path for r in relations), predicate
            )
            tasks = [t for t in all_tasks if t.index not in committed]
            self.journal.emit(
                EVENT_SCHEDULE,
                order=[
                    {"pair": t.index, "cost": t.cost_estimate} for t in tasks
                ],
            )
            for index in sorted(committed):
                prior = committed[index]
                self.journal.emit(
                    EVENT_TASK_REPLAYED,
                    pair=index,
                    candidates=prior.candidates,
                    results=len(prior.pairs),
                )
                if prior.spans:
                    self.tracer.adopt_wire(
                        prior.spans, worker=prior.worker_pid, replayed=True
                    )
            on_result: Optional[Callable[[PairTaskResult], None]] = None
            if store is not None:
                if (
                    store.manifest.pairs_total is None
                    and store.manifest.state != STATE_COMPLETE
                ):
                    store.append_event(
                        {
                            "type": "phase",
                            "state": STATE_MERGING,
                            "pairs_total": len(all_tasks),
                        }
                    )
                on_result = store.append_result
            with self.tracer.span("process.execute", tasks=len(tasks)):
                outcomes, failed = self._execute(tasks, on_result=on_result)
            # A relation file that failed its check is damaged in place:
            # the next run on these sides writes a fresh one.
            side_r.forget_relation(self._damaged_files)
            side_s.forget_relation(self._damaged_files)
            del relations  # the tasks are done with them
            # Partitions whose spills were dropped under disk pressure
            # never became tasks; like the pairs the pool gave up on, they
            # are rebuilt in memory — no spill, no budget charge — so the
            # answer stays byte-identical.
            failed.update(
                dict.fromkeys(self._disk_degraded - set(committed), "disk_full")
            )
            outcomes.extend(
                self._rebuild_pairs(
                    failed, side_r, side_s, partitioner, predicate,
                    on_result=on_result,
                )
            )
            outcomes.extend(committed.values())
            result = self._finish(
                "process", outcomes, side_r, side_s,
                placed_r=placed_r, placed_s=placed_s,
                resumed=sorted(committed), store=store,
            )
        finally:
            if store is not None:
                store.sweep_orphans()
                store.close()
            else:
                shutil.rmtree(spill_root, ignore_errors=True)
                # The tempdir's spills just left the disk; checkpoint runs
                # keep their charges (the files persist).
                for writers in fresh.values():
                    for writer in writers:
                        writer.release_budget()
        self.metrics.gauge("parallel.process.partitions").set(self.num_partitions)
        self.metrics.gauge("parallel.process.workers").set(self.workers)
        self.metrics.counter("parallel.process.tasks").inc(len(outcomes))
        return result

    # ------------------------------------------------------------------ #
    # checkpoint recovery
    # ------------------------------------------------------------------ #

    def _gate_event(self, kind: str) -> None:
        if kind == "coordinator_kill":
            self._count("injected_coordinator_kills")
        elif kind == "torn_manifest":
            self._count("injected_torn_manifests")

    def _recover_state(
        self, store: CheckpointStore, resuming: bool
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
            self._count("manifest_discarded")
            store.discard_results()
            return JoinManifest(store.fingerprint), {}
        if manifest is None:
            siblings = store.sibling_run_ids()
            if siblings:
                raise CheckpointMismatchError(
                    store.fingerprint.run_id, siblings
                )
            return JoinManifest(store.fingerprint), {}
        if manifest.recovered_torn_tail:
            self._count("torn_tail_recovered")
        committed, cut = store.replay_results()
        if cut:
            self._count("torn_tail_recovered")
        if committed:
            self._count("resumed_pairs", len(committed))
        return manifest, committed

    def _obtain_side(
        self,
        side: str,
        columns: InputSide,
        partitioner: SpatialPartitioner,
        spill_root: str,
        injector: WriteErrorInjector,
        store: Optional[CheckpointStore],
        fresh: Dict[str, List[SpillWriter]],
    ) -> Tuple[SideSpills, int]:
        """Adopt one side's sealed spills from the checkpoint, else spill it
        (its writers go in ``fresh``).

        Adoption requires every recorded file to exist at its recorded
        size; anything less re-partitions the side from the base relation
        and appends a superseding seal event (last seal per side wins)."""
        seal = store.manifest.sealed(side) if store is not None else None
        adopted = None if seal is None else self._adopt_spills(seal, spill_root)
        if seal is not None:
            self._count("spill_sides_rebuilt" if adopted is None else "spill_sides_adopted")
        if adopted is None:
            routing = columns.routing(partitioner)
            fresh[side] = self._spill_side(
                side, len(columns), routing, spill_root, injector,
                atomic=store is not None,
            )
            # A degraded partition's spill is a sealed empty file.
            spills = [
                SpillHandle(w.path, 0 if p in self._disk_degraded else len(ordinal))
                for p, (w, ordinal) in enumerate(zip(fresh[side], routing.ordinals))
            ]
            skew = self.metrics.histogram(f"parallel.partition.keypointers_{side}")
            for spill in spills:
                skew.observe(spill.count)
            placed = routing.placed
        else:
            spills, placed = adopted
        self.journal.emit(
            EVENT_PARTITION_SEALED,
            side=side,
            placed=placed,
            counts=[s.count for s in spills],
            adopted=side not in fresh,
        )
        if side in fresh and store is not None and not self._disk_degraded:
            # A side partitioned under disk pressure holds deliberately
            # empty spills for its degraded partitions; sealing it would
            # let a resume adopt files that lie about the data.  No seal
            # event → a resume re-partitions the side from source.
            store.append_event(
                {
                    "type": "spills_sealed",
                    "side": side,
                    "placed": placed,
                    "files": [
                        {
                            "partition": p,
                            "kp": os.path.basename(s.kp_path),
                            "kp_bytes": os.path.getsize(s.kp_path),
                            "count": s.count,
                        }
                        for p, s in enumerate(spills)
                    ],
                }
            )
        return spills, placed

    def _adopt_spills(
        self, seal: dict, spill_root: str
    ) -> Optional[Tuple[SideSpills, int]]:
        """Re-validate one seal event against the disk: its spills and the
        tuples it placed, or ``None`` = rebuild.
        Only the key-pointer fields count: the ``tup`` / ``tup_bytes`` of
        a seal written when partitions also spilled tuples are ignored."""
        files = seal.get("files", [])
        handles = [
            SpillHandle(os.path.join(spill_root, entry["kp"]), int(entry["count"]))
            for entry in files
        ]
        try:
            intact = len(files) == self.num_partitions and all(
                os.path.getsize(handle.kp_path) == entry["kp_bytes"]
                for handle, entry in zip(handles, files)
            )
        except OSError:
            return None
        return (handles, int(seal["placed"])) if intact else None

    def _count(self, what: str, amount: int = 1) -> None:
        """One fault/recovery event: tallied on the run *and* in metrics."""
        self._faults[what] += amount
        self.metrics.counter(f"faults.{what}").inc(amount)

    def _fault_summary(self) -> dict:
        """The run's fault tallies plus spent disk_full plan points.

        The injector fires inside ``DiskBudget.charge`` — below the
        layers that tally recoveries — so its count is folded in here
        rather than at each catch site; that covers the spill and
        checkpoint layers uniformly."""
        summary = dict(self._faults)
        if self._disk_injector is not None and self._disk_injector.fired:
            summary["injected_disk_full"] = self._disk_injector.fired
        return summary

    # ------------------------------------------------------------------ #
    # partitioning + spilling
    # ------------------------------------------------------------------ #

    def _partitioner(self, side_r: InputSide, side_s: InputSide) -> SpatialPartitioner:
        """The run's partitioner, its universe both sides' bounds."""
        return SpatialPartitioner.for_inputs(
            side_r.bounds, side_s.bounds,
            self.num_partitions, self.config.num_tiles, self.config.scheme,
        )

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

    def _spill_side(
        self,
        side: str,
        length: int,
        routing: SideRouting,
        spill_root: str,
        injector: WriteErrorInjector,
        atomic: bool,
    ) -> List[SpillWriter]:
        """Spill one input's key-pointers, replicated across the partitions
        it overlaps: for each partition in turn, every tuple's two-layer
        ``(tile, class)`` slots there — routed from the exact f64 MBR — as
        one tagged key-pointer each.  A partition is written whole
        (:meth:`_spill_partition`) before the next is opened, so a failure
        costs the one being written; the side's files are sealed together
        at the end, their fsyncs back to back (spaced a partition's work
        apart they take longer, and less steadily)."""
        injector.arm_side(side, length)
        spills: List[SpillWriter] = []
        try:
            for p in range(self.num_partitions):
                spills.append(
                    self._spill_partition(
                        side, p, routing, spill_root, injector, atomic, spills,
                    )
                )
            for spill in spills:
                spill.close()
        except BaseException:
            # Abort, not remove: discard the output, sealed or not, of
            # the partitions before the one that failed (which aborted
            # its own), leaving no spill litter on the failure path.
            for spill in spills:
                spill.abort()
            raise
        return spills

    def _spill_partition(
        self,
        side: str,
        p: int,
        routing: SideRouting,
        spill_root: str,
        injector: WriteErrorInjector,
        atomic: bool,
        written: List[SpillWriter],
    ) -> SpillWriter:
        """Write partition ``p``'s key-pointer spill, a block at a time
        (:func:`~repro.parallel.tasks.spill_blocks`), and retry *here*
        when a write fails — the one place a failed spill write is
        recovered; the writer comes back complete but unsealed, after
        those in ``written``.  With ``atomic=True`` (checkpointed runs)
        the file stages through ``*.tmp`` and only reaches its final name
        sealed, so a resume can trust any spill file that exists under the
        run directory.  Whatever fails, the partial file is aborted — and
        its budget charge released — before anything else happens.

        * A write error (the plan's; the injector is one-shot, so it
          cannot starve the loop) → rewrite the partition, at most
          :data:`PARTITION_WRITE_RETRIES` times.
        * A write the disk budget denies → reclaim, cheapest first (the
          partial file; stale orphan temp files, the partitions already
          ``written`` sealed first so that none of them is this run's;
          and — when checkpointing — completed sibling runs), and rewrite
          **once**.
        * A second denial → the partition is *degraded*: its spill is a
          sealed empty file, so no task is built, and the coordinator
          rebuilds the pair serially in memory after the merge phase (as
          it does for the other side of a partition already degraded).

        Every way the run finishes exact."""
        path = os.path.join(spill_root, f"part{p:04d}.{side}.kp")
        write_errors, denied = 0, False
        while p not in self._disk_degraded:
            spill = SpillWriter(path, atomic=atomic, budget=self._budget)
            try:
                blocks = spill_blocks(routing.ordinals[p], routing.keypointers[p])
                for window, keypointers in blocks:
                    injector.check(side, window)
                    spill.append(keypointers.tobytes())
            except InjectedFaultError:
                spill.abort()
                write_errors += 1
                self._count("injected_write_errors")
                self._count("partition_retries")
                if write_errors > PARTITION_WRITE_RETRIES:
                    raise
            except DiskFullError:
                spill.abort()
                if denied:
                    self._count("disk_degraded")
                    self._disk_degraded.add(p)
                    break
                denied = True
                self._count("disk_pressure")
                self.journal.emit(
                    EVENT_DISK_PRESSURE, category="spill", side=side, partition=p
                )
                for earlier in written:
                    earlier.close()
                sweep_orphan_spills(spill_root, self._budget)
                if self._active_store is not None:
                    self._active_store.reclaim_completed_siblings()
            except BaseException:
                spill.abort()
                raise
            else:
                if denied:
                    self._count("disk_full_recovered")
                    self.journal.emit(
                        EVENT_DISK_FULL_RECOVERED, category="spill",
                        side=side, partition=p, action="sweep_retry",
                    )
                return spill
        empty = SpillWriter(path, atomic=atomic)
        empty.close()
        return empty

    def _apply_torn_frames(
        self,
        spills_r: SideSpills,
        spills_s: SideSpills,
        sides: Optional[Set[str]] = None,
    ) -> None:
        """Corrupt the planned spill frames on disk, post-write.

        A torn frame in a partition that never becomes a task would go
        unread, so plans targeting an inactive pair are redirected onto an
        active one deterministically — the fault always has a victim.
        ``sides`` (when given) restricts tearing to those sides: a resumed
        run tears only what it freshly wrote, never adopted spills."""
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
            if sides is not None and torn.side not in sides:
                continue
            partition = torn.partition % self.num_partitions
            if partition not in active_set:
                partition = active[torn.partition % len(active)]
            spill = (spills_r if torn.side == "r" else spills_s)[partition]
            if tear_frame(spill.kp_path, torn.frame) >= 0:
                self._count("injected_torn_frames")
                self.journal.emit(
                    EVENT_FAULT_INJECTED,
                    kind="torn_frame", side=torn.side, pair=partition,
                )

    def _build_tasks(
        self,
        spills_r: SideSpills,
        spills_s: SideSpills,
        relation_r_path: str,
        relation_s_path: str,
        predicate: Predicate,
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
                predicate=predicate,
                observe=observe,
                faults=plan.faults_for_pair(p) if plan else None,
            )
            for p, (spill_r, spill_s) in enumerate(zip(spills_r, spills_s))
            if spill_r.count and spill_s.count
        ]
        # Longest processing time first, seeded by key-pointer counts; ties
        # broken by partition index so the submission order is reproducible.
        tasks.sort(key=lambda t: (-t.cost_estimate, t.index))
        cost = self.metrics.histogram("parallel.task.cost_estimate")
        for task in tasks:
            cost.observe(task.cost_estimate)
        planned = sum(t.faults.total_points for t in tasks if t.faults)
        if planned:
            self._count("injected_worker_faults", planned)
        return tasks

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        tasks: List[PairTask],
        on_result: Optional[Callable[[PairTaskResult], None]] = None,
    ) -> Tuple[List[PairTaskResult], Dict[int, str]]:
        """Run the tasks on the pool, recovering from task and pool faults.

        Returns ``(outcomes, failed)``: completed results, and the pairs
        the pool gave up on mapped to why — ``"retry_exhausted"`` (the
        retry budget ran out) or ``"corrupt_spill"`` (a spill file failed
        its integrity check); the caller rebuilds those serially.  The
        shared submission queue is what rebalances skew; retries simply
        re-enter it, so a re-dispatched pair lands on whichever worker
        survives and frees up first.

        ``on_result`` observes each harvested result *before* its spans are
        adopted — the checkpoint layer commits the pair there, so a kill
        mid-harvest loses at most the one uncommitted result.
        """
        if not tasks:
            return [], {}
        context = mp_context(self.start_method)
        by_index = {task.index: task for task in tasks}
        attempts: Dict[int, int] = {task.index: 0 for task in tasks}
        to_submit: List[int] = [task.index for task in tasks]  # LPT order
        outcomes: List[PairTaskResult] = []
        failed: Dict[int, str] = {}
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[Future, int] = {}
        deadlines: Dict[Future, float] = {}
        backoff_hist = self.metrics.histogram(
            "faults.retry_backoff_s", LATENCY_BUCKETS_S
        )
        journal = self.journal
        provider = RESIDENT_POOL
        timeout_s = self.task_timeout_s
        # A pair's timeout counts from its worker's first heartbeat (as
        # read, within a poll slice), not from its submit: time queued
        # behind busy or still-starting workers is no task's.
        heartbeats = (
            HeartbeatFile() if journal.enabled or timeout_s is not None else None
        )
        worker_phase: Dict[int, str] = {}
        next_sample = time.monotonic() + SAMPLE_INTERVAL_S

        def drain_heartbeats() -> None:
            # Only the current generation's workers start this run's
            # clocks: a retired one may still run a pair's earlier dispatch.
            workers = (pool and pool._processes) or {}  # type: ignore[attr-defined]
            for pid, pair, attempt, phase in heartbeats.read() if heartbeats else ():
                worker_phase[pid] = phase
                journal.emit(
                    EVENT_WORKER_HEARTBEAT,
                    pid=pid, pair=pair, attempt=attempt, phase=phase,
                )
                if timeout_s is not None and pid in workers:
                    for future, index in inflight.items():
                        if index == pair and future not in deadlines:
                            deadlines[future] = time.monotonic() + timeout_s

        def maybe_sample() -> None:
            nonlocal next_sample
            if not journal.enabled or time.monotonic() < next_sample:
                return
            next_sample = time.monotonic() + SAMPLE_INTERVAL_S
            journal.emit(
                EVENT_SAMPLE,
                queued=len(to_submit),
                inflight=sorted(inflight.values()),
                done=len(outcomes),
                total=len(tasks),
                workers={str(pid): phase for pid, phase in sorted(worker_phase.items())},
            )

        def on_failure(index: int, error: WorkerTaskError) -> None:
            """Charge one attempt; requeue within budget, else give up."""
            self._count("task_failures")
            if error.corruption:
                # The file is wrong on disk — no retry can fix it.
                failed[index] = "corrupt_spill"
                self._damaged_files.add(error.damaged_path)
                self._count("quarantined")
                journal.emit(
                    EVENT_QUARANTINED, pair=index, attempt=attempts[index]
                )
                return
            attempt = attempts[index] = attempts[index] + 1
            if attempt > self.max_task_retries:
                failed[index] = "retry_exhausted"
                self._count("retry_exhausted")
                return
            self._count("retries")
            backoff = RETRY_BACKOFF_S * (2 ** (attempt - 1))
            backoff_hist.observe(backoff)
            journal.emit(
                EVENT_RETRY,
                pair=index, attempt=attempt,
                backoff_s=round(backoff, 6), cause=error.cause_type,
            )
            if backoff > 0:
                time.sleep(backoff)
            to_submit.append(index)

        def lose_pool(
            charged: Sequence[int] = (), cause: str = "", message: str = ""
        ) -> None:
            """The pool is gone — broken, wedged, or walked away from.

            Every ``charged`` pair pays one attempt for ``cause``; every
            other in-flight pair requeues free (it never got to finish).
            The provider disposes without waiting: a hung worker must not
            hold the coordinator hostage."""
            nonlocal pool
            survivors = [i for i in inflight.values() if i not in charged]
            inflight.clear()
            deadlines.clear()
            if pool is not None:
                provider.discard(pool)
                provider.release(pool)
                pool = None
            for index in charged:
                on_failure(
                    index,
                    WorkerTaskError(index, attempts[index], 0, cause, message),
                )
            to_submit.extend(survivors)
            self._count("pool_respawns")
            journal.emit(EVENT_POOL_RESPAWN, queued=len(to_submit))

        try:
            while to_submit or inflight:
                if self._deadline_expired():
                    # Cooperative cancellation.  Everything harvested so
                    # far was already committed through ``on_result``, so a
                    # checkpointed retry resumes instead of restarting.
                    # In-flight futures ride the same pool-loss path a
                    # task timeout uses (a wedged worker cannot be killed
                    # without breaking the pool); with nothing in flight
                    # the pool is left healthy for its other tenants.
                    error = self._deadline_error(
                        queued=len(to_submit),
                        inflight=list(inflight.values()),
                        completed=len(outcomes),
                    )
                    if inflight:
                        lose_pool()
                    raise error
                if pool is None:
                    pool = provider.acquire(self.workers, context)
                while to_submit:
                    index = to_submit.pop(0)
                    task = dataclasses.replace(
                        by_index[index], attempt=attempts[index],
                        heartbeats=heartbeats.path if heartbeats else None,
                        timed=timeout_s is not None,
                    )
                    try:
                        future = pool.submit(run_pair_task, task)
                    except RuntimeError:
                        # BrokenProcessPool, or a co-tenant already
                        # discarded this generation and submit raises
                        # "cannot schedule new futures"; heal and resubmit
                        # everything (no attempt charged — the task never
                        # reached a worker).
                        to_submit.insert(0, index)
                        lose_pool()
                        break
                    inflight[future] = index
                    journal.emit(
                        EVENT_TASK_DISPATCHED,
                        pair=index, attempt=task.attempt,
                        cost=task.cost_estimate,
                    )
                    # Planned faults are journaled at dispatch, not at
                    # failure or harvest: a dispatched attempt always
                    # executes its planned injection, so the emitted set is
                    # a pure function of the plan and tells *injected*
                    # trouble apart from collateral damage (innocent pairs
                    # requeued by a BrokenProcessPool) — harvest-time
                    # detection would race against whichever unrelated
                    # crash broke the pool first.
                    faults = task.faults
                    for kind in faults.firing(task.attempt) if faults else ():
                        journal.emit(
                            EVENT_FAULT_INJECTED,
                            kind=kind, pair=index, attempt=task.attempt,
                        )
                if pool is None or not inflight:
                    continue

                # A run with heartbeats polls, so pings (which start a timed
                # run's pair clocks) and sampler ticks keep flowing while
                # tasks are quiet; otherwise the wait only needs a slice
                # when the whole-run deadline must be enforced.
                wait(
                    set(inflight),
                    timeout=(
                        _POLL_S
                        if heartbeats is not None or self._deadline_at is not None
                        else None
                    ),
                    return_when=FIRST_COMPLETED,
                )
                drain_heartbeats()
                maybe_sample()
                # Harvest everything that finished, well or badly.
                broken: List[int] = []
                for future in [f for f in inflight if f.done()]:
                    index = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        outcome = future.result()
                    except WorkerTaskError as error:
                        on_failure(index, error)
                    except CancelledError:
                        # A co-tenant's discard cancelled it before any
                        # worker took it: requeued free, and the next
                        # submit finds the generation retired.
                        to_submit.append(index)
                    except BrokenProcessPool:
                        broken.append(index)
                    else:
                        outcomes.append(outcome)
                        # The task's lifecycle, on the worker's clock
                        # (``worker_t``: the two clocks are not comparable).
                        ran = dict(
                            pair=index, attempt=outcome.attempt,
                            pid=outcome.worker_pid,
                        )
                        wall_s = round(outcome.wall_s, 6)
                        journal.emit(EVENT_TASK_STARTED, **ran, worker_t=0.0)
                        journal.emit(
                            EVENT_TASK_FINISHED, **ran,
                            candidates=outcome.candidates,
                            results=len(outcome.pairs),
                            worker_t=wall_s, wall_s=wall_s,
                        )
                        if on_result is not None:
                            on_result(outcome)
                        if outcome.spans:
                            self.tracer.adopt_wire(
                                outcome.spans, worker=outcome.worker_pid
                            )
                if broken:
                    # Every surviving in-flight future is doomed with the
                    # pool; they share the crash's charge.
                    lose_pool(
                        broken + list(inflight.values()),
                        "BrokenProcessPool", "worker process died mid-task",
                    )
                    continue

                # Enforce task deadlines: a wedged worker cannot be killed
                # inside ProcessPoolExecutor without breaking the pool, so
                # the pool is abandoned wholesale and unfinished innocents
                # are resubmitted uncharged.
                if deadlines and not any(f.done() for f in inflight):
                    # (any completed-but-unharvested future postpones this
                    # to the next round, so results are never dropped)
                    now = time.monotonic()
                    timed_out = [
                        inflight[f]
                        for f, deadline in deadlines.items()
                        if now > deadline
                    ]
                    for index in timed_out:
                        self._count("timeouts")
                        journal.emit(
                            EVENT_TIMEOUT,
                            pair=index,
                            attempt=attempts[index],
                            timeout_s=self.task_timeout_s,
                        )
                    if timed_out:
                        lose_pool(
                            timed_out, "TaskTimeout",
                            f"no result within {self.task_timeout_s}s",
                        )
        finally:
            if pool is not None:
                # An abandoned run (a coordinator kill, an exception) leaves
                # the pool as it found it: its queued tasks cancelled, its
                # running ones waited for — no later run queues behind
                # them, and none reads a spill this run is about to remove.
                wait([future for future in inflight if not future.cancel()])
                provider.release(pool)
            drain_heartbeats()
            if heartbeats is not None:
                heartbeats.close()
        return outcomes, failed

    # ------------------------------------------------------------------ #
    # graceful degradation
    # ------------------------------------------------------------------ #

    def _rebuild_pairs(
        self,
        reasons: Dict[int, str],
        side_r: InputSide,
        side_s: InputSide,
        partitioner: SpatialPartitioner,
        predicate: Predicate,
        on_result: Optional[Callable[[PairTaskResult], None]] = None,
    ) -> List[PairTaskResult]:
        """Serially rebuild pairs from the base relations, in index order.

        ``reasons`` maps each pair to why the process path does not have
        it: ``retry_exhausted`` / ``corrupt_spill`` (the pool gave up),
        ``disk_full`` (its spill was dropped under pressure) or
        ``breaker_shed`` (there is no pool: :meth:`run_serial`).  The
        coordinator still holds the base relations, so each merge is fed
        the key-pointer block the spill pass wrote or would have written
        (the sides' :meth:`~repro.parallel.tasks.InputSide.routing`), so
        it sees bit-identical input to what a worker would have read, and
        runs in-process — slower, but exact; refinement
        fetches from the sides' own stored records (``InputSide.stored``),
        in whichever form a worker's would have taken.  The run deadline is
        checked between pairs; ``on_result`` commits each rebuilt pair as
        it completes.
        """
        if not reasons:
            return []
        routing_r, routing_s = side_r.routing(partitioner), side_s.routing(partitioner)
        results: List[PairTaskResult] = []
        for index in sorted(reasons):
            if self._deadline_expired():
                raise self._deadline_error(
                    queued=len(reasons) - len(results),
                    inflight=[],
                    completed=len(results),
                )
            reason = reasons[index]
            started = time.perf_counter()
            part_r, part_s = routing_r.keypointers[index], routing_s.keypointers[index]
            with self.tracer.span("process.degraded_pair", pair=index) as span:
                span.tag("degraded", True)
                span.tag("reason", reason)
                candidates = sweep_pair(
                    part_r, part_s, DEFAULT_TASK_MEMORY, self.config,
                    label=f"degraded.{index}", tracer=self.tracer,
                )
                pairs, dropped = refine_pair(
                    candidates, side_r.stored, side_s.stored, predicate,
                    span=span,
                )
                span.tag("results", len(pairs))
            outcome = PairTaskResult(
                index=index,
                worker_pid=os.getpid(),
                pairs=pairs,
                candidates=len(candidates),
                count_r=len(part_r),
                count_s=len(part_s),
                wall_s=time.perf_counter() - started,
                degraded=True,
                degraded_reason=reason,
                duplicates_dropped=dropped,
            )
            self._count("degraded")
            self.journal.emit(EVENT_DEGRADED, pair=index, reason=reason)
            if on_result is not None:
                on_result(outcome)
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
