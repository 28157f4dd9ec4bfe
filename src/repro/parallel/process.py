"""True multiprocess PBSM: partition once, schedule pairs across cores.

Where :class:`repro.parallel.engine.ParallelPBSM` *simulates* §5's
shared-nothing machine on virtual nodes (modelled seconds, one process),
this backend executes the join on real worker processes and is measured in
real wall-clock seconds:

1. **Partition** — the coordinator runs PBSM's tiled partitioning function
   over both inputs once, spilling each partition's key-pointers and
   tuples to files workers can read (:mod:`repro.parallel.tasks`).
2. **Schedule** — partition-pair merge tasks are submitted to a
   ``ProcessPoolExecutor`` in longest-processing-time-first order, seeded
   by per-pair key-pointer counts.  LPT places the big pairs first; the
   executor's single shared task queue then acts as the work-stealing
   fallback — when skew makes the estimate wrong, whichever worker frees
   up first simply pulls the next pair, so no worker idles while tasks
   remain.
3. **Merge** — exact per-pair results (feature-id pairs) arrive sorted
   and, under two-layer partitioning, *disjoint*: only the tile holding a
   pair's reference point may emit it, so the coordinator k-way merges
   the streams in order instead of paying a sorted-set dedup barrier.
   ``merge.duplicates_dropped`` counts anything the merge still had to
   drop — it must read 0, and CI gates on it.  Each worker's spans and
   metrics come back in wire form and are adopted into the coordinator's
   tracer/registry, so one trace shows every process's work in its own
   lane.

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
results, metrics, and spans, and re-merging only the pairs that never
committed.  Kill + resume produces the byte-identical pair set of an
uninterrupted run; the kill-matrix suite asserts it at every checkpoint
ordinal.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..checkpoint.manifest import (
    STATE_COMPLETE,
    STATE_MERGING,
    JoinManifest,
    RunFingerprint,
)
from ..checkpoint.store import CheckpointMismatchError, CheckpointStore
from ..core.partition import RoutedSlots, SpatialPartitioner
from ..core.pbsm import PBSMConfig
from ..core.refine import merge_sorted_unique
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
    EVENT_TIMEOUT,
    EVENT_WORKER_HEARTBEAT,
    NULL_JOURNAL,
)
from ..obs.metrics import LATENCY_BUCKETS_S, NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.errors import DiskFullError, ManifestCorruptionError
from ..storage.pressure import DiskBudget
from ..storage.spill import sweep_orphan_spills
from ..storage.tuples import SpatialTuple
from .engine import NodeReport, ParallelJoinResult, TaskReport
from .tasks import (
    DEFAULT_TASK_MEMORY,
    InputSide,
    PairTask,
    PairTaskResult,
    PartitionSpill,
    SpillHandle,
    WorkerTaskError,
    init_pool_worker,
    refine_pair,
    run_pair_task,
    spill_bytes,
    sweep_pair,
)

SideSpills = List[Union[PartitionSpill, SpillHandle]]
"""One side's per-partition spills: freshly written or checkpoint-adopted."""

DEFAULT_TASKS_PER_WORKER = 4
"""Partition count multiplier: more pairs than workers, so LPT ordering
and queue-based stealing have room to balance skewed pairs."""

START_METHOD_ENV = "REPRO_MP_START_METHOD"
"""Environment override for the multiprocessing start method (CI uses it
to force ``spawn`` on platforms that default to ``fork``)."""

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


class RunPoolProvider:
    """Per-run executor ownership: the default pool lifecycle.

    The coordinator's scheduling loop never creates or destroys a
    ``ProcessPoolExecutor`` directly; it asks its provider.  This default
    provider reproduces the historical behaviour — a fresh pool per
    acquire, torn down when the run abandons or finishes it — while the
    serving tier substitutes :class:`repro.serve.pool.SharedPoolProvider`
    to multiplex many concurrent queries onto one resident pool.

    ``shared`` tells the coordinator whether it may install per-pool
    worker state (the initializer and its heartbeat queue): only a
    private pool can carry one run's heartbeat queue.
    """

    shared = False

    def acquire(
        self,
        max_workers: int,
        context,
        initializer=None,
        initargs: tuple = (),
    ) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=context,
            initializer=initializer, initargs=initargs,
        )

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken or wedged pool without waiting on its workers."""
        pool.shutdown(wait=False, cancel_futures=True)

    def release(self, pool: ProcessPoolExecutor) -> None:
        """The run is done with a healthy pool."""
        pool.shutdown(wait=True)


class RunRouting:
    """Where one run's tuples go: ``routing["r"]`` / ``routing["s"]`` is
    that side's :meth:`~repro.core.partition.SpatialPartitioner.route_all`
    — one :class:`~repro.core.partition.RoutedSlots` per partition —
    computed on first use and read by everything that places tuples: the
    spill pass and its rewrites, the serial rebuild of a pair, the spill
    footprint.  The paper scans each input once (§3.1); so does a run.  (A
    resumed run that adopts both sides and rebuilds nothing never routes.)
    """

    def __init__(
        self, partitioner: SpatialPartitioner, side_r: InputSide, side_s: InputSide
    ):
        self._partitioner = partitioner
        self.sides = {"r": side_r, "s": side_s}
        self._routed: Dict[str, List[RoutedSlots]] = {}

    def __getitem__(self, side: str) -> List[RoutedSlots]:
        if side not in self._routed:
            self._routed[side] = self._partitioner.route_all(self.sides[side].mbrs)
        return self._routed[side]

    def placed(self, side: str) -> int:
        """Tuples placed, each once per partition it reaches: the
        numerator of ``storage_factor``, whichever path ran the join."""
        return sum(len(routed.tuple_ordinals) for routed in self[side])


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
        pool_provider: Optional[RunPoolProvider] = None,
        disk_budget: Optional[DiskBudget] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.config = config or PBSMConfig()
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions or workers * DEFAULT_TASKS_PER_WORKER
        self.start_method = start_method or os.environ.get(START_METHOD_ENV)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.journal = journal
        """Flight recorder (:class:`repro.obs.journal.RunJournal`); the
        default :data:`NULL_JOURNAL` records nothing.  When enabled, the
        coordinator also opens a heartbeat side channel to the workers and
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
        self.pool_provider = pool_provider or RunPoolProvider()
        """Executor lifecycle hooks.  The default owns a fresh pool per
        run; a shared provider (the serve tier) hands every run the same
        resident pool, ignores ``release``, and heals ``discard`` by
        swapping in a new generation for everyone."""
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
        metrics and spans are merged into this run's observability), and
        re-merges only the pairs that never committed.  Raises
        :class:`~repro.checkpoint.store.CheckpointMismatchError` when the
        directory holds a *different* join's state; a missing or torn
        manifest degrades to a fresh (but still checkpointed) run.
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
        routing = self._routing(side_r, side_s)
        outcomes = self._rebuild_pairs(
            dict.fromkeys(range(self.num_partitions), "breaker_shed"),
            side_r, side_s, routing, predicate,
        )
        return self._finish(
            "process-serial", outcomes, side_r, side_s,
            placed_r=routing.placed("r"), placed_s=routing.placed("s"),
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
        """End a run: merge the per-pair streams, mark the checkpoint
        complete, journal the finish and assemble the result."""
        outcomes.sort(key=lambda o: o.index)
        # Two-layer partitioning guarantees every result pair belongs to
        # exactly one task, so the per-task sorted lists are disjoint:
        # merging them is a streaming k-way interleave, not a sorted-set
        # union.  The drop counter is the invariant's tripwire — it must
        # stay 0 and CI gates on it.
        merge_started = time.perf_counter()
        with self.tracer.span("process.merge", streams=len(outcomes)):
            merged, concat_dropped = merge_sorted_unique(
                [o.pairs for o in outcomes]
            )
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
            merged,
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

        spills_r: SideSpills = []
        spills_s: SideSpills = []
        try:
            injector = WriteErrorInjector(self.fault_plan, journal=self.journal)
            fresh_sides: Set[str] = set()
            with self.tracer.span("process.partition"):
                routing = self._routing(side_r, side_s)
                spills_r, placed_r = self._obtain_side(
                    "r", side_r, routing, spill_root, injector,
                    store, fresh_sides,
                )
                spills_s, placed_s = self._obtain_side(
                    "s", side_s, routing, spill_root, injector,
                    store, fresh_sides,
                )
            if self.fault_plan and self.fault_plan.torn_frames and fresh_sides:
                # Only freshly written sides: for an adopted spill the
                # fault already happened in the run that wrote it.
                self._apply_torn_frames(spills_r, spills_s, fresh_sides)
            all_tasks = self._build_tasks(spills_r, spills_s, predicate)
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
                if prior.metrics:
                    self.metrics.merge_snapshot(prior.metrics)
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
            # Partitions whose spills were dropped under disk pressure
            # never became tasks; like the pairs the pool gave up on, they
            # are rebuilt in memory — no spill, no budget charge — so the
            # answer stays byte-identical.
            failed.update(
                dict.fromkeys(self._disk_degraded - set(committed), "disk_full")
            )
            outcomes.extend(
                self._rebuild_pairs(
                    failed, side_r, side_s, routing, predicate,
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
                if budget is not None:
                    # The tempdir's spills just left the disk; checkpoint
                    # runs keep their charges (the files persist).
                    for spill in list(spills_r) + list(spills_s):
                        release = getattr(spill, "release_budget", None)
                        if release is not None:
                            release()
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
        routing: RunRouting,
        spill_root: str,
        injector: WriteErrorInjector,
        store: Optional[CheckpointStore],
        fresh_sides: Set[str],
    ) -> Tuple[SideSpills, int]:
        """Adopt one side's sealed spills from the checkpoint, else spill it.

        Adoption requires every recorded file to exist at its recorded
        size; anything less re-partitions the side from the base relation
        and appends a superseding seal event (last seal per side wins)."""
        manifest = store.manifest if store is not None else None
        if manifest is not None:
            seal = manifest.sealed(side)
            if seal is not None:
                handles = self._adopt_spills(seal, spill_root)
                if handles is not None:
                    self._count("spill_sides_adopted")
                    self.journal.emit(
                        EVENT_PARTITION_SEALED,
                        side=side,
                        placed=int(seal["placed"]),
                        counts=[h.count for h in handles],
                        adopted=True,
                    )
                    return handles, int(seal["placed"])
                self._count("spill_sides_rebuilt")
        spills = self._spill_side(
            side, columns, routing[side], spill_root, injector,
            atomic=store is not None,
        )
        placed = routing.placed(side)
        fresh_sides.add(side)
        self.journal.emit(
            EVENT_PARTITION_SEALED,
            side=side,
            placed=placed,
            counts=[s.count for s in spills],
            adopted=False,
        )
        if store is not None and not self._disk_degraded:
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
                            "tup": os.path.basename(s.tuple_path),
                            "kp_bytes": os.path.getsize(s.kp_path),
                            "tup_bytes": os.path.getsize(s.tuple_path),
                            "count": s.count,
                        }
                        for p, s in enumerate(spills)
                    ],
                }
            )
        return list(spills), placed

    def _adopt_spills(
        self, seal: dict, spill_root: str
    ) -> Optional[SideSpills]:
        """Re-validate one seal event against the disk; ``None`` = rebuild."""
        files = seal.get("files", [])
        if len(files) != self.num_partitions:
            return None
        handles: SideSpills = []
        for entry in files:
            kp = os.path.join(spill_root, entry["kp"])
            tup = os.path.join(spill_root, entry["tup"])
            try:
                if (
                    os.path.getsize(kp) != entry["kp_bytes"]
                    or os.path.getsize(tup) != entry["tup_bytes"]
                ):
                    return None
            except OSError:
                return None
            handles.append(
                SpillHandle(
                    kp_path=kp, tuple_path=tup, count=int(entry["count"])
                )
            )
        return handles

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

    def _routing(self, side_r: InputSide, side_s: InputSide) -> RunRouting:
        """The run's routing, its partitioner made from both sides' MBR
        columns."""
        return RunRouting(
            SpatialPartitioner.for_inputs(
                side_r.mbrs, side_s.mbrs,
                self.num_partitions, self.config.num_tiles, self.config.scheme,
            ),
            side_r, side_s,
        )

    def spill_footprint(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
    ) -> int:
        """The bytes this engine's partition phase would spill for these
        inputs — exactly an unconstrained run's metered spill peak, from
        the routed record counts and the stored records' sizes.
        Checkpoint manifest and result-log bytes are not included; the
        spills dominate by orders of magnitude."""
        if not tuples_r or not tuples_s:
            return 0
        routing = self._routing(InputSide(tuples_r), InputSide(tuples_s))
        return sum(
            spill_bytes(routed, side)
            for name, side in routing.sides.items()
            for routed in routing[name]
        )

    def _spill_side(
        self,
        side: str,
        columns: InputSide,
        routed: List[RoutedSlots],
        spill_root: str,
        injector: WriteErrorInjector,
        atomic: bool,
    ) -> List[PartitionSpill]:
        """Spill one input, replicated across the partitions it overlaps:
        for each partition in turn, every tuple's two-layer ``(tile,
        class)`` slots there — routed from the exact f64 MBR — as one
        tagged key-pointer each, and the full tuple once.  A partition is
        written whole (:meth:`_spill_partition`) before the next is
        opened, so a failure costs the one being written; the side's files
        are sealed together at the end, their fsyncs back to back (spaced
        a partition's work apart they take longer, and less steadily)."""
        injector.arm_side(side, len(columns))
        spills: List[PartitionSpill] = []
        try:
            for p, slots in enumerate(routed):
                spills.append(
                    self._spill_partition(
                        side, p, columns, slots, spill_root, injector, atomic,
                        spills,
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
        skew = self.metrics.histogram(f"parallel.partition.keypointers_{side}")
        for spill in spills:
            skew.observe(spill.count)
        return spills

    def _spill_partition(
        self,
        side: str,
        p: int,
        columns: InputSide,
        routed: RoutedSlots,
        spill_root: str,
        injector: WriteErrorInjector,
        atomic: bool,
        written: List[PartitionSpill],
    ) -> PartitionSpill:
        """Write partition ``p``'s two spill files, a block at a time
        (:meth:`~repro.parallel.tasks.InputSide.blocks`), and retry *here*
        when a write fails — the one place a failed spill write is
        recovered; the writer comes back complete but unsealed, after
        those in ``written``.  With ``atomic=True`` (checkpointed runs)
        the files stage through ``*.tmp`` and only reach their final names
        sealed, so a resume can trust any spill file that exists under the
        run directory.  Whatever fails, the partial files are aborted — and
        their budget charge released — before anything else happens.

        * A write error (the plan's; the injector is one-shot, so it
          cannot starve the loop) → rewrite the partition, at most
          :data:`PARTITION_WRITE_RETRIES` times.
        * A write the disk budget denies → reclaim, cheapest first (the
          partial files; stale orphan temp files, the partitions already
          ``written`` sealed first so that none of them is this run's;
          and — when checkpointing — completed sibling runs), and rewrite
          **once**.
        * A second denial → the partition is *degraded*: its spill is a
          sealed empty file, so no task is built, and the coordinator
          rebuilds the pair serially in memory after the merge phase (as
          it does for the other side of a partition already degraded).

        Every way the run finishes exact."""
        write_errors, denied = 0, False
        while p not in self._disk_degraded:
            spill = PartitionSpill(
                spill_root, side, p, atomic=atomic, budget=self._budget
            )
            try:
                for window, keypointers, records in columns.blocks(routed):
                    injector.check(side, window)
                    spill.extend(keypointers, records)
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
        empty = PartitionSpill(spill_root, side, p, atomic=atomic)
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
        predicate: Predicate,
    ) -> List[PairTask]:
        """One task per non-empty partition pair, in LPT order."""
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
                tuples_r_path=spill_r.tuple_path,
                tuples_s_path=spill_s.tuple_path,
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

        ``on_result`` observes each harvested result *before* its spans and
        metrics are adopted — the checkpoint layer commits the pair there,
        so a kill mid-harvest loses at most the one uncommitted result.
        """
        if not tasks:
            return [], {}
        context = multiprocessing.get_context(self.start_method)
        max_workers = min(self.workers, len(tasks))
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
        provider = self.pool_provider
        # The heartbeat side channel: an mp queue handed to every worker
        # via the pool initializer (initargs travel as process-constructor
        # arguments, which is the one spawn-safe way to inherit a queue).
        # Only a journaling run with a *private* pool pays for it — a
        # shared pool serves many runs at once, cannot carry one run's
        # initializer state and runs the initializer itself.
        heartbeats = (
            context.Queue()
            if journal.enabled and not provider.shared
            else None
        )
        initializer = None if provider.shared else init_pool_worker
        worker_phase: Dict[int, dict] = {}
        next_sample = time.monotonic() + SAMPLE_INTERVAL_S

        def drain_heartbeats() -> None:
            if heartbeats is None:
                return
            while True:
                try:
                    ping = heartbeats.get_nowait()
                except Exception:
                    return
                worker_phase[ping["pid"]] = ping
                journal.emit(
                    EVENT_WORKER_HEARTBEAT,
                    pid=ping["pid"], pair=ping["pair"],
                    attempt=ping["attempt"], phase=ping["phase"],
                )

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
                workers={
                    str(pid): ping["phase"]
                    for pid, ping in sorted(worker_phase.items())
                },
            )

        def on_failure(index: int, error: WorkerTaskError) -> None:
            """Charge one attempt; requeue within budget, else give up."""
            self._count("task_failures")
            if error.corruption:
                # The file is wrong on disk — no retry can fix it.
                failed[index] = "corrupt_spill"
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
                pool = None
            for index in charged:
                on_failure(
                    index,
                    WorkerTaskError(index, attempts[index], 0, cause, message),
                )
            to_submit.extend(survivors)
            self._count("pool_respawns")
            journal.emit(EVENT_POOL_RESPAWN, queued=len(to_submit))

        def harvest(index: int, outcome: PairTaskResult) -> None:
            """Journal one harvested result: the worker's wire events are
            re-emitted with their producer-relative clock as ``worker_t``
            (worker and coordinator clocks are not comparable)."""
            if not journal.enabled:
                return
            for event in outcome.events:
                fields = {
                    k: v for k, v in event.items() if k not in ("type", "t")
                }
                fields["worker_t"] = event["t"]
                if event["type"] == EVENT_TASK_FINISHED:
                    fields["wall_s"] = round(outcome.wall_s, 6)
                journal.emit(event["type"], **fields)

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
                    pool = provider.acquire(
                        max_workers, context,
                        initializer=initializer, initargs=(heartbeats,),
                    )
                while to_submit:
                    index = to_submit.pop(0)
                    task = dataclasses.replace(
                        by_index[index], attempt=attempts[index]
                    )
                    try:
                        future = pool.submit(run_pair_task, task)
                    except RuntimeError:
                        # BrokenProcessPool, or (shared pool) a co-tenant
                        # already discarded this generation and submit
                        # raises "cannot schedule new futures"; heal and
                        # resubmit everything (no attempt charged — the
                        # task never reached a worker).
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
                    if self.task_timeout_s is not None:
                        deadlines[future] = (
                            time.monotonic() + self.task_timeout_s
                        )
                if pool is None or not inflight:
                    continue

                # A journaling run polls so heartbeats and sampler ticks
                # keep flowing while tasks are quiet; otherwise the wait
                # only needs a slice when a deadline — per-task or
                # whole-run — must be enforced.
                wait(
                    set(inflight),
                    timeout=(
                        _POLL_S
                        if (
                            deadlines
                            or journal.enabled
                            or self._deadline_at is not None
                        )
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
                    except (BrokenProcessPool, CancelledError):
                        # CancelledError reaches here only on a shared
                        # pool: a co-tenant's discard cancelled our queued
                        # future — same recovery as a pool death.
                        broken.append(index)
                    else:
                        outcomes.append(outcome)
                        harvest(index, outcome)
                        if on_result is not None:
                            on_result(outcome)
                        if outcome.spans:
                            self.tracer.adopt_wire(
                                outcome.spans, worker=outcome.worker_pid
                            )
                        if outcome.metrics:
                            self.metrics.merge_snapshot(outcome.metrics)
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
                provider.release(pool)
            drain_heartbeats()
            if heartbeats is not None:
                heartbeats.close()
                heartbeats.join_thread()
        return outcomes, failed

    # ------------------------------------------------------------------ #
    # graceful degradation
    # ------------------------------------------------------------------ #

    def _rebuild_pairs(
        self,
        reasons: Dict[int, str],
        side_r: InputSide,
        side_s: InputSide,
        routing: RunRouting,
        predicate: Predicate,
        on_result: Optional[Callable[[PairTaskResult], None]] = None,
    ) -> List[PairTaskResult]:
        """Serially rebuild pairs from the base relations, in index order.

        ``reasons`` maps each pair to why the process path does not have
        it: ``retry_exhausted`` / ``corrupt_spill`` (the pool gave up),
        ``disk_full`` (its spill was dropped under pressure) or
        ``breaker_shed`` (there is no pool: :meth:`run_serial`).  The
        coordinator still holds the base relations, so the partitions are
        re-derived from source tuples in one routing pass per side and
        merged in-process — slower, but exact.  Each merge is fed the
        key-pointer block the spill pass would have written, so it sees
        bit-identical input to what a worker would have read; refinement
        fetches from the sides' own stored records (``InputSide.stored``),
        in whichever form a worker's would have taken.  The run deadline is
        checked between pairs; ``on_result`` commits each rebuilt pair as
        it completes.
        """
        if not reasons:
            return []
        routed_r, routed_s = routing["r"], routing["s"]
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
            part_r = side_r.keypointers(routed_r[index])
            part_s = side_s.keypointers(routed_s[index])
            with self.tracer.span("process.degraded_pair", pair=index) as span:
                span.tag("degraded", True)
                span.tag("reason", reason)
                candidates = sweep_pair(
                    part_r, part_s, DEFAULT_TASK_MEMORY, self.config,
                    label=f"degraded.{index}",
                    tracer=self.tracer, metrics=self.metrics,
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
