"""One front door for every parallel-PBSM execution backend.

Three backends, one result type, byte-identical pair sets:

* ``"serial"`` — the single-node reference join (one process, simulated
  disk).  The baseline every speedup is quoted against.
* ``"simulated"`` — §5's shared-nothing machine on virtual nodes
  (:class:`~repro.parallel.engine.ParallelPBSM`): modelled seconds,
  storage blow-up, and remote-fetch charges for the paper's declustering
  trade-off experiments.
* ``"process"`` — real worker processes with LPT partition-pair
  scheduling (:class:`~repro.parallel.process.ProcessPBSM`): measured
  wall-clock seconds on actual hardware.

``parallel_join`` normalises them behind one signature so the CLI, the
benchmarks, and the cross-backend equivalence tests can sweep backends
with a string.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..core.pbsm import PBSMConfig
from ..core.predicates import Predicate
from ..faults.plan import FaultPlan
from ..obs.journal import NULL_JOURNAL
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..storage.tuples import SpatialTuple
from .engine import (
    REPLICATE_OBJECTS,
    NodeReport,
    ParallelJoinResult,
    ParallelPBSM,
    serial_feature_pairs,
)
from .process import DEFAULT_MAX_TASK_RETRIES, ProcessPBSM

BACKEND_SERIAL = "serial"
BACKEND_SIMULATED = "simulated"
BACKEND_PROCESS = "process"
BACKENDS = (BACKEND_SERIAL, BACKEND_SIMULATED, BACKEND_PROCESS)


def parallel_join(
    tuples_r: Sequence[SpatialTuple],
    tuples_s: Sequence[SpatialTuple],
    predicate: Predicate,
    *,
    backend: str = BACKEND_PROCESS,
    workers: int = 4,
    scheme: str = REPLICATE_OBJECTS,
    num_partitions: Optional[int] = None,
    config: Optional[PBSMConfig] = None,
    start_method: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    journal=None,
    fault_plan: Optional[FaultPlan] = None,
    task_timeout_s: Optional[float] = None,
    max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    disk_budget=None,
) -> ParallelJoinResult:
    """Run the join on the chosen backend; pairs are feature-id pairs.

    ``workers`` is worker processes for ``"process"``, virtual nodes for
    ``"simulated"``, and ignored for ``"serial"``.  ``scheme`` (the §5
    replication choice) only applies to the simulated backend; the process
    backend always ships full tuples to the partitions that need them —
    there is no remote node to fetch from inside one machine.
    ``fault_plan``/``task_timeout_s``/``max_task_retries`` configure the
    process backend's chaos + recovery machinery (see :mod:`repro.faults`)
    and are rejected for backends that have no real processes to hurt.
    ``checkpoint_dir`` makes the process coordinator's state durable
    (:mod:`repro.checkpoint`); ``resume=True`` continues a checkpointed
    run instead of starting over.  Both are process-backend-only: the
    other backends have no coordinator that can die mid-join.
    ``journal`` attaches a flight recorder
    (:class:`~repro.obs.journal.RunJournal`) to the simulated and process
    backends; the serial reference has no scheduler to record.
    ``disk_budget`` (a :class:`~repro.storage.pressure.DiskBudget`)
    governs the process backend's spill and checkpoint footprint; the
    other backends write no real bytes to govern.
    """
    if backend != BACKEND_PROCESS and fault_plan is not None:
        raise ValueError(
            f"fault injection requires the process backend, not {backend!r}"
        )
    if backend != BACKEND_PROCESS and disk_budget is not None:
        raise ValueError(
            f"a disk budget (--disk-budget) requires the process backend, "
            f"not {backend!r}"
        )
    if backend != BACKEND_PROCESS and (checkpoint_dir is not None or resume):
        raise ValueError(
            f"checkpoint_dir (--checkpoint-dir) / resume (--resume) require "
            f"the process backend, not {backend!r}"
        )
    if journal is None:
        journal = NULL_JOURNAL
    if backend == BACKEND_SERIAL:
        wall_start = time.perf_counter()
        pairs, sim_seconds = serial_feature_pairs(tuples_r, tuples_s, predicate)
        return ParallelJoinResult(
            pairs,
            nodes=[NodeReport(node_id=0, tuples_r=len(tuples_r),
                              tuples_s=len(tuples_s), local_pairs=len(pairs),
                              sim_seconds=sim_seconds)],
            backend=BACKEND_SERIAL,
            wall_s=time.perf_counter() - wall_start,
        )
    if backend == BACKEND_SIMULATED:
        num_tiles = config.num_tiles if config is not None else 1024
        engine = ParallelPBSM(
            workers, scheme=scheme, num_tiles=num_tiles,
            tracer=tracer, metrics=metrics, journal=journal,
        )
        return engine.run(tuples_r, tuples_s, predicate)
    if backend == BACKEND_PROCESS:
        engine = ProcessPBSM(
            workers, num_partitions=num_partitions, config=config,
            start_method=start_method, tracer=tracer, metrics=metrics,
            journal=journal,
            fault_plan=fault_plan, task_timeout_s=task_timeout_s,
            max_task_retries=max_task_retries,
            checkpoint_dir=checkpoint_dir, disk_budget=disk_budget,
        )
        if resume:
            return engine.resume(tuples_r, tuples_s, predicate)
        return engine.run(tuples_r, tuples_s, predicate)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
