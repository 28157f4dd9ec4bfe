"""Parallel PBSM (the paper's §5): simulated nodes and real processes.

* :mod:`repro.parallel.engine` — the virtual shared-nothing machine
  (``backend="simulated"``): §5's storage/remote-fetch declustering
  trade-off in modelled seconds.
* :mod:`repro.parallel.process` + :mod:`repro.parallel.tasks` — the true
  multiprocess backend (``backend="process"``): partition-pair merge
  tasks scheduled LPT-first over a worker pool, measured in wall-clock
  seconds.
* :mod:`repro.parallel.api` — :func:`parallel_join`, the one front door.
"""

from .api import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    BACKEND_SIMULATED,
    BACKENDS,
    parallel_join,
)
from .engine import (
    REMOTE_FETCH_SECONDS,
    REPLICATE_MBRS,
    REPLICATE_OBJECTS,
    SCHEMES,
    NodeReport,
    ParallelJoinResult,
    ParallelPBSM,
    TaskReport,
    serial_feature_pairs,
)
from .process import DeadlineExceededError, ProcessPBSM, RunPoolProvider
from .tasks import (
    PairTask,
    PairTaskResult,
    SpillHandle,
    WorkerTaskError,
    run_pair_task,
)

__all__ = [
    "BACKENDS",
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "BACKEND_SIMULATED",
    "DeadlineExceededError",
    "NodeReport",
    "PairTask",
    "PairTaskResult",
    "ParallelJoinResult",
    "ParallelPBSM",
    "ProcessPBSM",
    "RunPoolProvider",
    "SpillHandle",
    "REMOTE_FETCH_SECONDS",
    "REPLICATE_MBRS",
    "REPLICATE_OBJECTS",
    "SCHEMES",
    "TaskReport",
    "WorkerTaskError",
    "parallel_join",
    "run_pair_task",
    "serial_feature_pairs",
]
