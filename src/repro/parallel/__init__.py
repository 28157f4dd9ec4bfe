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

from .api import parallel_join
from .engine import (
    REPLICATE_MBRS,
    REPLICATE_OBJECTS,
    ParallelJoinResult,
    ParallelPBSM,
    serial_feature_pairs,
)
from .process import DeadlineExceededError, ProcessPBSM
from .tasks import PairTaskResult, WorkerTaskError

__all__ = [
    "DeadlineExceededError",
    "PairTaskResult",
    "ParallelJoinResult",
    "ParallelPBSM",
    "ProcessPBSM",
    "REPLICATE_MBRS",
    "REPLICATE_OBJECTS",
    "WorkerTaskError",
    "parallel_join",
    "serial_feature_pairs",
]
