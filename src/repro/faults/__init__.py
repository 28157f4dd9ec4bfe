"""``repro.faults`` — seeded, deterministic fault injection for chaos runs.

The subsystem has two halves:

* :mod:`repro.faults.plan` — :class:`FaultSpec` (how many faults of each
  kind) compiled with a seed into a :class:`FaultPlan` (exactly which
  partition pair, attempt, spill frame, or write ordinal each fault hits).
  Same seed + spec → same plan, always: a chaos run is replayable.
* :mod:`repro.faults.inject` — the code that makes planned faults real:
  worker crashes / hangs / stragglers / read errors inside tasks, one-shot
  write errors in the coordinator's partition scan, and torn spill frames
  on disk for the CRC path to catch.

The process backend (:class:`repro.parallel.process.ProcessPBSM`) accepts
a plan via ``fault_plan=`` and must survive it: retry within budget,
respawn a broken pool, quarantine corrupt spills, and degrade exhausted
pairs to a serial coordinator rebuild — returning the byte-identical pair
set of a fault-free run.  ``python -m repro chaos`` drives exactly that
and reports survival.
"""

from .inject import (
    CheckpointFaultGate,
    CoordinatorKilledError,
    tear_frame,
    tear_tail,
)
from .plan import (
    NAMED_SPECS,
    FaultPlan,
    FaultSpec,
    TornFrame,
    WorkerFaults,
    WriteError,
    load_plan,
)

__all__ = [
    "CheckpointFaultGate",
    "CoordinatorKilledError",
    "FaultPlan",
    "FaultSpec",
    "NAMED_SPECS",
    "TornFrame",
    "WorkerFaults",
    "WriteError",
    "load_plan",
    "tear_frame",
    "tear_tail",
]
