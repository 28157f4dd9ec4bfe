"""Fault plans: a seed + a spec, compiled into precise, replayable faults.

A :class:`FaultSpec` says *how many* of each fault kind to inject; a
:class:`FaultPlan` is the spec compiled against one join's fault domain
(the partition-pair index space) with a seeded RNG, pinning every fault to
an exact, replayable point:

* **worker faults** — read errors, crashes, hangs, stragglers — are keyed
  by ``(pair index, attempt number)``.  Compilation targets attempt 0 (and
  stacks onto later attempts when several faults of one kind land on the
  same pair), so a plan whose failures stay within the retry budget is
  always survivable: the retry of the same pair no longer matches an
  injection point and succeeds.
* **write errors** fire once per chosen input side while the coordinator
  is spilling partitions, at a deterministic record ordinal.
* **torn frames** name a ``(side, partition, frame)`` whose spill file the
  coordinator corrupts *after* writing it — exercising the CRC path and
  the quarantine/degrade machinery rather than the retry path.
* **coordinator kills** and **torn manifests** are keyed by *checkpoint
  ordinal* — the count of durable checkpoint operations (manifest rewrites
  and result-log appends) the coordinator has completed.  A kill stops the
  coordinator dead right after durable op N; a torn manifest damages the
  manifest's tail at that point.  Both exist to exercise the
  checkpoint/resume path and need a ``checkpoint_dir`` to be survivable.
* **disk-full denials** are keyed by ``(category, byte ordinal)`` on the
  disk budget's per-category charged-byte clock: the first charge whose
  byte interval crosses the ordinal is denied with a
  :class:`~repro.storage.errors.DiskFullError` (one-shot — the retry of
  the same write proceeds), exercising every layer's storage-pressure
  recovery path without needing a real full disk.

Two compilations from the same ``(spec, seed, num_pairs)`` are equal, which
is the determinism contract the fault-matrix suite is built on: replaying a
plan replays the exact failure schedule, and the surviving join must
produce the byte-identical pair set of a fault-free run.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

DEFAULT_HANG_S = 30.0
"""Injected sleep for a hung task; meant to exceed any sane task timeout."""

DEFAULT_SLOW_S = 0.05
"""Injected sleep for a straggler: visible in latency, below any timeout."""


@dataclass(frozen=True)
class FaultSpec:
    """How many faults of each kind one chaos run should inject."""

    disk_read_errors: int = 0
    """Worker-side spill read failures (transient; retry succeeds)."""
    disk_write_errors: int = 0
    """Coordinator-side spill write failures during partitioning."""
    torn_frames: int = 0
    """Spill frames corrupted on disk after writing (CRC must catch)."""
    worker_crashes: int = 0
    """Workers killed mid-task (``os._exit``) — breaks the whole pool."""
    hangs: int = 0
    """Tasks that sleep past the task timeout."""
    slow_tasks: int = 0
    """Stragglers: tasks that sleep but finish inside the timeout."""
    coordinator_kills: int = 0
    """Coordinator deaths keyed by checkpoint ordinal (needs a checkpoint
    dir to be survivable — the resume path is what they exercise)."""
    torn_manifests: int = 0
    """Manifest files damaged at the tail after a durable write, so resume
    must exercise prefix recovery."""
    cache_corruptions: int = 0
    """Cache entries damaged *at rest*: each picks a deterministic byte
    ordinal at which a completed entry's result log is torn after the
    fact.  Applied by the chaos harness (the serve-chaos drill), not the
    worker — it exercises the scrubber/quarantine path, which exists for
    exactly the damage no running coordinator would ever write."""
    disk_full: int = 0
    """Disk-budget charge denials: each picks a category (``spill`` or
    ``checkpoint``) and a byte ordinal on that category's charged-byte
    clock; the first charge crossing the ordinal raises
    :class:`~repro.storage.errors.DiskFullError`, one-shot."""
    hang_s: float = DEFAULT_HANG_S
    slow_s: float = DEFAULT_SLOW_S

    @property
    def total_faults(self) -> int:
        return (
            self.disk_read_errors + self.disk_write_errors + self.torn_frames
            + self.worker_crashes + self.hangs + self.slow_tasks
            + self.coordinator_kills + self.torn_manifests
            + self.cache_corruptions + self.disk_full
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class WorkerFaults:
    """The picklable per-pair fault slice shipped inside a ``PairTask``.

    Each tuple lists the attempt numbers at which that fault fires for
    this pair; the worker consults it with the attempt number the
    coordinator stamped on the task, so injection needs no shared state.
    """

    read_error_attempts: Tuple[int, ...] = ()
    crash_attempts: Tuple[int, ...] = ()
    hang_attempts: Tuple[int, ...] = ()
    slow_attempts: Tuple[int, ...] = ()
    hang_s: float = DEFAULT_HANG_S
    slow_s: float = DEFAULT_SLOW_S

    @property
    def total_points(self) -> int:
        return (
            len(self.read_error_attempts) + len(self.crash_attempts)
            + len(self.hang_attempts) + len(self.slow_attempts)
        )

    def firing(self, attempt: int) -> List[str]:
        """The fault kinds that fire on this attempt, in injection order.

        A crash pre-empts the attempt's other faults (the process dies);
        then a hang or straggler sleep (the task is *stuck*, not failed);
        a read error raises last, modelling the task's first spill read
        blowing up.  The worker injects from this list and the coordinator
        journals from it, so the two can never disagree.
        """
        if attempt in self.crash_attempts:
            return ["worker_crash"]
        return [
            kind
            for kind, attempts in (
                ("hang", self.hang_attempts),
                ("slow_task", self.slow_attempts),
                ("disk_read_error", self.read_error_attempts),
            )
            if attempt in attempts
        ]


@dataclass(frozen=True)
class TornFrame:
    """One spill frame to corrupt: side ('r'/'s'), partition, frame index.

    The frame index is taken modulo the file's record count at tear time,
    so a plan never misses just because a partition came out small.
    """

    side: str
    partition: int
    frame: int


@dataclass(frozen=True)
class WriteError:
    """One coordinator-side spill write failure: fires on the ``ordinal``-th
    record append of the given side's partitioning pass (once per run)."""

    side: str
    ordinal: int


@dataclass(frozen=True)
class FaultPlan:
    """A spec pinned to exact injection points for one join execution."""

    seed: int
    num_pairs: int
    spec: FaultSpec
    worker_faults: Mapping[int, WorkerFaults] = field(default_factory=dict)
    torn_frames: Tuple[TornFrame, ...] = ()
    write_errors: Tuple[WriteError, ...] = ()
    coordinator_kill_ordinals: Tuple[int, ...] = ()
    """Checkpoint ordinals after which the coordinator dies (see
    :class:`repro.faults.inject.CheckpointFaultGate`)."""
    torn_manifest_ordinals: Tuple[int, ...] = ()
    """Checkpoint ordinals after which the manifest's tail is damaged."""
    cache_corruption_ordinals: Tuple[int, ...] = ()
    """Byte ordinals (modulo the victim file's size at damage time) at
    which the serve-chaos harness flips one byte of a completed cache
    entry's result log — the scrubber drill's injection points."""
    disk_full_points: Tuple[Tuple[str, int], ...] = ()
    """``(category, byte ordinal)`` points at which the disk budget denies
    a charge (see :class:`repro.faults.inject.DiskFullInjector`)."""

    # ------------------------------------------------------------------ #

    @classmethod
    def compile(
        cls, spec: FaultSpec, *, seed: int, num_pairs: int
    ) -> "FaultPlan":
        """Pin every fault in ``spec`` to a precise point, deterministically.

        The RNG is seeded with ``seed`` alone, so the same (spec, seed,
        num_pairs) triple always compiles to the same plan.
        """
        if num_pairs < 1:
            raise ValueError("fault domain needs at least one pair")
        rng = random.Random(f"faultplan:{seed}")
        per_pair: Dict[int, Dict[str, list]] = {}

        def stack(kind: str, count: int) -> None:
            # Each fault lands on a random pair at that pair's next unused
            # attempt for its kind — attempt 0 first, so a bounded retry
            # budget always clears plan-injected failures.
            for _ in range(count):
                pair = rng.randrange(num_pairs)
                attempts = per_pair.setdefault(pair, {}).setdefault(kind, [])
                attempts.append(len(attempts))

        stack("read_error", spec.disk_read_errors)
        stack("crash", spec.worker_crashes)
        stack("hang", spec.hangs)
        stack("slow", spec.slow_tasks)

        worker_faults = {
            pair: WorkerFaults(
                read_error_attempts=tuple(kinds.get("read_error", ())),
                crash_attempts=tuple(kinds.get("crash", ())),
                hang_attempts=tuple(kinds.get("hang", ())),
                slow_attempts=tuple(kinds.get("slow", ())),
                hang_s=spec.hang_s,
                slow_s=spec.slow_s,
            )
            for pair, kinds in sorted(per_pair.items())
        }
        torn = tuple(
            TornFrame(
                side=rng.choice("rs"),
                partition=rng.randrange(num_pairs),
                frame=rng.randrange(1 << 16),
            )
            for _ in range(spec.torn_frames)
        )
        writes = tuple(
            WriteError(side=rng.choice("rs"), ordinal=rng.randrange(1 << 10))
            for _ in range(spec.disk_write_errors)
        )
        # Checkpoint-ordinal faults.  A fresh run's durable ops are:
        # 1 = manifest init, 2/3 = spill seals, 4 = merging phase, then one
        # per committed pair.  Kills draw from [2, 5) — after real work
        # exists to preserve, before the worker pool spawns, so a hard
        # SIGKILL cannot orphan workers.  Manifest tears draw from [1, 5):
        # any manifest rewrite's tail is fair game.
        kills = tuple(
            sorted(rng.randrange(2, 5) for _ in range(spec.coordinator_kills))
        )
        manifest_tears = tuple(
            sorted(rng.randrange(1, 5) for _ in range(spec.torn_manifests))
        )
        cache_tears = tuple(
            sorted(rng.randrange(1 << 10) for _ in range(spec.cache_corruptions))
        )
        # Disk-full points draw *after* every earlier kind so adding them
        # to a spec never perturbs the other kinds' draws under one seed.
        # Ordinal ranges are small on purpose: the drill workloads spill a
        # few KB per category, and a point past the bytes a run actually
        # charges would never fire.
        disk_points = []
        for _ in range(spec.disk_full):
            category = rng.choice(("spill", "checkpoint"))
            bound = 1 << 12 if category == "spill" else 1 << 10
            disk_points.append((category, rng.randrange(bound)))
        disk_full_points = tuple(sorted(disk_points))
        return cls(
            seed=seed,
            num_pairs=num_pairs,
            spec=spec,
            worker_faults=worker_faults,
            torn_frames=torn,
            write_errors=writes,
            coordinator_kill_ordinals=kills,
            torn_manifest_ordinals=manifest_tears,
            cache_corruption_ordinals=cache_tears,
            disk_full_points=disk_full_points,
        )

    # ------------------------------------------------------------------ #

    def faults_for_pair(self, pair: int) -> Optional[WorkerFaults]:
        return self.worker_faults.get(pair)

    @property
    def max_hang_s(self) -> float:
        """Longest injected sleep — what a task timeout must undercut."""
        longest = 0.0
        for faults in self.worker_faults.values():
            if faults.hang_attempts:
                longest = max(longest, faults.hang_s)
        return longest

    def to_dict(self) -> dict:
        """The replayable source form: seed + domain + spec (points are
        re-derived by :meth:`compile`, which is deterministic)."""
        return {
            "seed": self.seed,
            "num_pairs": self.num_pairs,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls.compile(
            FaultSpec.from_dict(data.get("spec", {})),
            seed=int(data["seed"]),
            num_pairs=int(data["num_pairs"]),
        )

    def save(self, path: "Path | str") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: "Path | str") -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


NAMED_SPECS: Dict[str, FaultSpec] = {
    "none": FaultSpec(),
    "disk_error": FaultSpec(disk_read_errors=2, disk_write_errors=1),
    "torn_frame": FaultSpec(torn_frames=1),
    "worker_crash": FaultSpec(worker_crashes=1),
    "hang": FaultSpec(hangs=1),
    "slow": FaultSpec(slow_tasks=2),
    "coordinator_kill": FaultSpec(coordinator_kills=1),
    "torn_manifest": FaultSpec(torn_manifests=1),
    "worker_faults": FaultSpec(
        disk_read_errors=2, worker_crashes=1, slow_tasks=1
    ),
    # One task sleeps far past any sane query deadline — the serve
    # drill's stalled tenant (override hang_s to taste via load_plan).
    "deadline_stall": FaultSpec(hangs=1),
    # One completed cache entry damaged at rest — the scrubber drill.
    "scrub_corruption": FaultSpec(cache_corruptions=1),
    # Two budget charges denied mid-run — the storage-pressure drill.
    "disk_full": FaultSpec(disk_full=2),
    "combined": FaultSpec(
        disk_read_errors=1,
        disk_write_errors=1,
        torn_frames=1,
        worker_crashes=1,
        hangs=1,
        slow_tasks=1,
    ),
}
"""The fault matrix: one canonical spec per failure mode, plus the works."""


def load_plan(
    name_or_path: str,
    *,
    seed: int = 0,
    num_pairs: int = 8,
    hang_s: Optional[float] = None,
) -> FaultPlan:
    """Resolve a named spec or a plan JSON file into a compiled plan.

    Named specs compile against the given ``seed``/``num_pairs``; JSON
    files are self-contained and ignore both.  ``hang_s`` (when given)
    overrides the spec's hang duration either way — the CLI uses it to
    keep hangs just past its task timeout instead of the 30 s default.
    """
    candidate = Path(name_or_path)
    if name_or_path.endswith(".json") or candidate.exists():
        plan = FaultPlan.load(candidate)
        if hang_s is not None and hang_s != plan.spec.hang_s:
            plan = FaultPlan.compile(
                replace(plan.spec, hang_s=hang_s),
                seed=plan.seed, num_pairs=plan.num_pairs,
            )
        return plan
    if name_or_path not in NAMED_SPECS:
        known = ", ".join(sorted(NAMED_SPECS))
        raise ValueError(
            f"unknown fault plan {name_or_path!r}: expected one of [{known}] "
            "or a path to a plan JSON file"
        )
    spec = NAMED_SPECS[name_or_path]
    if hang_s is not None:
        spec = replace(spec, hang_s=hang_s)
    return FaultPlan.compile(spec, seed=seed, num_pairs=num_pairs)
