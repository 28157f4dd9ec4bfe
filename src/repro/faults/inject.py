"""The injectors: code that *makes* the planned faults happen.

Worker-side faults (:func:`apply_worker_faults`) run inside the worker
process at the top of a partition-pair task, keyed purely by the attempt
number stamped on the task — no shared state, so they behave identically
under ``fork`` and ``spawn``.  Coordinator-side faults are a one-shot
write-error gate (:class:`WriteErrorInjector`) threaded through the
partitioning scan, and :func:`tear_frame`, which flips a byte inside an
already-written spill frame so the CRC path has something real to catch.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Callable, Optional, Set, Tuple

from ..obs.journal import EVENT_FAULT_INJECTED, NULL_JOURNAL
from ..storage.errors import DiskFullError, SpillCorruptionError
from ..storage.spill import FRAME_HEADER_SIZE, read_frames
from .plan import FaultPlan, WorkerFaults

WORKER_CRASH_EXIT_CODE = 87
"""Distinctive exit code for injected crashes (eases log forensics)."""


class InjectedFaultError(IOError):
    """A deliberately injected, transient I/O failure.

    Subclasses ``IOError`` because that is what the fault models: a disk
    read or write that would have raised ``OSError`` in the wild.  The
    retry machinery treats it like any other task failure.
    """

    def __init__(self, message: str, *, kind: str = "disk_error"):
        super().__init__(message)
        self.kind = kind

    def __reduce__(self):
        return (_rebuild_injected, (self.args[0] if self.args else "", self.kind))


def _rebuild_injected(message: str, kind: str) -> "InjectedFaultError":
    return InjectedFaultError(message, kind=kind)


def apply_worker_faults(
    faults: Optional[WorkerFaults], pair: int, attempt: int
) -> None:
    """Fire this (pair, attempt)'s planned worker faults, if any, in the
    order :meth:`~repro.faults.plan.WorkerFaults.firing` fixes."""
    if faults is None:
        return
    for kind in faults.firing(attempt):
        if kind == "worker_crash":
            # A real crash: no exception, no cleanup, the process is
            # simply gone.  The coordinator sees BrokenProcessPool.
            os._exit(WORKER_CRASH_EXIT_CODE)
        elif kind == "hang":
            time.sleep(faults.hang_s)
        elif kind == "slow_task":
            time.sleep(faults.slow_s)
        else:
            raise InjectedFaultError(
                f"injected spill read error (pair {pair}, attempt {attempt})",
                kind=kind,
            )


class WriteErrorInjector:
    """One-shot spill-write failures for the coordinator's partition scan.

    The coordinator calls :meth:`check` with the tuple ordinals of each
    partition it is about to write while spilling a side; when a planned
    ordinal is among them the injector raises — exactly once per planned
    fault, so the coordinator's rewrite of that side succeeds on retry.
    """

    def __init__(self, plan: Optional[FaultPlan], *, journal=NULL_JOURNAL):
        self._pending: Set[Tuple[str, int]] = (
            {(w.side, w.ordinal) for w in plan.write_errors} if plan else set()
        )
        self.fired = 0
        self.journal = journal

    def arm_side(self, side: str, records_in_side: int) -> None:
        """Clamp this side's planned ordinals into the records it will
        actually write, so small inputs cannot dodge the fault."""
        if not records_in_side:
            return
        for key in list(self._pending):
            if key[0] == side and key[1] >= records_in_side:
                self._pending.discard(key)
                self._pending.add((side, key[1] % records_in_side))

    def check(self, side: str, ordinals) -> None:
        """Raise for the first planned fault of ``side`` among the tuple
        ``ordinals`` (a collection supporting ``in``) about to be spilled."""
        for key in sorted(self._pending):
            if key[0] != side or key[1] not in ordinals:
                continue
            self._pending.discard(key)
            self.fired += 1
            self.journal.emit(
                EVENT_FAULT_INJECTED,
                kind="disk_write_error", side=side, ordinal=key[1],
            )
            raise InjectedFaultError(
                f"injected spill write error (side {side!r}, record {key[1]})",
                kind="disk_write_error",
            )


class DiskFullInjector:
    """One-shot disk-budget denials keyed by category byte ordinals.

    A :class:`~repro.storage.pressure.DiskBudget` consults :meth:`check`
    inside every charge with the half-open byte interval ``[start, end)``
    the charge would occupy on that category's monotonic charged-byte
    clock.  The first charge whose interval crosses a planned ordinal is
    denied with :class:`~repro.storage.errors.DiskFullError` (flagged
    ``injected=True``); the point is then spent, so the recovery path's
    retry of the same write proceeds.  Because the clock only advances on
    *successful* charges, the ordinals mean the same byte positions on
    every replay — the determinism contract of the plan suite.
    """

    def __init__(self, plan: Optional[FaultPlan], *, journal=NULL_JOURNAL):
        self._pending: dict = {}
        if plan is not None:
            for category, ordinal in plan.disk_full_points:
                self._pending.setdefault(category, []).append(ordinal)
        for ordinals in self._pending.values():
            ordinals.sort()
        self.fired = 0
        self.journal = journal

    @property
    def armed(self) -> bool:
        return any(self._pending.values())

    def check(self, category: str, start: int, end: int) -> None:
        ordinals = self._pending.get(category)
        if not ordinals or ordinals[0] >= end:
            return
        # One denial spends *every* ordinal the interval crosses: two
        # points landing inside the same charge must not demand two
        # retries of one write — recovery paths retry exactly once.
        crossed = []
        while ordinals and ordinals[0] < end:
            crossed.append(ordinals.pop(0))
        self.fired += len(crossed)
        self.journal.emit(
            EVENT_FAULT_INJECTED,
            kind="disk_full", category=category, ordinal=crossed[0],
        )
        raise DiskFullError(
            f"injected disk-full denial ({category} byte "
            f"ordinal{'s' if len(crossed) > 1 else ''} "
            f"{', '.join(str(o) for o in crossed)})",
            category=category,
            requested=end - start,
            injected=True,
        )


class CoordinatorKilledError(RuntimeError):
    """The coordinator was (softly) killed by an injected checkpoint fault.

    The soft kill mode raises this instead of sending ``SIGKILL`` so tests
    and the chaos CLI can observe the death, then resume, inside one
    process.  ``ordinal`` is the checkpoint ordinal the kill fired after —
    everything durable up to and including that op must survive.
    """

    def __init__(self, ordinal: int):
        super().__init__(
            f"coordinator killed by fault injection after checkpoint "
            f"ordinal {ordinal}"
        )
        self.ordinal = ordinal


class CheckpointFaultGate:
    """Fires checkpoint-ordinal faults as the store reports durable ops.

    The coordinator wires :meth:`after_durable` into its
    :class:`~repro.checkpoint.store.CheckpointStore`'s ``on_durable``
    callback.  After durable op N completes, the gate tears the manifest's
    tail if N is a planned torn-manifest ordinal, then kills the
    coordinator if N is a planned kill ordinal — tear first, so a plan
    combining both at one ordinal leaves torn state behind for the resume
    to recover.  Each point is one-shot.

    ``hard=True`` kills with ``SIGKILL`` (no cleanup, no exception — what
    the CI chaos job does to prove recovery against a real process death);
    the default soft kill raises :class:`CoordinatorKilledError`.
    ``on_event(kind)`` observes each fired fault (``"coordinator_kill"`` /
    ``"torn_manifest"``) for the coordinator's fault tally.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan],
        *,
        hard: bool = False,
        on_event: Optional[Callable[[str], None]] = None,
        extra_kills: Tuple[int, ...] = (),
        journal=NULL_JOURNAL,
    ):
        self._kills: Set[int] = (
            set(plan.coordinator_kill_ordinals) if plan else set()
        )
        self._kills.update(extra_kills)
        self._tears: Set[int] = (
            set(plan.torn_manifest_ordinals) if plan else set()
        )
        self.hard = hard
        self.on_event = on_event
        self.journal = journal
        self.fired_kills = 0
        self.fired_tears = 0
        self._manifest_path: Optional[str] = None

    @property
    def armed(self) -> bool:
        return bool(self._kills or self._tears)

    def _emit(self, kind: str, ordinal: int) -> None:
        self.journal.emit(EVENT_FAULT_INJECTED, kind=kind, ordinal=ordinal)
        if self.on_event is not None:
            self.on_event(kind)

    def after_durable(self, ordinal: int, path: str, kind: str) -> None:
        if kind == "manifest":
            self._manifest_path = path
        if ordinal in self._tears:
            self._tears.discard(ordinal)
            if self._manifest_path is not None:
                tear_tail(self._manifest_path)
                self.fired_tears += 1
                self._emit("torn_manifest", ordinal)
        if ordinal in self._kills:
            self._kills.discard(ordinal)
            self.fired_kills += 1
            self._emit("coordinator_kill", ordinal)
            if self.hard:
                os.kill(os.getpid(), signal.SIGKILL)
            raise CoordinatorKilledError(ordinal)


def tear_tail(path: "Path | str") -> bool:
    """Damage a file's final byte in place (a torn-tail write, simulated).

    This models durability loss *past* the atomic protocol — firmware
    lying about fsync, a medium error — so resume's prefix-recovery path
    has something real to recover from.  Returns False for an empty or
    missing file (nothing to tear).
    """
    path = Path(path)
    try:
        data = bytearray(path.read_bytes())
    except FileNotFoundError:
        return False
    if not data:
        return False
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    return True


def tear_frame(path: "Path | str", frame: int) -> int:
    """Corrupt one frame of a spill file in place; returns the frame torn.

    ``frame`` is taken modulo the file's record count.  The first payload
    byte of the chosen frame is XOR-flipped (for an empty payload, the
    stored CRC is flipped instead), which the reader's CRC32 check must
    report as a :class:`~repro.storage.errors.SpillCorruptionError` at
    exactly that frame.  Returns -1 for an empty file (nothing to tear)
    and for one the reader already refuses (nothing more to prove).
    """
    path = Path(path)
    try:
        frames = list(read_frames(path))
    except SpillCorruptionError:
        return -1
    if not frames:
        return -1
    target = frames[frame % len(frames)]
    flip_at = target.offset + (FRAME_HEADER_SIZE if target.record else 4)
    data = bytearray(path.read_bytes())
    data[flip_at] ^= 0xFF
    path.write_bytes(bytes(data))
    return target.index
