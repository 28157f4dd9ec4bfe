"""The checkpoint store: one run's durable files, and the ordinal clock.

A :class:`CheckpointStore` owns the on-disk layout of one fingerprinted
run under the user's checkpoint directory::

    <checkpoint_dir>/
      run-<sha256[:12]>/          one directory per distinct join
        manifest.bin              framed event log, atomically rewritten
        results.log               framed pair results, append + fsync
        spills/                   partition spill files (adoptable)

Every **durable operation** — a manifest rewrite or a result-log append —
ticks the store's *checkpoint ordinal*.  That clock is what makes crash
testing deterministic: the fault layer's coordinator-kill and torn-manifest
injection points are keyed by ordinal ("die after durable op 4"), so a
test can kill the coordinator at every distinct recovery state the
protocol can be in, not at whatever wall-clock moment a signal lands.

The store deliberately knows nothing about fault plans; it only reports
each durable op to an ``on_durable(ordinal, path, kind)`` callback, which
the coordinator wires to the fault gate (and could equally wire to a
progress bar).  It also charges an optional :class:`SimulatedDisk` for
each durable write, so checkpointed experiments see durability in their
modeled I/O time.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.journal import (
    EVENT_CHECKPOINT_COMMIT,
    EVENT_DISK_FULL_RECOVERED,
    EVENT_DISK_PRESSURE,
    NULL_JOURNAL,
)
from ..storage.disk import SimulatedDisk, atomic_write_bytes
from ..storage.errors import DiskFullError, ManifestCorruptionError
from ..storage.spill import sweep_orphan_spills

from .manifest import STATE_COMPLETE, JoinManifest, RunFingerprint
from .resultlog import (
    ResultLog,
    cut_result_log,
    replay_result_log,
    verified_replay,
)

if TYPE_CHECKING:  # imported only for typing to avoid a package cycle
    from ..parallel.tasks import PairTaskResult

MANIFEST_FILENAME = "manifest.bin"
RESULTS_FILENAME = "results.log"
SPILL_DIRNAME = "spills"

RUN_DIR_PREFIX = "run-"

DURABLE_MANIFEST = "manifest"
DURABLE_RESULT = "result"

OnDurable = Callable[[int, str, str], None]
"""(checkpoint ordinal, path written, kind) — observed *after* the op."""


class CheckpointMismatchError(RuntimeError):
    """``--resume`` pointed at checkpoints for a *different* join.

    Raised when the checkpoint directory holds run state but none of it
    matches the current inputs/config fingerprint.  Resuming anyway would
    silently join the wrong data, so this is an error, not a fresh start —
    the caller must either fix their inputs or pick a new directory.
    """

    def __init__(self, run_id: str, found: List[str]):
        super().__init__(
            f"checkpoint directory has no state for {run_id} "
            f"(found: {', '.join(found) or 'nothing'}); refusing to resume a "
            f"different join's checkpoints"
        )
        self.run_id = run_id
        self.found = found


class CheckpointStore:
    """Durable file manager for one fingerprinted run."""

    def __init__(
        self,
        root: "Path | str",
        fingerprint: RunFingerprint,
        *,
        disk: Optional[SimulatedDisk] = None,
        on_durable: Optional[OnDurable] = None,
        journal=NULL_JOURNAL,
        budget=None,
    ):
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.disk = disk
        self.on_durable = on_durable
        self.journal = journal
        self.budget = budget
        """Optional :class:`~repro.storage.pressure.DiskBudget` every
        durable write charges under ``checkpoint`` before touching disk.
        A denied write triggers one round of sibling-run garbage
        collection (completed runs in the same directory are finished
        with) and one retry before the denial propagates."""
        self._manifest_charged = 0
        """Flight recorder for ``checkpoint_commit`` events; the journal
        entry lands *before* ``on_durable`` runs, so a fault gate that
        kills the coordinator at this ordinal leaves the commit on
        record — the post-mortem sees exactly how far durability got."""
        self.run_dir = self.root / fingerprint.run_id
        self.manifest_path = self.run_dir / MANIFEST_FILENAME
        self.results_path = self.run_dir / RESULTS_FILENAME
        self.spill_dir = self.run_dir / SPILL_DIRNAME
        self.manifest: Optional[JoinManifest] = None
        self.ordinal = 0
        """Durable operations completed by *this* coordinator process."""
        self._results: Optional[ResultLog] = None

    # ------------------------------------------------------------------ #
    # the ordinal clock
    # ------------------------------------------------------------------ #

    def _durable(self, path: Path, kind: str, nbytes: int) -> int:
        self.ordinal += 1
        if self.disk is not None:
            self.disk.charge_durable_write(nbytes)
        self.journal.emit(
            EVENT_CHECKPOINT_COMMIT,
            ordinal=self.ordinal, kind=kind, file=path.name, bytes=nbytes,
        )
        if self.on_durable is not None:
            self.on_durable(self.ordinal, str(path), kind)
        return self.ordinal

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def load(self) -> Optional[JoinManifest]:
        """Read the manifest back, or ``None`` when this run has none.

        Propagates :class:`ManifestCorruptionError` — raised too for a
        manifest filed under this run's directory that describes another
        join; a torn tail is recovered silently
        (``manifest.recovered_torn_tail`` reports it).
        """
        manifest = load_manifest(self.run_dir)
        if manifest is not None and manifest.fingerprint != self.fingerprint:
            raise ManifestCorruptionError(
                f"manifest in {self.run_dir} belongs to "
                f"{manifest.fingerprint.run_id}, not {self.fingerprint.run_id}",
                path=str(self.manifest_path), frame_index=0,
            )
        self.manifest = manifest
        return manifest

    def begin(self, manifest: JoinManifest) -> None:
        """Adopt ``manifest`` as this run's state and persist it (durable)."""
        self.manifest = manifest
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._rewrite_manifest()

    def append_event(self, event: dict) -> dict:
        """Apply one event to the manifest and atomically persist (durable)."""
        assert self.manifest is not None, "store has no manifest; call begin()"
        applied = self.manifest.apply(event)
        self._rewrite_manifest()
        return applied

    def _rewrite_manifest(self) -> None:
        assert self.manifest is not None
        data = self.manifest.to_bytes()
        # The disk charge is folded into _durable; atomic_write_bytes only
        # performs the real-filesystem protocol here.
        self._write_durable(
            lambda: atomic_write_bytes(
                self.manifest_path, data, budget=self.budget
            ),
            DURABLE_MANIFEST,
        )
        if self.budget is not None:
            # The rename replaced the previous manifest; its bytes left
            # the disk, so return them to the budget.
            self.budget.release(self._manifest_charged, "checkpoint")
            self._manifest_charged = len(data)
        self._durable(self.manifest_path, DURABLE_MANIFEST, len(data))

    # ------------------------------------------------------------------ #
    # result log
    # ------------------------------------------------------------------ #

    def append_result(self, result: "PairTaskResult") -> None:
        """Durably commit one pair result (append + fsync; durable)."""
        if self._results is None:
            self.replay_results()
        nbytes = self._write_durable(
            lambda: self._results.append(result), DURABLE_RESULT
        )
        self._durable(self.results_path, DURABLE_RESULT, nbytes)

    # ------------------------------------------------------------------ #
    # storage-pressure recovery
    # ------------------------------------------------------------------ #

    def _write_durable(self, write, kind: str):
        """Run a budget-charged write, recovering once from a denial.

        A :class:`DiskFullError` triggers garbage collection of completed
        sibling runs (a finished run's checkpoints exist only to be
        adopted; under pressure, finishing *this* run wins) and one
        retry.  A second denial propagates — there is nothing left to
        free at this layer.
        """
        try:
            return write()
        except DiskFullError:
            self.journal.emit(
                EVENT_DISK_PRESSURE, category="checkpoint", kind=kind
            )
            freed = self.reclaim_completed_siblings()
            result = write()
            self.journal.emit(
                EVENT_DISK_FULL_RECOVERED,
                category="checkpoint", kind=kind,
                action="sibling_gc", bytes_freed=freed,
            )
            return result

    def reclaim_completed_siblings(self) -> int:
        """Delete completed sibling run directories; returns bytes freed."""
        freed = 0
        for info in inspect_checkpoint_dir(self.root):
            if info.run_id == self.fingerprint.run_id or not info.complete:
                continue
            shutil.rmtree(info.path, ignore_errors=True)
            freed += info.bytes_total
            if self.budget is not None:
                self.budget.release(info.bytes_total, "checkpoint")
        return freed

    def replay_results(self) -> Tuple[Dict[int, "PairTaskResult"], bool]:
        """Adopt the result log's intact prefix: its committed results
        keyed by pair index, and whether anything followed it.

        What followed — a torn final frame, or a damaged frame and
        everything behind it — is cut from the file here, as this run's
        writer is made (:class:`~repro.checkpoint.resultlog.ResultLog`),
        so the next commit can never land behind bytes a later replay
        would stop at.  The pairs that were cut are uncommitted again.
        """
        self.close()
        committed, intact_bytes, ended_by = replay_result_log(self.results_path)
        self._results = ResultLog(
            self.results_path, intact_bytes, budget=self.budget
        )
        return committed, ended_by is not None

    def discard_results(self) -> None:
        """Drop the result log: every pair gets requeued."""
        self.close()
        try:
            self.results_path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ #
    # housekeeping
    # ------------------------------------------------------------------ #

    def sweep_orphans(self) -> List[str]:
        """Collect unsealed ``*.tmp`` files a dead writer left in this run."""
        return sweep_orphan_spills(self.run_dir)

    def sibling_run_ids(self) -> List[str]:
        """Other runs' ids present in the same checkpoint directory."""
        return [
            run_dir.name
            for run_dir in run_dirs(self.root)
            if run_dir.name != self.fingerprint.run_id
        ]

    def close(self) -> None:
        if self._results is not None:
            self._results.close()
            self._results = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# directory-level inspection (the `repro checkpoints` subcommand)
# ---------------------------------------------------------------------- #


@dataclass
class CheckpointInfo:
    """One run directory's summary, as listed by ``repro checkpoints``."""

    run_id: str
    path: str
    state: str
    pairs_done: int
    pairs_total: Optional[int]
    result_count: Optional[int]
    bytes_total: int
    mtime: float
    error: str = ""
    """Non-empty when the manifest (or result log) could not be trusted."""

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "state": self.state,
            "pairs_done": self.pairs_done,
            "pairs_total": self.pairs_total,
            "result_count": self.result_count,
            "bytes_total": self.bytes_total,
            "mtime": self.mtime,
            "error": self.error,
        }

    @property
    def complete(self) -> bool:
        return self.state == STATE_COMPLETE


@dataclass
class GCReport:
    removed: List[str] = field(default_factory=list)
    kept: List[str] = field(default_factory=list)
    bytes_freed: int = 0


class RunDirSize(NamedTuple):
    """What eviction and accounting need of a run directory — how big,
    how old — read from ``stat`` alone: no file is opened."""

    run_id: str
    path: str
    bytes_total: int
    mtime: float


def select_lru_victims(
    infos: "Sequence[RunDirSize | CheckpointInfo]",
    max_bytes: int,
    *,
    pinned: "frozenset[str] | set[str]" = frozenset(),
    recency: Optional[Dict[str, int]] = None,
) -> "List[RunDirSize | CheckpointInfo]":
    """The one LRU-by-bytes eviction policy for run directories.

    Both ``repro checkpoints gc --max-bytes`` and the serving tier's
    artifact cache (:mod:`repro.serve.cache`) call this, so CLI pruning
    and service eviction can never disagree about who dies first.

    Victims are chosen least-recently-used first until the total size of
    the surviving runs fits ``max_bytes``.  ``recency`` maps run ids to a
    logical use clock (the serve cache's touch counter); runs absent from
    it fall back to manifest mtime and always evict before any touched
    run.  Runs named in ``pinned`` are never selected — an in-use entry
    must survive even if the budget stays blown.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes cannot be negative")
    total = sum(info.bytes_total for info in infos)

    def age_key(info):
        if recency is not None and info.run_id in recency:
            return (1, recency[info.run_id], info.run_id)
        return (0, info.mtime, info.run_id)

    victims = []
    for info in sorted(infos, key=age_key):
        if total <= max_bytes:
            break
        if info.run_id in pinned:
            continue
        victims.append(info)
        total -= info.bytes_total
    return victims


def _dir_bytes(path: Path) -> int:
    total = 0
    for child in path.rglob("*"):
        if child.is_file():
            try:
                total += child.stat().st_size
            except OSError:
                continue
    return total


def run_dirs(root: "Path | str") -> List[Path]:
    """Every run directory under ``root``, in name order."""
    return [
        path
        for path in sorted(Path(root).glob(f"{RUN_DIR_PREFIX}*"))
        if path.is_dir()
    ]


def stat_run_dir(run_dir: Path) -> RunDirSize:
    """Size one run directory without reading it; its age is its
    manifest's (the last durable state change), else the directory's."""
    try:
        mtime = (run_dir / MANIFEST_FILENAME).stat().st_mtime
    except OSError:
        mtime = run_dir.stat().st_mtime
    return RunDirSize(run_dir.name, str(run_dir), _dir_bytes(run_dir), mtime)


def stat_checkpoint_dir(root: "Path | str") -> List[RunDirSize]:
    """Size every run directory under ``root`` — what the serve cache's
    ``stats`` and eviction passes walk, on every tick and every query."""
    return [stat_run_dir(run_dir) for run_dir in run_dirs(root)]


def load_manifest(run_dir: Path) -> Optional[JoinManifest]:
    """The one reader of a run directory's manifest: ``None`` when there
    is none, :class:`ManifestCorruptionError` when its bytes cannot be
    trusted (:meth:`JoinManifest.from_bytes` has the contract)."""
    path = run_dir / MANIFEST_FILENAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    return JoinManifest.from_bytes(data, label=str(path))


def _manifest_state(run_dir: Path) -> Tuple[Optional[JoinManifest], str, str]:
    """``(manifest, state, error)`` — a run directory without a
    trustworthy manifest still has a state to list and a reason."""
    try:
        manifest = load_manifest(run_dir)
    except ManifestCorruptionError as exc:
        return None, "corrupt", str(exc)
    if manifest is None:
        return None, "missing-manifest", "no manifest.bin in run directory"
    return manifest, manifest.state, ""


def inspect_run_dir(run_dir: Path) -> CheckpointInfo:
    """Summarise one run directory: its manifest read once, its result
    log walked once."""
    manifest, state, error = _manifest_state(run_dir)
    committed, _intact_bytes, ended_by = replay_result_log(
        run_dir / RESULTS_FILENAME
    )
    if isinstance(ended_by, ManifestCorruptionError):
        # A torn tail is what every killed run leaves; damage is not.
        error = error or f"result log untrustworthy: {ended_by}"
    size = stat_run_dir(run_dir)
    return CheckpointInfo(
        run_id=run_dir.name,
        path=str(run_dir),
        state=state,
        pairs_done=len(committed),
        pairs_total=manifest.pairs_total if manifest else None,
        result_count=manifest.result_count if manifest else None,
        bytes_total=size.bytes_total,
        mtime=size.mtime,
        error=error,
    )


def inspect_checkpoint_dir(root: "Path | str") -> List[CheckpointInfo]:
    """Summarise every run directory under ``root`` (corrupt ones included)."""
    return [inspect_run_dir(run_dir) for run_dir in run_dirs(root)]


def scrub_run_dir(run_dir: Path, budget=None) -> Tuple[bool, str]:
    """Verify one run directory at rest, each file read once:
    ``(repaired, unservable)``.  Bytes a repair cuts go back to ``budget``.

    ``unservable`` names why the directory can never answer or resume a
    query — no trustworthy manifest, or a *complete* run that fails
    :func:`~repro.checkpoint.resultlog.verified_replay` (a finished log
    has nothing to repair toward: cutting it would contradict the
    manifest's ``result_count``).  An *incomplete* run whose log does not
    end cleanly is repaired the way a resume would repair it — cut to its
    intact prefix, the pairs behind the cut uncommitted again — and
    reported ``repaired``.  ``(False, "")`` is a clean bill.
    """
    manifest, state, _error = _manifest_state(run_dir)
    if manifest is None:
        return False, f"manifest_{state}"
    log_path = run_dir / RESULTS_FILENAME
    if manifest.state == STATE_COMPLETE:
        pairs, reason = verified_replay(log_path, manifest.result_count)
        return False, ("" if pairs is not None else reason)
    _committed, intact_bytes, ended_by = replay_result_log(log_path)
    if ended_by is None:
        return False, ""
    cut_result_log(log_path, intact_bytes, budget)
    return True, ""


def gc_checkpoint_dir(
    root: "Path | str",
    *,
    run_id: Optional[str] = None,
    all_runs: bool = False,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
) -> GCReport:
    """Delete run directories that are finished with (or named explicitly).

    By default only ``complete`` runs are collected — an interrupted run's
    checkpoints are exactly what a resume needs, so they are kept unless
    the caller names the run or passes ``all_runs=True``.

    ``max_bytes`` switches to size-based pruning instead: runs are evicted
    least-recently-used first (by manifest mtime) until the directory fits
    the budget, complete or not — the same policy, via the same
    :func:`select_lru_victims`, that the serving tier's artifact cache
    applies between queries.

    ``dry_run`` runs the identical selection — same inspection, same
    victim policy — but deletes nothing: the report's ``removed`` lists
    what *would* be collected, so an operator can preview a gc with the
    exact code that will later perform it.
    """
    report = GCReport()
    if max_bytes is not None:
        if run_id is not None or all_runs:
            raise ValueError(
                "--max-bytes is its own policy; combine it with neither a "
                "run id nor --all"
            )
        infos = stat_checkpoint_dir(root)
        victims = {v.run_id for v in select_lru_victims(infos, max_bytes)}
    else:
        infos = inspect_checkpoint_dir(root)
        victims = None
    for info in infos:
        if victims is not None:
            collect = info.run_id in victims
        elif run_id is not None:
            collect = info.run_id == run_id
        elif all_runs:
            collect = True
        else:
            collect = info.complete
        if collect:
            if not dry_run:
                shutil.rmtree(info.path, ignore_errors=True)
            report.removed.append(info.run_id)
            report.bytes_freed += info.bytes_total
        else:
            report.kept.append(info.run_id)
    return report
