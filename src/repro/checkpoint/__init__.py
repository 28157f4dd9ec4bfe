"""Durable checkpoint/resume: crash-safe coordinator state for PBSM joins.

The multiprocess backend's coordinator can die — a crashed host, an OOM
kill, an operator's ctrl-C — and before this package existed, everything
it had already paid for (partitioning both inputs, every merged partition
pair) died with it.  ``repro.checkpoint`` makes that work durable:

* :class:`~repro.checkpoint.manifest.RunFingerprint` — the join's identity
  (input CRCs, predicate, grid, config), so state can never be resumed
  into a *different* join;
* :class:`~repro.checkpoint.manifest.JoinManifest` — a framed,
  checksummed event log recording the lifecycle of every artifact, only
  ever replaced via the atomic temp-write/fsync/rename protocol;
* :class:`~repro.checkpoint.resultlog.ResultLog` — append-only committed
  pair results, fsynced per commit;
* :class:`~repro.checkpoint.store.CheckpointStore` — the run directory
  and the *checkpoint ordinal* clock that the fault layer keys
  coordinator-kill and torn-manifest injections to.

This package is also the only code that knows what a run directory looks
like on disk, whether it can be trusted and how it is repaired: one
manifest loader (:func:`~repro.checkpoint.store.load_manifest`), one walk
of the result log (:func:`~repro.checkpoint.resultlog.replay_result_log`),
one verdict on a finished run
(:func:`~repro.checkpoint.resultlog.verified_replay`) and one repair — the
log cut to its intact prefix whenever it is opened for append.  The CLI,
the artifact cache and the scrubber ask here
(:func:`~repro.checkpoint.store.inspect_checkpoint_dir`,
:func:`~repro.checkpoint.store.scrub_run_dir`); none of them opens a file
in a run directory itself.  "How many bytes, how old" is a different
question from "what state": :func:`~repro.checkpoint.store.stat_checkpoint_dir`
answers it from ``stat`` alone, which is all eviction and the cache's
``stats`` need.

The invariant the whole package serves: for any kill point and any fault
plan within budget, **kill + resume produces byte-identical join results
to an uninterrupted run** — the resumed coordinator re-merges only the
pairs that never committed.
"""

from .manifest import (
    EVENT_TYPES,
    MANIFEST_VERSION,
    STATE_COMPLETE,
    STATE_CREATED,
    STATE_MERGING,
    STATE_PARTITIONED,
    STATES,
    JoinManifest,
    RunFingerprint,
)
from .resultlog import ResultLog, replay_result_log, verified_replay
from .store import (
    MANIFEST_FILENAME,
    RESULTS_FILENAME,
    RUN_DIR_PREFIX,
    SPILL_DIRNAME,
    CheckpointInfo,
    CheckpointMismatchError,
    CheckpointStore,
    GCReport,
    RunDirSize,
    gc_checkpoint_dir,
    inspect_checkpoint_dir,
    run_dirs,
    scrub_run_dir,
    select_lru_victims,
    stat_checkpoint_dir,
    stat_run_dir,
)

__all__ = [
    "EVENT_TYPES",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "RESULTS_FILENAME",
    "RUN_DIR_PREFIX",
    "SPILL_DIRNAME",
    "STATES",
    "STATE_COMPLETE",
    "STATE_CREATED",
    "STATE_MERGING",
    "STATE_PARTITIONED",
    "CheckpointInfo",
    "CheckpointMismatchError",
    "CheckpointStore",
    "GCReport",
    "JoinManifest",
    "ResultLog",
    "RunDirSize",
    "RunFingerprint",
    "gc_checkpoint_dir",
    "inspect_checkpoint_dir",
    "replay_result_log",
    "run_dirs",
    "scrub_run_dir",
    "select_lru_victims",
    "stat_checkpoint_dir",
    "stat_run_dir",
    "verified_replay",
]
