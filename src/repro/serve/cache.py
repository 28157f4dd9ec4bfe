"""The artifact cache: checkpoint run directories as a serving cache.

The checkpoint store already makes every join's committed pair results
durable, fingerprinted and replayable — built as crash-recovery
machinery, but shaped exactly like a cache entry: a run directory is its
``manifest.bin`` and ``results.log``, nothing else.  An
:class:`ArtifactCache` manages a checkpoint root as one:

* **lookup** classifies a fingerprint's run directory as a *hit* (the
  manifest says ``complete`` and the result log replays clean — answer
  the query by unioning the committed pairs, no processes spawned), a
  *warm* entry (unfinished — resume it: re-partition from the inputs,
  replay the committed pairs and merge only the rest), or a *miss* (run cold
  with ``checkpoint_dir`` pointed here, which **is** the fill);
* **pinning** marks entries queries are actively reading or writing;
* **eviction** prunes least-recently-used runs until the directory fits
  ``max_bytes``, via the same
  :func:`~repro.checkpoint.store.select_lru_victims` policy that
  ``repro checkpoints gc --max-bytes`` applies from the CLI — and never
  evicts a pinned entry, however blown the budget.

Recency is a logical touch counter, not wall clock: entries this server
process has served are younger than anything it has not, and ties among
cold entries fall back to manifest mtime.  All state mutations take the
cache lock; the server's query threads share one instance.
"""

from __future__ import annotations

import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..checkpoint import (
    STATE_COMPLETE,
    CheckpointStore,
    RunFingerprint,
    select_lru_victims,
    stat_checkpoint_dir,
    stat_run_dir,
    verified_replay,
)
from ..core.refine import SortedPairs
from ..obs.journal import (
    EVENT_CACHE_CORRUPT,
    EVENT_CACHE_EVICT,
    EVENT_CACHE_QUARANTINE,
    NULL_JOURNAL,
)
from ..obs.metrics import NULL_METRICS
from ..storage.errors import ManifestCorruptionError
from ..storage.pressure import CATEGORY_CACHE

LOOKUP_HIT = "hit"
LOOKUP_WARM = "warm"
LOOKUP_MISS = "miss"

QUARANTINE_DIRNAME = "quarantine"
"""Subdirectory corrupt entries are moved into.  It does not start with
the ``run-`` prefix, so :func:`stat_checkpoint_dir` never walks into
it — quarantined state is invisible to lookup, eviction, and stats, and
the fingerprint it occupied becomes an ordinary cold miss."""


class ArtifactCache:
    """Fingerprint-keyed cache of checkpoint run directories."""

    def __init__(
        self,
        root: "Path | str",
        *,
        max_bytes: Optional[int] = None,
        journal=NULL_JOURNAL,
        metrics=NULL_METRICS,
        budget=None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes cannot be negative")
        self.max_bytes = max_bytes
        self.journal = journal
        self.metrics = metrics
        self.budget = budget
        """Optional :class:`~repro.storage.pressure.DiskBudget`: eviction
        and quarantine release an entry's bytes back to it (under the
        ``cache`` category — the engine charged them as spill/checkpoint,
        and the budget's release clamps keep cross-category frees safe)."""
        self._lock = threading.RLock()
        self._pins: Dict[str, int] = {}
        self._recency: Dict[str, int] = {}
        self._clock = 0
        self._hits: Dict[str, CheckpointStore] = {}
        """What :meth:`lookup` loaded for an entry pinned at the time,
        kept for the :meth:`replay` that follows so a cache hit reads its
        manifest once.  Only the pin's holder writes a pinned entry, so
        the manifest cannot change under it; :meth:`unpin` drops it."""

    # ------------------------------------------------------------------ #
    # pinning
    # ------------------------------------------------------------------ #

    @contextmanager
    def pinned(self, run_id: str):
        """Hold ``run_id`` unevictable for the duration of the block."""
        self.pin(run_id)
        try:
            yield
        finally:
            self.unpin(run_id)

    def pin(self, run_id: str) -> None:
        with self._lock:
            self._pins[run_id] = self._pins.get(run_id, 0) + 1

    def unpin(self, run_id: str) -> None:
        with self._lock:
            count = self._pins.get(run_id, 0) - 1
            if count <= 0:
                self._pins.pop(run_id, None)
                self._hits.pop(run_id, None)
            else:
                self._pins[run_id] = count

    def pinned_ids(self) -> Set[str]:
        with self._lock:
            return set(self._pins)

    def touch(self, run_id: str) -> None:
        """Mark ``run_id`` most-recently-used."""
        with self._lock:
            self._clock += 1
            self._recency[run_id] = self._clock

    # ------------------------------------------------------------------ #
    # lookup + replay
    # ------------------------------------------------------------------ #

    def _entry(self, fingerprint: RunFingerprint) -> Optional[CheckpointStore]:
        """This fingerprint's run directory with its manifest loaded, or
        ``None`` when the entry is missing, unreadable, or filed under
        another fingerprint."""
        entry = CheckpointStore(self.root, fingerprint)
        try:
            return entry if entry.load() is not None else None
        except (OSError, ManifestCorruptionError):
            return None

    def lookup(self, fingerprint: RunFingerprint) -> str:
        """Classify this fingerprint's cache state.

        Anything unreadable — missing manifest, corrupt framing, a
        fingerprint that does not match its directory name — is a miss;
        the cold run's ``run()`` discards and rewrites the directory.
        """
        entry = self._entry(fingerprint)
        if entry is None:
            return LOOKUP_MISS
        if entry.manifest.state != STATE_COMPLETE:
            return LOOKUP_WARM
        with self._lock:
            if fingerprint.run_id in self._pins:
                self._hits[fingerprint.run_id] = entry
        return LOOKUP_HIT

    def replay(self, fingerprint: RunFingerprint) -> Optional[SortedPairs]:
        """Answer a complete run from its committed result log.

        Returns the feature-id pairs — equal to what the run that wrote
        the log returned — or ``None`` when the entry cannot be trusted
        after all (the caller falls back to the miss path).  Trust is
        :func:`~repro.checkpoint.verified_replay`'s verdict.

        Distrust is always a *downgrade*, never an exception: a log that
        is truncated, torn mid-file, or CRC-broken surfaces to the query
        path as a plain miss, with a ``cache_corrupt`` journal event and
        a ``serve.cache.corrupt`` tick recording why.
        """
        with self._lock:
            entry = self._hits.pop(fingerprint.run_id, None)
        entry = entry or self._entry(fingerprint)
        if entry is None or entry.manifest.state != STATE_COMPLETE:
            return None
        merged, reason = verified_replay(
            entry.results_path, entry.manifest.result_count
        )
        if merged is None:
            self._distrust(fingerprint.run_id, reason)
            return None
        return merged

    def _distrust(self, run_id: str, reason: str) -> None:
        """Record that a complete-looking entry failed replay checks."""
        self.journal.emit(EVENT_CACHE_CORRUPT, run_id=run_id, reason=reason)
        self.metrics.counter("serve.cache.corrupt").inc()

    # ------------------------------------------------------------------ #
    # quarantine
    # ------------------------------------------------------------------ #

    def quarantine(self, run_id: str, reason: str) -> bool:
        """Move a corrupt entry out of the serving root (scrubber's verb).

        The directory lands under ``root/quarantine/<run_id>`` — outside
        the ``run-`` namespace every walker uses — so the entry becomes a
        cold miss while its bytes stay on disk for post-mortem.  Pinned
        entries are refused (a query thread is mid-read or mid-write in
        there; whatever looked corrupt is in flux) and so is a directory
        that no longer exists.  Returns whether the move happened.
        """
        with self._lock:
            if run_id in self._pins:
                return False
            src = self.root / run_id
            if not src.is_dir():
                return False
            dest_root = self.root / QUARANTINE_DIRNAME
            dest_root.mkdir(parents=True, exist_ok=True)
            dest = dest_root / run_id
            if dest.exists():
                shutil.rmtree(dest, ignore_errors=True)
            if self.budget is not None:
                # Quarantined bytes leave the *governed* serving set (no
                # walker ever counts them again); operators collect the
                # quarantine directory out-of-band.
                self.budget.release(
                    stat_run_dir(src).bytes_total, CATEGORY_CACHE
                )
            shutil.move(str(src), str(dest))
            self._recency.pop(run_id, None)
            self.journal.emit(
                EVENT_CACHE_QUARANTINE, run_id=run_id, reason=reason
            )
            self.metrics.counter("serve.cache.quarantined").inc()
            return True

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #

    def bytes_total(self) -> int:
        return sum(
            info.bytes_total for info in stat_checkpoint_dir(self.root)
        )

    def ensure_budget(self) -> List[str]:
        """Evict LRU entries until the cache fits ``max_bytes``.

        Pinned entries are skipped unconditionally; the budget may stay
        blown while queries hold their entries, and the next call picks
        the survivors up.  Returns the evicted run ids.
        """
        if self.max_bytes is None:
            return []
        with self._lock:
            infos = stat_checkpoint_dir(self.root)
            victims = select_lru_victims(
                infos,
                self.max_bytes,
                pinned=set(self._pins),
                recency=dict(self._recency),
            )
            evicted = []
            for info in victims:
                shutil.rmtree(info.path, ignore_errors=True)
                self._recency.pop(info.run_id, None)
                evicted.append(info.run_id)
                if self.budget is not None:
                    self.budget.release(info.bytes_total, CATEGORY_CACHE)
                self.journal.emit(
                    EVENT_CACHE_EVICT,
                    run_id=info.run_id, bytes=info.bytes_total,
                )
                self.metrics.counter("serve.cache.evictions").inc()
            return evicted

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            infos = stat_checkpoint_dir(self.root)
            return {
                "entries": len(infos),
                "bytes_total": sum(i.bytes_total for i in infos),
                "max_bytes": self.max_bytes,
                "pinned": sorted(self._pins),
            }
