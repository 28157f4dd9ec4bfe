"""The cache scrubber: a low-rate background CRC walk over the cache.

Crash drills (PR 4) prove the checkpoint protocol never *writes* a lying
entry; this thread defends against everything the protocol cannot see —
bit rot, a truncating filesystem, an operator's stray ``dd`` — by
re-verifying entries **at rest**, before a query trips over them.

One :meth:`CacheScrubber.scrub_once` pass visits every unpinned run
directory under the :class:`~repro.serve.cache.ArtifactCache` root and
asks :func:`repro.checkpoint.scrub_run_dir` — the one module that knows
what a run directory holds — to judge it, reading each file once:

* **clean** — the manifest loads, every result-log frame passes its CRC
  and decodes as a pair result, and (for a ``complete`` entry) the
  merged replay matches the manifest's ``result_count`` with zero
  duplicates dropped.
* **repaired** — a *warm* entry whose result log does not end cleanly
  was cut to its longest intact frame prefix, exactly as a resume would
  cut it.  Committed pairs in the prefix survive; the pairs behind the
  cut simply return to *uncommitted*, so the next warm resume re-runs
  only those — the cheapest correct outcome.
* **quarantined** — anything a cut cannot make honest (corrupt or
  missing manifest; a ``complete`` entry whose log is damaged or whose
  replay count disagrees) is moved to ``quarantine/`` via
  :meth:`~repro.serve.cache.ArtifactCache.quarantine`.  The fingerprint
  becomes a cold miss; the bytes stay for post-mortem.

Pinned entries are always skipped: a pin means a query thread is mid
read or write in there, and whatever looks wrong is just in flux.  The
pin check, the read and any repair happen under the cache lock, and
pinning itself takes that lock, so an entry cannot gain a writer
mid-repair.

Every pass ends by re-enforcing the cache's byte budget
(:meth:`~repro.serve.cache.ArtifactCache.ensure_budget`), so LRU
evictions — and the disk-budget releases they carry — happen even on an
idle server, not only on the query path.

The scrubber never raises into its thread — a pass that blows up is
counted (``serve.scrub.errors``) and the next tick tries again.  Every
pass emits a ``cache_scrub`` journal event and ``serve.scrub.*``
metrics; each quarantine additionally emits ``cache_quarantine`` (from
the cache) so the fault timeline shows *which* entry went bad.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional

from ..checkpoint import run_dirs, scrub_run_dir
from ..obs.journal import EVENT_CACHE_SCRUB, NULL_JOURNAL
from ..obs.metrics import NULL_METRICS

from .cache import ArtifactCache

SCRUB_CLEAN = "clean"
SCRUB_REPAIRED = "repaired"
SCRUB_QUARANTINED = "quarantined"
SCRUB_SKIPPED = "skipped"


class CacheScrubber:
    """Background verifier for an :class:`ArtifactCache`."""

    def __init__(
        self,
        cache: ArtifactCache,
        *,
        interval_s: float = 30.0,
        journal=NULL_JOURNAL,
        metrics=NULL_METRICS,
    ):
        if interval_s <= 0:
            raise ValueError("scrub interval must be positive")
        self.cache = cache
        self.interval_s = interval_s
        self.journal = journal
        self.metrics = metrics
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._counter_lock = threading.Lock()
        self.passes = 0
        self.scanned = 0
        self.repaired = 0
        self.quarantined = 0
        self.evicted = 0
        self.errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cache-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.scrub_once()
            except Exception:
                # The scrubber heals the cache; it must never hurt the
                # server.  Count the blown pass and try again next tick.
                with self._counter_lock:
                    self.errors += 1
                self.metrics.counter("serve.scrub.errors").inc()

    # ------------------------------------------------------------------ #
    # one pass
    # ------------------------------------------------------------------ #

    def scrub_once(self) -> dict:
        """Walk every entry once; returns this pass's tallies."""
        scanned = repaired = quarantined = 0
        for run_dir in run_dirs(self.cache.root):
            verdict = self._scrub_entry(run_dir)
            if verdict == SCRUB_SKIPPED:
                continue
            scanned += 1
            if verdict == SCRUB_REPAIRED:
                repaired += 1
            elif verdict == SCRUB_QUARANTINED:
                quarantined += 1
        # Re-enforce the byte budget as part of every pass: quarantines
        # above may have freed nothing under the serving root, and cold
        # entries accumulate between queries — the scrubber is the only
        # actor guaranteed to visit an idle cache.
        evicted = len(self.cache.ensure_budget())
        with self._counter_lock:
            self.passes += 1
            self.scanned += scanned
            self.repaired += repaired
            self.quarantined += quarantined
            self.evicted += evicted
        self.metrics.counter("serve.scrub.passes").inc()
        self.metrics.counter("serve.scrub.scanned").inc(scanned)
        self.metrics.counter("serve.scrub.repaired").inc(repaired)
        self.metrics.counter("serve.scrub.quarantined").inc(quarantined)
        self.metrics.counter("serve.scrub.evicted").inc(evicted)
        self.journal.emit(
            EVENT_CACHE_SCRUB,
            scanned=scanned, repaired=repaired, quarantined=quarantined,
            evicted=evicted,
        )
        return {
            "scanned": scanned,
            "repaired": repaired,
            "quarantined": quarantined,
            "evicted": evicted,
        }

    def _scrub_entry(self, run_dir: Path) -> str:
        run_id = run_dir.name
        # The pin check, the read and any repair share the cache lock
        # with pin(), so no query can start writing this entry meanwhile.
        with self.cache._lock:
            if run_id in self.cache.pinned_ids():
                return SCRUB_SKIPPED
            repaired, unservable = scrub_run_dir(run_dir, self.cache.budget)
            if not unservable:
                return SCRUB_REPAIRED if repaired else SCRUB_CLEAN
            # The cache refuses an entry that vanished meanwhile.
            if self.cache.quarantine(run_id, unservable):
                return SCRUB_QUARANTINED
            return SCRUB_SKIPPED

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._counter_lock:
            return {
                "running": self._thread is not None,
                "interval_s": self.interval_s,
                "passes": self.passes,
                "scanned": self.scanned,
                "repaired": self.repaired,
                "quarantined": self.quarantined,
                "evicted": self.evicted,
                "errors": self.errors,
            }
