"""Run journal: the flight recorder under every parallel execution.

Spans (:mod:`repro.obs.trace`) answer *how long* things took; the journal
answers *what happened, in what order*.  A :class:`RunJournal` is an
append-only JSONL event stream with a **typed event vocabulary** — task
dispatch/start/finish, worker heartbeats, retries, fault injections,
corruption quarantines, degraded rebuilds, checkpoint commits, pool
respawns, sampler ticks — emitted by the parallel coordinator
(:mod:`repro.parallel.process`), the simulated engine, the fault
injectors, and the checkpoint store as the run unfolds.  Every chaos or
benchmark run that carries a journal becomes a self-describing artifact:
``python -m repro report`` replays it into a skew/straggler/fault
diagnosis (:mod:`repro.obs.analyze`), and ``--live`` renders it as
in-flight progress.

Event shape: one JSON object per line, ``{"seq": N, "t": seconds since
the journal's epoch, "type": <vocabulary>, ...fields}``.  ``seq`` is a
monotonic arrival order; ``t`` is wall-clock-relative and therefore *not*
deterministic across runs — consumers that need byte-stable output (the
default ``repro report`` body) must key on the deterministic fields
(pair indices, attempt numbers, fault kinds, checkpoint ordinals) and
never on ``seq``/``t``.

Worker processes cannot append to the coordinator's file; the
coordinator emits a task's ``task_started`` / ``task_finished`` when it
harvests the result, from the result's own fields, with the worker's
relative clock as ``worker_t``.  Liveness heartbeats take a real side
channel, because a crashed worker's result never arrives — which is
exactly when you want its last heartbeat: workers append them to a file
of the run's own (:class:`~repro.parallel.tasks.HeartbeatFile`), and the
coordinator's scheduling loop journals each complete line it reads.

:data:`NULL_JOURNAL` is the shared disabled journal: ``emit`` is one
``if`` and no I/O, so instrumented paths stay free when nobody records.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

JOURNAL_FILENAME = "journal.jsonl"
"""The journal's file name inside a run directory."""

# --------------------------------------------------------------------- #
# the event vocabulary
# --------------------------------------------------------------------- #

EVENT_RUN_STARTED = "run_started"
"""First event of a run: backend, workers, partitions, resuming flag."""
EVENT_RUN_FINISHED = "run_finished"
"""Last event of a run: result count, wall seconds, degraded pairs."""
EVENT_PARTITION_SEALED = "partition_sealed"
"""One side's spill pass finished: per-partition tuple counts (the raw
material of the Figure 4 skew statistics) and the tuples it placed."""
EVENT_SCHEDULE = "schedule"
"""The LPT task order as submitted: ``[{"pair", "cost"}, ...]``."""
EVENT_TASK_DISPATCHED = "task_dispatched"
"""A pair task entered the pool's queue (pair, attempt)."""
EVENT_TASK_STARTED = "task_started"
"""A pair task began executing (emitted, with ``worker_t`` 0, when its
result is harvested)."""
EVENT_TASK_FINISHED = "task_finished"
"""Coordinator-side: a pair's result was harvested, with its stats."""
EVENT_TASK_REPLAYED = "task_replayed"
"""A resumed run adopted this pair's committed result instead of
re-merging it; its spans are tagged ``replayed`` and excluded from
straggler/critical-path analysis."""
EVENT_WORKER_HEARTBEAT = "worker_heartbeat"
"""A worker's liveness ping (pid, pair, phase) from the side channel."""
EVENT_RETRY = "retry"
"""A failed pair was requeued (pair, attempt, backoff_s, cause)."""
EVENT_FAULT_INJECTED = "fault_injected"
"""A planned fault fired (kind, plus pair/side/ordinal as applicable)."""
EVENT_QUARANTINED = "corruption_quarantined"
"""A pair's spill failed its CRC; retries are pointless, rebuild it."""
EVENT_DEGRADED = "degraded_rebuild"
"""The coordinator rebuilt a pair serially from the base relations."""
EVENT_CHECKPOINT_COMMIT = "checkpoint_commit"
"""One durable checkpoint operation completed (ordinal, kind, file)."""
EVENT_POOL_RESPAWN = "pool_respawn"
"""The process pool was abandoned and will be respawned."""
EVENT_TIMEOUT = "task_timeout"
"""A pair task blew its deadline; the pool will be abandoned."""
EVENT_SAMPLE = "sample"
"""A coordinator sampler tick: queue depth, inflight pairs, progress,
and (when the tracer has them) simulated-disk / buffer-pool counters —
the run's utilization timeseries."""
EVENT_NODE_FINISHED = "node_finished"
"""Simulated backend: one virtual node's work summary."""

EVENT_QUERY_RECEIVED = "query_received"
"""Serving tier: a join query was admitted (query ordinal, run id, spec)."""
EVENT_CACHE_HIT = "cache_hit"
"""Serving tier: a query was answered by replaying its cached result log
instead of a cold run."""
EVENT_CACHE_EVICT = "cache_evict"
"""Serving tier: the artifact cache evicted a run directory to fit its
byte budget (run id, bytes freed)."""
EVENT_QUERY_DONE = "query_done"
"""Serving tier: a query finished (query ordinal, cache disposition,
result count, wall seconds)."""
EVENT_DEADLINE_EXCEEDED = "deadline_exceeded"
"""A run blew its query deadline: dispatch stopped, in-flight pairs
abandoned (queued/inflight counts, the configured deadline)."""
EVENT_BREAKER = "breaker_transition"
"""Serving tier: the shared-pool circuit breaker changed state
(from/to, failures in window)."""
EVENT_CACHE_CORRUPT = "cache_corrupt"
"""Serving tier: a cache entry failed replay verification (truncated or
corrupt result log) and was downgraded to a miss (run id, reason)."""
EVENT_CACHE_SCRUB = "cache_scrub"
"""Serving tier: one scrubber pass finished (entries scanned, repaired,
quarantined)."""
EVENT_CACHE_QUARANTINE = "cache_quarantine"
"""Serving tier: the scrubber moved a corrupt cache entry out of the
serving root — it becomes a cold miss, never a crash (run id, reason)."""

EVENT_DISK_PRESSURE = "disk_pressure"
"""A disk-budget charge was denied and a recovery path engaged (category,
plus the denied layer's locus — side/partition for spills, store root for
checkpoints, query for serve admission).  Emitted once per recovery
episode, not per denial, so a tightly constrained run cannot flood the
journal."""
EVENT_DISK_FULL_RECOVERED = "disk_full_recovered"
"""A disk-pressure episode ended with the write succeeding (action:
``sweep_retry`` for spill reclamation, ``sibling_gc`` for checkpoint run
collection, ``cache_evict`` for serve-tier eviction)."""

EVENT_TYPES = frozenset(
    value for name, value in globals().items() if name.startswith("EVENT_")
)
"""Every type :meth:`RunJournal.emit` accepts — each ``EVENT_*`` declared
above, gathered rather than listed again; a typo'd type is a bug in the
emitter, so it raises instead of polluting the stream."""

FAULT_TIMELINE_TYPES = frozenset(
    {
        EVENT_FAULT_INJECTED,
        EVENT_RETRY,
        EVENT_QUARANTINED,
        EVENT_DEGRADED,
        EVENT_POOL_RESPAWN,
        EVENT_TIMEOUT,
        EVENT_DEADLINE_EXCEEDED,
        EVENT_CACHE_QUARANTINE,
        EVENT_DISK_PRESSURE,
        EVENT_DISK_FULL_RECOVERED,
    }
)
"""The subset that belongs on a "when did things go wrong" timeline —
what the chrome-trace exporter renders as instant events."""

SERVE_TIMELINE_TYPES = frozenset(
    {
        EVENT_QUERY_RECEIVED,
        EVENT_CACHE_HIT,
        EVENT_BREAKER,
    }
)
"""The serving-tier lifecycle moments worth a timeline marker: a serve
(or per-query) journal rendered through the chrome-trace exporter shows
when each query arrived, which ones the cache answered, and every
breaker transition in between."""

OnJournalEvent = Callable[[Dict[str, object]], None]
"""Observer invoked with each emitted record (the ``--live`` renderer)."""


class RunJournal:
    """Append-only JSONL event stream for one run.

    ``path=None`` keeps the journal in memory only: events reach
    ``on_event`` and accumulate in ``records`` — what a pure ``--live``
    session uses.  With a path every event is written and flushed
    immediately, so a crashed coordinator leaves a readable journal up to
    its last moment, and the file is the only copy: ``records`` stays
    empty (a resident server's journal would otherwise grow for the life
    of the process); :func:`read_journal` reads it back.

    ``emit`` and ``close`` hold the journal's own mutex, so any number of
    threads (every query thread of the serving tier, plus its cache and
    sampler) may share one journal: no line is interleaved, no ``seq``
    handed out twice.
    """

    enabled = True

    def __init__(
        self,
        path: "Path | str | None" = None,
        *,
        on_event: Optional[OnJournalEvent] = None,
    ):
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.on_event = on_event
        self.epoch = time.perf_counter()
        self.records: List[dict] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")

    def emit(self, event_type: str, **fields: object) -> dict:
        """Append one event; returns the full record as written."""
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown journal event type {event_type!r}; add it to the "
                f"vocabulary in repro.obs.journal before emitting it"
            )
        with self._lock:
            self._seq += 1
            record: Dict[str, object] = {
                "seq": self._seq,
                "t": round(time.perf_counter() - self.epoch, 6),
                "type": event_type,
            }
            record.update(fields)
            if self.path is None:
                self.records.append(record)
            elif self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
            if self.on_event is not None:
                self.on_event(record)
        return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullJournal:
    """Disabled journal: ``emit`` costs a method call and returns ``{}``."""

    enabled = False
    path = None
    records: List[dict] = []

    def emit(self, event_type: str, **fields: object) -> dict:
        return {}

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_JOURNAL = NullJournal()
"""Shared disabled journal — the default for every instrumented path."""


def read_journal(path: "Path | str") -> List[dict]:
    """Parse a journal file back into its event records, in order.

    Tolerates a torn final line (a crashed coordinator's last write may
    be partial); anything parseable before it is returned.
    """
    records: List[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail: keep the intact prefix
    return records


def journal_path(run_dir: "Path | str") -> Path:
    return Path(run_dir) / JOURNAL_FILENAME


def live_renderer(stream) -> OnJournalEvent:
    """An ``on_event`` hook that writes one ``[live]`` progress line per
    interesting event to ``stream``.

    This is the whole ``parallel --live`` implementation — the journal
    already sees every dispatch, heartbeat, completion, and fault as it
    happens, so live progress is just a callback that prints them.
    """
    state = {"done": 0, "total": None}

    def on_event(record: dict) -> None:
        kind = record.get("type")
        line = None
        if kind == EVENT_RUN_STARTED:
            line = (f"run started: backend={record.get('backend')} "
                    f"workers={record.get('workers')} "
                    f"partitions={record.get('partitions')}")
        elif kind == EVENT_SCHEDULE:
            state["total"] = len(record.get("order", []))
            line = f"{state['total']} partition-pair tasks scheduled (LPT order)"
        elif kind == EVENT_TASK_DISPATCHED:
            line = f"-> pair {record.get('pair')} attempt {record.get('attempt')}"
        elif kind == EVENT_WORKER_HEARTBEAT:
            line = (f"   worker {record.get('pid')} pair {record.get('pair')} "
                    f"{record.get('phase')}")
        elif kind in (EVENT_TASK_FINISHED, EVENT_TASK_REPLAYED):
            state["done"] += 1
            total = state["total"] if state["total"] is not None else "?"
            verb = "replayed" if kind == EVENT_TASK_REPLAYED else "done"
            line = (f"<- pair {record.get('pair')} {verb} "
                    f"({state['done']}/{total}, "
                    f"{record.get('results', 0)} results)")
        elif kind == EVENT_NODE_FINISHED:
            line = (f"<- node {record.get('node')} finished "
                    f"({record.get('local_pairs', 0)} local pairs)")
        elif kind == EVENT_FAULT_INJECTED:
            line = f"!! fault {record.get('kind')} pair {record.get('pair')}"
        elif kind == EVENT_RETRY:
            line = (f"!! retry pair {record.get('pair')} "
                    f"attempt {record.get('attempt')} "
                    f"(cause {record.get('cause')})")
        elif kind == EVENT_POOL_RESPAWN:
            line = "!! worker pool respawned"
        elif kind == EVENT_RUN_FINISHED:
            line = f"run finished: {record.get('results')} result pairs"
        if line is not None and not state.get("dead"):
            # A dead stream (e.g. the output piped to a pager that quit)
            # must not kill the join: stop rendering, keep flying.
            try:
                stream.write(f"[live] {line}\n")
                stream.flush()
            except (OSError, ValueError):
                state["dead"] = True

    return on_event
