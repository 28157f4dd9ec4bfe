"""The join server: one resident coordinator, many queries.

:class:`JoinServer` listens on a local TCP socket for newline-delimited
JSON requests (one object per line, one response line per request) and
multiplexes join queries onto a single shared process pool.  Three
mechanisms do the real work:

**Admission control.**  At most ``max_inflight`` queries execute at
once; at most ``max_queue`` more may wait.  A query past both bounds is
rejected *immediately* with ``error: "queue_full"`` — explicit
backpressure the client can act on (back off, retry elsewhere) instead
of an invisible, ever-growing queue.  During shutdown the reject reason
is ``"shutting_down"``.

**The artifact cache.**  Every executed query runs with its checkpoint
directory pointed at the cache root, so the durable spill + result-log
state a crash-safe run leaves behind doubles as the cache fill.  A
repeat of a *completed* query replays its committed result log — no
processes, no partitioning, just a file read.  A repeat of a query that
died midway resumes: spills are adopted, committed pairs replayed, only
the remainder merged.  Identity is the run fingerprint, which one-shot
``repro parallel --checkpoint-dir`` runs share — the server can adopt a
CLI run's artifacts and vice versa.

**Coalescing.**  Two simultaneous identical queries would race to write
the same run directory.  Per fingerprint, the first arrival becomes the
*leader* and executes; followers wait on the leader's completion event,
then re-classify — by construction a cache hit — and replay, reported
as ``source: "coalesced"``.

Every query gets its own journal directory under ``out_dir`` (so
``python -m repro report out/query-0007`` works on any served query),
and the server keeps a service-level journal of ``query_received`` /
``cache_hit`` / ``cache_evict`` / ``query_done`` events.  SIGTERM
handling lives in the CLI wrapper; it calls :meth:`shutdown`, which
drains in-flight queries, rejects new ones, retires the pool, and
leaves the cache manifests consistent (they are atomically written, so
there is nothing to repair — drain just stops adding to them).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..checkpoint.store import CheckpointMismatchError
from ..obs.journal import (
    EVENT_CACHE_HIT,
    EVENT_DISK_PRESSURE,
    EVENT_QUERY_DONE,
    EVENT_QUERY_RECEIVED,
    EVENT_SAMPLE,
    RunJournal,
)
from ..obs.expo import render_exposition
from ..obs.metrics import (
    LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    snapshot_delta,
)
from ..obs.timeseries import SlowLog, TelemetrySampler
from ..parallel.process import DeadlineExceededError, ProcessPBSM
from ..storage.errors import DiskFullError
from ..storage.pressure import CATEGORY_CACHE, DiskBudget
from .cache import LOOKUP_HIT, LOOKUP_WARM, ArtifactCache
from .pool import SharedPoolProvider
from .query import QueryError, QuerySpec, result_digest
from .scrub import CacheScrubber

DEFAULT_HOST = "127.0.0.1"

REJECT_QUEUE_FULL = "queue_full"
REJECT_SHUTTING_DOWN = "shutting_down"
REJECT_DEADLINE = "deadline_exceeded"
REJECT_STORAGE_OVERLOAD = "storage_overload"
"""Spill-aware admission: the query's estimated on-disk footprint does
not fit the server's disk-budget headroom, even after cache eviction.
The reject carries ``estimated_bytes`` and ``available_bytes`` so the
client can shrink the query (scale, partitions) or retry after churn."""

SOURCE_HIT = "hit"
SOURCE_WARM = "warm"
SOURCE_MISS = "miss"
SOURCE_COALESCED = "coalesced"
SOURCE_DEGRADED = "degraded"
"""The breaker shed this query off the pool: the answer came from the
in-process serial path — byte-identical, just slower and uncached."""

SERVE_JOURNAL_FILENAME = "serve.jsonl"
QUERY_JOURNAL_FILENAME = "journal.jsonl"

_DATASET_MEMO_CAP = 16

DRILL_KILL_LIMIT = 1
"""How many executed queries the coordinator-kill drill soft-kills."""

SLOWLOG_TOP_K = 8

RATE_TALLIES = (
    "admitted",
    "completed",
    "rejected",
    "failed",
    "deadline_exceeded",
    "storage_overload",
    "degraded",
    "cache.hits",
    "cache.misses",
)
"""Query tallies the telemetry sampler turns into per-tick rate series
(``cache.hits`` samples as ``cache_hits``)."""

TALLIES = RATE_TALLIES + ("coalesced",)
"""Every query tally the server keeps.  Each lives once, as the
``serve.<name>`` counter of the server's registry: bumped under the
server lock, read by ``stats``, the drain summary, the telemetry tick
and the ``metrics`` op alike."""

BREAKER_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}
"""Numeric encoding of the breaker state for the telemetry time series
(a string cannot ride a ring buffer; an unknown state samples as -1)."""


def outcome_block(stats: dict) -> dict:
    """The canonical outcome summary, shaped from a :meth:`JoinServer.stats`.

    One formatter for the three surfaces that report it — the ``stats``
    op (as its ``summary``), the ``telemetry`` op, and
    ``bench_serve_throughput``'s notes — so their fields can never skew.
    """
    return {
        "outcomes": dict(stats["outcomes"]),
        "breaker_state": stats["breaker"]["state"],
        "breaker_trips": stats["breaker"]["trips"],
        "scrub_passes": stats["scrub"]["passes"],
        "scrub_quarantined": stats["scrub"]["quarantined"],
        "duplicates_dropped": stats["duplicates_dropped"],
        "pool_generation": stats["pool_generation"],
    }


class StorageOverloadError(Exception):
    """A query's estimated spill footprint exceeds the disk budget.

    Raised inside the execute path and answered as a typed
    ``storage_overload`` reject — never a crash, never a partial answer.
    ``estimated_bytes`` is the partition phase's projected on-disk
    footprint; ``available_bytes`` is the budget headroom left after a
    best-effort cache eviction pass.
    """

    def __init__(
        self, message: str, *, estimated_bytes: int, available_bytes: int
    ):
        super().__init__(message)
        self.estimated_bytes = estimated_bytes
        self.available_bytes = available_bytes


class JoinServer:
    """Resident join service over a local TCP socket."""

    def __init__(
        self,
        cache_dir: "Path | str",
        out_dir: "Path | str",
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        workers: int = 2,
        max_inflight: int = 2,
        max_queue: int = 8,
        max_cache_bytes: Optional[int] = None,
        disk_budget_bytes: Optional[int] = None,
        start_method: Optional[str] = None,
        fault_plan=None,
        kill_coordinator_after: Optional[int] = None,
        breaker_threshold: int = 5,
        breaker_window_s: float = 30.0,
        breaker_cooldown_s: float = 5.0,
        scrub_interval_s: Optional[float] = None,
        telemetry_interval_s: Optional[float] = None,
    ):
        if max_inflight < 1:
            raise ValueError("need at least one in-flight slot")
        if max_queue < 0:
            raise ValueError("queue bound cannot be negative")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.start_method = start_method
        self.fault_plan = fault_plan
        self.kill_coordinator_after = kill_coordinator_after
        """Coordinator-kill drill: inject a soft kill after this durable
        ordinal into the next :data:`DRILL_KILL_LIMIT` executed (non-hit)
        queries; the server recovers each by resuming from its own cache
        entry."""
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        self._tally = {
            name: self.metrics.counter(f"serve.{name}") for name in TALLIES
        }
        self.journal = RunJournal(self.out_dir / SERVE_JOURNAL_FILENAME)
        self.disk_budget: Optional[DiskBudget] = (
            DiskBudget(disk_budget_bytes, metrics=self.metrics)
            if disk_budget_bytes is not None
            else None
        )
        """One ledger across every query this process serves: engine runs
        charge their spill + checkpoint bytes into it (and a checkpointed
        run's bytes *stay* charged — they are the cache fill), eviction
        and quarantine release them.  Meters this server's own writes;
        entries inherited from a previous process are not back-charged."""
        self.cache = ArtifactCache(
            cache_dir,
            max_bytes=max_cache_bytes,
            journal=self.journal,
            metrics=self.metrics,
            budget=self.disk_budget,
        )
        self.provider = SharedPoolProvider(
            workers,
            breaker_threshold=breaker_threshold,
            breaker_window_s=breaker_window_s,
            breaker_cooldown_s=breaker_cooldown_s,
            journal=self.journal,
        )
        self.scrub_interval_s = scrub_interval_s
        """``None`` leaves the scrubber thread stopped; :meth:`scrub_once`
        on :attr:`scrubber` still works (tests drive it deterministically)."""
        self.scrubber = CacheScrubber(
            self.cache,
            interval_s=scrub_interval_s if scrub_interval_s else 30.0,
            journal=self.journal,
            metrics=self.metrics,
        )
        self._latency = self.metrics.histogram(
            "serve.latency_s", LATENCY_BUCKETS_S
        )
        self.telemetry_interval_s = telemetry_interval_s
        """``None`` leaves the sampler thread stopped; :meth:`TelemetrySampler.sample`
        on :attr:`sampler` still ticks manually (tests and drills drive it
        deterministically, optionally under an injected clock)."""
        self.sampler = TelemetrySampler(
            self._telemetry_tick,
            interval_s=telemetry_interval_s if telemetry_interval_s else 1.0,
        )
        self.slowlog = SlowLog(top_k=SLOWLOG_TOP_K)
        self._telemetry_prev: Dict[str, dict] = {}
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._exec_slots = threading.Semaphore(max_inflight)
        self._leaders: Dict[str, threading.Event] = {}
        self._datasets: Dict[tuple, Future] = {}
        self._drill_remaining = (
            DRILL_KILL_LIMIT if kill_coordinator_after else 0
        )
        self._seq = 0
        self._queued = 0
        self._inflight = 0
        self._started_at = time.perf_counter()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.scrub_interval_s is not None:
            self.scrubber.start()
        if self.telemetry_interval_s is not None:
            self.sampler.start()
        return self.host, self.port

    @property
    def stopped(self) -> threading.Event:
        return self._stopped

    def shutdown(self, *, drain: bool = True) -> None:
        """Drain and stop: reject new joins, finish admitted ones, retire
        the pool.  Idempotent; concurrent callers wait for the first."""
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self._draining.set()
            if drain:
                with self._idle:
                    self._idle.wait_for(
                        lambda: self._queued == 0 and self._inflight == 0
                    )
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            self.sampler.stop()
            self.scrubber.stop()
            self.provider.close()
            self.cache.ensure_budget()
            self.journal.close()
            self._stopped.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # socket plumbing
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown
            threading.Thread(
                target=self._conn_loop, args=(conn,), daemon=True
            ).start()

    def _conn_loop(self, conn: socket.socket) -> None:
        try:
            rfile = conn.makefile("r", encoding="utf-8", newline="\n")
            wfile = conn.makefile("w", encoding="utf-8", newline="\n")
            for line in rfile:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    response = _error("bad_request", "request is not JSON")
                else:
                    response = self._dispatch(payload)
                wfile.write(json.dumps(response, sort_keys=True) + "\n")
                wfile.flush()
        except (OSError, ValueError):
            pass  # client went away mid-request; nothing to tell it
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, payload) -> dict:
        if not isinstance(payload, dict):
            return _error("bad_request", "request must be a JSON object")
        op = payload.get("op", "join")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            stats = self.stats()
            return {
                "ok": True,
                "op": "stats",
                "stats": stats,
                "summary": outcome_block(stats),
            }
        if op == "telemetry":
            window_s = payload.get("window_s")
            if window_s is not None:
                try:
                    window_s = float(window_s)
                except (TypeError, ValueError):
                    return _error("bad_request", "window_s must be a number")
            return {
                "ok": True,
                "op": "telemetry",
                "telemetry": self.telemetry(window_s),
            }
        if op == "metrics":
            return {
                "ok": True,
                "op": "metrics",
                "content_type": "text/plain; version=0.0.4",
                "exposition": render_exposition(self.metrics.snapshot()),
            }
        if op == "shutdown":
            with self._lock:
                pending = self._queued + self._inflight
            # Reply before the listener dies; the drain happens off-thread.
            threading.Thread(target=self.shutdown, daemon=True).start()
            return {"ok": True, "op": "shutdown", "draining": pending}
        if op == "join":
            return self._op_join(payload)
        return _error("bad_request", f"unknown op {op!r}")

    # ------------------------------------------------------------------ #
    # the join path
    # ------------------------------------------------------------------ #

    def _op_join(self, payload: dict) -> dict:
        try:
            spec = QuerySpec.from_wire(payload)
        except QueryError as exc:
            with self._lock:
                self.metrics.counter("serve.bad_requests").inc()
            return _error("bad_request", str(exc))
        started = time.perf_counter()
        with self._lock:
            if self._draining.is_set():
                return self._refuse("rejected", REJECT_SHUTTING_DOWN)
            if self._queued + self._inflight >= self.max_inflight + self.max_queue:
                return self._refuse("rejected", REJECT_QUEUE_FULL)
            self._tally["admitted"].inc()
            self._queued += 1
            self._seq += 1
            query_id = f"query-{self._seq:04d}"
            self.metrics.gauge("serve.queue_depth").set(self._queued)
        self.journal.emit(
            EVENT_QUERY_RECEIVED, query=query_id, **spec.to_wire()
        )
        self._exec_slots.acquire()
        phases: Dict[str, float] = {
            "queue_s": round(time.perf_counter() - started, 6)
        }
        with self._lock:
            self._queued -= 1
            self._inflight += 1
            self.metrics.gauge("serve.queue_depth").set(self._queued)
        try:
            response = self._execute(spec, query_id, started, phases)
            with self._lock:
                self._tally["completed"].inc()
            self.slowlog.record(
                {
                    "query": query_id,
                    "source": response.get("source"),
                    "run_id": response.get("run_id"),
                    "result_count": response.get("result_count"),
                    "latency_s": response.get("latency_s"),
                    "phases": phases,
                }
            )
            return response
        except DeadlineExceededError as exc:
            # A typed reject, not a failure: the query asked for a budget
            # and the budget ran out.  Committed checkpoint state stays in
            # the cache, so a retry of the same spec resumes warm.
            return self._refuse(
                "deadline_exceeded",
                REJECT_DEADLINE,
                str(exc),
                query=query_id,
                deadline_s=exc.deadline_s,
                completed_pairs=exc.completed,
                pending_pairs=exc.pending,
            )
        except StorageOverloadError as exc:
            # Spill-aware admission fired: the query would not fit the
            # disk budget even after evicting cold cache entries.  A
            # typed reject with the numbers the client needs to act.
            return self._refuse(
                "storage_overload",
                REJECT_STORAGE_OVERLOAD,
                str(exc),
                query=query_id,
                estimated_bytes=exc.estimated_bytes,
                available_bytes=exc.available_bytes,
            )
        except DiskFullError as exc:
            # The admission estimate let the query through but the disk
            # genuinely filled past every engine-side recovery (sweep,
            # sibling gc, degradation).  Same typed reject — a budget
            # problem must never surface as an internal server error.
            available = (
                self.disk_budget.available()
                if self.disk_budget is not None
                else None
            )
            return self._refuse(
                "storage_overload",
                REJECT_STORAGE_OVERLOAD,
                str(exc),
                query=query_id,
                estimated_bytes=exc.requested,
                available_bytes=available,
            )
        except Exception as exc:  # noqa: BLE001 — one query must not kill the server
            return self._refuse(
                "failed",
                "internal",
                f"{type(exc).__name__}: {exc}",
                query=query_id,
            )
        finally:
            self._exec_slots.release()
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _execute(
        self,
        spec: QuerySpec,
        query_id: str,
        started: float,
        phases: Dict[str, float],
    ) -> dict:
        mark = time.perf_counter()
        tuples_r, tuples_s = self._materialise(spec)
        phases["materialise_s"] = round(time.perf_counter() - mark, 6)
        fingerprint = spec.fingerprint(tuples_r, tuples_s)
        run_id = fingerprint.run_id
        coalesced = self._await_leadership(run_id)
        query_dir = self.out_dir / query_id
        journal = RunJournal(query_dir / QUERY_JOURNAL_FILENAME)
        drill: Optional[dict] = None
        try:
            with self.cache.pinned(run_id):
                journal.emit(
                    EVENT_QUERY_RECEIVED, query=query_id, **spec.to_wire()
                )
                disposition = self.cache.lookup(fingerprint)
                pairs: Optional[List[Tuple[int, int]]] = None
                if disposition == LOOKUP_HIT:
                    pairs = self.cache.replay(fingerprint)
                if pairs is not None:
                    source = SOURCE_COALESCED if coalesced else SOURCE_HIT
                    with self._lock:
                        self._tally["cache.hits"].inc()
                        if coalesced:
                            self._tally["coalesced"].inc()
                    for j in (journal, self.journal):
                        j.emit(
                            EVENT_CACHE_HIT,
                            query=query_id, run_id=run_id,
                            result_count=len(pairs), coalesced=coalesced,
                        )
                else:
                    # Warm or miss (a hit whose replay failed verification
                    # lands here too): the engine does the work, writing
                    # its durable state into the cache as it goes.
                    source = (
                        SOURCE_WARM
                        if disposition == LOOKUP_WARM
                        else SOURCE_MISS
                    )
                    with self._lock:
                        self._tally["cache.misses"].inc()
                    self._admit_storage(
                        spec, tuples_r, tuples_s, query_id, journal
                    )
                    if self.provider.admit():
                        pairs, drill = self._run_engine(
                            spec, tuples_r, tuples_s, journal,
                            resume=(source == SOURCE_WARM),
                        )
                        self.provider.report_success()
                    else:
                        # The breaker is open: shed off the pool onto the
                        # in-process serial path.  Same answer (digest
                        # equality is the CI drill), same deadline, no
                        # cache fill (no checkpoint dir — a degraded run
                        # must not shadow the real entry).
                        source = SOURCE_DEGRADED
                        with self._lock:
                            self._tally["degraded"].inc()
                        pairs = self._run_shed(
                            spec, tuples_r, tuples_s, journal
                        )
                self.cache.touch(run_id)
                latency = time.perf_counter() - started
                with self._lock:
                    self._latency.observe(latency)
                phases["execute_s"] = round(
                    max(
                        0.0,
                        latency - phases["queue_s"] - phases["materialise_s"],
                    ),
                    6,
                )
                digest = result_digest(pairs)
                for j in (journal, self.journal):
                    j.emit(
                        EVENT_QUERY_DONE,
                        query=query_id, run_id=run_id, source=source,
                        result_count=len(pairs),
                        latency_s=round(latency, 6),
                    )
        finally:
            journal.close()
            self._yield_leadership(run_id)
        self.cache.ensure_budget()
        response = {
            "ok": True,
            "op": "join",
            "query": query_id,
            "source": source,
            "run_id": run_id,
            "result_count": len(pairs),
            "result_sha256": digest,
            "latency_s": round(latency, 6),
            "journal": str(query_dir),
        }
        if drill is not None:
            response["drill"] = drill
        if spec.include_pairs:
            response["pairs"] = [list(p) for p in pairs]
        return response

    def _run_engine(
        self, spec, tuples_r, tuples_s, journal, *, resume: bool
    ) -> Tuple[List[Tuple[int, int]], Optional[dict]]:
        """Execute (or resume) the join through the shared pool; if the
        coordinator-kill drill fires, recover by resuming our own cache
        entry — the same protocol a crashed one-shot run recovers by."""
        kill_after: Optional[int] = None
        with self._lock:
            if self._drill_remaining > 0:
                self._drill_remaining -= 1
                kill_after = self.kill_coordinator_after
        engine = self._engine(spec, journal, kill_after=kill_after)
        try:
            result, killed_at = engine.run_through_kill(
                tuples_r, tuples_s, spec.predicate_fn, resume=resume
            )
        except CheckpointMismatchError:
            # The warm entry was for this fingerprint at lookup time, so
            # this should be unreachable; treat it as a cold start rather
            # than failing the query on our own bookkeeping.
            result, killed_at = self._engine(spec, journal).run_through_kill(
                tuples_r, tuples_s, spec.predicate_fn
            )
        drill: Optional[dict] = None
        if killed_at is not None:
            drill = {"killed_at_ordinal": killed_at, "resumed": True}
            with self._lock:
                self.metrics.counter("serve.drill_kills").inc()
        return result.pairs, drill

    def _run_shed(self, spec, tuples_r, tuples_s, journal):
        """The breaker's degraded path: the whole join, serially, in this
        process.  No pool, no fault plan, no checkpoint — just the same
        partition/merge/refine math, bounded by the same deadline."""
        engine = ProcessPBSM(
            spec.workers,
            num_partitions=spec.partitions,
            journal=journal,
            metrics=self.metrics,
            deadline_s=spec.deadline_s,
        )
        result = engine.run_serial(tuples_r, tuples_s, spec.predicate_fn)
        return result.pairs

    def _engine(self, spec, journal, *, kill_after=None) -> ProcessPBSM:
        return ProcessPBSM(
            spec.workers,
            num_partitions=spec.partitions,
            start_method=self.start_method,
            journal=journal,
            metrics=self.metrics,
            fault_plan=self.fault_plan,
            checkpoint_dir=str(self.cache.root),
            kill_coordinator_after=kill_after,
            pool_provider=self.provider,
            deadline_s=spec.deadline_s,
            disk_budget=self.disk_budget,
        )

    # ------------------------------------------------------------------ #
    # spill-aware admission
    # ------------------------------------------------------------------ #

    def _admit_storage(
        self, spec, tuples_r, tuples_s, query_id, journal
    ) -> None:
        """Refuse a query whose spill footprint cannot fit the budget.

        Runs on the miss/warm path, before any engine work.  The
        footprint is the engine's own
        (:meth:`~repro.parallel.process.ProcessPBSM.spill_footprint`), so
        it is exact for the partition phase.  When it exceeds the
        headroom, one cache-eviction pass tries to make room; still over,
        the query gets a typed
        ``storage_overload`` reject instead of dying mid-partition on
        :class:`~repro.storage.errors.DiskFullError` with the disk
        already full of half a run.
        """
        budget = self.disk_budget
        if budget is None or budget.max_bytes is None:
            return
        estimated = self._engine(spec, journal).spill_footprint(
            tuples_r, tuples_s
        )
        available = budget.available()
        if estimated > available:
            self.cache.ensure_budget()
            available = budget.available()
        if estimated <= available:
            return
        self.journal.emit(
            EVENT_DISK_PRESSURE,
            category=CATEGORY_CACHE,
            query=query_id,
            estimated_bytes=estimated,
            available_bytes=available,
        )
        raise StorageOverloadError(
            f"estimated spill footprint {estimated} bytes exceeds "
            f"disk-budget headroom {available} bytes",
            estimated_bytes=estimated,
            available_bytes=available,
        )

    def _materialise(self, spec: QuerySpec):
        """The spec's two :class:`~repro.parallel.tasks.InputSide`,
        memoised by dataset key — queries differing only in predicate or
        partitioning share one generation and one set of columns.
        Single-flight: the first query for a key generates, concurrent
        ones wait for its result (or its error, which leaves no entry)."""
        key = spec.dataset_key
        with self._lock:
            flight = self._datasets.get(key)
            leading = flight is None
            if leading:
                if len(self._datasets) >= _DATASET_MEMO_CAP:
                    self._datasets.pop(next(iter(self._datasets)))
                flight = self._datasets[key] = Future()
        if leading:
            try:
                flight.set_result(spec.generate())
            except BaseException as exc:
                with self._lock:
                    if self._datasets.get(key) is flight:
                        del self._datasets[key]
                flight.set_exception(exc)
        return flight.result()

    # ------------------------------------------------------------------ #
    # coalescing
    # ------------------------------------------------------------------ #

    def _await_leadership(self, run_id: str) -> bool:
        """Become the sole executor for ``run_id``; returns whether we
        waited behind another query for the same fingerprint (in which
        case its completed cache entry is now ours to replay)."""
        coalesced = False
        while True:
            with self._lock:
                leader = self._leaders.get(run_id)
                if leader is None:
                    self._leaders[run_id] = threading.Event()
                    return coalesced
            coalesced = True
            leader.wait()

    def _yield_leadership(self, run_id: str) -> None:
        with self._lock:
            event = self._leaders.pop(run_id, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------ #

    def _refuse(
        self, tally: str, code: str, message: Optional[str] = None, **extra
    ) -> dict:
        """Count one refused query and shape its typed error response."""
        with self._lock:
            self._tally[tally].inc()
        return _error(code, message or f"query rejected: {code}", **extra)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def _telemetry_tick(self) -> Dict[str, float]:
        """One sampler tick's readings: instantaneous state plus per-tick
        rates from the metrics registry's delta since the previous tick —
        windowed rates without re-reading cumulative totals."""
        snap = self.metrics.snapshot()
        delta = snapshot_delta(snap, self._telemetry_prev)
        self._telemetry_prev = snap
        with self._lock:
            queued = self._queued
            inflight = self._inflight
            hits = self._tally["cache.hits"].value
            misses = self._tally["cache.misses"].value
        readings: Dict[str, float] = {
            "queue_depth": float(queued),
            "inflight": float(inflight),
        }
        lookups = hits + misses
        if lookups:
            readings["cache_hit_ratio"] = round(hits / lookups, 6)
        for name in RATE_TALLIES:
            readings[name.replace(".", "_")] = float(
                delta[f"serve.{name}"]["value"]
            )
        latency = delta.get("serve.latency_s")
        if latency and latency.get("count"):
            window = Histogram.from_snapshot(latency)
            readings["latency_count"] = float(latency["count"])
            for q, label in ((0.5, "p50"), (0.95, "p95")):
                value = window.quantile(q)
                if value is not None:
                    readings[f"latency_{label}_s"] = round(value, 6)
            readings["latency_max_s"] = round(latency["max"], 6)
        state = self.provider.breaker_stats().get("state")
        readings["breaker_state"] = BREAKER_STATE_CODES.get(state, -1.0)
        if self.disk_budget is not None:
            disk = self.disk_budget.snapshot()
            readings["disk_used_bytes"] = float(disk["used_bytes"])
            readings["disk_hwm_bytes"] = float(disk["high_watermark_bytes"])
            denials = delta.get("disk.budget.denials")
            readings["disk_denials"] = (
                float(denials["value"]) if denials else 0.0
            )
        if not self._stopped.is_set():
            # Load peaks into the service journal, so the run warehouse
            # sees the live shape post-hoc; the full series stays on the
            # wire op — journaling every signal would bloat the stream.
            self.journal.emit(
                EVENT_SAMPLE,
                kind="telemetry",
                queued=queued,
                inflight=inflight,
                completed=int(readings.get("completed", 0)),
                breaker_state=state,
            )
        return readings

    def telemetry(self, window_s: Optional[float] = None) -> dict:
        """The ``telemetry`` wire op's payload: sampler window stats, the
        slow log, the shared outcome summary, and the full stats dict."""
        stats = self.stats()
        return {
            "sampling": {
                "interval_s": self.telemetry_interval_s,
                "ticks": self.sampler.ticks,
                "capacity": self.sampler.capacity,
            },
            "series": self.sampler.snapshot(window_s),
            "slow_log": self.slowlog.top(),
            "outcomes": outcome_block(stats),
            "stats": stats,
        }

    def stats(self) -> dict:
        with self._lock:
            latency = {
                "count": self._latency.count,
                "p50_s": self._latency.quantile(0.5),
                "p95_s": self._latency.quantile(0.95),
                "p99_s": self._latency.quantile(0.99),
            }
            tally = {name: self._tally[name].value for name in TALLIES}
            return {
                "admitted": tally["admitted"],
                "rejected": tally["rejected"],
                "completed": tally["completed"],
                "failed": tally["failed"],
                "outcomes": {
                    "completed": tally["completed"],
                    "deadline_exceeded": tally["deadline_exceeded"],
                    "storage_overload": tally["storage_overload"],
                    "degraded": tally["degraded"],
                    "rejected": tally["rejected"],
                    "failed": tally["failed"],
                },
                "queued": self._queued,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "hits": tally["cache.hits"],
                "misses": tally["cache.misses"],
                "coalesced": tally["coalesced"],
                "latency": latency,
                "cache": self.cache.stats(),
                "disk": (
                    self.disk_budget.snapshot()
                    if self.disk_budget is not None
                    else None
                ),
                "breaker": self.provider.breaker_stats(),
                "scrub": self.scrubber.stats(),
                "duplicates_dropped": self.metrics.counter(
                    "merge.duplicates_dropped"
                ).value,
                "pool_generation": self.provider.generation,
                "workers": self.workers,
                "draining": self._draining.is_set(),
                "uptime_s": round(time.perf_counter() - self._started_at, 6),
            }


def _error(code: str, message: str, **extra) -> dict:
    response = {"ok": False, "error": code, "message": message}
    response.update(extra)
    return response
