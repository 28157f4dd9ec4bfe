"""The resident pool: one process pool multiplexed across all queries.

A one-shot run owns its :class:`~concurrent.futures.ProcessPoolExecutor`
— spawn, use, shut down.  A serving tier cannot afford that: spawn cost
per query would dwarf small joins, and an unbounded pool-per-query would
blow past the machine.  :class:`SharedPoolProvider` plugs into the
:class:`~repro.parallel.process.ProcessPBSM` pool-provider seam and
hands every run the *same* resident executor.

The awkward part is failure.  When any tenant's task crashes its worker,
the executor breaks for **everyone**: the crashing run sees
``BrokenProcessPool``, its co-tenants see their futures cancelled and
``submit`` refused.  Each tenant independently calls :meth:`discard`;
the first call retires the broken generation (shutdown without waiting,
in-flight futures cancelled) and the next :meth:`acquire` — from any
tenant — spawns the replacement.  Late discards of an already-retired
pool are no-ops, so tenants never kill each other's *healthy* pool.
Every tenant then heals through the engine's normal respawn/requeue
path, exactly as if its private pool had broken.

Healing forever is its own failure mode: a workload that keeps wedging
or crashing workers turns the service into a pool-respawn loop where
every query pays the spawn cost and then dies anyway.  The provider
therefore carries a **circuit breaker** over its own retirement rate.
Every *actual* retirement (first discard of a generation — late no-op
discards don't count) records a failure; when :attr:`breaker_threshold`
failures land inside :attr:`breaker_window_s`, the breaker **opens** and
:meth:`admit` starts answering ``False`` — the serve tier sheds those
queries to the in-process serial path (byte-identical answers, no pool).
After :attr:`breaker_cooldown_s` the next :meth:`admit` claims a single
**half-open probe**: one query gets the pool back, and its fate decides
— :meth:`report_success` closes the breaker, another retirement reopens
it with a fresh cooldown.  State transitions are journaled
(``breaker_transition``) and exposed via :meth:`breaker_stats` for the
``stats`` op.

:meth:`release` is deliberately a no-op — the run is done, the pool is
not.  Only the server's :meth:`close` (shutdown/SIGTERM) retires the
pool for good.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Deque, Optional

from ..obs.journal import EVENT_BREAKER, NULL_JOURNAL
from ..parallel.tasks import init_pool_worker

BREAKER_CLOSED = "closed"
"""Healthy: pool-backed queries flow."""
BREAKER_OPEN = "open"
"""Tripped: pool-backed queries are shed until the cooldown elapses."""
BREAKER_HALF_OPEN = "half_open"
"""Probing: exactly one query holds the pool; its fate decides."""


class SharedPoolProvider:
    """Pool provider that keeps one executor alive across runs."""

    shared = True

    def __init__(
        self,
        max_workers: int,
        *,
        breaker_threshold: int = 5,
        breaker_window_s: float = 30.0,
        breaker_cooldown_s: float = 5.0,
        journal=NULL_JOURNAL,
    ):
        if max_workers < 1:
            raise ValueError("need at least one worker")
        if breaker_threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if breaker_window_s <= 0 or breaker_cooldown_s <= 0:
            raise ValueError("breaker window and cooldown must be positive")
        self.max_workers = max_workers
        self.breaker_threshold = breaker_threshold
        self.breaker_window_s = breaker_window_s
        self.breaker_cooldown_s = breaker_cooldown_s
        self.journal = journal
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.generation = 0
        """How many pools have been spawned; bumps on every heal."""
        self._state = BREAKER_CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._trips = 0

    # ------------------------------------------------------------------ #
    # provider seam (what ProcessPBSM calls)
    # ------------------------------------------------------------------ #

    def acquire(self, max_workers, context, initializer=None, initargs=()):
        """Hand out the resident pool (spawning it lazily).

        The per-run ``max_workers`` is ignored — the pool is sized for
        the *server*, and run fingerprints exclude worker count, so a
        query asking for 2 workers and one asking for 8 are the same
        join either way.  Initializers are refused: they carry one run's
        state into workers that serve everybody (the engine passes none
        to ``shared`` providers).  The pool runs the engine's own, with no
        heartbeat queue, so that its workers die with the server.
        """
        if initializer is not None:
            raise ValueError(
                "a shared pool cannot run per-run initializers"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("shared pool provider is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=context,
                    initializer=init_pool_worker,
                )
                self.generation += 1
            return self._pool

    def discard(self, pool) -> None:
        """Retire a broken generation (first caller wins; late calls no-op).

        Only the caller that actually retires the generation charges the
        breaker one failure — N tenants reporting the same dead pool is
        one pool death, not N.
        """
        with self._lock:
            if pool is not self._pool:
                return  # already retired by a co-tenant
            self._pool = None
            self._record_failure_locked()
        pool.shutdown(wait=False, cancel_futures=True)

    def release(self, pool) -> None:
        """End-of-run hook: the pool outlives the run, so do nothing."""

    def close(self) -> None:
        """Server shutdown: drain the workers and refuse future acquires."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # circuit breaker (what JoinServer calls)
    # ------------------------------------------------------------------ #

    def admit(self) -> bool:
        """May the next pool-backed query have the pool?

        ``True`` while the breaker is closed, and — once per cooldown —
        for the single probe query that moves an open breaker to
        half-open.  ``False`` sheds the query to the serial path.  The
        caller that got a probe admission must report the outcome:
        :meth:`report_success` on a clean finish (the breaker closes),
        while a failed probe reports itself through the pool it breaks —
        its :meth:`discard` reopens the breaker with a fresh cooldown.
        """
        with self._lock:
            now = time.monotonic()
            self._prune_locked(now)
            if self._state == BREAKER_CLOSED:
                return True
            if now - self._opened_at >= self.breaker_cooldown_s:
                # One probe per cooldown window — bumping the clock here
                # also means a probe that vanishes (client gone, crash
                # before reporting) cannot wedge the breaker half-open:
                # the next window simply claims a fresh probe.
                self._opened_at = now
                if self._state == BREAKER_OPEN:
                    self._transition_locked(BREAKER_HALF_OPEN)
                return True  # this caller is the probe
            return False

    def report_success(self) -> None:
        """A pool-backed query finished cleanly; a half-open probe's
        success closes the breaker and clears the failure window."""
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._failures.clear()
                self._transition_locked(BREAKER_CLOSED)

    def breaker_stats(self) -> dict:
        """Snapshot for the ``stats`` op (threshold knobs included so a
        dashboard can render 'failures 3/5 in 30s' without config)."""
        with self._lock:
            self._prune_locked(time.monotonic())
            return {
                "state": self._state,
                "failures_in_window": len(self._failures),
                "threshold": self.breaker_threshold,
                "window_s": self.breaker_window_s,
                "cooldown_s": self.breaker_cooldown_s,
                "trips": self._trips,
            }

    # -- internals (all require self._lock held) ----------------------- #

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.breaker_window_s
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()

    def _record_failure_locked(self) -> None:
        now = time.monotonic()
        self._failures.append(now)
        self._prune_locked(now)
        if self._state == BREAKER_HALF_OPEN:
            # The probe died: back to open, fresh cooldown.
            self._opened_at = now
            self._transition_locked(BREAKER_OPEN)
        elif (
            self._state == BREAKER_CLOSED
            and len(self._failures) >= self.breaker_threshold
        ):
            self._opened_at = now
            self._trips += 1
            self._transition_locked(BREAKER_OPEN)

    def _transition_locked(self, to_state: str) -> None:
        from_state, self._state = self._state, to_state
        self.journal.emit(
            EVENT_BREAKER,
            from_state=from_state,
            to_state=to_state,
            failures_in_window=len(self._failures),
        )
