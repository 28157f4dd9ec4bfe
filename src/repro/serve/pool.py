"""The resident pool: one process pool multiplexed across all queries.

:class:`SharedPoolProvider` is the engine's resident pool lifecycle
(:class:`~repro.parallel.process.ResidentPoolProvider`: started lazily, a
new generation on the first discard of the old, ``close``) sized for the
server, plus a circuit breaker.  Unlike a one-shot process's resident
pool it never re-forks for new sides: co-tenant queries share it, so one
generation serves every query, whatever its sides, worker count, journal
or fault plan.  A journaled query's heartbeats go to a file of its own
(:class:`~repro.parallel.tasks.HeartbeatFile`), so co-tenants never see
each other's.

The awkward part is failure.  When any tenant's task crashes its worker,
the executor breaks for **everyone**: the crashing run sees
``BrokenProcessPool``, its co-tenants see their futures cancelled and
``submit`` refused.  Each tenant independently calls :meth:`discard`;
the first call retires the broken generation (shutdown without waiting,
in-flight futures cancelled) and the next :meth:`acquire` — from any
tenant — spawns the replacement.  Late discards of an already-retired
pool are no-ops, so tenants never kill each other's *healthy* pool.
Every tenant then heals through the engine's normal respawn/requeue
path, the one a one-shot run takes on the process's resident pool.

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

:meth:`release` leaves the pool standing — the run is done, the pool is
not.  Only the server's :meth:`close` (shutdown/SIGTERM) retires the
pool for good.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque

from ..obs.journal import EVENT_BREAKER, NULL_JOURNAL
from ..parallel.process import ResidentPoolProvider

BREAKER_CLOSED = "closed"
"""Healthy: pool-backed queries flow."""
BREAKER_OPEN = "open"
"""Tripped: pool-backed queries are shed until the cooldown elapses."""
BREAKER_HALF_OPEN = "half_open"
"""Probing: exactly one query holds the pool; its fate decides."""


class SharedPoolProvider(ResidentPoolProvider):
    """The resident pool, sized for the server, behind a circuit breaker."""

    def __init__(
        self,
        max_workers: int,
        *,
        breaker_threshold: int = 5,
        breaker_window_s: float = 30.0,
        breaker_cooldown_s: float = 5.0,
        journal=NULL_JOURNAL,
    ):
        super().__init__(max_workers)
        if breaker_threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if breaker_window_s <= 0 or breaker_cooldown_s <= 0:
            raise ValueError("breaker window and cooldown must be positive")
        self.breaker_threshold = breaker_threshold
        self.breaker_window_s = breaker_window_s
        self.breaker_cooldown_s = breaker_cooldown_s
        self.journal = journal
        self._state = BREAKER_CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._trips = 0

    def _on_retire_locked(self) -> None:
        """Only the caller that actually retires a generation charges the
        breaker one failure — N tenants reporting the same dead pool is
        one pool death, not N."""
        self._record_failure_locked()

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
