"""The circuit breaker over the process's worker pool.

Every served query runs on the process's one pool
(:data:`~repro.parallel.process.RESIDENT_POOL`), co-tenant with the
others.  When any tenant's task crashes its worker, the executor breaks
for everyone; the first tenant to :meth:`~repro.parallel.process.ResidentPoolProvider.discard`
it retires the generation, later discards are no-ops, and every tenant
heals through the engine's normal respawn/requeue path.

Healing forever is its own failure mode: a workload that keeps wedging
or crashing workers turns the service into a pool-respawn loop where
every query pays the spawn cost and then dies anyway.  The server
therefore keeps a :class:`CircuitBreaker` over the pool's retirement
rate.  It holds no pool: it reads the pool's
:attr:`~repro.parallel.process.ResidentPoolProvider.retired` count on
every :meth:`admit`, :meth:`report_success` and :meth:`breaker_stats`,
and records one failure for each generation retired for a fault since
the last read (a generation retired to fit new sides costs none; N
tenants reporting one dead pool are one retirement).  When
:attr:`threshold` failures land inside :attr:`window_s`, the breaker
**opens** and :meth:`admit` starts answering ``False`` — the serve tier
sheds those queries to the in-process serial path (byte-identical
answers, no pool).  After :attr:`cooldown_s` the next :meth:`admit`
claims a single **half-open probe**: one query gets the pool back, and
its fate decides — :meth:`report_success` closes the breaker, unless a
retirement came first, which reopens it with a fresh cooldown.  State
transitions are journaled (``breaker_transition``) and exposed via
:meth:`breaker_stats` for the ``stats`` op.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque

from ..obs.journal import EVENT_BREAKER, NULL_JOURNAL
from ..parallel import process

BREAKER_CLOSED = "closed"
"""Healthy: pool-backed queries flow."""
BREAKER_OPEN = "open"
"""Tripped: pool-backed queries are shed until the cooldown elapses."""
BREAKER_HALF_OPEN = "half_open"
"""Probing: exactly one query holds the pool; its fate decides."""


class CircuitBreaker:
    """Sheds pool-backed queries while the pool keeps being retired."""

    def __init__(
        self,
        threshold: int = 5,
        window_s: float = 30.0,
        cooldown_s: float = 5.0,
        *,
        journal=NULL_JOURNAL,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if window_s <= 0 or cooldown_s <= 0:
            raise ValueError("breaker window and cooldown must be positive")
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.journal = journal
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._trips = 0
        self._retired = process.RESIDENT_POOL.retired
        """The pool's retirements already charged (or older than us)."""

    def admit(self) -> bool:
        """May the next pool-backed query have the pool?

        ``True`` while the breaker is closed, and — once per cooldown —
        for the single probe query that moves an open breaker to
        half-open.  ``False`` sheds the query to the serial path.  The
        caller that got a probe admission must report the outcome:
        :meth:`report_success` on a clean finish (the breaker closes),
        while a failed probe reports itself through the pool it retires,
        which reopens the breaker with a fresh cooldown.
        """
        with self._lock:
            now = self._sync_locked()
            if self._state == BREAKER_CLOSED:
                return True
            if now - self._opened_at >= self.cooldown_s:
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
            self._sync_locked()
            if self._state == BREAKER_HALF_OPEN:
                self._failures.clear()
                self._transition_locked(BREAKER_CLOSED)

    def breaker_stats(self) -> dict:
        """Snapshot for the ``stats`` op (threshold knobs included so a
        dashboard can render 'failures 3/5 in 30s' without config)."""
        with self._lock:
            self._sync_locked()
            return {
                "state": self._state,
                "failures_in_window": len(self._failures),
                "threshold": self.threshold,
                "window_s": self.window_s,
                "cooldown_s": self.cooldown_s,
                "trips": self._trips,
            }

    # -- internals (all require self._lock held) ----------------------- #

    def _sync_locked(self) -> float:
        """Prune the window and charge the pool's new retirements; now."""
        now = time.monotonic()
        while self._failures and self._failures[0] < now - self.window_s:
            self._failures.popleft()
        retired = process.RESIDENT_POOL.retired
        for _ in range(retired - self._retired):
            self._failures.append(now)
            if self._state == BREAKER_HALF_OPEN:
                # The probe died: back to open, fresh cooldown.
                self._opened_at = now
                self._transition_locked(BREAKER_OPEN)
            elif (
                self._state == BREAKER_CLOSED
                and len(self._failures) >= self.threshold
            ):
                self._opened_at = now
                self._trips += 1
                self._transition_locked(BREAKER_OPEN)
        self._retired = retired
        return now

    def _transition_locked(self, to_state: str) -> None:
        from_state, self._state = self._state, to_state
        self.journal.emit(
            EVENT_BREAKER,
            from_state=from_state,
            to_state=to_state,
            failures_in_window=len(self._failures),
        )
