"""The circuit breaker over the resident pool's retirements.

Each test swaps in a resident pool of its own (``resident_pool``); no
process starts here: a pool forks or spawns at its first submit.
"""

import multiprocessing

import pytest

from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)


def ctx():
    return multiprocessing.get_context()


class _Recorder:
    """Journal stub capturing ``emit`` calls (the null journal discards)."""

    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, fields))


def trip(pool, failures=1):
    """Retire ``failures`` pool generations for a fault, back to back."""
    for _ in range(failures):
        held = pool.acquire(2, ctx())
        pool.discard(held)
        pool.release(held)


class TestValidation:
    def test_knobs_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window_s=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


class TestLifecycle:
    def test_late_discard_of_a_retired_pool_is_a_noop(self, resident_pool):
        breaker = CircuitBreaker()
        dead = resident_pool.acquire(2, ctx())
        resident_pool.discard(dead)
        fresh = resident_pool.acquire(2, ctx())
        assert fresh is not dead
        assert resident_pool.generation == 2
        # Co-tenants reporting the same dead pool must not retire the
        # replacement — or charge the breaker twice.
        resident_pool.discard(dead)
        resident_pool.release(dead)
        resident_pool.release(fresh)
        assert resident_pool.acquire(2, ctx()) is fresh
        assert resident_pool.retired == 1
        assert breaker.breaker_stats()["failures_in_window"] == 1

    def test_a_retirement_to_fit_costs_no_failure(self, resident_pool):
        """An idle generation retired for a run it does not fit (another
        worker count here, other sides under fork) is no fault."""
        breaker = CircuitBreaker(threshold=1)
        resident_pool.release(resident_pool.acquire(2, ctx()))
        resident_pool.release(resident_pool.acquire(1, ctx()))
        assert resident_pool.generation == 2 and resident_pool.retired == 0
        stats = breaker.breaker_stats()
        assert stats["state"] == BREAKER_CLOSED and stats["failures_in_window"] == 0

    def test_retirements_before_the_breaker_are_not_its(self, resident_pool):
        trip(resident_pool, failures=2)
        breaker = CircuitBreaker(threshold=1)
        assert breaker.admit()
        assert breaker.breaker_stats()["failures_in_window"] == 0
        trip(resident_pool)
        assert not breaker.admit()


@pytest.mark.usefixtures("resident_pool")
class TestBreaker:
    def test_opens_at_threshold_within_window(self, resident_pool):
        journal = _Recorder()
        breaker = CircuitBreaker(2, 30.0, 60.0, journal=journal)
        assert breaker.admit()  # closed: everyone flows
        trip(resident_pool)
        stats = breaker.breaker_stats()
        assert stats["state"] == BREAKER_CLOSED
        assert stats["failures_in_window"] == 1
        assert breaker.admit()
        trip(resident_pool)
        stats = breaker.breaker_stats()
        assert stats["state"] == BREAKER_OPEN
        assert stats["trips"] == 1
        assert not breaker.admit()  # shed until the cooldown
        assert [e[1]["to_state"] for e in journal.events] == ["open"]

    def test_half_open_probe_success_closes(self, resident_pool, clock):
        breaker = CircuitBreaker(1, 30.0, 0.2)
        trip(resident_pool)
        assert not breaker.admit()
        clock.advance(0.25)
        assert breaker.admit()  # the probe
        assert breaker.breaker_stats()["state"] == BREAKER_HALF_OPEN
        assert not breaker.admit()  # one probe per cooldown window
        breaker.report_success()
        stats = breaker.breaker_stats()
        assert stats["state"] == BREAKER_CLOSED
        assert stats["failures_in_window"] == 0
        assert breaker.admit()

    def test_half_open_probe_failure_reopens(self, resident_pool, clock):
        breaker = CircuitBreaker(1, 30.0, 0.2)
        trip(resident_pool)
        assert not breaker.admit()  # charged as it reads the pool
        clock.advance(0.25)
        assert breaker.admit()
        assert breaker.breaker_stats()["state"] == BREAKER_HALF_OPEN
        trip(resident_pool)  # the probe's pool died ...
        breaker.report_success()  # ... though its run healed and finished
        stats = breaker.breaker_stats()
        assert stats["state"] == BREAKER_OPEN
        assert stats["trips"] == 1  # reopen is not a fresh trip
        assert not breaker.admit()  # fresh cooldown started

    def test_vanished_probe_cannot_wedge_the_breaker(self, resident_pool, clock):
        # A probe that never reports (client gone, crash before either
        # report path) must not leave the breaker half-open forever: the
        # next cooldown window simply claims a fresh probe.
        breaker = CircuitBreaker(1, 30.0, 0.2)
        trip(resident_pool)
        assert not breaker.admit()  # charged as it reads the pool
        clock.advance(0.25)
        assert breaker.admit()  # probe #1 — vanishes, never reports
        assert not breaker.admit()
        clock.advance(0.25)
        assert breaker.admit()  # probe #2
        breaker.report_success()
        assert breaker.breaker_stats()["state"] == BREAKER_CLOSED

    def test_failures_age_out_of_the_window(self, resident_pool, clock):
        breaker = CircuitBreaker(3, 0.2, 60.0)
        trip(resident_pool, failures=2)
        assert breaker.breaker_stats()["failures_in_window"] == 2
        clock.advance(0.25)
        assert breaker.breaker_stats()["failures_in_window"] == 0
        # Old failures cannot conspire with new ones across windows.
        trip(resident_pool, failures=2)
        assert breaker.breaker_stats()["state"] == BREAKER_CLOSED

    def test_report_success_outside_half_open_is_a_noop(self, resident_pool):
        breaker = CircuitBreaker(threshold=2)
        trip(resident_pool)
        breaker.report_success()  # closed: nothing to close
        assert breaker.breaker_stats()["failures_in_window"] == 1
