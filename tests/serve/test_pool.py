"""SharedPoolProvider: pool lifecycle races and the circuit breaker."""

import multiprocessing
import threading

import pytest

from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    SharedPoolProvider,
)


def ctx():
    return multiprocessing.get_context()


class _Recorder:
    """Journal stub capturing ``emit`` calls (the null journal discards)."""

    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, fields))


def trip(provider, failures=1):
    """Retire ``failures`` pool generations back to back."""
    for _ in range(failures):
        provider.discard(provider.acquire(2, ctx()))


class TestValidation:
    def test_knobs_validated(self):
        with pytest.raises(ValueError):
            SharedPoolProvider(0)
        with pytest.raises(ValueError):
            SharedPoolProvider(2, breaker_threshold=0)
        with pytest.raises(ValueError):
            SharedPoolProvider(2, breaker_window_s=0)
        with pytest.raises(ValueError):
            SharedPoolProvider(2, breaker_cooldown_s=-1.0)


class TestLifecycle:
    def test_acquire_hands_out_one_resident_pool(self):
        provider = SharedPoolProvider(2)
        try:
            a = provider.acquire(2, ctx())
            b = provider.acquire(8, ctx())  # per-run sizing is ignored
            assert a is b
            assert provider.generation == 1
            provider.release(a)  # no-op: the pool outlives the run
            assert provider.acquire(2, ctx()) is a
        finally:
            provider.close()

    def test_late_discard_of_a_retired_pool_is_a_noop(self):
        provider = SharedPoolProvider(2)
        try:
            dead = provider.acquire(2, ctx())
            provider.discard(dead)
            fresh = provider.acquire(2, ctx())
            assert fresh is not dead
            assert provider.generation == 2
            # Co-tenants reporting the same dead pool must not retire the
            # replacement — or charge the breaker twice.
            provider.discard(dead)
            assert provider.acquire(2, ctx()) is fresh
            assert provider.breaker_stats()["failures_in_window"] == 1
        finally:
            provider.close()

    def test_close_racing_acquire_never_leaks_a_pool(self):
        # Acquirers hammer the provider while close() lands: every
        # acquire either gets the one resident pool (which close then
        # retires) or a clean RuntimeError — never a fresh executor that
        # would outlive the server.
        provider = SharedPoolProvider(2)
        pools, refusals = [], []
        barrier = threading.Barrier(3)

        def acquirer():
            barrier.wait()
            for _ in range(200):
                try:
                    pools.append(provider.acquire(2, ctx()))
                except RuntimeError:
                    refusals.append(1)
                    return

        def closer():
            barrier.wait()
            provider.close()

        threads = [
            threading.Thread(target=acquirer),
            threading.Thread(target=acquirer),
            threading.Thread(target=closer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        # At most one pool instance was ever handed out, and the closed
        # provider refuses forever.
        assert len({id(p) for p in pools}) <= 1
        with pytest.raises(RuntimeError):
            provider.acquire(2, ctx())
        # Close retired whatever existed: the survivors cannot accept
        # work (ProcessPoolExecutor raises once shut down).
        for pool in pools[:1]:
            with pytest.raises(RuntimeError):
                pool.submit(int)

    def test_initializers_are_refused(self):
        provider = SharedPoolProvider(2)
        try:
            with pytest.raises(ValueError, match="initializer"):
                provider.acquire(2, ctx(), initializer=int)
        finally:
            provider.close()


class TestBreaker:
    def test_opens_at_threshold_within_window(self):
        journal = _Recorder()
        provider = SharedPoolProvider(
            2, breaker_threshold=2, breaker_window_s=30.0,
            breaker_cooldown_s=60.0, journal=journal,
        )
        try:
            assert provider.admit()  # closed: everyone flows
            trip(provider)
            stats = provider.breaker_stats()
            assert stats["state"] == BREAKER_CLOSED
            assert stats["failures_in_window"] == 1
            assert provider.admit()
            trip(provider)
            stats = provider.breaker_stats()
            assert stats["state"] == BREAKER_OPEN
            assert stats["trips"] == 1
            assert not provider.admit()  # shed until the cooldown
            assert [e[1]["to_state"] for e in journal.events] == ["open"]
        finally:
            provider.close()

    def test_half_open_probe_success_closes(self, clock):
        provider = SharedPoolProvider(
            2, breaker_threshold=1, breaker_window_s=30.0,
            breaker_cooldown_s=0.2,
        )
        try:
            trip(provider)
            assert not provider.admit()
            clock.advance(0.25)
            assert provider.admit()  # the probe
            assert provider.breaker_stats()["state"] == BREAKER_HALF_OPEN
            assert not provider.admit()  # one probe per cooldown window
            provider.report_success()
            stats = provider.breaker_stats()
            assert stats["state"] == BREAKER_CLOSED
            assert stats["failures_in_window"] == 0
            assert provider.admit()
        finally:
            provider.close()

    def test_half_open_probe_failure_reopens(self, clock):
        provider = SharedPoolProvider(
            2, breaker_threshold=1, breaker_window_s=30.0,
            breaker_cooldown_s=0.2,
        )
        try:
            trip(provider)
            clock.advance(0.25)
            assert provider.admit()
            assert provider.breaker_stats()["state"] == BREAKER_HALF_OPEN
            trip(provider)  # the probe's pool died
            stats = provider.breaker_stats()
            assert stats["state"] == BREAKER_OPEN
            assert stats["trips"] == 1  # reopen is not a fresh trip
            assert not provider.admit()  # fresh cooldown started
        finally:
            provider.close()

    def test_vanished_probe_cannot_wedge_the_breaker(self, clock):
        # A probe that never reports (client gone, crash before either
        # report path) must not leave the breaker half-open forever: the
        # next cooldown window simply claims a fresh probe.
        provider = SharedPoolProvider(
            2, breaker_threshold=1, breaker_window_s=30.0,
            breaker_cooldown_s=0.2,
        )
        try:
            trip(provider)
            clock.advance(0.25)
            assert provider.admit()  # probe #1 — vanishes, never reports
            assert not provider.admit()
            clock.advance(0.25)
            assert provider.admit()  # probe #2
            provider.report_success()
            assert provider.breaker_stats()["state"] == BREAKER_CLOSED
        finally:
            provider.close()

    def test_failures_age_out_of_the_window(self, clock):
        provider = SharedPoolProvider(
            2, breaker_threshold=3, breaker_window_s=0.2,
            breaker_cooldown_s=60.0,
        )
        try:
            trip(provider, failures=2)
            assert provider.breaker_stats()["failures_in_window"] == 2
            clock.advance(0.25)
            assert provider.breaker_stats()["failures_in_window"] == 0
            # Old failures cannot conspire with new ones across windows.
            trip(provider, failures=2)
            assert provider.breaker_stats()["state"] == BREAKER_CLOSED
        finally:
            provider.close()

    def test_report_success_outside_half_open_is_a_noop(self):
        provider = SharedPoolProvider(2, breaker_threshold=2)
        try:
            trip(provider)
            provider.report_success()  # closed: nothing to close
            assert provider.breaker_stats()["failures_in_window"] == 1
        finally:
            provider.close()
