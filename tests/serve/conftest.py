"""Fixtures shared by the serving-tier tests."""

from collections import Counter
from concurrent.futures import Future
from pathlib import Path
from threading import Semaphore
from types import SimpleNamespace

import pytest

import repro.serve.pool


@pytest.fixture
def opens(monkeypatch):
    """Counts every ``Path.open`` (``read_bytes`` goes through it) by the
    path opened — how the one-read-per-file tests see a second walker."""
    counts = Counter()
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        counts[str(self)] += 1
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return counts


class _Clock:
    now = 1000.0

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """The breaker's ``time.monotonic``, advanced by hand: cooldowns and
    windows elapse when the test says so, however fast the host is."""
    clock = _Clock()
    monkeypatch.setattr(
        repro.serve.pool, "time", SimpleNamespace(monotonic=lambda: clock.now)
    )
    return clock


@pytest.fixture
def waiting(monkeypatch):
    """A semaphore released by every thread as it reaches
    ``Future.result()``: acquire it N times and N threads are waiting on a
    flight (or about to), however slow the host is."""
    reached = Semaphore(0)
    result = Future.result

    def counted(self, timeout=None):
        reached.release()
        return result(self, timeout)

    monkeypatch.setattr(Future, "result", counted)
    return reached
