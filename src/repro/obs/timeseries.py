"""Fixed-capacity time series and the serve tier's telemetry sampler.

Post-hoc observability (journal, metrics snapshot, ``repro report``)
answers "what happened"; a resident server needs "what is happening".
This module is the live layer's storage: a :class:`RingBufferSeries`
keeps the last *N* ``(t, value)`` samples of one signal in constant
memory and answers windowed min/max/mean/quantile queries over exactly
the retained suffix; a :class:`TelemetrySampler` ticks a source callable
on an interval and fans its readings out into one series per signal; a
:class:`SlowLog` keeps the recent slowest queries with their phase
breakdown for the ``telemetry`` wire op and ``repro top``.

Everything here is deterministic under an injectable clock: the sampler
never calls ``time`` directly, quantiles are exact order statistics over
the retained values (sorted + linear interpolation, no bucketing), and
snapshots are plain sorted dicts — two samplers fed the same clock and
source readings produce byte-identical snapshots.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

DEFAULT_CAPACITY = 240
"""Retained samples per series: four minutes of history at the default
one-second interval — enough for a dashboard, constant in memory."""

QUANTILES = (0.5, 0.9, 0.95, 0.99)
"""The window quantiles every stats dict reports, as ``p50``..``p99``."""


def quantile(values: List[float], q: float) -> Optional[float]:
    """Exact ``q``-quantile of ``values`` by linear interpolation.

    The rank is ``q * (n - 1)`` over the sorted values with the
    fractional part interpolated between neighbours (numpy's default,
    "linear" method).  Returns ``None`` for an empty list — the median
    of nothing is not 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    fraction = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * fraction


class RingBufferSeries:
    """Last-``capacity`` ``(t, value)`` samples of one named signal.

    A ``deque(maxlen=capacity)``: append is O(1) and drops the oldest
    sample once full.  ``count_total`` keeps the lifetime append count so
    callers can tell "empty" from "wrapped past everything".
    """

    __slots__ = ("name", "capacity", "count_total", "_samples")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("series capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.count_total = 0
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._samples)

    def append(self, t: float, value: float) -> None:
        self._samples.append((t, float(value)))
        self.count_total += 1

    def samples(self) -> List[Tuple[float, float]]:
        """Retained samples, oldest first."""
        return list(self._samples)

    def values(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Retained values oldest-first, optionally only those within
        ``window_s`` of ``now`` (default: the newest sample's time)."""
        samples = self.samples()
        if window_s is None or not samples:
            return [v for _t, v in samples]
        if now is None:
            now = samples[-1][0]
        horizon = now - window_s
        return [v for t, v in samples if t >= horizon]

    def last(self) -> Optional[float]:
        return self._samples[-1][1] if self._samples else None

    def window(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """Stats over the (windowed) retained suffix, one sorted dict."""
        values = self.values(window_s, now)
        stats: dict = {
            "count": len(values),
            "last": values[-1] if values else None,
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "mean": sum(values) / len(values) if values else None,
        }
        for q in QUANTILES:
            stats[f"p{int(q * 100)}"] = quantile(values, q)
        return stats


class SlowLog:
    """Ring-buffered record of completed queries, ranked by latency.

    :meth:`record` keeps the most recent ``capacity`` entries (a bounded
    window, so one pathological hour cannot pin the log forever);
    :meth:`top` ranks that window by latency descending.  Entries are
    plain dicts — the server records ``query``/``source``/``latency_s``
    plus a ``phases`` breakdown (queue wait, materialise, execute).
    """

    def __init__(self, top_k: int = 8, capacity: int = 128):
        if top_k < 1:
            raise ValueError("slow log needs top_k >= 1")
        if capacity < top_k:
            raise ValueError("slow log capacity must be >= top_k")
        self.top_k = top_k
        self.capacity = capacity
        self.count_total = 0
        self._entries: Deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, entry: Mapping[str, object]) -> None:
        with self._lock:
            self._entries.append(dict(entry))
            self.count_total += 1

    def top(self, k: Optional[int] = None) -> List[dict]:
        """The ``k`` slowest retained entries, slowest first.  Ties break
        on recency (newer first) so the ordering is deterministic."""
        with self._lock:
            newest_first = [dict(e) for e in reversed(self._entries)]
        # A stable sort keeps entries of equal latency newest first.
        newest_first.sort(key=lambda e: -float(e.get("latency_s", 0.0)))
        return newest_first[: self.top_k if k is None else k]


class TelemetrySampler:
    """Ticks a source callable and fans readings into per-signal series.

    ``source()`` returns one flat ``{name: value}`` mapping per tick;
    each name gets its own :class:`RingBufferSeries` (created on first
    appearance, so sources may report sparse signals — e.g. latency
    quantiles only on ticks that completed queries).  Sample times come
    from the injectable ``clock`` relative to the sampler's construction
    instant, so a scripted clock makes every snapshot byte-deterministic.

    :meth:`sample` is the manual tick tests and drills drive directly;
    :meth:`start` runs the same tick on ``interval_s`` in a daemon
    thread for the resident server.
    """

    def __init__(
        self,
        source: Callable[[], Mapping[str, float]],
        *,
        interval_s: float = 1.0,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.source = source
        self.interval_s = interval_s
        self.capacity = capacity
        self.clock = clock
        self.epoch = clock()
        self.ticks = 0
        self._series: Dict[str, RingBufferSeries] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def series(self, name: str) -> RingBufferSeries:
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = RingBufferSeries(name, self.capacity)
                self._series[name] = series
            return series

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def sample(self) -> Dict[str, float]:
        """One tick: read the source, append every signal, return the
        readings.  Signals the source omits this tick simply get no
        sample — their series keep their last values."""
        t = round(self.clock() - self.epoch, 6)
        readings = dict(self.source())
        for name in sorted(readings):
            value = readings[name]
            if value is None:
                continue
            self.series(name).append(t, float(value))
        self.ticks += 1
        return readings

    def snapshot(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, dict]:
        """Window stats for every series, sorted by name."""
        return {
            name: self.series(name).window(window_s, now)
            for name in self.names()
        }

    # ------------------------------------------------------------------ #
    # background sampling (the resident server's mode)
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample()
            except Exception:  # noqa: BLE001 — a bad tick must not kill sampling
                continue
