"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The quantities the paper's analysis keys on — candidates per partition
pair, key-pointers per partition (skew), refinement batch sizes — are
*distributions*, not single numbers, so the workhorse here is a
fixed-bucket :class:`Histogram`.  Counters and gauges cover the scalar
cases (total probes, chosen partition count).

Instrumented code asks the registry for instruments by name; asking twice
returns the same instrument, so call sites never coordinate.  A registry
built with ``enabled=False`` hands out shared no-op instruments — the hot
path pays one dict lookup and nothing else.  :data:`NULL_METRICS` is the
canonical disabled registry every driver defaults to.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)
"""Power-of-two-ish upper bounds; wide enough for tuple and page counts."""

LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)
"""Seconds-scale bounds for latency histograms (retry backoff, task wall
times) — ``DEFAULT_BUCKETS`` starts at 1, which would fold every
sub-second observation into a single bucket."""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in a final overflow bucket.  Tracks count/sum/min/max so
    means and extremes survive the bucketing.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending")
        self.name = name
        self.bounds: List[float] = list(buckets)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observations.

        Prometheus-style: find the bucket holding the target rank, then
        interpolate linearly inside it.  The estimate is clamped into
        ``[min, max]``, so the extremes are exact (and a single-sample
        histogram returns its one value for every q).  Returns ``None``
        for an empty histogram — there is no such thing as the median of
        nothing, and 0.0 would silently read as a real observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        target = q * self.count
        cumulative = 0
        lower = self.min
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            upper = self.bounds[i] if i < len(self.bounds) else self.max
            if cumulative + n >= target:
                fraction = (target - cumulative) / n
                value = lower + (upper - lower) * max(0.0, fraction)
                return min(max(value, self.min), self.max)
            cumulative += n
            lower = upper
        return self.max

    def summary(self) -> dict:
        """Count/sum/mean/extremes plus the working quantiles, one dict.

        The shape the analyzer's straggler ranking and backoff reporting
        print from; ``None`` quantiles mean the histogram is empty.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip([*self.bounds, "inf"], self.counts)
            ],
        }

    @classmethod
    def from_snapshot(cls, data: dict, name: str = "") -> "Histogram":
        """Rebuild a histogram (quantiles and all) from a snapshot dict.

        The inverse of :meth:`snapshot`, used to take quantiles of a
        :func:`histogram_delta` window.  Deltas carry bucket-edge min/max
        estimates rather than exact extremes, so quantiles of a rebuilt
        delta are bucket-resolution — the same resolution Prometheus offers.
        """
        bounds = [b["le"] for b in data["buckets"] if b["le"] != "inf"]
        hist = cls(name, bounds)
        hist.counts = [b["count"] for b in data["buckets"]]
        hist.count = data["count"]
        hist.total = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        return hist


def histogram_delta(cur: dict, prev: Optional[dict]) -> dict:
    """Difference of two histogram snapshots, as a snapshot-shaped dict.

    ``cur`` and ``prev`` must come from the same instrument (identical
    bucket bounds).  Min/max of the window are unknowable from bucket
    counts alone, so they are estimated from the edges of the first and
    last buckets the window touched (exact when ``prev`` is empty, since
    the window then spans the instrument's whole life).
    """
    if not prev or prev.get("type") != "histogram":
        return dict(cur)
    cur_bounds = [b["le"] for b in cur["buckets"]]
    prev_bounds = [b["le"] for b in prev["buckets"]]
    if cur_bounds != prev_bounds:
        raise ValueError(
            f"histogram delta: bucket bounds differ "
            f"({cur_bounds} vs {prev_bounds})"
        )
    cur_counts = [b["count"] for b in cur["buckets"]]
    prev_counts = [b["count"] for b in prev["buckets"]]
    regressed = prev["count"] > cur["count"] or any(
        p > c for p, c in zip(prev_counts, cur_counts)
    )
    if regressed:
        return dict(cur)
    counts = [c - p for c, p in zip(cur_counts, prev_counts)]
    count = cur["count"] - prev["count"]
    total = cur["sum"] - prev["sum"] if count else 0.0
    if count == 0:
        d_min: Optional[float] = None
        d_max: Optional[float] = None
    elif prev["count"] == 0:
        d_min, d_max = cur["min"], cur["max"]
    else:
        bounds = [b for b in cur_bounds if b != "inf"]
        nonzero = [i for i, n in enumerate(counts) if n]
        lo, hi = nonzero[0], nonzero[-1]
        d_min = bounds[lo - 1] if lo > 0 else cur["min"]
        d_max = bounds[hi] if hi < len(bounds) else cur["max"]
    return {
        "type": "histogram",
        "count": count,
        "sum": total,
        "min": d_min,
        "max": d_max,
        "mean": total / count if count else 0.0,
        "buckets": [
            {"le": bound, "count": n} for bound, n in zip(cur_bounds, counts)
        ],
    }


def snapshot_delta(
    cur: Dict[str, dict], prev: Optional[Dict[str, dict]]
) -> Dict[str, dict]:
    """Registry-level difference of two :meth:`MetricsRegistry.snapshot` s.

    Counters subtract (clamped to the current value on reset), gauges
    pass through their current reading (a gauge has no rate), histograms
    go through :func:`histogram_delta`.  Instruments absent from ``prev``
    contribute their full current state; instruments that vanished from
    ``cur`` are dropped — registries only grow in practice.
    """
    prev = prev or {}
    out: Dict[str, dict] = {}
    for name in sorted(cur):
        data = cur[name]
        kind = data.get("type")
        before = prev.get(name)
        if kind == "counter":
            prior = before["value"] if before and before.get("type") == "counter" else 0
            value = data["value"] - prior
            if value < 0:  # instrument restarted
                value = data["value"]
            out[name] = {"type": "counter", "value": value}
        elif kind == "gauge":
            out[name] = dict(data)
        elif kind == "histogram":
            before = before if before and before.get("type") == "histogram" else None
            out[name] = histogram_delta(data, before)
        else:
            out[name] = dict(data)
    return out


class _NullInstrument:
    """Answers every instrument API with a no-op / zero."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def summary(self) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use; snapshot-able as one dict."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # instrument factories
    # ------------------------------------------------------------------ #

    def _get(self, name: str, factory):
        if not self.enabled:
            return _NULL_INSTRUMENT
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets))

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as one JSON-ready mapping, sorted by name."""
        return {
            name: self._instruments[name].snapshot() for name in self.names()
        }


NULL_METRICS = MetricsRegistry(enabled=False)
"""Shared disabled registry — the default for every instrumented code path."""
