"""Ring-buffer time series, slow log, and the telemetry sampler.

The property tests pin the invariant the dashboard depends on: the ring
buffer's windowed statistics must equal the same statistics computed over
the retained suffix of the raw stream — wraparound included.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import (
    QUANTILES,
    RingBufferSeries,
    SlowLog,
    TelemetrySampler,
    quantile,
)

import pytest

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQuantile:
    def test_empty_is_none(self):
        assert quantile([], 0.5) is None

    def test_single_value_for_every_q(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert quantile([7.0], q) == 7.0

    def test_linear_interpolation(self):
        # rank = q * (n - 1); the numpy "linear" method.
        assert quantile([10.0, 20.0], 0.5) == 15.0
        assert quantile([0.0, 10.0, 20.0, 30.0], 0.25) == 7.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            quantile([1.0], -0.1)

    @given(st.lists(finite, min_size=1, max_size=40))
    def test_bounded_by_extremes_and_monotone(self, values):
        qs = [quantile(values, q / 10) for q in range(11)]
        assert qs[0] == min(values)
        assert qs[-1] == max(values)
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))


class TestRingBufferSeries:
    def test_append_and_samples_in_order(self):
        s = RingBufferSeries("x", capacity=4)
        for i in range(3):
            s.append(float(i), float(i * 10))
        assert s.samples() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert s.last() == 20.0

    def test_wraparound_keeps_newest_capacity_samples(self):
        s = RingBufferSeries("x", capacity=3)
        for i in range(7):
            s.append(float(i), float(i))
        assert s.count_total == 7
        assert s.samples() == [(4.0, 4.0), (5.0, 5.0), (6.0, 6.0)]

    def test_window_filters_by_time(self):
        s = RingBufferSeries("x", capacity=8)
        for t in range(6):
            s.append(float(t), float(t))
        # now defaults to the newest sample's timestamp (5.0).
        w = s.window(window_s=2.0)
        assert w["count"] == 3  # t in {3, 4, 5}
        assert w["min"] == 3.0 and w["max"] == 5.0

    def test_empty_window(self):
        s = RingBufferSeries("x", capacity=4)
        w = s.window(window_s=10.0)
        assert w["count"] == 0
        assert w["min"] is None and w["p50"] is None

    @given(
        st.lists(finite, min_size=1, max_size=50),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60)
    def test_ring_equals_suffix(self, values, capacity):
        """After any stream, the ring holds exactly the newest ``capacity``
        samples, and every windowed statistic equals the one computed
        directly over that suffix."""
        s = RingBufferSeries("x", capacity=capacity)
        for i, v in enumerate(values):
            s.append(float(i), v)
        suffix = values[-capacity:]
        assert [v for _, v in s.samples()] == suffix

        w = s.window(window_s=float(len(values)))  # covers the whole suffix
        assert w["count"] == len(suffix)
        assert w["min"] == min(suffix)
        assert w["max"] == max(suffix)
        assert math.isclose(w["mean"], sum(suffix) / len(suffix), abs_tol=1e-9)
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            assert math.isclose(w[key], quantile(suffix, q), abs_tol=1e-9)

    @given(
        st.lists(finite, min_size=1, max_size=50),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60)
    def test_windowed_quantiles_equal_suffix_quantiles(
        self, values, capacity, window
    ):
        """Same invariant with an arbitrary time window: the window selects
        a suffix of the retained samples, and quantiles over the ring match
        quantiles over that suffix exactly."""
        s = RingBufferSeries("x", capacity=capacity)
        for i, v in enumerate(values):
            s.append(float(i), v)
        now = float(len(values) - 1)
        retained = list(enumerate(values))[-capacity:]
        suffix = [v for t, v in retained if t >= now - window]
        assert s.values(window_s=float(window), now=now) == suffix
        w = s.window(window_s=float(window), now=now)
        assert w["count"] == len(suffix)
        if suffix:
            for q in QUANTILES:
                key = f"p{int(q * 100)}"
                assert math.isclose(w[key], quantile(suffix, q), abs_tol=1e-9)


class TestSlowLog:
    def test_top_sorted_by_latency(self):
        log = SlowLog(top_k=2, capacity=8)
        for name, lat in (("a", 0.1), ("b", 0.5), ("c", 0.3)):
            log.record({"query": name, "latency_s": lat})
        assert [e["query"] for e in log.top()] == ["b", "c"]

    def test_ring_evicts_oldest(self):
        log = SlowLog(top_k=2, capacity=2)
        for name, lat in (("old", 9.0), ("x", 0.1), ("y", 0.2)):
            log.record({"query": name, "latency_s": lat})
        # "old" fell out of the ring despite being the slowest ever seen.
        assert [e["query"] for e in log.top()] == ["y", "x"]

    def test_ties_prefer_newer(self):
        log = SlowLog(top_k=2, capacity=8)
        log.record({"query": "first", "latency_s": 0.5})
        log.record({"query": "second", "latency_s": 0.5})
        assert [e["query"] for e in log.top()] == ["second", "first"]

    def test_ties_prefer_newer_after_the_ring_wraps(self):
        log = SlowLog(top_k=4, capacity=4)
        for i in range(1, 6):
            log.record({"query": f"q{i}", "latency_s": 0.5})
        assert [e["query"] for e in log.top()] == ["q5", "q4", "q3", "q2"]


class ScriptedClock:
    """A deterministic clock: each call returns the next scripted instant."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestTelemetrySampler:
    def test_sample_appends_sorted_readings(self):
        sampler = TelemetrySampler(
            lambda: {"b": 2.0, "a": 1.0}, clock=ScriptedClock()
        )
        sampler.sample()
        snap = sampler.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"]["last"] == 1.0

    def test_none_readings_skipped(self):
        sampler = TelemetrySampler(
            lambda: {"a": 1.0, "gone": None}, clock=ScriptedClock()
        )
        sampler.sample()
        assert list(sampler.snapshot()) == ["a"]

    def test_injectable_clock_determinism(self):
        """Two samplers over the same scripted clock and source stream
        produce byte-identical snapshots — the tentpole's determinism
        contract for the telemetry op."""
        stream = [{"q": float(i % 3), "lat": 0.01 * i} for i in range(25)]

        def run():
            it = iter(stream)
            sampler = TelemetrySampler(
                lambda: next(it), capacity=8, clock=ScriptedClock(step=0.5)
            )
            for _ in stream:
                sampler.sample()
            return sampler.snapshot(window_s=6.0)

        assert run() == run()

    def test_tick_counter(self):
        sampler = TelemetrySampler(lambda: {}, clock=ScriptedClock())
        for _ in range(3):
            sampler.sample()
        assert sampler.ticks == 3
