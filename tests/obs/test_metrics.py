"""Tests for the metrics registry: counters, gauges, histograms, no-ops."""

import pytest

from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    histogram_delta,
    snapshot_delta,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.5)
        reg.gauge("g").set(1.25)
        assert reg.gauge("g").value == 1.25

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestHistogram:
    def test_bucketing_inclusive_upper_bound(self):
        h = Histogram("h", buckets=[1, 10, 100])
        for v in (0, 1, 5, 10, 99, 1000):
            h.observe(v)
        assert [b["count"] for b in h.snapshot()["buckets"]] == [2, 2, 1, 1]

    def test_stats(self):
        h = Histogram("h", buckets=[10])
        h.observe(2)
        h.observe(6)
        assert h.count == 2
        assert h.mean == 4
        assert h.min == 2 and h.max == 6

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[10, 1])

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h", buckets=[1]).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None


class TestHistogramQuantile:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("h", buckets=[1, 10])
        assert h.quantile(0.5) is None
        assert h.summary() == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": None, "max": None,
            "p50": None, "p90": None, "p99": None,
        }

    def test_single_sample_returns_it_for_every_q(self):
        h = Histogram("h", buckets=[1, 10, 100])
        h.observe(7)
        assert h.quantile(0.0) == 7
        assert h.quantile(0.5) == 7
        assert h.quantile(1.0) == 7

    def test_interpolates_inside_a_bucket(self):
        h = Histogram("h", buckets=[0, 100])
        for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            h.observe(v)
        # All ten samples land in the (0, 100] bucket; linear interpolation
        # over the bucket span puts the median near the middle of it.
        p50 = h.quantile(0.5)
        assert 40 <= p50 <= 60

    def test_clamped_to_observed_extremes(self):
        h = Histogram("h", buckets=[1000])
        h.observe(40)
        h.observe(60)
        # The bucket spans (min, 1000] but nothing above 60 was observed:
        # estimates must never leave [min, max].
        assert h.quantile(0.99) <= 60
        assert h.quantile(0.01) >= 40

    def test_quantile_ordering_is_monotone(self):
        h = Histogram("h", buckets=[1, 2, 4, 8, 16, 32])
        for v in range(1, 30):
            h.observe(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)
        assert qs[0] == 1 and qs[-1] == 29

    def test_out_of_range_q_rejected(self):
        h = Histogram("h")
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_summary_shape(self):
        h = Histogram("h", buckets=[1, 10, 100])
        for v in (1, 5, 50):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["sum"] == 56
        assert s["min"] == 1 and s["max"] == 50
        assert s["p50"] is not None and s["p90"] is not None

    def test_disabled_instrument_quantiles(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.histogram("h").quantile(0.5) is None
        assert reg.histogram("h").summary() == {}


class TestHistogramDelta:
    def make(self, *values):
        h = Histogram("h", buckets=[1, 10, 100])
        for v in values:
            h.observe(v)
        return h

    def test_empty_prev_yields_full_snapshot(self):
        h = self.make(5, 50)
        assert histogram_delta(h.snapshot(), None) == h.snapshot()
        assert histogram_delta(h.snapshot(), {}) == h.snapshot()

    def test_identical_snapshots_yield_zero(self):
        h = self.make(5, 50)
        d = histogram_delta(h.snapshot(), h.snapshot())
        assert d["count"] == 0
        assert d["sum"] == 0.0
        assert d["min"] is None and d["max"] is None
        assert all(b["count"] == 0 for b in d["buckets"])

    def test_window_holds_only_new_observations(self):
        h = self.make(5)
        prev = h.snapshot()
        h.observe(50)
        h.observe(60)
        d = histogram_delta(h.snapshot(), prev)
        assert d["count"] == 2
        assert d["sum"] == 110.0
        assert [b["count"] for b in d["buckets"]] == [0, 0, 2, 0]
        # min/max are bucket-edge estimates: (10, 100] bounds the window.
        assert d["min"] == 10 and d["max"] == 100

    def test_exact_extremes_when_prev_was_empty(self):
        h = self.make()
        prev = h.snapshot()
        h.observe(5)
        h.observe(50)
        d = histogram_delta(h.snapshot(), prev)
        assert d["min"] == 5 and d["max"] == 50

    def test_regressed_bucket_means_restart(self):
        # prev claims more observations than the instrument now holds:
        # the instrument restarted, so the whole current state is the delta.
        prev = self.make(5, 50, 60).snapshot()
        h = self.make(7)
        assert histogram_delta(h.snapshot(), prev) == h.snapshot()

    def test_regressed_single_bucket_detected(self):
        # Same total count but one bucket moved backwards — still a restart.
        prev = self.make(5).snapshot()
        cur = self.make(50).snapshot()
        assert histogram_delta(cur, prev) == cur

    def test_mismatched_bounds_rejected(self):
        prev = Histogram("h", buckets=[1, 2]).snapshot()
        with pytest.raises(ValueError):
            histogram_delta(self.make(5).snapshot(), prev)

    def test_quantiles_of_a_rebuilt_delta(self):
        h = self.make(5)
        prev = h.snapshot()
        for v in (20, 30, 40):
            h.observe(v)
        window = Histogram.from_snapshot(histogram_delta(h.snapshot(), prev))
        assert window.count == 3
        # All three landed in (10, 100]; the estimate stays in-bucket.
        assert 10 <= window.quantile(0.5) <= 100


class TestSnapshotDelta:
    def test_counters_subtract_gauges_pass(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(10)
        prev = reg.snapshot()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        d = snapshot_delta(reg.snapshot(), prev)
        assert d["c"] == {"type": "counter", "value": 3}
        assert d["g"] == {"type": "gauge", "value": 7}

    def test_counter_reset_clamps_to_current(self):
        cur = {"c": {"type": "counter", "value": 2}}
        prev = {"c": {"type": "counter", "value": 9}}
        assert snapshot_delta(cur, prev)["c"]["value"] == 2

    def test_new_instrument_contributes_fully(self):
        reg = MetricsRegistry()
        prev = reg.snapshot()
        reg.counter("born").inc(4)
        assert snapshot_delta(reg.snapshot(), prev)["born"]["value"] == 4

    def test_histograms_delegate(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1, 10])
        h.observe(5)
        prev = reg.snapshot()
        h.observe(7)
        d = snapshot_delta(reg.snapshot(), prev)
        assert d["h"]["count"] == 1

    def test_disabled_registry_answers_empty(self):
        assert snapshot_delta(MetricsRegistry(enabled=False).snapshot(), {}) == {}
        assert NULL_METRICS.counter("x").snapshot() == {}


class TestRegistry:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        reg.histogram("c", buckets=[1, 2]).observe(1)
        snap = reg.snapshot()
        assert snap["a"] == {"type": "counter", "value": 2}
        assert snap["b"] == {"type": "gauge", "value": 7}
        assert snap["c"]["type"] == "histogram"
        assert list(snap) == ["a", "b", "c"]

    def test_disabled_registry_is_noop(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("y").set(1)
        NULL_METRICS.histogram("z").observe(5)
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.names() == []

    def test_disabled_instruments_shared(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is reg.histogram("b")
