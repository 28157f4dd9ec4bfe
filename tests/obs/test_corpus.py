"""The cross-run warehouse: indexing, scanning, diffing, trending — and
the one regression gate (exact on counters, one-sided on measured time)."""

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.corpus import (
    CorpusError,
    RunRecord,
    check_gates,
    compare_runs,
    find_record,
    fit_trend,
    index_bench_file,
    index_engine_run,
    index_path,
    index_serve_run,
    render_compare,
    render_list,
    render_show,
    render_trend,
    scan_corpus,
)

ENGINE_EVENTS = [
    {"type": "run_started", "backend": "process", "workers": 2,
     "partitions": 4, "tuples_r": 100, "tuples_s": 50, "resuming": False,
     "dataset": "road_hydro", "seed": 7},
    {"type": "schedule", "order": [{"pair": 0, "cost": 30},
                                   {"pair": 1, "cost": 20}]},
    {"type": "task_finished", "pair": 0, "attempt": 0, "candidates": 9,
     "results": 4, "wall_s": 0.03},
    {"type": "task_finished", "pair": 1, "attempt": 0, "candidates": 5,
     "results": 2, "wall_s": 0.02},
    {"type": "run_finished", "results": 6, "degraded_pairs": []},
]

SERVE_EVENTS = [
    {"type": "query_received", "query": "query-0001", "dataset": "road_hydro",
     "seed": 7},
    {"type": "query_done", "query": "query-0001", "source": "miss",
     "latency_s": 0.4},
    {"type": "query_received", "query": "query-0002", "dataset": "road_hydro",
     "seed": 7},
    {"type": "cache_hit", "query": "query-0002"},
    {"type": "query_done", "query": "query-0002", "source": "hit",
     "latency_s": 0.1},
    {"type": "sample", "kind": "telemetry", "queued": 3, "inflight": 2,
     "completed": 2, "breaker_state": "closed"},
    {"type": "cache_scrub", "scanned": 4, "repaired": 1, "quarantined": 0,
     "evicted": 0},
]

BENCH_DOC = {
    "schema_version": 1,
    "benchmark": "serve_throughput",
    "records": [
        {"algorithm": "PBSM", "scale": 0.01, "buffer_mb": 4.0,
         "total_s": 1.5, "cpu_s": 1.0, "io_s": 0.5, "candidates": 10,
         "result_count": 4,
         "counters": {"page_reads": 30, "page_writes": 10, "seeks": 5},
         "phases": [{"name": "Partition", "cpu_s": 0.6, "io_s": 0.2,
                     "page_reads": 20, "page_writes": 10, "seeks": 3}],
         "faults": {"injected": 2, "retries": 1, "quarantined": 0,
                    "degraded": 0, "survived": True},
         "disk": {"spill_bytes": 2048, "denials": 1}},
    ],
}


def _run(**metrics):
    return RunRecord("r", "r", "serve", metrics=metrics)


def write_jsonl(path, records):
    with path.open("w") as fh:
        for i, record in enumerate(records):
            fh.write(json.dumps({"seq": i + 1, "t": 0.1 * i, **record}) + "\n")


@pytest.fixture
def corpus_root(tmp_path):
    """A tree with one engine run, one serve root, and one BENCH file."""
    engine = tmp_path / "runs" / "engine-a"
    engine.mkdir(parents=True)
    write_jsonl(engine / "journal.jsonl", ENGINE_EVENTS)
    (engine / "metrics.json").write_text(json.dumps({"metrics": {
        "merge.duplicates_dropped": {"type": "counter", "value": 3},
        "disk.budget.hwm_bytes": {"type": "gauge", "value": 8192},
    }}))
    serve = tmp_path / "serve-a" / "out"
    serve.mkdir(parents=True)
    write_jsonl(serve / "serve.jsonl", SERVE_EVENTS)
    (tmp_path / "BENCH_serve.json").write_text(json.dumps(BENCH_DOC))
    return tmp_path


class TestIndexers:
    def test_engine_identity_and_metrics(self, corpus_root):
        record = index_engine_run(corpus_root / "runs" / "engine-a")
        assert record.kind == "engine"
        assert record.identity["backend"] == "process"
        assert record.identity["workers"] == 2
        assert record.metrics["results"] == 6
        assert record.metrics["tasks"] == 2
        # metrics.json headline counters ride along.
        assert record.metrics["duplicates_dropped"] == 3
        assert record.metrics["disk_hwm_bytes"] == 8192

    def test_serve_tallies_and_latency_quantiles(self, corpus_root):
        record = index_serve_run(corpus_root / "serve-a" / "out")
        assert record.kind == "serve"
        assert record.identity == {"datasets": ["road_hydro"], "seeds": [7]}
        assert record.metrics["queries_done"] == 2
        assert record.metrics["cache_hits"] == 1
        assert record.metrics["source.hit"] == 1
        assert record.metrics["source.miss"] == 1
        assert record.metrics["latency_count"] == 2
        assert record.metrics["latency_p50_s"] == 0.25
        assert record.metrics["latency_max_s"] == 0.4
        assert record.metrics["telemetry_ticks"] == 1
        assert record.metrics["queue_depth_max"] == 3
        assert record.metrics["inflight_max"] == 2
        assert record.metrics["scrub.passes"] == 1
        assert record.metrics["scrub.repaired"] == 1

    def test_bench_cells_flattened(self, corpus_root):
        records = index_bench_file(corpus_root / "BENCH_serve.json")
        assert len(records) == 1
        record = records[0]
        assert record.identity["algorithm"] == "PBSM"
        assert record.metrics["total_s"] == 1.5
        assert record.metrics["counter.page_reads"] == 30
        assert record.metrics["phase.Partition.cpu_s"] == 0.6
        assert record.metrics["faults.injected"] == 2
        assert record.metrics["faults.survived"] == 1  # bool -> int
        assert record.metrics["disk.spill_bytes"] == 2048

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            index_engine_run(tmp_path)
        with pytest.raises(CorpusError):
            index_serve_run(tmp_path)

    def test_index_path_dispatches_by_artifact(self, corpus_root):
        serve = index_path(corpus_root / "serve-a" / "out")
        assert serve.kind == "serve"
        # run_id preserves the user-supplied path, not the dir basename.
        assert serve.run_id == str(corpus_root / "serve-a" / "out")
        engine = index_path(corpus_root / "runs" / "engine-a")
        assert engine.kind == "engine"
        bench = index_path(corpus_root / "BENCH_serve.json")
        assert bench.kind == "bench"
        assert bench.run_id == "BENCH_serve"
        with pytest.raises(CorpusError):
            index_path(corpus_root / "nowhere")


class TestScanCorpus:
    def test_finds_all_artifacts_sorted(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert [(r.kind, r.run_id) for r in records] == [
            ("bench", "BENCH_serve.json#0"),
            ("engine", "runs/engine-a"),
            ("serve", "serve-a/out"),
        ]

    def test_scan_is_deterministic(self, corpus_root):
        first = [r.to_dict() for r in scan_corpus(corpus_root)]
        second = [r.to_dict() for r in scan_corpus(corpus_root)]
        assert first == second

    def test_torn_journal_tolerated_unreadable_skipped(self, corpus_root):
        # A torn journal keeps its intact prefix (read_journal contract) —
        # the run still indexes, just with what survived.
        torn = corpus_root / "torn"
        torn.mkdir()
        (torn / "serve.jsonl").write_text("{not json\n")
        # An unreadable artifact is skipped without poisoning the scan.
        bad = corpus_root / "broken"
        (bad / "serve.jsonl").mkdir(parents=True)
        ids = [r.run_id for r in scan_corpus(corpus_root)]
        assert "torn" in ids
        assert "broken" not in ids
        assert "serve-a/out" in ids

    def test_missing_root_is_empty(self, tmp_path):
        assert scan_corpus(tmp_path / "nope") == []

    def test_find_record(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert find_record(records, "runs/engine-a").kind == "engine"
        assert find_record(records, "missing") is None


class TestCompareAndGates:
    def test_rows_over_union_with_delta_and_ratio(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out", run_id="a")
        b = index_serve_run(corpus_root / "serve-a" / "out", run_id="b")
        b.metrics["latency_p50_s"] = 0.5
        b.metrics["only_b"] = 1.0
        rows = {r["metric"]: r for r in compare_runs(a, b)}
        assert rows["latency_p50_s"]["delta"] == 0.25
        assert rows["latency_p50_s"]["ratio"] == 2.0
        assert rows["only_b"]["a"] is None and "delta" not in rows["only_b"]

    def test_metric_restriction_keeps_order(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out")
        rows = compare_runs(a, a, metrics=["latency_max_s", "cache_hits"])
        assert [r["metric"] for r in rows] == ["latency_max_s", "cache_hits"]

    def test_gate_fires_past_threshold(self):
        a = _run(latency_p50_s=1.0)
        b = _run(latency_p50_s=1.25)
        assert check_gates(a, b, ["latency_p50_s"], threshold=0.1)
        assert not check_gates(a, b, ["latency_p50_s"], threshold=0.5)
        # One-sided: a metric that fell is not a regression.
        assert not check_gates(b, a, ["latency_p50_s"], threshold=0.1)

    def test_identical_runs_pass(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out")
        assert check_gates(a, a, ["latency_p50_s", "latency_max_s"]) == []
        assert check_gates(a, a, exact=["*"]) == []

    def test_missing_gated_metric_fails_loudly(self):
        failures = check_gates(_run(), _run(), ["latency_p50_s"])
        assert failures == ["gate latency_p50_s: metric missing from one side"]
        assert check_gates(_run(x=1), _run(), exact=["x"]) == [
            "exact x: metric missing from one side"
        ]

    def test_exact_mode_fails_in_either_direction(self):
        a, b = _run(retries=3), _run(retries=2)
        assert check_gates(a, b, exact=["retries"]) == [
            "exact retries: 3 became 2"
        ]
        assert check_gates(b, a, exact=["retries"])
        assert check_gates(a, b, ["retries"]) == []  # a threshold gate passes

    def test_patterns_select_metrics_by_fnmatch(self):
        a = _run(**{"x.counter.seeks": 5, "y.counter.seeks": 7, "x.total_s": 1})
        b = _run(**{"x.counter.seeks": 5, "y.counter.seeks": 8, "x.total_s": 9})
        assert check_gates(a, b, exact=["*.counter.*"]) == [
            "exact y.counter.seeks: 7 became 8"
        ]

    def test_no_gate_requested_means_no_verdict(self):
        assert check_gates(_run(x=1), _run(x=2)) == []


FIG7_BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_fig7_road_hydro.json"
)
FIG7_CELLS = [
    f"{algorithm}@{buffer_mb}"
    for buffer_mb in (2.0, 8.0, 24.0)
    for algorithm in ("PBSM", "R-tree", "INL")
]
EXACT = ["*.counter.*", "*.candidates", "*.result_count"]
"""The CI gate's patterns: deterministic quantities get zero tolerance,
modelled I/O seconds the one-sided threshold."""
GATE = ["*.io_s"]


def _bench_record(algorithm="PBSM", buffer_mb=2.0, **overrides):
    record = {
        "algorithm": algorithm,
        "scale": 0.01,
        "buffer_mb": buffer_mb,
        "total_s": 1.5,
        "cpu_s": 0.5,
        "io_s": 1.0,
        "candidates": 1767,
        "result_count": 562,
        "phases": [],
        "counters": {"page_reads": 325, "page_writes": 0, "seeks": 6},
    }
    record.update(overrides)
    return record


def _bench_document(records=None):
    return {
        "schema_version": 1,
        "benchmark": "fig7_road_hydro",
        "records": records if records is not None else [
            _bench_record("PBSM", 2.0),
            _bench_record("R-tree", 2.0, io_s=2.0,
                          counters={"page_reads": 395, "page_writes": 83,
                                    "seeks": 24}),
            _bench_record("PBSM", 8.0),
        ],
    }


class TestBenchGate:
    """``runs compare --exact/--gate`` over two BENCH files — the CI
    benchmark-regression gate."""

    @pytest.fixture
    def gate(self, tmp_path):
        def run(baseline, fresh):
            paths = []
            for name, document in (("base", baseline), ("fresh", fresh)):
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(document))
                paths.append(path)
            return check_gates(
                index_path(paths[0]), index_path(paths[1]), GATE, EXACT
            )
        return run

    def test_committed_baseline_indexes_to_nine_cells(self):
        record = index_path(FIG7_BASELINE)
        assert sorted(record.identity["scales"]) == sorted(FIG7_CELLS)
        assert record.identity["duplicate_cells"] == []
        # The cells the algorithm-only key used to collapse stay apart.
        assert record.metrics["R-tree@2.0.counter.page_reads"] == 395
        assert record.metrics["R-tree@24.0.counter.page_reads"] == 363

    def test_gate_passes_on_committed_baseline(self):
        # The baseline in the repo must agree with itself — guards against
        # committing a baseline the CI gate immediately rejects.
        record = index_path(FIG7_BASELINE)
        assert check_gates(record, record, GATE, EXACT) == []

    @pytest.mark.parametrize("cell", FIG7_CELLS)
    @pytest.mark.parametrize(
        "metric",
        ["page_reads", "page_writes", "seeks", "candidates", "result_count"],
    )
    def test_one_off_in_any_exact_metric_of_any_cell_fails(
        self, gate, cell, metric
    ):
        baseline = json.loads(FIG7_BASELINE.read_text())
        fresh = copy.deepcopy(baseline)
        algorithm, buffer_mb = cell.split("@")
        (record,) = [
            r for r in fresh["records"]
            if r["algorithm"] == algorithm and r["buffer_mb"] == float(buffer_mb)
        ]
        holder = record["counters"] if metric in record["counters"] else record
        holder[metric] += 1
        failures = gate(baseline, fresh)
        assert len(failures) == 1
        assert cell in failures[0] and metric in failures[0]

    def test_identical_documents(self, gate):
        assert gate(_bench_document(), _bench_document()) == []

    def test_wall_time_noise_is_ignored(self, gate):
        fresh = _bench_document()
        for record in fresh["records"]:
            record["cpu_s"] *= 3.0
            record["total_s"] *= 3.0
        assert gate(_bench_document(), fresh) == []

    def test_io_s_within_tolerance(self, gate):
        fresh = _bench_document()
        fresh["records"][0]["io_s"] *= 1.09
        # One-sided on purpose: modelled io_s is a function of the exact
        # counters, which already trip in either direction.
        fresh["records"][1]["io_s"] *= 0.5
        assert gate(_bench_document(), fresh) == []

    def test_io_s_beyond_tolerance(self, gate):
        fresh = _bench_document()
        fresh["records"][0]["io_s"] *= 1.15
        failures = gate(_bench_document(), fresh)
        assert len(failures) == 1
        assert "PBSM@2.0.io_s" in failures[0]

    def test_io_s_appearing_from_zero(self, gate):
        base = _bench_document()
        base["records"][0]["io_s"] = 0.0
        fresh = copy.deepcopy(base)
        fresh["records"][0]["io_s"] = 0.25
        assert any("io_s" in f for f in gate(base, fresh))

    def test_page_reads_drift_of_one(self, gate):
        fresh = _bench_document()
        fresh["records"][0]["counters"]["page_reads"] += 1
        failures = gate(_bench_document(), fresh)
        assert failures == ["exact PBSM@2.0.counter.page_reads: 325 became 326"]

    @pytest.mark.parametrize("field", ["candidates", "result_count"])
    def test_exact_field_drift(self, gate, field):
        fresh = _bench_document()
        fresh["records"][1][field] -= 1
        failures = gate(_bench_document(), fresh)
        assert len(failures) == 1
        assert f"R-tree@2.0.{field}" in failures[0]

    def test_scale_mismatch(self, gate):
        fresh = _bench_document()
        for record in fresh["records"]:
            record["scale"] = 0.05
        failures = gate(_bench_document(), fresh)
        assert len(failures) == 3
        assert all("scale mismatch" in f for f in failures)

    def test_missing_and_extra_records(self, gate):
        fresh = _bench_document()
        fresh["records"] = fresh["records"][:-1] + [_bench_record("INL", 2.0)]
        failures = gate(_bench_document(), fresh)
        assert "cell PBSM@8.0: in a only" in failures
        assert "cell INL@2.0: in b only" in failures

    def test_duplicate_cell(self, gate):
        fresh = _bench_document()
        fresh["records"].append(_bench_record("PBSM", 2.0))
        assert "cell PBSM@2.0: duplicated in b" in gate(_bench_document(), fresh)

    def test_benchmark_name_mismatch(self, gate):
        fresh = _bench_document()
        fresh["benchmark"] = "fig8_road_rail"
        assert any(
            "benchmark name mismatch" in f
            for f in gate(_bench_document(), fresh)
        )

    def test_multiple_violations_all_reported(self, gate):
        fresh = _bench_document()
        fresh["records"][0]["counters"]["seeks"] += 10
        fresh["records"][1]["result_count"] += 5
        fresh["records"][2]["counters"]["page_writes"] += 1
        assert len(gate(_bench_document(), fresh)) == 3

    def test_schema_invalid_input_is_refused(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"records": []}))
        with pytest.raises(CorpusError):
            index_path(bad)

    def _cli(self, tmp_path, fresh):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_bench_document()))
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(fresh))
        args = ["runs", "compare", str(base), str(path)]
        for pattern in EXACT:
            args += ["--exact", pattern]
        for pattern in GATE:
            args += ["--gate", pattern]
        return main(args)

    def test_cli_pass(self, tmp_path, capsys):
        assert self._cli(tmp_path, _bench_document()) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_cli_fail_on_perturbation(self, tmp_path, capsys):
        perturbed = _bench_document()
        perturbed["records"][1]["counters"]["page_reads"] += 7
        assert self._cli(tmp_path, perturbed) == 4
        assert (
            "REGRESSION: exact R-tree@2.0.counter.page_reads: 395 became 402"
            in capsys.readouterr().out
        )


class TestFitTrend:
    def test_flat_series(self):
        trend = fit_trend([2.0, 2.0, 2.0])
        assert trend["slope"] == 0.0 and trend["slope_frac"] == 0.0
        assert trend["mean"] == 2.0

    def test_linear_growth(self):
        trend = fit_trend([1.0, 2.0, 3.0, 4.0])
        assert trend["slope"] == 1.0
        assert trend["intercept"] == 1.0
        assert trend["slope_frac"] == pytest.approx(0.4)

    def test_degenerate_inputs(self):
        assert fit_trend([])["n"] == 0
        assert fit_trend([5.0]) == {
            "n": 1, "slope": 0.0, "intercept": 5.0, "mean": 5.0,
            "slope_frac": 0.0,
        }


class TestRendering:
    def test_renders_are_byte_identical(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert render_list(records) == render_list(scan_corpus(corpus_root))
        serve = find_record(records, "serve-a/out")
        assert render_show(serve) == render_show(serve)
        rows = compare_runs(serve, serve)
        once = render_compare(serve, serve, rows)
        assert once == render_compare(serve, serve, compare_runs(serve, serve))
        assert once.startswith("# runs compare\n")

    def test_list_includes_headline_metric(self, corpus_root):
        text = render_list(scan_corpus(corpus_root))
        assert "latency_p50_s=0.25" in text
        assert "(no runs found)" in render_list([])

    def test_trend_render(self):
        trend = fit_trend([1.0, 2.0])
        text = render_trend("latency_p50_s", ["r1", "r2"], [1.0, 2.0], trend)
        assert "metric: latency_p50_s" in text
        assert "slope: 1 per run" in text
