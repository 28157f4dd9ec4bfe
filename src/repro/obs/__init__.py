"""``repro.obs`` — tracing, metrics, and machine-readable benchmark output.

The observability layer under every cost number this repository reports:

* :mod:`repro.obs.trace` — nested :class:`Span`\\ s with per-span deltas of
  disk and buffer-pool counters, collected by a :class:`Tracer` (with
  per-worker merging for the parallel engine);
* :mod:`repro.obs.metrics` — named counters / gauges / fixed-bucket
  histograms behind a :class:`MetricsRegistry`, free when disabled;
* :mod:`repro.obs.export` — JSONL trace dump, JSON metrics snapshot,
  chrome-trace timeline, and ``JoinReport`` serialization;
* :mod:`repro.obs.bench` + :mod:`repro.obs.schema` — schema-validated
  ``BENCH_*.json`` perf-trajectory records for the benchmarks;
* :mod:`repro.obs.journal` — the flight recorder: an append-only JSONL
  run journal with a typed event vocabulary, fed by the parallel
  coordinator, the fault injectors, and the checkpoint store;
* :mod:`repro.obs.analyze` — the post-run analyzer behind
  ``python -m repro report``: skew, stragglers, critical path, and the
  fault/retry timeline, rendered as deterministic markdown.

``repro.core.stats.PhaseMeter`` is a thin adapter over :class:`Tracer`, so
every existing join driver already produces spans; pass an enabled tracer
and metrics registry to a driver (or use ``python -m repro trace``) to get
the full picture.
"""

from .analyze import (
    LaneReplay,
    PairStats,
    RunAnalysis,
    SkewStats,
    analyze_events,
    analyze_run,
    lpt_replay,
    render_report,
)
from .bench import (
    bench_file_name,
    bench_record,
    load_bench_file,
    validate_results_dir,
    write_bench_file,
)
from .export import (
    RunRecorder,
    chrome_instant_events,
    chrome_trace_events,
    report_to_dict,
    trace_to_dicts,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from .corpus import (
    RunRecord,
    check_gates,
    compare_runs,
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
from .expo import (
    EXPOSITION_PREFIX,
    format_value,
    metric_name,
    parse_exposition,
    render_exposition,
)
from .journal import (
    EVENT_TYPES,
    FAULT_TIMELINE_TYPES,
    JOURNAL_FILENAME,
    NULL_JOURNAL,
    SERVE_TIMELINE_TYPES,
    NullJournal,
    RunJournal,
    journal_path,
    live_renderer,
    read_journal,
)
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_delta,
    snapshot_delta,
)
from .timeseries import (
    RingBufferSeries,
    SlowLog,
    TelemetrySampler,
    quantile,
)
from .top import render_top
from .schema import (
    BENCH_FILE_SCHEMA,
    BENCH_RECORD_SCHEMA,
    SCHEMA_VERSION,
    SchemaError,
    validate,
    validate_bench_file,
    validate_bench_record,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BENCH_FILE_SCHEMA",
    "BENCH_RECORD_SCHEMA",
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_TYPES",
    "EXPOSITION_PREFIX",
    "FAULT_TIMELINE_TYPES",
    "Gauge",
    "Histogram",
    "JOURNAL_FILENAME",
    "LaneReplay",
    "MetricsRegistry",
    "NULL_JOURNAL",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullJournal",
    "NullTracer",
    "PairStats",
    "RingBufferSeries",
    "RunAnalysis",
    "RunJournal",
    "RunRecord",
    "RunRecorder",
    "SCHEMA_VERSION",
    "SERVE_TIMELINE_TYPES",
    "SchemaError",
    "SkewStats",
    "SlowLog",
    "Span",
    "TelemetrySampler",
    "Tracer",
    "analyze_events",
    "analyze_run",
    "bench_file_name",
    "bench_record",
    "check_gates",
    "chrome_instant_events",
    "chrome_trace_events",
    "compare_runs",
    "fit_trend",
    "format_value",
    "histogram_delta",
    "index_bench_file",
    "index_engine_run",
    "index_path",
    "index_serve_run",
    "journal_path",
    "live_renderer",
    "load_bench_file",
    "lpt_replay",
    "metric_name",
    "parse_exposition",
    "quantile",
    "read_journal",
    "render_compare",
    "render_exposition",
    "render_list",
    "render_report",
    "render_show",
    "render_top",
    "render_trend",
    "report_to_dict",
    "scan_corpus",
    "snapshot_delta",
    "trace_to_dicts",
    "validate",
    "validate_bench_file",
    "validate_bench_record",
    "validate_results_dir",
    "write_bench_file",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_jsonl",
]
