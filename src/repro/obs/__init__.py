"""``repro.obs`` — tracing, metrics, and machine-readable benchmark output.

The observability layer under every cost number this repository reports:

* :mod:`repro.obs.trace` — nested :class:`~repro.obs.trace.Span`\\ s
  with per-span deltas of disk and buffer-pool counters, collected by a
  :class:`Tracer` (with per-worker merging for the parallel engine);
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

The package re-exports only the names callers import through it; the
rest (the time series and slow log, the ``repro top`` renderer, the run
warehouse, the event constants) are imported from their own modules, so
``import repro.obs`` loads none of ``timeseries``, ``top`` or ``corpus``.
"""

from .analyze import analyze_events, analyze_run, lpt_replay, render_report
from .bench import (
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
from .expo import parse_exposition
from .journal import RunJournal, live_renderer, read_journal
from .metrics import MetricsRegistry
from .schema import SchemaError, validate_bench_file, validate_bench_record
from .trace import Tracer

__all__ = [
    "MetricsRegistry",
    "RunJournal",
    "RunRecorder",
    "SchemaError",
    "Tracer",
    "analyze_events",
    "analyze_run",
    "bench_record",
    "chrome_instant_events",
    "chrome_trace_events",
    "live_renderer",
    "load_bench_file",
    "lpt_replay",
    "parse_exposition",
    "read_journal",
    "render_report",
    "report_to_dict",
    "trace_to_dicts",
    "validate_bench_file",
    "validate_bench_record",
    "validate_results_dir",
    "write_bench_file",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_jsonl",
]
