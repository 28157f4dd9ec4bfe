"""Exporters: JSONL traces, JSON metrics snapshots, chrome trace timelines.

Three machine-readable views of one execution:

* :func:`write_trace_jsonl` — every span as one JSON object per line, with
  ``id``/``parent_id`` links, resource deltas, and tags.  Greppable,
  streamable, diffable.
* :func:`write_metrics_json` — a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot plus caller-supplied context, as one JSON document.
* :func:`write_chrome_trace` — the span tree in Chrome's Trace Event
  format; load it in ``chrome://tracing`` / Perfetto to see the paper's
  phase structure as a flame chart, with per-worker lanes for the
  parallel engine.

:func:`write_run_dir` writes all three under their canonical names — the
files that, next to a ``journal.jsonl``, make a recorded run directory
``repro report`` and ``repro runs`` can read; :class:`RunRecorder` is the
journal, tracer and registry of one such run, made and written in one place.

:func:`report_to_dict` converts a ``JoinReport`` (duck-typed, so this
module stays import-light) into the JSON shape shared by ``demo --json``
and the ``BENCH_*.json`` records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .journal import (
    EVENT_CHECKPOINT_COMMIT,
    FAULT_TIMELINE_TYPES,
    SERVE_TIMELINE_TYPES,
    OnJournalEvent,
    RunJournal,
    journal_path,
    read_journal,
)
from .metrics import MetricsRegistry
from .trace import Span, Tracer

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"
CHROME_TRACE_FILENAME = "chrome_trace.json"


def span_to_dict(span: Span, tracer: Tracer, span_id: int, parent_id: Optional[int]) -> dict:
    disk = span.disk
    pool = span.pool
    return {
        "id": span_id,
        "parent_id": parent_id,
        "name": span.name,
        "start_s": round(span.start - tracer.epoch, 9),
        "cpu_s": round(span.cpu_s, 9),
        "io_s": round(span.io_s(tracer.disk), 9),
        "tags": span.tags,
        "disk": {
            "page_reads": disk.page_reads,
            "page_writes": disk.page_writes,
            "random_reads": disk.random_reads,
            "random_writes": disk.random_writes,
            "pages_allocated": disk.pages_allocated,
            "seeks": disk.seeks,
        },
        "pool": {
            "hits": pool.hits,
            "misses": pool.misses,
            "evictions": pool.evictions,
            "dirty_flushes": pool.dirty_flushes,
        },
    }


def trace_to_dicts(tracer: Tracer) -> List[dict]:
    """Flatten the span forest to dicts, parents before children."""
    out: List[dict] = []
    next_id = [0]

    def emit(span: Span, parent_id: Optional[int]) -> None:
        span_id = next_id[0]
        next_id[0] += 1
        out.append(span_to_dict(span, tracer, span_id, parent_id))
        for child in span.children:
            emit(child, span_id)

    for root in tracer.roots:
        emit(root, None)
    return out


def write_trace_jsonl(tracer: Tracer, path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in trace_to_dicts(tracer):
            fh.write(json.dumps(record) + "\n")
    return path


def write_metrics_json(
    registry: MetricsRegistry,
    path: "Path | str",
    extra: Optional[Dict[str, object]] = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"metrics": registry.snapshot()}
    if extra:
        document.update(extra)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Complete ("ph": "X") events; worker tags become thread lanes.

    A span without its own ``worker`` tag inherits the nearest ancestor's,
    so a parallel node's whole subtree renders in that worker's lane.
    """
    events: List[dict] = []

    def emit(span: Span, worker: int) -> None:
        worker = span.tags.get("worker", worker)
        events.append(
            {
                "name": span.name,
                "cat": "join",
                "ph": "X",
                "ts": (span.start - tracer.epoch) * 1e6,
                "dur": span.cpu_s * 1e6,
                "pid": 0,
                "tid": worker,
                "args": {
                    **span.tags,
                    "io_s": round(span.io_s(tracer.disk), 9),
                    "page_reads": span.disk.page_reads,
                    "page_writes": span.disk.page_writes,
                    "seeks": span.disk.seeks,
                    "pool_hits": span.pool.hits,
                    "pool_misses": span.pool.misses,
                    "evictions": span.pool.evictions,
                    "dirty_flushes": span.pool.dirty_flushes,
                },
            }
        )
        for child in span.children:
            emit(child, worker)

    for root in tracer.roots:
        emit(root, 0)
    return events


def chrome_instant_events(journal_events: List[dict]) -> List[dict]:
    """Instant ("ph": "i") markers for the run's notable moments.

    Renders the journal's fault timeline —
    :data:`~repro.obs.journal.FAULT_TIMELINE_TYPES` plus checkpoint
    commits — as global-scope instants, so fault injections, retries, and
    respawns appear as vertical ticks across the span flame chart.  Serve
    and per-query journals render their lifecycle moments too
    (:data:`~repro.obs.journal.SERVE_TIMELINE_TYPES`: query arrivals,
    cache hits, breaker transitions) under the ``"serve"`` category.
    Other journal event types are skipped: the engine lifecycle ones
    already exist as spans, and heartbeats/samples would drown the
    timeline.
    """
    fault_marked = FAULT_TIMELINE_TYPES | {EVENT_CHECKPOINT_COMMIT}
    events: List[dict] = []
    for record in journal_events:
        kind = record.get("type")
        if kind in fault_marked:
            category = "fault"
        elif kind in SERVE_TIMELINE_TYPES:
            category = "serve"
        else:
            continue
        args = {
            k: v
            for k, v in record.items()
            if k not in ("type", "t", "seq")
        }
        events.append(
            {
                "name": record["type"],
                "cat": category,
                "ph": "i",
                "s": "g",
                "ts": float(record.get("t", 0.0)) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )
    return events


def write_chrome_trace(
    tracer: Tracer,
    path: "Path | str",
    journal_events: Optional[List[dict]] = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events = chrome_trace_events(tracer)
    if journal_events:
        events.extend(chrome_instant_events(journal_events))
    path.write_text(json.dumps({"traceEvents": events}))
    return path


def write_run_dir(
    run_dir: "Path | str",
    tracer: Tracer,
    registry: MetricsRegistry,
    *,
    extra: Optional[Dict[str, object]] = None,
    journal_events: Optional[List[dict]] = None,
) -> Tuple[Path, Path, Path]:
    """Write a run directory's trace, metrics and timeline files; returns
    their paths in that order."""
    run_dir = Path(run_dir)
    return (
        write_trace_jsonl(tracer, run_dir / TRACE_FILENAME),
        write_metrics_json(registry, run_dir / METRICS_FILENAME, extra=extra),
        write_chrome_trace(
            tracer, run_dir / CHROME_TRACE_FILENAME, journal_events
        ),
    )


class RunRecorder:
    """The observers one recorded join is handed, and where they land.

    Always a journal: ``run_dir/journal.jsonl``, or memory-only without a
    directory (``parallel --live`` alone).  With ``spans`` a tracer and a
    metrics registry ride along, and :meth:`write` puts their files
    beside the journal — the flight recorder ``repro chaos`` leaves.
    :attr:`observers` is what an engine takes as keyword arguments.
    """

    def __init__(
        self,
        run_dir: "Path | str | None" = None,
        *,
        spans: bool,
        on_event: Optional[OnJournalEvent] = None,
    ):
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.journal = RunJournal(
            journal_path(self.run_dir) if self.run_dir is not None else None,
            on_event=on_event,
        )
        self.observers: Dict[str, object] = {"journal": self.journal}
        if spans:
            self.observers.update(tracer=Tracer(), metrics=MetricsRegistry())

    def write(self, extra: Optional[Dict[str, object]] = None) -> None:
        """The closed journal's run directory gets its trace, metrics and
        timeline files (the journal's own events mark the timeline)."""
        write_run_dir(
            self.run_dir,
            self.observers["tracer"],
            self.observers["metrics"],
            extra=extra,
            journal_events=read_journal(self.journal.path),
        )


def report_to_dict(report) -> dict:
    """A ``JoinReport`` as the JSON shape used by CLI and bench output."""
    return {
        "algorithm": report.algorithm,
        "total_s": report.total_s,
        "cpu_s": report.cpu_s,
        "io_s": report.io_s,
        "io_fraction": report.io_fraction,
        "candidates": report.candidates,
        "result_count": report.result_count,
        "notes": dict(report.notes),
        "phases": [
            {
                "name": p.name,
                "cpu_s": p.cpu_s,
                "io_s": p.io_s,
                "page_reads": p.page_reads,
                "page_writes": p.page_writes,
                "seeks": p.seeks,
            }
            for p in report.phases
        ],
    }
