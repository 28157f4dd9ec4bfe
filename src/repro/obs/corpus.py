"""Cross-run observability warehouse: index, diff, and trend run artifacts.

Every run leaves durable evidence behind — engine run dirs with a
``journal.jsonl`` (and optional ``metrics.json``), serve roots with a
``serve.jsonl`` service journal, benchmarks with ``BENCH_*.json``
trajectory records.  Each artifact is self-describing but single-run;
regressions only show up when runs are compared *across* history.

:func:`scan_corpus` walks a directory tree and turns every artifact it
recognizes into a :class:`RunRecord`: a flat, deterministic
``identity`` (what the run was — dataset, seed, backend, layout) plus a
flat numeric ``metrics`` mapping (what it measured — phase timings,
fault/degrade/dedup counters, disk peaks, latency quantiles).  The
index is a pure function of file contents: same tree, same bytes out.

:func:`compare_runs` diffs two records metric-by-metric,
:func:`check_gates` turns the diff into the repository's one regression
verdict (exact for deterministic counters, thresholded for measured
quantities), and :func:`fit_trend` fits a least-squares slope over a
metric's trajectory across N runs — the ``repro runs compare`` CLI turns
either into a non-zero exit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .analyze import analyze_events
from .bench import load_bench_file
from .export import METRICS_FILENAME
from .journal import JOURNAL_FILENAME as ENGINE_JOURNAL_FILENAME
from .journal import read_journal
from .timeseries import quantile

SERVE_JOURNAL_FILENAME = "serve.jsonl"
BENCH_GLOB_PREFIX = "BENCH_"

KIND_ENGINE = "engine"
KIND_SERVE = "serve"
KIND_BENCH = "bench"

DEFAULT_GATE_THRESHOLD = 0.10
"""A gated metric regresses when ``b > a * (1 + threshold)``."""


def cell_key(record: dict) -> str:
    """What identifies a BENCH cell: ``<algorithm>@<paper buffer MB>``."""
    return f"{record['algorithm']}@{float(record['buffer_mb'])}"


_HEADLINE_METRICS = {
    "merge.duplicates_dropped": "duplicates_dropped",
    "disk.budget.denials": "disk_denials",
    "disk.budget.charged_bytes": "disk_charged_bytes",
    "disk.budget.hwm_bytes": "disk_hwm_bytes",
    "disk.budget.used_bytes": "disk_used_bytes",
}
"""Registry counters and gauges an engine run's record carries along."""


@dataclass
class RunRecord:
    """One indexed artifact: identity (what ran) + metrics (what it cost)."""

    run_id: str
    path: str
    kind: str
    identity: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "kind": self.kind,
            "identity": {k: self.identity[k] for k in sorted(self.identity)},
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


class CorpusError(ValueError):
    """An artifact the indexer was pointed at directly is unusable."""


# --------------------------------------------------------------------- #
# per-artifact indexers
# --------------------------------------------------------------------- #


def index_engine_run(run_dir: "Path | str", run_id: Optional[str] = None) -> RunRecord:
    """Index one engine run directory (``journal.jsonl`` required)."""
    run_dir = Path(run_dir)
    journal_path = run_dir / ENGINE_JOURNAL_FILENAME
    if not journal_path.exists():
        raise CorpusError(f"no {ENGINE_JOURNAL_FILENAME} under {run_dir}")
    records = read_journal(journal_path)
    analysis = analyze_events(records, run_dir=str(run_dir))
    identity: Dict[str, object] = {
        "backend": analysis.backend,
        "workers": analysis.workers,
        "partitions": analysis.partitions,
        "tuples_r": analysis.tuples_r,
        "tuples_s": analysis.tuples_s,
        "resuming": analysis.resuming,
    }
    if analysis.disk_budget is not None:
        identity["disk_budget"] = analysis.disk_budget
    for key in ("dataset", "scale", "seed", "predicate", "query",
                "run_id", "source"):
        value = analysis.serve.get(key)
        if value is not None:
            identity[key] = value
    metrics: Dict[str, float] = {
        "results": analysis.results,
        "tasks": len(analysis.schedule),
        "makespan_cost": analysis.replay.makespan_cost,
        "total_cost": analysis.replay.total_cost,
        "faults_injected": len(analysis.fault_ledger),
        "retries": analysis.event_counts.get("retry", 0),
        "quarantined": len(analysis.quarantined_pairs),
        "degraded": len(analysis.degraded_pairs),
        "replayed": len(analysis.replayed_pairs),
        "checkpoint_commits": sum(analysis.checkpoint_commits.values()),
        "disk_pressure_events": len(analysis.disk_pressure),
        "disk_recoveries": len(analysis.disk_recoveries),
    }
    for record in records:
        if record.get("type") == "query_done" and record.get("latency_s") is not None:
            metrics["latency_s"] = float(record["latency_s"])
    metrics.update(_metrics_file_extract(run_dir))
    return RunRecord(
        run_id=run_id or run_dir.name,
        path=str(run_dir),
        kind=KIND_ENGINE,
        identity=identity,
        metrics=metrics,
    )


def index_serve_run(out_dir: "Path | str", run_id: Optional[str] = None) -> RunRecord:
    """Index one serve root (``serve.jsonl`` required): query tallies,
    per-source counts, latency quantiles over ``query_done`` events."""
    out_dir = Path(out_dir)
    journal_path = out_dir / SERVE_JOURNAL_FILENAME
    if not journal_path.exists():
        raise CorpusError(f"no {SERVE_JOURNAL_FILENAME} under {out_dir}")
    records = read_journal(journal_path)
    analysis = analyze_events(records, run_dir=str(out_dir))
    tallies = analysis.event_counts
    datasets: set = set()
    seeds: set = set()
    sources: Dict[str, int] = {}
    latencies: List[float] = []
    for record in records:
        kind = record.get("type")
        if kind == "query_received":
            if record.get("dataset") is not None:
                datasets.add(str(record["dataset"]))
            if record.get("seed") is not None:
                seeds.add(int(record["seed"]))
        elif kind == "query_done":
            source = str(record.get("source", "?"))
            sources[source] = sources.get(source, 0) + 1
            if record.get("latency_s") is not None:
                latencies.append(float(record["latency_s"]))
    identity: Dict[str, object] = {
        "datasets": sorted(datasets),
        "seeds": sorted(seeds),
    }
    metrics: Dict[str, float] = {
        "queries_received": tallies.get("query_received", 0),
        "queries_done": tallies.get("query_done", 0),
        "cache_hits": tallies.get("cache_hit", 0),
        "cache_evicts": tallies.get("cache_evict", 0),
        "deadline_exceeded": tallies.get("deadline_exceeded", 0),
        "breaker_transitions": tallies.get("breaker_transition", 0),
        "disk_pressure_events": tallies.get("disk_pressure", 0),
    }
    for source in sorted(sources):
        metrics[f"source.{source}"] = sources[source]
    # Scrub totals and telemetry peaks come off the analyzer's fold.
    for key, total in sorted(analysis.serve.get("scrub", {}).items()):
        metrics[f"scrub.{key}"] = total
    telemetry = analysis.serve.get("telemetry")
    if telemetry:
        metrics["telemetry_ticks"] = telemetry["ticks"]
        metrics["queue_depth_max"] = telemetry["queue_depth_max"]
        metrics["inflight_max"] = telemetry["inflight_max"]
    if latencies:
        metrics["latency_count"] = len(latencies)
        metrics["latency_mean_s"] = round(sum(latencies) / len(latencies), 6)
        for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            value = quantile(latencies, q)
            assert value is not None
            metrics[f"latency_{label}_s"] = round(value, 6)
        metrics["latency_max_s"] = round(max(latencies), 6)
    return RunRecord(
        run_id=run_id or out_dir.name,
        path=str(out_dir),
        kind=KIND_SERVE,
        identity=identity,
        metrics=metrics,
    )


def index_bench_file(path: "Path | str", run_id: Optional[str] = None) -> List[RunRecord]:
    """Index one ``BENCH_*.json`` file: one record per benchmark cell,
    phase timings flattened to ``phase.<name>.cpu_s`` / ``.io_s`` so
    Table 4-style breakdowns become comparable trajectories."""
    path = Path(path)
    try:
        data = load_bench_file(path)
    except ValueError as exc:  # not JSON, or not schema-valid
        raise CorpusError(f"{path}: not a BENCH file ({exc})") from exc
    base = run_id or path.stem
    out: List[RunRecord] = []
    for i, record in enumerate(data["records"]):
        identity: Dict[str, object] = {
            "benchmark": data.get("benchmark"),
            "schema_version": data.get("schema_version"),
        }
        for key in ("algorithm", "scale", "buffer_mb", "buffer_mb_scaled"):
            if record.get(key) is not None:
                identity[key] = record[key]
        metrics: Dict[str, float] = {}
        for key in ("total_s", "cpu_s", "io_s", "candidates", "result_count"):
            if record.get(key) is not None:
                metrics[key] = record[key]
        for key, value in sorted((record.get("counters") or {}).items()):
            if isinstance(value, (int, float)):
                metrics[f"counter.{key}"] = value
        for phase in record.get("phases") or []:
            name = phase.get("name", "?")
            for key in ("cpu_s", "io_s", "page_reads", "page_writes", "seeks"):
                if phase.get(key) is not None:
                    metrics[f"phase.{name}.{key}"] = phase[key]
        for block in ("faults", "disk"):
            for key, value in sorted((record.get(block) or {}).items()):
                if isinstance(value, bool):
                    metrics[f"{block}.{key}"] = int(value)
                elif isinstance(value, (int, float)):
                    metrics[f"{block}.{key}"] = value
        out.append(
            RunRecord(
                run_id=f"{base}#{i}",
                path=str(path),
                kind=KIND_BENCH,
                identity=identity,
                metrics=metrics,
            )
        )
    return out


def _metrics_file_extract(run_dir: Path) -> Dict[str, float]:
    """Headline counters/gauges from a run dir's ``metrics.json`` (the
    dedup pin and the disk peaks), if the run recorded one."""
    path = run_dir / METRICS_FILENAME
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return {}
    snapshot = data.get("metrics", data) if isinstance(data, dict) else {}
    if not isinstance(snapshot, dict):
        return {}
    out: Dict[str, float] = {}
    for source, target in _HEADLINE_METRICS.items():
        entry = snapshot.get(source)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            out[target] = entry["value"]
    return out


# --------------------------------------------------------------------- #
# the corpus scan
# --------------------------------------------------------------------- #

_DIR_INDEXERS = (
    (SERVE_JOURNAL_FILENAME, index_serve_run),
    (ENGINE_JOURNAL_FILENAME, index_engine_run),
)
"""Which journal file makes a directory which kind of run."""


def index_path(path: "Path | str") -> RunRecord:
    """Index a single artifact the user pointed at directly.

    A directory with a ``serve.jsonl`` is a serve root; with a
    ``journal.jsonl``, an engine run; a ``*.json`` file, a BENCH file:
    its cells merge into one comparable record, each cell's metrics
    prefixed with its :func:`cell_key` and the identity carrying what
    :func:`check_gates` needs to match cells across two files.
    """
    given = str(path)
    path = Path(path)
    if path.is_dir():
        for filename, indexer in _DIR_INDEXERS:
            if (path / filename).exists():
                return indexer(path, run_id=given)
        raise CorpusError(
            f"{path}: neither {SERVE_JOURNAL_FILENAME} nor "
            f"{ENGINE_JOURNAL_FILENAME} found"
        )
    if path.is_file():
        records = index_bench_file(path)
        if not records:
            raise CorpusError(f"{path}: BENCH file with no records")
        scales: Dict[str, object] = {}
        duplicates = set()
        merged = RunRecord(
            run_id=path.stem,
            path=str(path),
            kind=KIND_BENCH,
            identity={"benchmark": records[0].identity["benchmark"],
                      "cells": len(records), "scales": scales},
        )
        for record in records:
            key = cell_key(record.identity)
            if key in scales:
                duplicates.add(key)
            scales[key] = record.identity["scale"]
            for name in sorted(record.metrics):
                merged.metrics[f"{key}.{name}"] = record.metrics[name]
        merged.identity["duplicate_cells"] = sorted(duplicates)
        return merged
    raise CorpusError(f"{path}: no such run artifact")


def scan_corpus(root: "Path | str") -> List[RunRecord]:
    """Index every recognizable artifact under ``root``, sorted by
    ``(kind, path, run_id)``.  Artifacts that fail to parse are skipped —
    a half-written journal must not poison the whole warehouse."""
    root = Path(root)
    records: List[RunRecord] = []
    if not root.exists():
        return records
    candidates = [root] + sorted(
        (p for p in root.rglob("*") if p.is_dir()), key=lambda p: str(p)
    )
    for directory in candidates:
        rel = directory.relative_to(root).as_posix() or "."
        for filename, indexer in _DIR_INDEXERS:
            if not (directory / filename).exists():
                continue
            try:
                record = indexer(directory, run_id=rel)
            except (CorpusError, OSError, ValueError):
                continue
            record.path = rel
            records.append(record)
    bench_files = sorted(
        (p for p in root.rglob(f"{BENCH_GLOB_PREFIX}*.json") if p.is_file()),
        key=lambda p: str(p),
    )
    for path in bench_files:
        rel = path.relative_to(root).as_posix()
        try:
            cells = index_bench_file(path, run_id=rel)
        except (CorpusError, OSError, ValueError):
            continue
        for record in cells:
            record.path = rel
            records.append(record)
    records.sort(key=lambda r: (r.kind, r.path, r.run_id))
    return records


def find_record(records: Sequence[RunRecord], run_id: str) -> Optional[RunRecord]:
    for record in records:
        if record.run_id == run_id:
            return record
    return None


# --------------------------------------------------------------------- #
# diffing and trending
# --------------------------------------------------------------------- #


def compare_runs(
    a: RunRecord,
    b: RunRecord,
    metrics: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Metric-by-metric diff rows over the union of both records' keys.

    Each row carries both readings plus ``delta`` (b - a) and ``ratio``
    (b / a) when they are computable.  ``metrics`` restricts the rows to
    the named keys, in the given order.
    """
    keys: List[str] = (
        list(metrics)
        if metrics
        else sorted(set(a.metrics) | set(b.metrics))
    )
    rows: List[dict] = []
    for key in keys:
        va = a.metrics.get(key)
        vb = b.metrics.get(key)
        row: dict = {"metric": key, "a": va, "b": vb}
        if va is not None and vb is not None:
            row["delta"] = round(vb - va, 9)
            if va:
                row["ratio"] = round(vb / va, 6)
        rows.append(row)
    return rows


def check_gates(
    a: RunRecord,
    b: RunRecord,
    gates: Sequence[str] = (),
    exact: Sequence[str] = (),
    threshold: float = DEFAULT_GATE_THRESHOLD,
) -> List[str]:
    """Did ``b`` regress from ``a``?  One message per failure; empty = pass.

    ``gates`` and ``exact`` are :mod:`fnmatch` patterns over metric names
    (a plain name matches itself).  An ``exact`` metric fails on any
    difference — deterministic counters get zero tolerance in either
    direction.  A ``gates`` metric fails when ``b > a * (1 + threshold)``:
    higher is worse for everything worth gating (latency, wall time,
    modelled I/O seconds, retries, disk peaks), and a value that *fell*
    is either an improvement or, for a modelled quantity, already caught
    by the exact counters it is computed from.  A pattern that matches
    nothing, or a matched metric missing from either side, fails too: a
    gate that cannot read its metric must fail loudly, not pass silently.

    Two BENCH files must also describe the same experiment whenever
    anything is gated: same ``benchmark``, the same set of cells (by
    :func:`cell_key`, none duplicated), each at the same ``scale``.
    """
    if not gates and not exact:
        return []
    failures = _cell_mismatches(a.identity, b.identity)
    rows = {row["metric"]: row for row in compare_runs(a, b)}
    for mode, patterns in (("exact", exact), ("gate", gates)):
        for pattern in patterns:
            matched = [
                row for name, row in rows.items() if fnmatchcase(name, pattern)
            ]
            for row in matched or [{"metric": pattern}]:
                name, va, vb = row["metric"], row.get("a"), row.get("b")
                if va is None or vb is None:
                    failures.append(f"{mode} {name}: metric missing from one side")
                elif mode == "exact":
                    if va != vb:
                        failures.append(
                            f"exact {name}: {_fmt_num(va)} became {_fmt_num(vb)}"
                        )
                elif vb > va * (1.0 + threshold):
                    failures.append(
                        f"gate {name}: {_fmt_num(vb)} exceeds "
                        f"{_fmt_num(va)} by more than {threshold:.0%}"
                    )
    return failures


def _cell_mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Why two indexed BENCH files are not the same experiment (identity
    blocks from :func:`index_path`; anything else has no cells to match)."""
    out: List[str] = []
    if a.get("benchmark") != b.get("benchmark"):
        out.append(
            f"benchmark name mismatch: a={a.get('benchmark')!r} "
            f"b={b.get('benchmark')!r}"
        )
    for side, identity in (("a", a), ("b", b)):
        for key in identity.get("duplicate_cells", ()):
            out.append(f"cell {key}: duplicated in {side}")
    scales_a = a.get("scales", {})
    scales_b = b.get("scales", {})
    for key in sorted(set(scales_a) | set(scales_b)):
        if key not in scales_a or key not in scales_b:
            out.append(f"cell {key}: in {'a' if key in scales_a else 'b'} only")
        elif scales_a[key] != scales_b[key]:
            out.append(
                f"cell {key}: scale mismatch (a {scales_a[key]} vs b "
                f"{scales_b[key]}) — re-run at a's scale"
            )
    return out


def fit_trend(values: Sequence[float]) -> dict:
    """Least-squares line over ``values`` at x = 0..n-1.

    ``slope_frac`` normalizes the slope by the mean magnitude, so "this
    metric grows 3% per run" reads directly against a threshold.
    """
    n = len(values)
    if n < 2:
        return {
            "n": n,
            "slope": 0.0,
            "intercept": values[0] if values else 0.0,
            "mean": values[0] if values else 0.0,
            "slope_frac": 0.0,
        }
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    sxx = sum((i - mean_x) ** 2 for i in range(n))
    sxy = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    magnitude = sum(abs(v) for v in values) / n
    return {
        "n": n,
        "slope": round(slope, 9),
        "intercept": round(intercept, 9),
        "mean": round(mean_y, 9),
        "slope_frac": round(slope / magnitude, 9) if magnitude else 0.0,
    }


# --------------------------------------------------------------------- #
# deterministic text rendering
# --------------------------------------------------------------------- #


def _fmt_num(value) -> str:
    if value is None:
        return "-"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    text = f"{number:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def render_list(records: Sequence[RunRecord]) -> str:
    lines = ["# runs"]
    if not records:
        lines.append("(no runs found)")
        return "\n".join(lines) + "\n"
    for record in records:
        headline = ""
        for key in ("latency_p50_s", "total_s", "results", "queries_done"):
            if key in record.metrics:
                headline = f"  {key}={_fmt_num(record.metrics[key])}"
                break
        lines.append(
            f"{record.kind:<6} {record.run_id}  "
            f"[{len(record.metrics)} metrics]{headline}"
        )
    return "\n".join(lines) + "\n"


def render_show(record: RunRecord) -> str:
    lines = [
        f"# run {record.run_id}",
        f"kind: {record.kind}",
        f"path: {record.path}",
        "",
        "## identity",
    ]
    for key in sorted(record.identity):
        lines.append(f"- {key}: {json.dumps(record.identity[key], sort_keys=True)}")
    lines.append("")
    lines.append("## metrics")
    for key in sorted(record.metrics):
        lines.append(f"- {key}: {_fmt_num(record.metrics[key])}")
    return "\n".join(lines) + "\n"


def render_compare(a: RunRecord, b: RunRecord, rows: Sequence[dict]) -> str:
    lines = [
        "# runs compare",
        f"a: {a.run_id} ({a.kind})",
        f"b: {b.run_id} ({b.kind})",
        "",
        f"{'metric':<32} {'a':>14} {'b':>14} {'delta':>14} {'ratio':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<32} {_fmt_num(row.get('a')):>14} "
            f"{_fmt_num(row.get('b')):>14} {_fmt_num(row.get('delta')):>14} "
            f"{_fmt_num(row.get('ratio')):>8}"
        )
    return "\n".join(lines) + "\n"


def render_trend(metric: str, run_ids: Sequence[str], values: Sequence[float],
                 trend: dict) -> str:
    lines = [
        "# runs trend",
        f"metric: {metric}",
        f"n: {trend['n']}",
        f"mean: {_fmt_num(trend['mean'])}",
        f"slope: {_fmt_num(trend['slope'])} per run "
        f"({trend['slope_frac'] * 100:+.2f}% of mean)",
        "",
    ]
    for run_id, value in zip(run_ids, values):
        lines.append(f"{run_id:<40} {_fmt_num(value):>14}")
    return "\n".join(lines) + "\n"
