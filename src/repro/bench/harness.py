"""Shared infrastructure for the paper-reproduction benchmarks.

Scaling model
-------------
The paper's experiments use ~90 MB of TIGER data and 2/8/24 MB buffer
pools on a Sun SPARC-10.  A pure-Python engine cannot push 456K-tuple
joins through hundreds of benchmark configurations, so every benchmark
runs at ``BENCH_SCALE`` (default 5% of the paper's cardinalities; override
with the ``REPRO_BENCH_SCALE`` environment variable) and the buffer pool
is scaled by the same factor, preserving the buffer-to-data *ratios* that
drive the paper's results.

Reported "seconds" are *simulated* seconds: measured CPU wall time plus
modelled I/O time from the simulated disk (see ``repro.storage.disk``).
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.stats import JoinResult
from ..data import sequoia, tiger
from ..geometry import CurveMapper, Rect
from ..obs.bench import bench_record, write_bench_file
from ..storage.database import Database
from ..storage.disk import PAGE_SIZE
from ..storage.relation import Relation
from ..storage.tuples import SpatialTuple

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
"""Fraction of the paper's dataset cardinalities the benchmarks run at."""

PAPER_BUFFER_MB = (2.0, 8.0, 24.0)
"""The paper's buffer pool sweep (Figures 7-9, 13-15; Table 4)."""

MIN_POOL_PAGES = 24
"""Floor on the scaled pool: pages do not shrink with the data, so a pool
must still hold the working set of open partition-file tails plus a few
frames, exactly as the paper's 2 MB pool holds 256 pages."""

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def scaled_buffer_mb(paper_mb: float, scale: float = BENCH_SCALE) -> float:
    """A buffer size preserving the paper's buffer-to-data ratio."""
    floor_mb = MIN_POOL_PAGES * PAGE_SIZE / (1024 * 1024)
    return max(paper_mb * scale, floor_mb)


_GENERATORS = {
    "road": tiger.generate_roads,
    "hydro": tiger.generate_hydrography,
    "rail": tiger.generate_rail,
    "polygon": sequoia.generate_landuse_polygons,
    "island": sequoia.generate_islands,
}


@lru_cache(maxsize=32)
def _cached_tuples(
    name: str, scale: float, clustered: bool
) -> Tuple[SpatialTuple, ...]:
    """Generate (and optionally Hilbert-sort) a dataset once per process.

    Tuples are immutable, so sharing them across benchmark databases is
    safe, and it keeps the benchmark suite's wall time dominated by the
    joins rather than by data generation.
    """
    items = list(_GENERATORS[name](scale))
    if clustered and items:
        universe = Rect.union_all(t.mbr for t in items)
        mapper = CurveMapper(universe)
        items.sort(key=lambda t: mapper.hilbert_of_rect(t.mbr))
    return tuple(items)


def fresh_tiger(
    paper_buffer_mb: float,
    scale: float = BENCH_SCALE,
    clustered: bool = False,
    include: Iterable[str] = ("road", "hydro", "rail"),
) -> Tuple[Database, Dict[str, Relation]]:
    """A new database with TIGER data loaded and the cache cleared (cold)."""
    db = Database(buffer_mb=scaled_buffer_mb(paper_buffer_mb, scale))
    rels = {}
    for name in include:
        rel = db.create_relation(name)
        rel.bulk_load(_cached_tuples(name, scale, clustered))
        rels[name] = rel
    db.pool.clear()
    db.pool.reset_counters()
    return db, rels


def fresh_sequoia(
    paper_buffer_mb: float,
    scale: float = BENCH_SCALE,
    clustered: bool = False,
) -> Tuple[Database, Dict[str, Relation]]:
    db = Database(buffer_mb=scaled_buffer_mb(paper_buffer_mb, scale))
    rels = {}
    for name in ("polygon", "island"):
        rel = db.create_relation(name)
        rel.bulk_load(_cached_tuples(name, scale, clustered))
        rels[name] = rel
    db.pool.clear()
    db.pool.reset_counters()
    return db, rels


class ResultTable:
    """A fixed-width table rendered like the paper's tables and figures."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows), 1)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [self.title, "=" * len(self.title), header, sep]
        for row in self.rows:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def emit(self, filename: str) -> str:
        """Render, print, and persist under ``benchmarks/results/``."""
        text = self.render()
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / filename
        path.write_text(text + "\n")
        print("\n" + text)
        return text


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def write_bench_json(
    benchmark: str,
    sweep_results: Dict[float, Dict[str, JoinResult]],
    scale: float = BENCH_SCALE,
) -> "Path":
    """Emit ``BENCH_<benchmark>.json`` for a buffer-sweep result set.

    One schema-validated record per (paper buffer size, algorithm) cell —
    the machine-readable twin of :meth:`ResultTable.emit`'s ``.txt`` table,
    written to the same ``benchmarks/results/`` directory.
    """
    records = [
        bench_record(
            result.report,
            scale=scale,
            buffer_mb=paper_mb,
            buffer_mb_scaled=scaled_buffer_mb(paper_mb, scale),
            algorithm=algo_name,
        )
        for paper_mb, per_algo in sorted(sweep_results.items())
        for algo_name, result in per_algo.items()
    ]
    return write_bench_file(benchmark, records, RESULTS_DIR)
