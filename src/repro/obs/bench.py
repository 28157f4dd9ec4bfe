"""``BENCH_*.json`` emission: the repo's machine-readable perf trajectory.

A bench file is one JSON document per benchmark (see
:mod:`repro.obs.schema` for the exact schema):

.. code-block:: json

    {"schema_version": 1,
     "benchmark": "fig7_road_hydro",
     "records": [
        {"algorithm": "PBSM", "scale": 0.05, "buffer_mb": 2.0,
         "total_s": 41.2, "cpu_s": 12.1, "io_s": 29.1,
         "candidates": 5123, "result_count": 4710,
         "phases": [{"name": "Partition road", "...": "..."}],
         "counters": {"page_reads": 913, "page_writes": 402, "seeks": 131}},
        "..."
     ]}

Every record is validated against the schema *at write time*, so a
malformed emitter fails the benchmark run instead of poisoning the
trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional

from .export import report_to_dict
from .schema import SCHEMA_VERSION, validate_bench_file


def _with_blocks(record: dict, **blocks) -> dict:
    """Attach the optional blocks that were given; an absent block stays
    absent, so baselines stay byte-comparable."""
    record.update({k: v for k, v in blocks.items() if v is not None})
    return record


def bench_record(
    report,
    *,
    scale: float,
    buffer_mb: float,
    buffer_mb_scaled: Optional[float] = None,
    algorithm: Optional[str] = None,
    faults: Optional[dict] = None,
    disk: Optional[dict] = None,
) -> dict:
    """Build one schema-conforming record from a ``JoinReport``.

    ``buffer_mb`` is the *paper* buffer size the cell models (2/8/24);
    ``buffer_mb_scaled`` the actual pool the scaled run used.  ``faults``
    attaches a chaos block (see ``BENCH_FAULTS_SCHEMA``) when the run
    executed under a fault plan; ``disk`` a storage-pressure block (see
    ``BENCH_DISK_SCHEMA``).  Leave both ``None`` for runs without them.
    """
    base = report_to_dict(report)
    record = {
        "algorithm": algorithm or base["algorithm"],
        "scale": scale,
        "buffer_mb": buffer_mb,
        "total_s": base["total_s"],
        "cpu_s": base["cpu_s"],
        "io_s": base["io_s"],
        "candidates": base["candidates"],
        "result_count": base["result_count"],
        "phases": base["phases"],
        "counters": {
            "page_reads": sum(p["page_reads"] for p in base["phases"]),
            "page_writes": sum(p["page_writes"] for p in base["phases"]),
            "seeks": sum(p["seeks"] for p in base["phases"]),
        },
    }
    return _with_blocks(
        record,
        buffer_mb_scaled=buffer_mb_scaled,
        notes=base["notes"] or None,
        faults=faults,
        disk=disk,
    )


def wall_clock_record(
    algorithm: str,
    *,
    scale: float,
    total_s: float = 0.0,
    cpu_s: float = 0.0,
    buffer_mb: float = 0.0,
    candidates: int = 0,
    result_count: int = 0,
    notes: dict,
    faults: Optional[dict] = None,
    telemetry: Optional[dict] = None,
) -> dict:
    """One schema-conforming record for a run with no simulated disk.

    The process backend, the serve tier and the partitioning profiles are
    costed in wall-clock time only, so the modelled-I/O fields (``io_s``,
    ``phases``, ``counters``) are structurally zero rather than unknown;
    the payload rides in ``notes``.  ``faults`` / ``telemetry`` attach
    the optional blocks of the same names.
    """
    record = {
        "algorithm": algorithm,
        "scale": scale,
        "buffer_mb": buffer_mb,
        "total_s": total_s,
        "cpu_s": cpu_s,
        "io_s": 0.0,
        "candidates": candidates,
        "result_count": result_count,
        "phases": [],
        "counters": {"page_reads": 0, "page_writes": 0, "seeks": 0},
        "notes": notes,
    }
    return _with_blocks(record, faults=faults, telemetry=telemetry)


def bench_file_name(benchmark: str) -> str:
    return f"BENCH_{benchmark}.json"


def write_bench_file(
    benchmark: str,
    records: Iterable[dict],
    results_dir: "Path | str",
) -> Path:
    """Assemble, validate, and write ``<results_dir>/BENCH_<benchmark>.json``."""
    return write_bench_path(
        benchmark, records, Path(results_dir) / bench_file_name(benchmark)
    )


def write_bench_path(
    benchmark: str, records: Iterable[dict], path: "Path | str"
) -> Path:
    """:func:`write_bench_file` to an exact path (``chaos --bench-out``)."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "records": list(records),
    }
    validate_bench_file(document)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_file(path: "Path | str") -> dict:
    """Read and re-validate a bench file (used by CI's schema check)."""
    document = json.loads(Path(path).read_text())
    validate_bench_file(document)
    return document


def validate_results_dir(results_dir: "Path | str") -> List[Path]:
    """Validate every ``BENCH_*.json`` under a directory; returns them."""
    paths = sorted(Path(results_dir).glob("BENCH_*.json"))
    for path in paths:
        load_bench_file(path)
    return paths
