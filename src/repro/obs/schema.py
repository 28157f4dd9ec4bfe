"""The ``BENCH_*.json`` schema and a dependency-free validator.

Every benchmark writes one ``BENCH_<name>.json`` file next to its ``.txt``
table: a machine-readable perf-trajectory record that CI and tooling can
diff across commits.  The file holds one record per (algorithm, buffer
size) cell of the benchmark's sweep, each with the per-phase cpu/io
breakdown the paper's Table 4 is built from.

The schema is expressed as a standard JSON-Schema document
(:data:`BENCH_FILE_SCHEMA`), so external tools can validate the files with
any off-the-shelf validator.  Because this repository must not grow
dependencies, :func:`validate` implements the subset of JSON Schema the
document actually uses (type / required / properties / items / enum /
minimum) — enough to reject malformed records at write time.
"""

from __future__ import annotations

from typing import Any

SCHEMA_VERSION = 1

BENCH_PHASE_SCHEMA = {
    "type": "object",
    "required": ["name", "cpu_s", "io_s", "page_reads", "page_writes", "seeks"],
    "properties": {
        "name": {"type": "string"},
        "cpu_s": {"type": "number", "minimum": 0},
        "io_s": {"type": "number", "minimum": 0},
        "page_reads": {"type": "integer", "minimum": 0},
        "page_writes": {"type": "integer", "minimum": 0},
        "seeks": {"type": "integer", "minimum": 0},
    },
}

BENCH_FAULTS_SCHEMA = {
    "type": "object",
    "required": ["injected", "retries", "quarantined", "degraded", "survived"],
    "properties": {
        "injected": {"type": "integer", "minimum": 0},
        "retries": {"type": "integer", "minimum": 0},
        "timeouts": {"type": "integer", "minimum": 0},
        "quarantined": {"type": "integer", "minimum": 0},
        "degraded": {"type": "integer", "minimum": 0},
        "pool_respawns": {"type": "integer", "minimum": 0},
        "survived": {"type": "boolean"},
        "plan": {"type": "object"},
    },
}
"""The chaos block: what a run injected and what it cost to survive.
Optional on every record — absent means the run was fault-free by
construction, present means a fault plan was active."""

BENCH_DISK_SCHEMA = {
    "type": "object",
    "required": ["spill_bytes"],
    "properties": {
        "spill_bytes": {"type": "integer", "minimum": 0},
        "budget_bytes": {"type": "integer", "minimum": 0},
        "high_watermark_bytes": {"type": "integer", "minimum": 0},
        "denials": {"type": "integer", "minimum": 0},
        "pressure_events": {"type": "integer", "minimum": 0},
        "degraded_pairs": {"type": "integer", "minimum": 0},
        "by_category": {"type": "object"},
    },
}
"""The storage-pressure block: the run's on-disk footprint and how the
disk budget behaved.  Optional on every record — absent means the run
predates storage governance or wrote nothing worth metering;
``spill_bytes`` alone records an unconstrained run's footprint."""

BENCH_TELEMETRY_SCHEMA = {
    "type": "object",
    "required": ["ticks"],
    "properties": {
        "ticks": {"type": "integer", "minimum": 0},
        "interval_s": {"type": "number", "minimum": 0},
        "sampled_series": {"type": "integer", "minimum": 0},
        "slow_log_entries": {"type": "integer", "minimum": 0},
        "queue_depth_max": {"type": "integer", "minimum": 0},
        "inflight_max": {"type": "integer", "minimum": 0},
    },
}
"""The live-telemetry block: what the sampler saw while the benchmark
ran.  Optional on every record — absent means the run was sampled never
(telemetry off); the series themselves stay on the wire op, only the
sampling footprint and load peaks are recorded."""

BENCH_RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "algorithm",
        "scale",
        "buffer_mb",
        "total_s",
        "cpu_s",
        "io_s",
        "candidates",
        "result_count",
        "phases",
        "counters",
    ],
    "properties": {
        "algorithm": {"type": "string"},
        "scale": {"type": "number", "minimum": 0},
        "buffer_mb": {"type": "number", "minimum": 0},
        "buffer_mb_scaled": {"type": "number", "minimum": 0},
        "total_s": {"type": "number", "minimum": 0},
        "cpu_s": {"type": "number", "minimum": 0},
        "io_s": {"type": "number", "minimum": 0},
        "candidates": {"type": "integer", "minimum": 0},
        "result_count": {"type": "integer", "minimum": 0},
        "phases": {"type": "array", "items": BENCH_PHASE_SCHEMA},
        "counters": {
            "type": "object",
            "required": ["page_reads", "page_writes", "seeks"],
            "properties": {
                "page_reads": {"type": "integer", "minimum": 0},
                "page_writes": {"type": "integer", "minimum": 0},
                "seeks": {"type": "integer", "minimum": 0},
            },
        },
        "notes": {"type": "object"},
        "faults": BENCH_FAULTS_SCHEMA,
        "disk": BENCH_DISK_SCHEMA,
        "telemetry": BENCH_TELEMETRY_SCHEMA,
    },
}

BENCH_FILE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "benchmark", "records"],
    "properties": {
        "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "benchmark": {"type": "string"},
        "records": {"type": "array", "items": BENCH_RECORD_SCHEMA},
    },
}


class SchemaError(ValueError):
    """A document does not conform to its schema."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def validate(document: Any, schema: dict, path: str = "$") -> None:
    """Check ``document`` against the JSON-Schema subset used above.

    Raises :class:`SchemaError` naming the offending path; returns None on
    success.  Unknown properties are allowed (records may carry extra
    context), matching JSON Schema's default behaviour.
    """
    expected = schema.get("type")
    if expected is not None:
        py_type = _TYPES[expected]
        if not isinstance(document, py_type) or (
            expected in ("integer", "number") and isinstance(document, bool)
        ):
            raise SchemaError(f"{path}: expected {expected}, got {type(document).__name__}")
    if "enum" in schema and document not in schema["enum"]:
        raise SchemaError(f"{path}: {document!r} not in {schema['enum']}")
    if "minimum" in schema and document < schema["minimum"]:
        raise SchemaError(f"{path}: {document} below minimum {schema['minimum']}")
    if isinstance(document, dict):
        for key in schema.get("required", ()):
            if key not in document:
                raise SchemaError(f"{path}: missing required property {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in document:
                validate(document[key], subschema, f"{path}.{key}")
    if isinstance(document, list) and "items" in schema:
        for i, item in enumerate(document):
            validate(item, schema["items"], f"{path}[{i}]")


def validate_bench_record(record: dict) -> None:
    validate(record, BENCH_RECORD_SCHEMA)


def validate_bench_file(document: dict) -> None:
    validate(document, BENCH_FILE_SCHEMA)
