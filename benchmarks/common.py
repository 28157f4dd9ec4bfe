"""Shared helpers for the join benchmarks and the serve drills."""

from __future__ import annotations

import signal
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro import (
    IndexedNestedLoopsJoin,
    PBSMJoin,
    RTreeJoin,
    intersects,
)
from repro.bench import (
    PAPER_BUFFER_MB,
    ResultTable,
    fresh_tiger,
    write_bench_json,
)
from repro.core.stats import JoinResult
from repro.serve import read_port_file, wait_for_server
from repro.storage import Database, Relation

ALGORITHMS = ("PBSM", "R-tree", "INL")


def run_three_algorithms(
    make_db: Callable[[float], Tuple[Database, Relation, Relation]],
    predicate=intersects,
    clustered: bool = False,
) -> Dict[float, Dict[str, JoinResult]]:
    """Run PBSM / R-tree join / INL cold at each paper buffer size.

    ``make_db(paper_buffer_mb)`` must return a fresh cold database plus the
    two join inputs.  Each algorithm gets its own fresh database so index
    builds and temp files never help a competitor.
    """
    results: Dict[float, Dict[str, JoinResult]] = {}
    for paper_mb in PAPER_BUFFER_MB:
        per_algo: Dict[str, JoinResult] = {}
        for algo_name in ALGORITHMS:
            db, rel_r, rel_s = make_db(paper_mb)
            if algo_name == "PBSM":
                res = PBSMJoin(db.pool).run(rel_r, rel_s, predicate)
            elif algo_name == "R-tree":
                res = RTreeJoin(db.pool).run(
                    rel_r, rel_s, predicate,
                    r_clustered=clustered, s_clustered=clustered,
                )
            else:
                res = IndexedNestedLoopsJoin(db.pool).run(
                    rel_r, rel_s, predicate,
                    r_clustered=clustered, s_clustered=clustered,
                )
            per_algo[algo_name] = res
        results[paper_mb] = per_algo
    return results


def emit_sweep_table(
    title: str,
    filename: str,
    results: Dict[float, Dict[str, JoinResult]],
) -> None:
    """Write the human-readable ``.txt`` table and, alongside it, the
    schema-validated ``BENCH_<name>.json`` perf-trajectory record."""
    table = ResultTable(
        title, ["buffer (paper MB)", *(f"{a} (s)" for a in ALGORITHMS)]
    )
    for paper_mb, per_algo in sorted(results.items()):
        table.add(
            paper_mb, *(per_algo[a].report.total_s for a in ALGORITHMS)
        )
    table.emit(filename)
    write_bench_json(filename.rsplit(".", 1)[0], results)


def tiger_workload(r_name: str, s_name: str, clustered: bool = False):
    """A ``make_db`` for a TIGER query pair."""

    def make_db(paper_mb: float):
        db, rels = fresh_tiger(
            paper_mb, clustered=clustered, include=(r_name, s_name)
        )
        return db, rels[r_name], rels[s_name]

    return make_db


def assert_same_results(results: Dict[float, Dict[str, JoinResult]]) -> None:
    """All algorithms at all buffer sizes must produce the *same pairs*.

    Comparing sorted OID pair sets, not counts: every algorithm loads the
    same tuples in the same order into its own fresh database, so OIDs are
    comparable across runs, and a count tie can mask wrong results.
    """
    reference = None
    reference_from = None
    for paper_mb, per_algo in results.items():
        for name, res in per_algo.items():
            pairs = sorted(set(res.pairs))
            if reference is None:
                reference = pairs
                reference_from = f"{name} @ {paper_mb}MB"
                continue
            if pairs != reference:
                missing = len(set(reference) - set(pairs))
                extra = len(set(pairs) - set(reference))
                raise AssertionError(
                    f"{name} @ {paper_mb}MB disagrees with {reference_from}: "
                    f"{len(pairs)} pairs vs {len(reference)} "
                    f"({missing} missing, {extra} unexpected)"
                )


WORKERS = 2
"""The drill server's ``--workers``, and what the drills' queries ask for."""


def start_server(out: Path, *extra) -> Tuple[subprocess.Popen, int]:
    """The drills' fixture: ``python -m repro serve`` as a subprocess,
    :data:`WORKERS` workers, cache and journals under ``out``, any
    ``extra`` CLI arguments passed through; returns once it accepts
    connections, as ``(process, port)``.  Stop it with :func:`drain`."""
    out.mkdir(parents=True, exist_ok=True)
    port_file = out / "port.txt"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", str(out / "cache"),
            "--out", str(out),
            "--port-file", str(port_file),
            "--workers", str(WORKERS),
            *map(str, extra),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = read_port_file(port_file, timeout_s=60.0)
    wait_for_server("127.0.0.1", port, timeout_s=60.0)
    return proc, port


def drain(proc: subprocess.Popen) -> str:
    """SIGTERM the server and hold it to a clean drain: exit status 0 and
    the "drained" summary in its output, which is returned."""
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=120.0)
    assert proc.returncode == 0, f"server exited {proc.returncode}:\n{output}"
    assert "drained" in output, f"clean-shutdown summary missing:\n{output}"
    return output
