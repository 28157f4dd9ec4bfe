"""Wiring check for the benchmark: ``python -m pytest benchmarks/perf/test_selfcheck.py``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Drives the whole report
at smoke scale and checks the emitted document against BENCHMARK.json; it
measures nothing.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_report_lists_exactly_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rounds", "1", "--smoke",
         "--traced"],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    # ~25 s on a quiet box; this host's speed swings by 1.45x (README.md).
    assert time.perf_counter() - started < 45

    results = json.loads((HERE / "out" / "report.json").read_text())["runs"][0]
    assert list(results) == [w["name"] for w in contract["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in contract[kind]}
        for workload, per in results.items():
            metrics = per[kind]["metrics"]
            assert list(metrics) == list(declared), (workload, kind)
            for name, cell in metrics.items():
                assert cell["unit"] == declared[name]["unit"]
            assert per[kind]["correct"] and per[kind]["failed"] == 0
        # Every declared metric is produced by at least one workload.
        for name in declared:
            if name == "parallel.process.scaling" and os.cpu_count() < 2:
                continue  # reads 0 by design on one core
            assert any(
                per[kind]["metrics"][name]["value"] != 0
                for per in results.values()
            ), name

    assert contract["paths"] == ["benchmarks/perf"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])

    for workload in ("tiger_join", "sequoia_refine"):
        spans = [
            json.loads(line) for line in
            (HERE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        roots = [s["name"] for s in spans if s["parent"] is None]
        assert roots == ["codec", "replay"]
        assert all({"name", "start", "end", "parent", "trace"} <= set(s)
                   for s in spans)
