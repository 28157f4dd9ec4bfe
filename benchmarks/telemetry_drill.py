"""Telemetry + warehouse drill: live scrape, regression gate, determinism.

Three phases, each against real ``python -m repro`` subprocesses:

**A — live scrape.** A ``repro serve --telemetry-interval`` server takes
~20 mixed queries; the ``metrics`` op's Prometheus-style exposition must
parse and its counters must agree with the ``stats`` op; an idle server
must scrape byte-identically twice; the ``telemetry`` op must report
sampler ticks and a populated slow log; and ``repro top <port-file>
--once`` must render a frame — including through a closed pipe (the
dashboard is scripted in CI, so SIGPIPE safety is part of the contract).

**B — regression gate.** Two recorded serve runs over the same query
set: a clean one, and one with the seeded ``deadline_stall`` fault plan
(every miss waits out a ~2 s stall).  ``repro runs compare fast slow
--gate latency_p50_s`` must exit non-zero on the seeded regression, and
a self-compare must pass — the gate fires on real slowdowns and only on
real slowdowns.

**C — warehouse determinism.** Two chaos flight-recorder journals are
indexed and diffed twice; the rendered output must be byte-identical
across invocations (the acceptance bar for the whole warehouse: the
index is a pure function of file contents).

Run locally with ``PYTHONPATH=src python benchmarks/telemetry_drill.py``;
CI runs it in the ``telemetry`` job and uploads the out directory.
"""

import subprocess
import sys
from pathlib import Path

from common import drain, start_server
from repro.obs import parse_exposition
from repro.serve import ServeClient

QUERY_MIX = [
    {"dataset": "road_hydro", "scale": 0.006, "predicate": "intersects"},
    {"dataset": "road_rail", "scale": 0.006, "predicate": "intersects"},
    {"dataset": "landuse_island", "scale": 0.004, "predicate": "contains"},
    {"dataset": "road_hydro", "scale": 0.004, "predicate": "intersects"},
]
N_QUERIES = 20
STALL_S = 2.0


def repro(*args, check=True, timeout=300):
    """Run ``python -m repro <args>`` and return the CompletedProcess."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *map(str, args)],
        capture_output=True, text=True, timeout=timeout,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"repro {' '.join(map(str, args))} exited "
            f"{result.returncode}:\n{result.stdout}{result.stderr}"
        )
    return result


def phase_a_live_scrape(root: Path) -> None:
    out = root / "live"
    out.mkdir(parents=True)
    proc, port = start_server(out, "--telemetry-interval", "0.2")
    try:
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            for i in range(N_QUERIES):
                fields = dict(QUERY_MIX[i % len(QUERY_MIX)], workers=2)
                response = client.join(**fields)
                assert response.get("ok"), response
            stats = client.stats()["stats"]
            first = client.metrics()
            second = client.metrics()
            telemetry = client.telemetry()["telemetry"]

        # The exposition parses and its counters agree with the stats op.
        assert first["ok"] and first["content_type"].startswith("text/plain")
        parsed = parse_exposition(first["exposition"])
        for metric, expected in (
            ("repro_serve_completed", stats["outcomes"]["completed"]),
            ("repro_serve_admitted", stats["admitted"]),
            ("repro_serve_cache_hits", stats["hits"]),
            ("repro_serve_cache_misses", stats["misses"]),
        ):
            got = parsed[metric]["value"]
            assert got == expected, f"{metric}: exposition {got} != stats {expected}"
        latency = parsed["repro_serve_latency_s"]
        assert latency["type"] == "histogram"
        assert latency["count"] == stats["outcomes"]["completed"]
        # Idle server: repeated scrapes are byte-identical.
        assert first["exposition"] == second["exposition"], (
            "metrics exposition drifted between two idle scrapes"
        )

        # The background sampler ticked and the slow log filled.
        assert telemetry["sampling"]["ticks"] > 0
        assert telemetry["series"], "sampler ticked but recorded no series"
        assert telemetry["slow_log"], "20 queries left an empty slow log"
        slowest = telemetry["slow_log"][0]
        assert {"queue_s", "materialise_s", "execute_s"} <= set(
            slowest["phases"]
        )

        # The dashboard renders one frame and exits 0 — and survives its
        # stdout pipe closing early (head -1), the scripted-CI posture.
        port_file = out / "port.txt"
        top = repro("top", port_file, "--once")
        assert "repro serve" in top.stdout and "slow log" in top.stdout
        piped = subprocess.run(
            f"{sys.executable} -m repro top {port_file} --once | head -1",
            shell=True, capture_output=True, text=True, timeout=120,
        )
        assert piped.returncode == 0
        assert "Traceback" not in piped.stderr, piped.stderr
    finally:
        if proc.poll() is None:
            drain(proc)
    print(
        f"phase A ok: {N_QUERIES} queries, "
        f"{telemetry['sampling']['ticks']} sampler ticks, "
        f"{len(parsed)} exposed metrics, top renders"
    )


def run_recorded(out: Path, *extra) -> None:
    out.mkdir(parents=True)
    proc, port = start_server(out, *extra)
    try:
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            for fields in QUERY_MIX:
                response = client.join(workers=2, **fields)
                assert response.get("ok"), response
    finally:
        if proc.poll() is None:
            drain(proc)


def phase_b_regression_gate(root: Path) -> None:
    fast = root / "fast"
    slow = root / "slow"
    run_recorded(fast)
    run_recorded(
        slow,
        "--faults", "deadline_stall", "--fault-seed", "3",
        "--fault-hang-s", STALL_S,
    )

    # The seeded stall must trip the latency gate...
    gated = repro(
        "runs", "compare", fast, slow,
        "--gate", "latency_p50_s", "--threshold", "0.5",
        check=False,
    )
    assert gated.returncode == 4, (
        f"seeded ~{STALL_S}s stall did not trip the gate "
        f"(exit {gated.returncode}):\n{gated.stdout}{gated.stderr}"
    )
    assert "REGRESSION" in gated.stdout
    # ...and a self-compare must pass it.
    clean = repro(
        "runs", "compare", fast, fast,
        "--gate", "latency_p50_s", "--threshold", "0.5",
    )
    assert "REGRESSION" not in clean.stdout
    print(
        "phase B ok: gate exits 4 on the seeded stall, 0 on self-compare"
    )


def phase_c_determinism(root: Path) -> None:
    for name, seed in (("chaosA", 42), ("chaosB", 7)):
        repro(
            "chaos", "--plan", "worker_faults", "--seed", seed,
            "--scale", "0.002", "--workers", "2",
            "--out", root / name, "--json",
        )
    once = repro("runs", "compare", root / "chaosA", root / "chaosB")
    twice = repro("runs", "compare", root / "chaosA", root / "chaosB")
    assert once.stdout == twice.stdout, (
        "runs compare over the same two journals differed across invocations"
    )
    listing = repro("runs", "list", root)
    relisting = repro("runs", "list", root)
    assert listing.stdout == relisting.stdout
    assert "chaosA" in listing.stdout and "chaosB" in listing.stdout
    print(
        f"phase C ok: compare and list byte-identical across invocations "
        f"({len(once.stdout.splitlines())} compare rows)"
    )


def main(out_dir: str = "telemetry-out") -> int:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    phase_a_live_scrape(root)
    phase_b_regression_gate(root)
    phase_c_determinism(root)
    print("telemetry drill ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
