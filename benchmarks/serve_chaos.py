"""Chaos drill for the serve tier's resilience mechanisms.

Two phases, each against a real ``python -m repro serve`` subprocess:

**Phase A — deadlines and the circuit breaker.**  The server runs the
seeded ``deadline_stall`` fault plan (one worker hang pinned to one
partition pair, stretched past the query deadline).  The drill asserts:

* a stalled query returns the *typed* ``deadline_exceeded`` reject
  within its deadline plus a bounded grace, not a hang or a 500;
* a concurrent deadline-free query rides out the stall (and the pool
  abandonment the deadlined neighbour triggers) to a digest
  byte-identical to a fault-free one-shot run;
* two pool retirements trip the breaker (threshold 2), after which
  queries shed to the serial path and come back ``source: "degraded"``
  with byte-identical digests;
* the CLI maps ``repro query --timeout`` onto ``deadline_s`` and exits
  non-zero on the typed reject;
* ``repro report`` renders the deadline and breaker events from the
  journals the drill just produced.

**Phase B — the cache scrubber.**  A clean server fills a cache entry;
the drill corrupts its result log at the ``scrub_corruption`` plan's
seeded ordinal, then waits for the background scrubber to quarantine
the entry.  A re-query must come back a cold miss with the identical
digest, and ``merge.duplicates_dropped`` must read 0 throughout.

Run locally with ``PYTHONPATH=src python benchmarks/serve_chaos.py``;
CI runs it in the ``serve-chaos`` job and uploads both out directories.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import WORKERS, drain, start_server
from repro.faults import load_plan
from repro.parallel import parallel_join
from repro.serve import QuerySpec, ServeClient, result_digest

ADMISSION = ("--max-inflight", "2", "--max-queue", "8")
FAULT_SEED = 3
FAULT_PAIRS = 8  # matches the specs' default partitions (workers * 4)
HANG_S = 4.0
DEADLINE_S = 1.5
DEADLINE_GRACE_S = 3.0  # poll slice + pool abandonment + reject write

STALLED = {"dataset": "road_hydro", "scale": 0.004, "workers": WORKERS}
NEIGHBOUR = {"dataset": "road_rail", "scale": 0.004, "workers": WORKERS}
SECOND = {"dataset": "road_hydro", "scale": 0.003, "workers": WORKERS}


def one_shot_digest(fields):
    spec = QuerySpec(**fields)
    tuples_r, tuples_s = spec.generate()
    result = parallel_join(
        tuples_r, tuples_s, spec.predicate_fn,
        backend="process", workers=spec.workers,
    )
    return result_digest(result.pairs)


def journal_types(path):
    return [
        json.loads(line)["type"] for line in path.read_text().splitlines()
    ]


def phase_a(out: Path) -> None:
    print("== phase A: deadlines + circuit breaker ==")
    baselines = {
        key: one_shot_digest(fields)
        for key, fields in (
            ("stalled", STALLED), ("neighbour", NEIGHBOUR),
            ("second", SECOND),
        )
    }
    proc, port = start_server(
        out, *ADMISSION,
        "--faults", "deadline_stall",
        "--fault-seed", str(FAULT_SEED),
        "--fault-pairs", str(FAULT_PAIRS),
        "--fault-hang-s", str(HANG_S),
        "--breaker-threshold", "3",
        "--breaker-window", "120",
        "--breaker-cooldown", "600",
    )
    try:
        neighbour_response = {}

        def neighbour():
            with ServeClient("127.0.0.1", port, timeout=300.0) as client:
                neighbour_response.update(client.join(**NEIGHBOUR))

        # The deadline-free neighbour stalls on its own hang pair and
        # then survives the stalled query's pool abandonment.
        rider = threading.Thread(target=neighbour, daemon=True)
        rider.start()

        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            started = time.monotonic()
            stalled = client.join(deadline_s=DEADLINE_S, **STALLED)
            elapsed = time.monotonic() - started
            assert not stalled.get("ok"), stalled
            assert stalled["error"] == "deadline_exceeded", stalled
            assert stalled["completed_pairs"] + stalled["pending_pairs"] \
                == FAULT_PAIRS, stalled
            assert elapsed < DEADLINE_S + DEADLINE_GRACE_S, (
                f"typed reject took {elapsed:.2f}s against a "
                f"{DEADLINE_S}s deadline"
            )
            print(f"  deadline reject in {elapsed:.2f}s "
                  f"({stalled['completed_pairs']} pairs committed)")

            rider.join(timeout=120.0)
            assert not rider.is_alive(), "neighbour query never finished"
            assert neighbour_response.get("ok"), neighbour_response
            assert neighbour_response["result_sha256"] \
                == baselines["neighbour"], "neighbour digest diverged"
            print("  concurrent neighbour digest-identical "
                  f"(source={neighbour_response['source']})")

            # The CLI's --timeout maps to deadline_s: against the still
            # pool-backed (and still stalling) server it must exit 1 on
            # the typed reject.  Fresh scale so the cache cannot answer.
            cli = subprocess.run(
                [
                    sys.executable, "-m", "repro", "query",
                    "--port", str(port), "--timeout", str(DEADLINE_S),
                    "--dataset", "road_hydro", "--scale", "0.005",
                    "--workers", str(WORKERS),
                ],
                capture_output=True, text=True, timeout=120,
            )
            assert cli.returncode == 1, (
                cli.returncode, cli.stdout, cli.stderr,
            )
            cli_response = json.loads(cli.stdout)
            assert cli_response["error"] == "deadline_exceeded", cli_response
            print("  CLI --timeout surfaced the typed reject (exit 1)")

            # Third stalled query: third pool retirement, breaker opens.
            second = client.join(deadline_s=DEADLINE_S, **SECOND)
            assert not second.get("ok"), second
            assert second["error"] == "deadline_exceeded", second

            stats = client.stats()["stats"]
            assert stats["breaker"]["state"] == "open", stats["breaker"]
            assert stats["breaker"]["trips"] == 1, stats["breaker"]

            # Shed queries answer degraded and byte-identical — including
            # the formerly stalled spec (worker faults never fire on the
            # serial path).
            for key, fields in (("second", SECOND), ("stalled", STALLED)):
                shed = client.join(**fields)
                assert shed.get("ok"), shed
                assert shed["source"] == "degraded", shed
                assert shed["result_sha256"] == baselines[key], (
                    f"degraded digest diverged for {key}"
                )
            print("  breaker open; degraded answers digest-identical")

        with ServeClient("127.0.0.1", port) as client:
            stats = client.stats()["stats"]
        assert stats["outcomes"]["deadline_exceeded"] >= 3, stats["outcomes"]
        assert stats["outcomes"]["degraded"] >= 2, stats["outcomes"]
        assert stats["duplicates_dropped"] == 0, stats
    finally:
        if proc.poll() is None:
            output = drain(proc)
        else:
            output, _ = proc.communicate()
            raise AssertionError(f"server died early:\n{output}")

    assert "deadline-exceeded" in output, output

    # The per-query journal of a stalled query renders the deadline
    # line; the service journal carries the breaker transition.  (The
    # concurrent neighbour races the stalled query for sequence numbers,
    # so find the deadlined journal instead of hardcoding one.)
    deadlined = [
        qdir for qdir in sorted(out.glob("query-*"))
        if "deadline_exceeded" in journal_types(qdir / "journal.jsonl")
    ]
    assert deadlined, "no query journal recorded the deadline"
    report = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(deadlined[0])],
        capture_output=True, text=True, timeout=120,
    )
    assert report.returncode == 0, report.stderr
    assert "deadline exceeded" in report.stdout, report.stdout
    assert "breaker_transition" in journal_types(out / "serve.jsonl")
    print("  report renders the deadline; breaker transition journaled")


def phase_b(out: Path) -> None:
    print("== phase B: cache scrubber ==")
    plan = load_plan(
        "scrub_corruption", seed=FAULT_SEED, num_pairs=FAULT_PAIRS
    )
    assert plan.cache_corruption_ordinals, "plan lost its ordinals"
    proc, port = start_server(out, *ADMISSION, "--scrub-interval", "0.5")
    try:
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            first = client.join(**STALLED)
            assert first.get("ok") and first["source"] == "miss", first

            log = out / "cache" / first["run_id"] / "results.log"
            data = bytearray(log.read_bytes())
            offset = plan.cache_corruption_ordinals[0] % len(data)
            data[offset] ^= 0xFF
            log.write_bytes(bytes(data))
            print(f"  flipped byte {offset}/{len(data)} of {log.name}")

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                stats = client.stats()["stats"]
                if stats["scrub"]["quarantined"] >= 1:
                    break
                time.sleep(0.1)
            assert stats["scrub"]["quarantined"] == 1, stats["scrub"]
            assert (out / "cache" / "quarantine" / first["run_id"]).is_dir()
            print("  scrubber quarantined the corrupt entry")

            again = client.join(**STALLED)
            assert again.get("ok"), again
            assert again["source"] == "miss", again  # cold, not a lie
            assert again["result_sha256"] == first["result_sha256"], (
                "post-quarantine digest diverged"
            )
            stats = client.stats()["stats"]
            assert stats["duplicates_dropped"] == 0, stats
            assert stats["scrub"]["errors"] == 0, stats["scrub"]
        print("  re-query cold and digest-identical")
    finally:
        if proc.poll() is None:
            drain(proc)
        else:
            output, _ = proc.communicate()
            raise AssertionError(f"server died early:\n{output}")

    types = journal_types(out / "serve.jsonl")
    assert "cache_scrub" in types
    assert "cache_quarantine" in types
    print("  scrub + quarantine events journaled")


def main(out_dir: str = "serve-chaos-out") -> int:
    root = Path(out_dir)
    phase_a(root / "phase-a")
    phase_b(root / "phase-b")
    print("serve chaos ok: deadlines, breaker shed, scrub quarantine — "
          "all digests byte-identical, 0 duplicates dropped")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
