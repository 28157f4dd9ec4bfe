"""Serving-tier throughput: open-loop arrivals against `repro serve`.

Starts an in-process :class:`repro.serve.JoinServer` (real TCP socket,
one shared worker pool, bounded admission) and fires a **zipf-skewed
query mix** at it with **open-loop exponential interarrivals** — every
query launches at its scheduled instant whether or not earlier ones
finished, which is what makes the admission bounds bite: when misses
pile up, late arrivals are *rejected* (``queue_full``), not silently
queued forever.

The mix and the arrival process are both seeded, so which query is hot,
which arrive back-to-back, and how many distinct joins exist are
deterministic; the latencies are measured wall-clock and are not.
``BENCH_serve_throughput.json`` therefore carries the deterministic
identity fields as top-level record values and quarantines every
measured number in ``notes`` with an explicit ``measured`` marker, the
same convention the speedup benchmarks use.

Asserted invariants:

* every completed response for the same query spec carries the same
  ``result_sha256`` — and it equals the digest of a one-shot
  ``parallel_join`` of that spec (served results are byte-identical to
  unserved ones);
* the cache works: hit rate > 0 and the client-observed **hit p50 is
  below the miss p50** (replaying a committed result log must beat
  running the join);
* admission accounting balances: admitted + rejected = offered.
"""

import math
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.bench.harness import RESULTS_DIR
from repro.obs.bench import wall_clock_record, write_bench_file
from repro.parallel import parallel_join
from repro.serve import (
    JoinServer,
    QuerySpec,
    ServeClient,
    outcome_block,
    result_digest,
)

N_QUERIES = 24
ARRIVAL_RATE_QPS = 3.0
MIX_SEED = 1996
ZIPF_S = 1.1
"""Zipf skew exponent for the query mix: rank r drawn ∝ 1/(r+1)^s."""

SERVER_WORKERS = 2
MAX_INFLIGHT = 2
MAX_QUEUE = 3
TELEMETRY_INTERVAL_S = 0.25
"""The live sampler runs during the bench so the record can carry its
sampling footprint (tick count, peak queue/inflight) — the series stay
on the wire op."""

QUERY_MIX = [
    {"dataset": "road_hydro", "scale": 0.008, "predicate": "intersects"},
    {"dataset": "road_hydro", "scale": 0.006, "predicate": "intersects"},
    {"dataset": "road_rail", "scale": 0.008, "predicate": "intersects"},
    {"dataset": "landuse_island", "scale": 0.004, "predicate": "contains"},
    {"dataset": "road_hydro", "scale": 0.004, "predicate": "intersects"},
    {"dataset": "road_rail", "scale": 0.006, "predicate": "intersects"},
]
"""Distinct joins, hottest-first; zipf rank 0 is the cache's best friend."""


def _zipf_rank(rng: random.Random, n: int) -> int:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    total = sum(weights)
    x = rng.random() * total
    for rank, w in enumerate(weights):
        x -= w
        if x <= 0:
            return rank
    return n - 1


def _percentile(samples, q):
    """Exact nearest-rank percentile of the measured samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def test_serve_throughput(benchmark):
    def run():
        tmp = Path(tempfile.mkdtemp(prefix="bench_serve_"))
        server = JoinServer(
            tmp / "cache",
            tmp / "out",
            workers=SERVER_WORKERS,
            max_inflight=MAX_INFLIGHT,
            max_queue=MAX_QUEUE,
            telemetry_interval_s=TELEMETRY_INTERVAL_S,
        )
        host, port = server.start()

        rng = random.Random(MIX_SEED)
        schedule = []
        clock = 0.0
        for _ in range(N_QUERIES):
            clock += rng.expovariate(ARRIVAL_RATE_QPS)
            schedule.append((clock, _zipf_rank(rng, len(QUERY_MIX))))

        responses = [None] * N_QUERIES
        epoch = time.perf_counter()

        def fire(i: int, offset: float, mix_rank: int) -> None:
            delay = offset - (time.perf_counter() - epoch)
            if delay > 0:
                time.sleep(delay)
            spec_fields = dict(QUERY_MIX[mix_rank], workers=SERVER_WORKERS)
            started = time.perf_counter()
            try:
                with ServeClient(host, port) as client:
                    response = client.join(**spec_fields)
            except (OSError, ValueError) as exc:
                response = {"ok": False, "error": "transport", "message": str(exc)}
            response["_mix_rank"] = mix_rank
            response["_client_latency_s"] = time.perf_counter() - started
            responses[i] = response

        threads = [
            threading.Thread(target=fire, args=(i, offset, rank), daemon=True)
            for i, (offset, rank) in enumerate(schedule)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total_s = time.perf_counter() - epoch

        # Backpressure phase: a simultaneous burst at a *cold* spec.  The
        # leader executes (~hundreds of ms), followers coalesce behind it
        # holding admission slots, so arrivals past max_inflight +
        # max_queue must be rejected with queue_full — the open loop
        # above may or may not queue deep enough; this provably does.
        burst_n = MAX_INFLIGHT + MAX_QUEUE + 4
        burst_spec = {
            "dataset": "road_rail", "scale": 0.01, "seed": 17,
            "workers": SERVER_WORKERS,
        }
        burst_responses = [None] * burst_n

        def burst_fire(i: int) -> None:
            try:
                with ServeClient(host, port) as client:
                    burst_responses[i] = client.join(**burst_spec)
            except (OSError, ValueError) as exc:
                burst_responses[i] = {"ok": False, "error": "transport",
                                      "message": str(exc)}

        burst_threads = [
            threading.Thread(target=burst_fire, args=(i,), daemon=True)
            for i in range(burst_n)
        ]
        for t in burst_threads:
            t.start()
        for t in burst_threads:
            t.join()
        burst_rejected = [
            r for r in burst_responses if r and not r.get("ok")
        ]
        assert burst_rejected, (
            f"a burst of {burst_n} simultaneous queries against "
            f"{MAX_INFLIGHT}+{MAX_QUEUE} admission slots must reject some"
        )
        assert all(r["error"] == "queue_full" for r in burst_rejected)

        stats = server.stats()
        telemetry = server.telemetry()
        server.shutdown()

        series = telemetry["series"]

        def _series_peak(name):
            entry = series.get(name)
            return int(entry["max"]) if entry and entry["max"] is not None else 0

        telemetry_block = {
            "ticks": telemetry["sampling"]["ticks"],
            "interval_s": TELEMETRY_INTERVAL_S,
            "sampled_series": len(series),
            "slow_log_entries": len(telemetry["slow_log"]),
            "queue_depth_max": _series_peak("queue_depth"),
            "inflight_max": _series_peak("inflight"),
        }

        completed = [r for r in responses if r and r.get("ok")]
        rejected = [r for r in responses if r and not r.get("ok")]
        assert completed, "no query survived admission — mix/rate mismatch"
        assert len(completed) + len(rejected) == N_QUERIES
        assert stats["admitted"] + stats["rejected"] == N_QUERIES + burst_n
        # A healthy bench run never trips the breaker, sheds, or dedups.
        assert stats["breaker"]["state"] == "closed"
        assert stats["outcomes"]["degraded"] == 0
        assert stats["outcomes"]["deadline_exceeded"] == 0
        assert stats["duplicates_dropped"] == 0

        # Byte-identity: served answers must match one-shot parallel runs,
        # and every response for the same spec must agree with itself.
        digests = {}
        for r in completed:
            digests.setdefault(r["_mix_rank"], set()).add(r["result_sha256"])
        for rank, seen in sorted(digests.items()):
            assert len(seen) == 1, f"mix rank {rank} served {len(seen)} digests"
            spec = QuerySpec(workers=SERVER_WORKERS, **QUERY_MIX[rank])
            tuples_r, tuples_s = spec.generate()
            one_shot = parallel_join(
                tuples_r, tuples_s, spec.predicate_fn,
                backend="process", workers=SERVER_WORKERS,
            )
            assert result_digest(one_shot.pairs) == next(iter(seen)), (
                f"served result for mix rank {rank} != one-shot parallel run"
            )

        miss_lat = [
            r["_client_latency_s"] for r in completed
            if r["source"] in ("miss", "warm")
        ]
        hit_lat = [
            r["_client_latency_s"] for r in completed
            if r["source"] in ("hit", "coalesced")
        ]
        assert hit_lat, "zipf mix produced no cache hits"
        hit_rate = len(hit_lat) / len(completed)
        hit_p50 = _percentile(hit_lat, 0.50)
        miss_p50 = _percentile(miss_lat, 0.50)
        assert miss_p50 is not None
        assert hit_p50 < miss_p50, (
            f"cache replay (p50 {hit_p50:.4f}s) should beat execution "
            f"(p50 {miss_p50:.4f}s)"
        )

        all_lat = [r["_client_latency_s"] for r in completed]
        table = ResultTable(
            f"Serve throughput ({N_QUERIES} offered @ {ARRIVAL_RATE_QPS}/s, "
            f"{len(QUERY_MIX)} distinct, zipf s={ZIPF_S})",
            ["class", "n", "p50 s", "p95 s", "p99 s"],
        )
        for label, lat in (
            ("all", all_lat), ("miss", miss_lat), ("hit", hit_lat)
        ):
            table.add(
                label, len(lat),
                _percentile(lat, 0.50) or 0.0,
                _percentile(lat, 0.95) or 0.0,
                _percentile(lat, 0.99) or 0.0,
            )
        table.emit("serve_throughput.txt")

        hot = QUERY_MIX[0]

        def record(algorithm, lat, result_count):
            return wall_clock_record(
                algorithm,
                scale=hot["scale"],
                total_s=total_s,
                cpu_s=total_s,
                result_count=result_count,
                telemetry=telemetry_block,
                notes={
                    "measured": [
                        "total_s", "cpu_s", "latency_p50_s",
                        "latency_p95_s", "latency_p99_s", "throughput_qps",
                    ],
                    "offered": N_QUERIES,
                    "completed": len(completed),
                    "rejected": len(rejected),
                    "reject_reasons": sorted(
                        {r.get("error", "?") for r in rejected}
                    ),
                    "burst_offered": burst_n,
                    "burst_rejected": len(burst_rejected),
                    "class_n": len(lat),
                    "cache_hit_rate": round(hit_rate, 4),
                    "latency_p50_s": round(_percentile(lat, 0.50) or 0.0, 6),
                    "latency_p95_s": round(_percentile(lat, 0.95) or 0.0, 6),
                    "latency_p99_s": round(_percentile(lat, 0.99) or 0.0, 6),
                    "throughput_qps": round(len(completed) / total_s, 4),
                    "distinct_queries": len(QUERY_MIX),
                    "zipf_s": ZIPF_S,
                    "arrival_rate_qps": ARRIVAL_RATE_QPS,
                    "mix_seed": MIX_SEED,
                    "server_workers": SERVER_WORKERS,
                    "max_inflight": MAX_INFLIGHT,
                    "max_queue": MAX_QUEUE,
                    # The canonical resilience summary — one formatter
                    # shared with the server's stats and telemetry ops.
                    **outcome_block(stats),
                },
            )

        hot_count = next(
            (r["result_count"] for r in completed if r["_mix_rank"] == 0), 0
        )
        records = [
            record("PBSM-serve", all_lat, hot_count),
            record("PBSM-serve-miss", miss_lat, hot_count),
            record("PBSM-serve-hit", hit_lat, hot_count),
        ]
        write_bench_file("serve_throughput", records, RESULTS_DIR)
        return stats, hit_rate, hit_p50, miss_p50

    stats, hit_rate, hit_p50, miss_p50 = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert hit_rate > 0
    assert hit_p50 < miss_p50
