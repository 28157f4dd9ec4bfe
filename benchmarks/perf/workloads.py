"""The four benchmark workloads.

Each workload function takes a :class:`Run` and returns its metrics: every
end-to-end metric when ``run.trace`` is false, every per-layer metric when it
is true (layers a workload does not execute report 0).  See README.md for why
each workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.faults import CoordinatorKilledError
from repro.obs import MetricsRegistry, RunJournal, Tracer
from repro.parallel import ProcessPBSM, parallel_join
from repro.serve.cache import LOOKUP_HIT, ArtifactCache
from repro.serve.client import ServeClient
from repro.serve.query import QuerySpec, result_digest
from repro.serve.server import JoinServer

import replay

MIN_ROUNDS = 3
"""Timed rounds a window always takes, however slow they are."""

MIN_HITS = 100
"""Hits a traced ``serve_mix`` sends: p90 then has ten samples beyond it."""

MISS_PARTITIONS = range(9, 17)
WARM_PARTITIONS = range(24, 29)
UNTRACED_WARMS = 2
WARM_KILL_ORDINAL = 8
"""``serve_mix`` fingerprints: the cold miss uses the default partition count
(8), memoised misses 9..16, warm entries 24..28 (an untraced run, whose
metrics never see a warm resume, seeds and resumes only the first
``UNTRACED_WARMS``) — all distinct, all the same answer.  Warm entries are
seeded by killing a checkpointed coordinator after this durable ordinal, as
tests/serve/test_server.py does."""


CALIBRATION_LOOPS = 500_000
REFERENCE_PASS_S = 0.056
CALIBRATION_SHARE = 0.10
"""The host-speed kernel, the wall of one pass of it on the box this
benchmark was sized on, at its fastest, and the share of a run's timed steps
spent on passes.  A run's end-to-end seconds are its walls times
``REFERENCE_PASS_S / (mean pass wall in that run)``."""


def calibration_pass() -> float:
    """Wall of a fixed piece of interpreter work: floats and tuples made,
    compared and dropped.  Nothing survives an iteration, so the collector
    never runs and the size of the caller's heap does not matter."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        pair = (float(i), float(i + 1))
        if pair[0] < pair[1]:
            total += i & 7
    return time.perf_counter() - started


def fastest(walls: List[float]) -> float:
    """The fastest of a series of raw walls: what a traced run's probes
    report.  Disturbance on a shared host only ever adds time, so the
    fastest repeat is the one least touched by it."""
    return min(walls)


class Run:
    """One workload run: its arguments, scratch space, and operation ledger.

    An *operation* is one join, one CLI run or one query.  It fails on an
    exception, a non-``ok`` response, a wrong ``source``, a non-zero
    ``duplicates_dropped`` or a digest that differs from the first digest
    this run saw — every path to the answer must hash the same.
    """

    def __init__(self, *, seed, seconds, rounds, trace, scale_div, workers,
                 tmp_root, out_dir, src_dir, started):
        self.import_s = time.perf_counter() - started
        """From process entry to here: importing the program and this
        benchmark, the first part of every workload's set-up."""
        self.seed = seed
        self.seconds = seconds
        self.rounds = rounds
        self.trace = trace
        self.scale_div = scale_div
        self.workers = workers
        self.tmp_root = tmp_root
        self.out_dir = out_dir
        self.src_dir = src_dir
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digest: Optional[str] = None
        self.detail: Dict[str, object] = {"samples": {}}
        self.calibration: List[float] = []
        self._dirs = 0
        self.calibrate(self.import_s)

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp_root, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def op(self, label: str, fn: Callable[[], Optional[str]]) -> Optional[float]:
        """Time one operation; ``fn`` returns a failure reason or ``None``.
        Returns the wall seconds, or ``None`` if the operation failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            reason = fn()
        except Exception as exc:  # noqa: BLE001 — a failed op is a counted outcome
            reason = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")
            return None
        return wall

    def check_digest(self, digest: str) -> Optional[str]:
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return f"digest {digest[:12]} != {self.digest[:12]}"
        return None

    def calibrate(self, step_s: float) -> None:
        """Sample the host's speed after a timed step that took ``step_s``:
        passes in proportion, so that the samples lie as densely over the
        run as the work they are compared with."""
        passes = round(step_s * CALIBRATION_SHARE / REFERENCE_PASS_S)
        self.calibration.extend(
            calibration_pass() for _ in range(max(1, passes))
        )

    def at_reference_speed(self, walls: List[float]) -> float:
        """The mean of ``walls``, scaled to what it would read with the host
        at its reference speed.

        The host is a few vCPUs of a shared machine whose speed, for this
        interpreter, flips between 1x and about 0.7x with what the
        neighbours do — for a fraction of a second or for ten minutes on
        end, CPU time inflating with the wall and no steal time to show for
        it.  A raw wall therefore measures the neighbours as much as the
        program; total work over total calibration holds its level.
        README.md, "Host speed", has the numbers this rests on; ``detail``
        keeps every raw wall and pass."""
        speed = REFERENCE_PASS_S / statistics.fmean(self.calibration)
        return statistics.fmean(walls) * speed

    def setup_s(self, wall: float) -> float:
        """Set-up time: the imports plus the workload's own preparation,
        which took ``wall``."""
        self.detail["samples"]["setup"] = [round(self.import_s + wall, 4)]
        return self.at_reference_speed([self.import_s + wall])

    def timed_rounds(self, label: str, fn, *, rounds: Optional[int],
                     seconds: float = 0.0) -> List[float]:
        """Walls of the timed rounds of ``fn``: ``rounds`` of them, or as
        many as fit ``seconds`` (at least ``MIN_ROUNDS``), each followed by
        its calibration passes."""
        walls: List[float] = []
        window_start = time.perf_counter()
        while True:
            # Start every round from the same collector state: whether a
            # full collection over the input relations lands inside a round
            # is otherwise the largest round-to-round difference.
            gc.collect()
            wall = self.op(label, fn)
            if wall is None:
                break
            walls.append(wall)
            self.calibrate(wall)
            if rounds:
                if len(walls) >= rounds:
                    break
            elif len(walls) >= MIN_ROUNDS and (
                time.perf_counter() - window_start + wall > seconds
            ):
                break
        self.detail["samples"][label] = [round(w, 4) for w in walls]
        return walls


def peak_rss_mb() -> float:
    """Max RSS of this interpreter or any child it has reaped (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ---------------------------------------------------------------------- #
# tiger_join / sequoia_refine
# ---------------------------------------------------------------------- #


def join_workload(run: Run, name: str, dataset: str, scale: float,
                  predicate: str) -> Dict[str, float]:
    spec = QuerySpec(dataset=dataset, scale=scale / run.scale_div,
                     seed=run.seed, predicate=predicate, workers=run.workers)
    generate_start = time.perf_counter()
    tuples_r, tuples_s = spec.generate()
    generate_s = time.perf_counter() - generate_start
    run.calibrate(generate_s)
    ktuples = (len(tuples_r) + len(tuples_s)) / 1000.0
    run.detail["tuples"] = [len(tuples_r), len(tuples_s)]

    def join(backend: str, workers: int = run.workers, **extra):
        def once() -> Optional[str]:
            result = parallel_join(
                tuples_r, tuples_s, spec.predicate_fn, backend=backend,
                workers=workers, num_partitions=spec.partitions, **extra,
            )
            run.detail["results"] = len(result.pairs)
            if backend == "process":
                run.detail["candidates"] = sum(
                    t.candidates for t in result.tasks
                )
            if result.duplicates_dropped:
                return f"duplicates_dropped={result.duplicates_dropped}"
            return run.check_digest(result_digest(result.pairs))
        return once

    # Every probe but the untraced process rounds runs `--rounds` times (once
    # by default): the window belongs to the number the run is for, and a
    # traced run explains the untraced numbers, it does not replace them.
    rounds = run.rounds or 1
    # The first process round is cold (pool, page cache) and counts for
    # nothing but its digest: one more round than the other probes.
    process_walls = run.timed_rounds(
        "process", join("process"),
        rounds=rounds + 1 if run.trace or run.rounds else None,
        seconds=run.seconds,
    )[1:]
    # The serial backend (the path a tripped breaker degrades to) is the
    # reference digest the other paths must reproduce.
    serial_s = fastest(
        run.timed_rounds("serial", join("serial"), rounds=rounds)
    )
    if not run.trace:
        join_s = run.at_reference_speed(process_walls)
        return {
            "setup_s": run.setup_s(generate_s),
            "join_s": join_s,
            "join_ktuples_per_s": ktuples / join_s,
            "peak_rss_mb": peak_rss_mb(),
        }

    join_s = fastest(process_walls)
    one_worker_s = fastest(
        run.timed_rounds("process_w1", join("process", 1), rounds=rounds)
    )

    def checkpointed() -> Optional[str]:
        return join("process", checkpoint_dir=run.fresh_dir("ckpt"))()

    def observed() -> Optional[str]:
        journal = RunJournal(
            os.path.join(run.fresh_dir("obs"), "journal.jsonl")
        )
        try:
            return join("process", tracer=Tracer(), metrics=MetricsRegistry(),
                        journal=journal)()
        finally:
            journal.close()

    checkpoint_s = fastest(
        run.timed_rounds("checkpointed", checkpointed, rounds=rounds)
    )
    observed_s = fastest(
        run.timed_rounds("observed", observed, rounds=rounds)
    )

    recorder = replay.SpanRecorder(f"{name}/replay")
    staged: dict = {}

    def replayed() -> Optional[str]:
        staged.update(replay.staged_replay(
            tuples_r, tuples_s, spec.predicate_fn, workers=run.workers,
            spill_dir=run.fresh_dir("replay"), recorder=recorder,
        ))
        if staged["duplicates_dropped"]:
            return f"duplicates_dropped={staged['duplicates_dropped']}"
        if staged["candidates"] != run.detail["candidates"]:
            return (f"replay candidates {staged['candidates']} != engine "
                    f"{run.detail['candidates']}")
        return run.check_digest(staged["digest"])

    if run.op("replay", replayed) is None:
        raise RuntimeError(run.failures[-1])
    recorder.write(os.path.join(run.out_dir, f"trace-{name}.jsonl"))
    layer_s = staged["layer_s"]
    run.detail["replay_share"] = {
        stage: layer_s.get(stage, 0.0) / staged["engine_sum_s"]
        for stage in replay.ENGINE_STAGES
    }

    return {
        "data.generate_s": generate_s,
        "data.ktuples_per_s": ktuples / generate_s,
        "storage.tuples.serialize_s": layer_s["storage.tuples.serialize"],
        "storage.tuples.deserialize_s": layer_s["storage.tuples.deserialize"],
        "storage.tuples.bytes": staged["tuple_bytes"],
        "core.partition.assign_s": layer_s["core.partition.assign"],
        "core.partition.replication": staged["replication"],
        "core.partition.cov": staged["cov"],
        "core.partition.lpt_speedup": staged["lpt_speedup"],
        "parallel.tasks.spill_write_s": layer_s["parallel.tasks.spill_write"],
        "parallel.tasks.spill_bytes": staged["spill_bytes"],
        "parallel.tasks.spill_bytes_per_input_byte":
            staged["spill_bytes"] / staged["tuple_bytes"],
        "parallel.tasks.read_kp_s": layer_s["parallel.tasks.read_kp"],
        "parallel.tasks.read_tuples_s": layer_s["parallel.tasks.read_tuples"],
        "parallel.tasks.decode_useful_ratio": staged["decode_useful_ratio"],
        "core.pbsm.sweep_s": layer_s["core.pbsm.sweep"],
        "core.pbsm.candidates": staged["candidates"],
        "core.refine.refine_s": layer_s["core.refine.refine"],
        "core.refine.results": staged["results"],
        "core.refine.true_hit_ratio":
            staged["results"] / max(1, staged["candidates"]),
        "core.refine.merge_s": layer_s["core.refine.merge"],
        "serve.query.digest_s": layer_s["serve.query.digest"],
        "runtime.gc_s": layer_s.get("runtime.gc", 0.0),
        "parallel.serial.join_s": serial_s,
        "parallel.process.overhead_s": one_worker_s - staged["engine_sum_s"],
        # A time-sliced w=2 run on one core says nothing about scaling.
        "parallel.process.scaling":
            one_worker_s / join_s if run.workers >= 2 else 0.0,
        "checkpoint.overhead_s": checkpoint_s - join_s,
        "obs.overhead_frac": observed_s / join_s - 1.0,
        "trace.coverage": staged["engine_sum_s"] / one_worker_s,
    }


def tiger_join(run: Run) -> Dict[str, float]:
    return join_workload(run, "tiger_join", "road_hydro", 0.1, "intersects")


def sequoia_refine(run: Run) -> Dict[str, float]:
    return join_workload(
        run, "sequoia_refine", "landuse_island", 0.2, "contains"
    )


# ---------------------------------------------------------------------- #
# serve_mix
# ---------------------------------------------------------------------- #


def serve_mix(run: Run) -> Dict[str, float]:
    base = dict(dataset="road_hydro", scale=0.05 / run.scale_div,
                seed=run.seed, predicate="intersects", workers=run.workers)
    spec = QuerySpec(**base)
    misses = list(MISS_PARTITIONS)[: run.rounds or None]
    warms = list(WARM_PARTITIONS)[
        : run.rounds or (None if run.trace else UNTRACED_WARMS)
    ]

    setup_start = time.perf_counter()
    tuples_r, tuples_s = spec.generate()
    generate_s = time.perf_counter() - setup_start
    ktuples = (len(tuples_r) + len(tuples_s)) / 1000.0
    run.detail["tuples"] = [len(tuples_r), len(tuples_s)]
    cache_dir = run.fresh_dir("cache")
    for partitions in warms:
        engine = ProcessPBSM(
            run.workers, num_partitions=partitions, checkpoint_dir=cache_dir,
            kill_coordinator_after=WARM_KILL_ORDINAL,
        )
        try:
            engine.run(tuples_r, tuples_s, spec.predicate_fn)
        except CoordinatorKilledError:
            continue
        raise RuntimeError(
            f"warm seed with {partitions} partitions was not interrupted"
        )
    server = JoinServer(cache_dir, run.fresh_dir("serve-out"),
                        workers=run.workers)
    host, port = server.start()
    latencies: Dict[str, List[float]] = defaultdict(list)
    try:
        with ServeClient(host, port) as client:
            setup_wall = time.perf_counter() - setup_start
            run.calibrate(setup_wall)

            def query(phase: str, source: str, partitions: int, **extra):
                def once() -> Optional[str]:
                    response = client.join(
                        num_partitions=partitions, **base, **extra
                    )
                    if not response.get("ok"):
                        return f"not ok: {response.get('error')}"
                    if response["source"] != source:
                        return f"source {response['source']!r}, not {source!r}"
                    run.detail["results"] = response["result_count"]
                    return run.check_digest(response["result_sha256"])
                wall = run.op(f"{phase}[{partitions}]", once)
                if wall is not None:
                    latencies[phase].append(wall)
                return wall

            # The server shares this interpreter's heap; engine-running
            # queries start from a collected one, like every timed round.
            for phase, source, partitions in (
                [("miss_cold", "miss", 0)]
                + [("miss", "miss", p) for p in misses]
                + [("warm", "warm", p) for p in warms]
            ):
                gc.collect()
                run.calibrate(query(phase, source, partitions) or 0.0)
            # An untraced run hits every entry once — each must replay to
            # the one digest; the sample the hit percentiles need would add
            # a fifth to a run whose end-to-end metrics never see a hit.
            entries = [0] + misses + warms
            for sent in range(MIN_HITS if run.trace else len(entries)):
                query("hit", "hit", entries[sent % len(entries)])
            if run.trace:
                for i in range(20):
                    query("hit_pairs", "hit", entries[i % len(entries)],
                          include_pairs=True)

                def ping() -> Optional[str]:
                    return None if client.ping().get("ok") else "ping not ok"
                latencies["ping"] = [
                    w for w in (run.op("ping", ping) for _ in range(200))
                    if w is not None
                ]
    finally:
        server.shutdown(drain=True)
    run.detail["samples"].update(
        (phase, len(walls) if phase in ("hit", "hit_pairs", "ping")
         else [round(w, 4) for w in walls])
        for phase, walls in latencies.items()
    )

    reference: dict = {}

    def serial_reference() -> Optional[str]:
        result = parallel_join(tuples_r, tuples_s, spec.predicate_fn,
                               backend="serial")
        reference["pairs"] = result.pairs
        return run.check_digest(result_digest(result.pairs))

    serial_s = fastest(run.timed_rounds(
        "serial", serial_reference, rounds=run.rounds or 1
    ))
    if not run.trace:
        miss_s = run.at_reference_speed(latencies["miss"])
        return {
            "setup_s": run.setup_s(setup_wall),
            "join_s": miss_s,
            "join_ktuples_per_s": ktuples / miss_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    miss_s = fastest(latencies["miss"])

    def probe(fn, repeats: int = 5) -> float:
        walls = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)

    cache = ArtifactCache(cache_dir)
    fingerprint = spec.fingerprint(tuples_r, tuples_s)
    if cache.lookup(fingerprint) != LOOKUP_HIT:
        raise RuntimeError("the cold miss left no complete cache entry")
    run.op("cache_replay", lambda: run.check_digest(
        result_digest(cache.replay(fingerprint))
    ))
    hits = sorted(latencies["hit"])
    hit_p50_s = statistics.median(hits)
    miss_cold_s = statistics.median(latencies["miss_cold"])
    return {
        "data.generate_s": generate_s,
        "data.ktuples_per_s": ktuples / generate_s,
        "parallel.serial.join_s": serial_s,
        "serve.miss_cold_s": miss_cold_s,
        "serve.server.materialise_s": miss_cold_s - miss_s,
        "serve.warm_p50_s": statistics.median(latencies["warm"]),
        "serve.hit_p50_ms": hit_p50_s * 1000.0,
        "serve.hit_p90_ms": hits[int(0.9 * len(hits)) - 1] * 1000.0,
        "serve.query.fingerprint_s":
            probe(lambda: spec.fingerprint(tuples_r, tuples_s)),
        "serve.cache.lookup_s": probe(lambda: cache.lookup(fingerprint)),
        "serve.cache.replay_s": probe(lambda: cache.replay(fingerprint)),
        "serve.query.digest_s":
            probe(lambda: result_digest(reference["pairs"])),
        "serve.wire.ping_ms": statistics.median(latencies["ping"]) * 1000.0,
        "serve.wire.pairs_encode_ms":
            (statistics.median(latencies["hit_pairs"]) - hit_p50_s) * 1000.0,
        "serve.cache.bytes_per_result":
            cache.bytes_total() / max(1, len(entries) * run.detail["results"]),
    }


# ---------------------------------------------------------------------- #
# cli_cold
# ---------------------------------------------------------------------- #


def cli_cold(run: Run) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=run.src_dir, TMPDIR=run.tmp_root)
    documents: List[dict] = []

    def import_probe() -> Optional[str]:
        subprocess.run([sys.executable, "-c", "import repro"], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        return None

    def cli(backend: str):
        def once() -> Optional[str]:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "parallel",
                 "--dataset", "road_hydro", "--scale", str(0.1 / run.scale_div),
                 "--seed", str(run.seed), "--backend", backend,
                 "--workers", str(run.workers), "--json"],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                return f"exit code {done.returncode}"
            document = json.loads(done.stdout)
            documents.append(document)
            run.detail["results"] = document["result_count"]
            if document["merge"]["duplicates_dropped"]:
                return "duplicates_dropped != 0"
            return run.check_digest(document["result_digest"])
        return once

    # Three import probes and one serial-backend run come before the first
    # timed run: they fill the page cache and bytecode cache a cold process
    # backend run would otherwise pay once per checkout, and the serial run
    # is the reference digest the process runs must reproduce.
    setup_start = time.perf_counter()
    import_s = fastest([
        w for w in (run.op("import", import_probe) for _ in range(3))
        if w is not None
    ])
    serial_s = run.op("serial[reference]", cli("serial"))
    if serial_s is None:
        raise RuntimeError(run.failures[-1])
    node = documents[0]["nodes"][0]
    ktuples = (node["tuples_r"] + node["tuples_s"]) / 1000.0
    run.detail["tuples"] = [node["tuples_r"], node["tuples_s"]]
    setup_wall = time.perf_counter() - setup_start
    run.calibrate(setup_wall)
    del documents[:]
    walls = run.timed_rounds(
        "process", cli("process"), rounds=run.rounds, seconds=run.seconds
    )
    if not run.trace:
        wall_s = run.at_reference_speed(walls)
        return {
            "setup_s": run.setup_s(setup_wall),
            "join_s": wall_s,
            "join_ktuples_per_s": ktuples / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    wall_s = fastest(walls)
    engine_s = fastest([d["wall_s"] for d in documents])
    return {
        "parallel.serial.join_s": serial_s,
        "cli.import_s": import_s,
        "cli.engine_wall_s": engine_s,
        "cli.other_s": wall_s - import_s - engine_s,
    }


# ---------------------------------------------------------------------- #

WORKLOADS = {
    "tiger_join": tiger_join,
    "sequoia_refine": sequoia_refine,
    "serve_mix": serve_mix,
    "cli_cold": cli_cold,
}
