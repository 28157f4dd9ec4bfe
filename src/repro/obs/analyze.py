"""Post-run analysis: turn a run directory into a diagnosis.

``python -m repro report <run-dir>`` lands here.  The input is the flight
recorder's artifacts — ``journal.jsonl`` (required) and ``trace.jsonl``
(optional, adds measured timings) — and the output is a
:class:`RunAnalysis` plus a markdown rendering with:

* **partition skew** — per-side coefficient of variation over the sealed
  per-partition tuple counts (the statistic behind the paper's Figure 4),
  plus candidate/result skew across executed pairs;
* **critical path** — a deterministic replay of the LPT schedule over the
  recorded cost seeds: tasks are assigned, in submission order, to the
  earliest-free worker lane; the lane with the largest total cost is the
  schedule's critical path;
* **straggler ranking** — pairs ranked by deterministic weight (cost
  seed, then candidates), with measured wall-clock ranking available
  behind ``timings=True``;
* **fault & retry timeline** — the planned-fault ledger (every
  ``fault_injected`` event, deduplicated and sorted), quarantines,
  degraded rebuilds, and checkpoint commit accounting.

**Determinism contract.**  ``render_report`` with ``timings=False`` (the
default) prints *only* quantities that are pure functions of the inputs,
the seed, and the fault plan: pair indices, cost seeds, tuple/candidate/
result counts, CoV statistics, fault kinds and attempt numbers,
checkpoint commit counts.  Two runs of the same seeded workload produce
byte-identical report bodies — the chaos acceptance test asserts exactly
that.  Wall-clock seconds, retry/respawn tallies (collateral retries hit
whatever happened to be in flight when a pool died), heartbeat and
sampler counts are all *measured*, so they live in the ``--timings``
sections only.

Replayed pairs (a resume adopting committed results) are excluded from
skew, straggler, and critical-path analysis: their work happened in a
previous run, and the journal marks them with ``task_replayed`` rather
than ``task_finished`` (their spans are likewise tagged ``replayed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .export import TRACE_FILENAME
from .journal import (
    EVENT_BREAKER,
    EVENT_CACHE_CORRUPT,
    EVENT_CACHE_HIT,
    EVENT_CACHE_QUARANTINE,
    EVENT_CACHE_SCRUB,
    EVENT_CHECKPOINT_COMMIT,
    EVENT_DEADLINE_EXCEEDED,
    EVENT_DEGRADED,
    EVENT_DISK_FULL_RECOVERED,
    EVENT_DISK_PRESSURE,
    EVENT_FAULT_INJECTED,
    EVENT_PARTITION_SEALED,
    EVENT_QUARANTINED,
    EVENT_QUERY_DONE,
    EVENT_QUERY_RECEIVED,
    EVENT_RETRY,
    EVENT_RUN_FINISHED,
    EVENT_RUN_STARTED,
    EVENT_SAMPLE,
    EVENT_SCHEDULE,
    EVENT_TASK_FINISHED,
    EVENT_TASK_REPLAYED,
    JOURNAL_FILENAME,
    journal_path,
    read_journal,
)
from .metrics import Histogram


STRAGGLER_TOP_N = 8
"""Rows shown in each straggler table."""


# --------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------- #


@dataclass
class SkewStats:
    """Distribution summary of one per-partition quantity.

    ``cov`` is the coefficient of variation (population stddev / mean) —
    the skew statistic the paper's Figure 4 discussion turns on: 0 means
    perfectly even partitions, values near or above 1 mean a few
    partitions dominate.
    """

    count: int = 0
    total: float = 0.0
    mean: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    cov: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SkewStats":
        # Imported here: storage -> obs -> core -> storage is a package cycle.
        from ..core.partition import coefficient_of_variation

        if not values:
            return cls()
        return cls(
            count=len(values),
            total=float(sum(values)),
            mean=sum(values) / len(values),
            minimum=float(min(values)),
            maximum=float(max(values)),
            cov=coefficient_of_variation(values),
        )


@dataclass
class PairStats:
    """One executed partition pair, as the journal recorded it."""

    pair: int
    cost: int = 0
    """The LPT seed (key-pointers in the pair) — known pre-execution,
    deterministic, and the default straggler-ranking weight."""
    candidates: int = 0
    results: int = 0
    wall_s: Optional[float] = None
    """Measured seconds of the successful attempt (timings sections only)."""
    replayed: bool = False
    degraded: bool = False


@dataclass
class LaneReplay:
    """The deterministic LPT schedule replay over cost seeds."""

    workers: int = 1
    lanes: List[List[int]] = field(default_factory=list)
    lane_costs: List[int] = field(default_factory=list)
    critical_lane: int = 0
    makespan_cost: int = 0
    total_cost: int = 0

    @property
    def critical_pairs(self) -> List[int]:
        if not self.lanes:
            return []
        return self.lanes[self.critical_lane]

    @property
    def balance(self) -> float:
        """total/(workers*makespan): 1.0 is a perfectly packed schedule."""
        denominator = self.workers * self.makespan_cost
        return self.total_cost / denominator if denominator else 1.0


@dataclass
class RunAnalysis:
    """Everything ``repro report`` knows about one run."""

    run_dir: str = ""
    backend: str = ""
    workers: int = 0
    partitions: int = 0
    tuples_r: int = 0
    tuples_s: int = 0
    resuming: bool = False
    results: int = 0
    partition_skew: Dict[str, SkewStats] = field(default_factory=dict)
    pairs: Dict[int, PairStats] = field(default_factory=dict)
    schedule: List[dict] = field(default_factory=list)
    replay: LaneReplay = field(default_factory=LaneReplay)
    fault_ledger: List[dict] = field(default_factory=list)
    quarantined_pairs: List[int] = field(default_factory=list)
    degraded_pairs: List[int] = field(default_factory=list)
    replayed_pairs: List[int] = field(default_factory=list)
    checkpoint_commits: Dict[str, int] = field(default_factory=dict)
    disk_budget: Optional[int] = None
    """The run's disk-budget ceiling (``run_started``); None when the run
    was unconstrained or predates storage governance."""
    disk_pressure: List[dict] = field(default_factory=list)
    """``disk_pressure`` episodes, deterministic fields only (category,
    side, partition, kind, query) — byte counts stay out of the report
    body because directory sizes carry measured wall_s frames."""
    disk_recoveries: List[dict] = field(default_factory=list)
    """``disk_full_recovered`` events: the recovery action that worked."""
    serve: Dict[str, object] = field(default_factory=dict)
    """Serving-tier context when the journal came from a served query
    (``repro serve``): query id, cache disposition, coalescing."""
    phase_breakdown: List[dict] = field(default_factory=list)
    """Per-phase cpu/io sums from ``trace.jsonl`` (measured; timings only)."""
    event_counts: Dict[str, int] = field(default_factory=dict)
    """Raw journal tallies (measured multiplicities; timings only)."""
    cost_hist: Histogram = field(
        default_factory=lambda: Histogram("analyze.cost")
    )
    candidate_hist: Histogram = field(
        default_factory=lambda: Histogram("analyze.candidates")
    )
    backoff_hist: Histogram = field(
        default_factory=lambda: Histogram(
            "analyze.backoff_s",
            (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        )
    )

    @property
    def executed_pairs(self) -> List[PairStats]:
        """Pairs this run actually merged, replayed adoptions excluded."""
        return [
            stats
            for _, stats in sorted(self.pairs.items())
            if not stats.replayed
        ]

    def stragglers_by_cost(self, top: int = STRAGGLER_TOP_N) -> List[PairStats]:
        """Deterministic ranking: heaviest cost seed first, ties by pair."""
        ranked = sorted(
            self.executed_pairs, key=lambda p: (-p.cost, p.pair)
        )
        return ranked[:top]

    def stragglers_by_wall(self, top: int = STRAGGLER_TOP_N) -> List[PairStats]:
        """Measured ranking (timings sections only)."""
        timed = [p for p in self.executed_pairs if p.wall_s is not None]
        ranked = sorted(timed, key=lambda p: (-(p.wall_s or 0.0), p.pair))
        return ranked[:top]

    def to_dict(self) -> dict:
        """JSON shape behind ``repro report --json``.

        Carries everything the markdown shows (including the measured
        quantities); the byte-determinism contract applies to the rendered
        report body only, not to this dump.
        """

        def skew(s: SkewStats) -> dict:
            return {
                "count": s.count,
                "total": s.total,
                "mean": s.mean,
                "min": s.minimum,
                "max": s.maximum,
                "cov": s.cov,
            }

        return {
            "run_dir": self.run_dir,
            "backend": self.backend,
            "workers": self.workers,
            "partitions": self.partitions,
            "tuples_r": self.tuples_r,
            "tuples_s": self.tuples_s,
            "resuming": self.resuming,
            "results": self.results,
            "partition_skew": {
                side: skew(s) for side, s in sorted(self.partition_skew.items())
            },
            "pairs": [
                {
                    "pair": p.pair,
                    "cost": p.cost,
                    "candidates": p.candidates,
                    "results": p.results,
                    "wall_s": p.wall_s,
                    "replayed": p.replayed,
                    "degraded": p.degraded,
                }
                for _, p in sorted(self.pairs.items())
            ],
            "critical_path": {
                "workers": self.replay.workers,
                "makespan_cost": self.replay.makespan_cost,
                "total_cost": self.replay.total_cost,
                "balance": self.replay.balance,
                "critical_lane": self.replay.critical_lane,
                "critical_pairs": self.replay.critical_pairs,
                "lane_costs": self.replay.lane_costs,
            },
            "fault_ledger": self.fault_ledger,
            "quarantined_pairs": self.quarantined_pairs,
            "degraded_pairs": self.degraded_pairs,
            "replayed_pairs": self.replayed_pairs,
            "checkpoint_commits": self.checkpoint_commits,
            "disk_budget": self.disk_budget,
            "disk_pressure": self.disk_pressure,
            "disk_recoveries": self.disk_recoveries,
            "serve": self.serve,
            "phase_breakdown": self.phase_breakdown,
            "event_counts": self.event_counts,
        }


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #


def lpt_replay(order: Sequence[dict], workers: int) -> LaneReplay:
    """Replay the recorded LPT submission order onto ``workers`` lanes.

    Each task goes to the lane with the smallest accumulated cost (ties:
    lowest lane index), mirroring what the executor's shared queue does
    when every task costs exactly its seed.  The heaviest lane is the
    schedule's deterministic critical path; its total is the cost-model
    makespan a perfectly cost-proportional run would achieve.
    """
    workers = max(1, workers)
    lane_costs = [0] * workers
    lanes: List[List[int]] = [[] for _ in range(workers)]
    for item in order:
        lane = min(range(workers), key=lambda i: lane_costs[i])
        lane_costs[lane] += int(item["cost"])
        lanes[lane].append(int(item["pair"]))
    critical = max(range(workers), key=lambda i: lane_costs[i])
    return LaneReplay(
        workers=workers,
        lanes=lanes,
        lane_costs=lane_costs,
        critical_lane=critical,
        makespan_cost=lane_costs[critical],
        total_cost=sum(lane_costs),
    )


def _fault_key(record: dict) -> Tuple:
    return (
        record.get("pair", -1) if record.get("pair") is not None else -1,
        str(record.get("kind", "")),
        record.get("attempt", -1) if record.get("attempt") is not None else -1,
        str(record.get("side", "")),
        record.get("ordinal", -1) if record.get("ordinal") is not None else -1,
    )


def analyze_events(
    records: Sequence[dict], run_dir: str = ""
) -> RunAnalysis:
    """Build a :class:`RunAnalysis` from journal records already in memory."""
    analysis = RunAnalysis(run_dir=run_dir)
    ledger: Dict[Tuple, dict] = {}
    for record in records:
        kind = record.get("type")
        analysis.event_counts[kind] = analysis.event_counts.get(kind, 0) + 1
        if kind == EVENT_RUN_STARTED:
            analysis.backend = str(record.get("backend", ""))
            analysis.workers = int(record.get("workers", 0))
            analysis.partitions = int(record.get("partitions", 0))
            analysis.tuples_r = int(record.get("tuples_r", 0))
            analysis.tuples_s = int(record.get("tuples_s", 0))
            analysis.resuming = bool(record.get("resuming", False))
            if record.get("disk_budget") is not None:
                analysis.disk_budget = int(record["disk_budget"])
        elif kind == EVENT_RUN_FINISHED:
            analysis.results = int(record.get("results", 0))
        elif kind == EVENT_PARTITION_SEALED:
            side = str(record.get("side", "?"))
            counts = [int(c) for c in record.get("counts", [])]
            analysis.partition_skew[side] = SkewStats.from_values(counts)
        elif kind == EVENT_SCHEDULE:
            analysis.schedule = list(record.get("order", []))
            for item in analysis.schedule:
                pair = int(item["pair"])
                stats = analysis.pairs.setdefault(pair, PairStats(pair))
                stats.cost = int(item["cost"])
                analysis.cost_hist.observe(stats.cost)
        elif kind == EVENT_TASK_FINISHED:
            pair = int(record["pair"])
            stats = analysis.pairs.setdefault(pair, PairStats(pair))
            stats.candidates = int(record.get("candidates", 0))
            stats.results = int(record.get("results", 0))
            if record.get("wall_s") is not None:
                stats.wall_s = float(record["wall_s"])
        elif kind == EVENT_TASK_REPLAYED:
            pair = int(record["pair"])
            stats = analysis.pairs.setdefault(pair, PairStats(pair))
            stats.candidates = int(record.get("candidates", 0))
            stats.results = int(record.get("results", 0))
            stats.replayed = True
            analysis.replayed_pairs.append(pair)
        elif kind == EVENT_FAULT_INJECTED:
            # Deduplicate: an uncharged redispatch can re-fire a planned
            # (pair, attempt) injection, but the ledger records the planned
            # point once — multiplicity is scheduling noise, identity is not.
            ledger.setdefault(_fault_key(record), record)
        elif kind == EVENT_QUARANTINED:
            analysis.quarantined_pairs.append(int(record["pair"]))
        elif kind == EVENT_DEGRADED:
            pair = int(record["pair"])
            analysis.degraded_pairs.append(pair)
            stats = analysis.pairs.setdefault(pair, PairStats(pair))
            stats.degraded = True
        elif kind == EVENT_CHECKPOINT_COMMIT:
            commit_kind = str(record.get("kind", "?"))
            analysis.checkpoint_commits[commit_kind] = (
                analysis.checkpoint_commits.get(commit_kind, 0) + 1
            )
        elif kind == EVENT_DISK_PRESSURE:
            analysis.disk_pressure.append(
                {
                    key: record[key]
                    for key in (
                        "category", "side", "partition", "kind", "query",
                    )
                    if record.get(key) is not None
                }
            )
        elif kind == EVENT_DISK_FULL_RECOVERED:
            analysis.disk_recoveries.append(
                {
                    key: record[key]
                    for key in (
                        "category", "side", "partition", "kind", "action",
                    )
                    if record.get(key) is not None
                }
            )
        elif kind == EVENT_RETRY:
            if record.get("backoff_s") is not None:
                analysis.backoff_hist.observe(float(record["backoff_s"]))
        elif kind == EVENT_QUERY_RECEIVED:
            # A serving-tier journal (repro serve): the query's identity
            # frames everything below it, cache hits included.
            analysis.serve["query"] = record.get("query")
            for key in ("dataset", "scale", "seed", "predicate"):
                if key in record:
                    analysis.serve[key] = record[key]
        elif kind == EVENT_CACHE_HIT:
            analysis.serve["cache_hit"] = True
            analysis.serve["coalesced"] = bool(record.get("coalesced", False))
        elif kind == EVENT_QUERY_DONE:
            analysis.serve["source"] = record.get("source")
            analysis.serve["run_id"] = record.get("run_id")
            if not analysis.results:
                # A pure cache hit never emits run_finished; the served
                # result count is the only total there is.
                analysis.results = int(record.get("result_count", 0) or 0)
        elif kind == EVENT_DEADLINE_EXCEEDED:
            analysis.serve["deadline_exceeded"] = {
                "deadline_s": record.get("deadline_s"),
                "queued": record.get("queued"),
                "completed": record.get("completed"),
            }
        elif kind == EVENT_BREAKER:
            analysis.serve.setdefault("breaker_transitions", []).append(
                f"{record.get('from_state')}->{record.get('to_state')}"
            )
        elif kind == EVENT_CACHE_CORRUPT:
            analysis.serve.setdefault("cache_corrupt", []).append(
                {
                    "run_id": record.get("run_id"),
                    "reason": record.get("reason"),
                }
            )
        elif kind == EVENT_CACHE_QUARANTINE:
            analysis.serve.setdefault("quarantined_entries", []).append(
                {
                    "run_id": record.get("run_id"),
                    "reason": record.get("reason"),
                }
            )
        elif kind == EVENT_CACHE_SCRUB:
            totals = analysis.serve.setdefault(
                "scrub", {"passes": 0, "scanned": 0, "repaired": 0,
                          "quarantined": 0, "evicted": 0}
            )
            totals["passes"] += 1
            for key in ("scanned", "repaired", "quarantined", "evicted"):
                totals[key] += int(record.get(key, 0) or 0)
        elif kind == EVENT_SAMPLE and record.get("kind") == "telemetry":
            # The serve tier's telemetry sampler: summarize the run's
            # live load shape (the per-tick series live on the wire op,
            # not in the journal — only the load peaks are recorded).
            telemetry = analysis.serve.setdefault(
                "telemetry",
                {"ticks": 0, "queue_depth_max": 0, "inflight_max": 0},
            )
            telemetry["ticks"] += 1
            telemetry["queue_depth_max"] = max(
                telemetry["queue_depth_max"],
                int(record.get("queued", 0) or 0),
            )
            telemetry["inflight_max"] = max(
                telemetry["inflight_max"],
                int(record.get("inflight", 0) or 0),
            )
    analysis.fault_ledger = [ledger[key] for key in sorted(ledger)]
    analysis.quarantined_pairs = sorted(set(analysis.quarantined_pairs))
    analysis.degraded_pairs = sorted(set(analysis.degraded_pairs))
    analysis.replayed_pairs = sorted(set(analysis.replayed_pairs))
    for stats in analysis.executed_pairs:
        analysis.candidate_hist.observe(stats.candidates)
    analysis.replay = lpt_replay(
        analysis.schedule, analysis.workers or 1
    )
    return analysis


def _load_phase_breakdown(trace_file: Path) -> List[dict]:
    """Sum cpu/io by top-level span name from ``trace.jsonl``.

    Spans tagged ``replayed`` (and their subtrees — children of an
    excluded root are excluded via the parent chain) carry a *previous*
    run's work and are left out.
    """
    import json

    phases: Dict[str, dict] = {}
    excluded_ids: set = set()
    with trace_file.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            span = json.loads(line)
            if (
                span.get("tags", {}).get("replayed")
                or span.get("parent_id") in excluded_ids
            ):
                excluded_ids.add(span["id"])
                continue
            if span.get("parent_id") is not None:
                continue
            entry = phases.setdefault(
                span["name"],
                {"name": span["name"], "cpu_s": 0.0, "io_s": 0.0, "spans": 0},
            )
            entry["cpu_s"] += float(span.get("cpu_s", 0.0))
            entry["io_s"] += float(span.get("io_s", 0.0))
            entry["spans"] += 1
    return [phases[name] for name in sorted(phases)]


def analyze_run(run_dir: "Path | str") -> RunAnalysis:
    """Analyze one run directory (``journal.jsonl`` required)."""
    run_dir = Path(run_dir)
    journal_file = journal_path(run_dir)
    if not journal_file.exists():
        raise FileNotFoundError(
            f"no {JOURNAL_FILENAME} under {run_dir}: run the join with a "
            f"journal (e.g. `python -m repro chaos --out {run_dir}`) first"
        )
    analysis = analyze_events(read_journal(journal_file), run_dir=str(run_dir))
    trace_file = run_dir / TRACE_FILENAME
    if trace_file.exists():
        analysis.phase_breakdown = _load_phase_breakdown(trace_file)
    return analysis


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _describe_fault(record: dict) -> str:
    kind = record.get("kind", "?")
    where: List[str] = []
    if record.get("pair") is not None:
        where.append(f"pair {record['pair']}")
    if record.get("category"):
        where.append(f"category {record['category']}")
    if record.get("side"):
        where.append(f"side {record['side']}")
    if record.get("attempt") is not None:
        where.append(f"attempt {record['attempt']}")
    if record.get("ordinal") is not None:
        where.append(f"ordinal {record['ordinal']}")
    suffix = f" ({', '.join(where)})" if where else ""
    return f"`{kind}`{suffix}"


def render_report(analysis: RunAnalysis, *, timings: bool = False) -> str:
    """Render the analysis as markdown.

    With ``timings=False`` the output is byte-deterministic for a given
    seeded workload (see the module docstring's determinism contract);
    ``timings=True`` appends the measured sections.
    """
    lines: List[str] = []
    out = lines.append

    out("# Run report")
    out("")
    out(f"- backend: `{analysis.backend or 'unknown'}`")
    out(f"- workers: {analysis.workers}")
    if analysis.partitions:
        out(f"- partitions: {analysis.partitions}")
    out(f"- input tuples: {analysis.tuples_r} (R) x {analysis.tuples_s} (S)")
    out(f"- resumed run: {'yes' if analysis.resuming else 'no'}")
    if analysis.serve:
        query = analysis.serve.get("query") or "?"
        source = analysis.serve.get("source") or "?"
        run_id = analysis.serve.get("run_id") or "?"
        out(f"- served query: {query} — source `{source}`, cache entry "
            f"`{run_id}`")
        deadline = analysis.serve.get("deadline_exceeded")
        if deadline:
            out(
                f"- deadline exceeded: budget {deadline.get('deadline_s')}s, "
                f"{deadline.get('completed')} pairs committed, "
                f"{deadline.get('queued')} still queued"
            )
        transitions = analysis.serve.get("breaker_transitions")
        if transitions:
            out(f"- breaker transitions: {', '.join(transitions)}")
        telemetry = analysis.serve.get("telemetry")
        if telemetry:
            out(
                f"- telemetry: {telemetry['ticks']} sampler ticks, "
                f"peak queue {telemetry['queue_depth_max']}, "
                f"peak inflight {telemetry['inflight_max']}"
            )
        scrub = analysis.serve.get("scrub")
        if scrub:
            out(
                f"- cache scrub: {scrub['passes']} passes, "
                f"{scrub['scanned']} scanned, {scrub['repaired']} repaired, "
                f"{scrub['quarantined']} quarantined, "
                f"{scrub.get('evicted', 0)} evicted"
            )
        for corrupt in analysis.serve.get("cache_corrupt", []):
            out(
                f"- cache entry distrusted: `{corrupt.get('run_id')}` "
                f"({corrupt.get('reason')})"
            )
        for quarantined in analysis.serve.get("quarantined_entries", []):
            out(
                f"- cache entry quarantined: `{quarantined.get('run_id')}` "
                f"({quarantined.get('reason')})"
            )
    out(f"- result pairs: {analysis.results}")
    out("")

    out("## Partition skew (Figure 4 statistic)")
    out("")
    if analysis.partition_skew:
        out("| side | partitions | tuples | mean | min | max | CoV |")
        out("|---|---|---|---|---|---|---|")
        for side in sorted(analysis.partition_skew):
            s = analysis.partition_skew[side]
            out(
                f"| {side} | {s.count} | {int(s.total)} | {_fmt(s.mean, 1)} "
                f"| {int(s.minimum)} | {int(s.maximum)} | {_fmt(s.cov)} |"
            )
    else:
        out("(no partition_sealed events in journal)")
    executed = analysis.executed_pairs
    if executed:
        candidate_skew = SkewStats.from_values(
            [p.candidates for p in executed]
        )
        result_skew = SkewStats.from_values([p.results for p in executed])
        cost_skew = SkewStats.from_values([p.cost for p in executed])
        out("")
        out("| per-pair quantity | pairs | mean | CoV | p50 | p90 |")
        out("|---|---|---|---|---|---|")
        cost_summary = analysis.cost_hist.summary()
        cand_summary = analysis.candidate_hist.summary()
        out(
            f"| cost seed | {cost_skew.count} | {_fmt(cost_skew.mean, 1)} "
            f"| {_fmt(cost_skew.cov)} | {_fmt(cost_summary.get('p50'), 1)} "
            f"| {_fmt(cost_summary.get('p90'), 1)} |"
        )
        out(
            f"| candidates | {candidate_skew.count} "
            f"| {_fmt(candidate_skew.mean, 1)} | {_fmt(candidate_skew.cov)} "
            f"| {_fmt(cand_summary.get('p50'), 1)} "
            f"| {_fmt(cand_summary.get('p90'), 1)} |"
        )
        out(
            f"| results | {result_skew.count} | {_fmt(result_skew.mean, 1)} "
            f"| {_fmt(result_skew.cov)} | - | - |"
        )
    out("")

    out("## Schedule & critical path (LPT replay over cost seeds)")
    out("")
    replay = analysis.replay
    if analysis.schedule:
        out(f"- tasks scheduled: {len(analysis.schedule)}")
        out(f"- cost-model makespan: {replay.makespan_cost}")
        out(
            f"- schedule balance: {_fmt(replay.balance)} "
            f"(1.0 = perfectly packed lanes)"
        )
        critical = ", ".join(str(p) for p in replay.critical_pairs)
        out(
            f"- critical path: lane {replay.critical_lane} -> "
            f"pairs [{critical}]"
        )
    else:
        out("(no schedule event — nothing was executed by this run)")
    out("")

    out("## Stragglers (deterministic, by cost seed)")
    out("")
    stragglers = analysis.stragglers_by_cost()
    if stragglers:
        out("| rank | pair | cost | candidates | results | degraded |")
        out("|---|---|---|---|---|---|")
        for rank, p in enumerate(stragglers, 1):
            out(
                f"| {rank} | {p.pair} | {p.cost} | {p.candidates} "
                f"| {p.results} | {'yes' if p.degraded else ''} |"
            )
    else:
        out("(no executed pairs)")
    out("")

    out("## Fault & recovery timeline")
    out("")
    if analysis.fault_ledger:
        out("Planned faults injected (deduplicated, sorted):")
        out("")
        for record in analysis.fault_ledger:
            out(f"- {_describe_fault(record)}")
    else:
        out("No planned faults were injected.")
    if analysis.quarantined_pairs:
        out(
            "- quarantined pairs (corrupt spill, rebuilt): "
            f"{analysis.quarantined_pairs}"
        )
    if analysis.degraded_pairs:
        out(f"- degraded rebuilds: {analysis.degraded_pairs}")
    out("")

    if (
        analysis.disk_budget is not None
        or analysis.disk_pressure
        or analysis.disk_recoveries
    ):
        out("## Storage pressure")
        out("")
        if analysis.disk_budget is not None:
            out(f"- disk budget: {analysis.disk_budget} bytes")
        else:
            out("- disk budget: unconstrained (metering only)")
        if analysis.disk_pressure:
            out(f"- pressure episodes: {len(analysis.disk_pressure)}")
            for episode in analysis.disk_pressure:
                parts = ", ".join(
                    f"{key} {episode[key]}"
                    for key in ("side", "partition", "kind", "query")
                    if key in episode
                )
                suffix = f" ({parts})" if parts else ""
                out(f"  - `{episode.get('category', '?')}`{suffix}")
        else:
            out("- pressure episodes: none")
        if analysis.disk_recoveries:
            out(f"- recoveries: {len(analysis.disk_recoveries)}")
            for recovery in analysis.disk_recoveries:
                parts = ", ".join(
                    f"{key} {recovery[key]}"
                    for key in ("side", "partition", "kind")
                    if key in recovery
                )
                suffix = f" ({parts})" if parts else ""
                out(
                    f"  - `{recovery.get('category', '?')}` via "
                    f"`{recovery.get('action', '?')}`{suffix}"
                )
        out("")

    if analysis.checkpoint_commits:
        out("## Checkpoints")
        out("")
        total = sum(analysis.checkpoint_commits.values())
        by_kind = ", ".join(
            f"{kind}: {count}"
            for kind, count in sorted(analysis.checkpoint_commits.items())
        )
        out(f"- durable commits: {total} ({by_kind})")
        out("")

    if analysis.replayed_pairs:
        out("## Resumed work")
        out("")
        out(
            f"- pairs replayed from the checkpoint result log "
            f"(excluded from skew/straggler/critical-path analysis): "
            f"{analysis.replayed_pairs}"
        )
        out("")

    if timings:
        out("## Measured timings (not deterministic)")
        out("")
        by_wall = analysis.stragglers_by_wall()
        if by_wall:
            out("| rank | pair | wall_s | cost | candidates |")
            out("|---|---|---|---|---|")
            for rank, p in enumerate(by_wall, 1):
                out(
                    f"| {rank} | {p.pair} | {_fmt(p.wall_s, 4)} | {p.cost} "
                    f"| {p.candidates} |"
                )
            out("")
        backoff = analysis.backoff_hist.summary()
        if backoff.get("count"):
            out(
                f"- retry backoff: count {backoff['count']}, "
                f"total {_fmt(backoff['sum'], 3)}s, "
                f"p50 {_fmt(backoff['p50'], 3)}s, "
                f"p90 {_fmt(backoff['p90'], 3)}s"
            )
        if analysis.phase_breakdown:
            out("")
            out("| phase | spans | cpu_s | io_s |")
            out("|---|---|---|---|")
            for phase in analysis.phase_breakdown:
                out(
                    f"| {phase['name']} | {phase['spans']} "
                    f"| {_fmt(phase['cpu_s'], 4)} | {_fmt(phase['io_s'], 4)} |"
                )
        out("")
        out("Journal event counts:")
        out("")
        for kind in sorted(analysis.event_counts):
            out(f"- {kind}: {analysis.event_counts[kind]}")
        out("")

    return "\n".join(lines).rstrip() + "\n"
