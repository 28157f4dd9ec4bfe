"""Parallel PBSM on a simulated shared-nothing machine — the paper's §5.

The paper closes with a concrete design sketch: PBSM's tiled spatial
partitioning function doubles as a *declustering* strategy for a
shared-nothing parallel database, and the open question is how to handle
objects that span node boundaries:

    "one could either replicate such objects entirely, or replicate just
    the spatial approximation (like the minimum bounding rectangle).  If
    the object is not replicated in its entirety (as in [TY95]), then
    remote fetches might be required, whereas if the object is fully
    replicated, remote fetches can be avoided at the expense of an
    increase in the amount of storage."

This module implements both choices over *virtual nodes* — each node owns
its own simulated disk and buffer pool — and measures exactly the
quantities that trade off: per-node simulated time (the critical path),
storage blow-up from replication, and remote-fetch counts/costs.

Execution model per node: local fragments are joined with the regular
single-node PBSM; under MBR-only declustering the refinement step's
fetches of non-resident tuples are charged a network round trip plus the
owning node's page read.  Each node keeps only the pairs it *owns* under
two-layer partitioning — the pairs whose reference tile hashes to it —
so node outputs are disjoint and the coordinator k-way merges them with
no dedup barrier (``merge.duplicates_dropped`` must read 0); the final
result must equal the serial join exactly (tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.partition import SCHEME_HASH, RoutedSlots, SpatialPartitioner, mbr_array
from ..core.pbsm import PBSMConfig, PBSMJoin
from ..core.predicates import Predicate
from ..core.refine import merge_sorted_unique
from ..obs.journal import (
    EVENT_NODE_FINISHED,
    EVENT_PARTITION_SEALED,
    EVENT_RUN_FINISHED,
    EVENT_RUN_STARTED,
    NULL_JOURNAL,
)
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.database import Database
from ..storage.relation import OID
from ..storage.tuples import SpatialTuple

REPLICATE_OBJECTS = "replicate_objects"
"""Full replication: every overlapping node stores the whole tuple."""

REPLICATE_MBRS = "replicate_mbrs"
"""[TY95]-style: one home node stores the tuple; other overlapping nodes
hold only its approximation and must fetch the object remotely."""

SCHEMES = (REPLICATE_OBJECTS, REPLICATE_MBRS)

REMOTE_FETCH_SECONDS = 0.002
"""Charge per remote tuple fetch (a small-message network round trip)."""

NODE_BUFFER_MB = 2.0
"""Each virtual node's buffer pool."""


@dataclass
class NodeReport:
    """What one virtual node did and what it cost."""

    node_id: int
    tuples_r: int = 0
    tuples_s: int = 0
    local_pairs: int = 0
    remote_fetches: int = 0
    sim_seconds: float = 0.0


@dataclass
class TaskReport:
    """One partition-pair task of the process backend, as scheduled."""

    index: int
    cost_estimate: int
    """The LPT seed: key-pointers in the pair, known before execution."""
    candidates: int = 0
    results: int = 0
    wall_s: float = 0.0
    worker_pid: int = 0
    attempts: int = 1
    """Dispatches this pair took (1 = first try succeeded)."""
    degraded: bool = False
    """True when the coordinator rebuilt this pair serially after the
    process path exhausted its retries or quarantined its spill."""
    resumed: bool = False
    """True when this pair's result was replayed from a checkpoint's
    result log instead of being merged by this run."""


@dataclass
class ParallelJoinResult:
    """Merged result plus the §5 trade-off metrics.

    ``nodes`` are virtual nodes for the simulated backend and real worker
    processes for the process backend; ``sim_seconds`` holds modelled
    seconds for the former and measured wall seconds for the latter, so
    ``critical_path_s``/``speedup`` read the same way for both.
    """

    pairs: List[Tuple[int, int]]  # (r feature_id, s feature_id)
    nodes: List[NodeReport] = field(default_factory=list)
    scheme: str = REPLICATE_OBJECTS
    storage_factor_r: float = 1.0
    storage_factor_s: float = 1.0
    backend: str = "simulated"
    wall_s: float = 0.0
    """Measured coordinator wall-clock for the whole run (partition +
    schedule + merge); the number real-hardware speedups are quoted in."""
    tasks: List[TaskReport] = field(default_factory=list)
    """Process backend only: the partition-pair tasks as scheduled, with
    their LPT cost seeds — enough to replay the schedule deterministically."""
    degraded_pairs: List[int] = field(default_factory=list)
    """Partition pairs the coordinator rebuilt serially after the process
    path gave up on them (empty on a clean run)."""
    fault_summary: Dict[str, int] = field(default_factory=dict)
    """Fault/recovery event tallies (injected_*, retries, timeouts,
    quarantined, degraded, pool_respawns); empty on a clean run."""
    resumed_pairs: List[int] = field(default_factory=list)
    """Partition pairs whose results were adopted from a checkpoint's
    result log rather than merged by this run (empty unless resuming)."""
    checkpoint_run_id: str = ""
    """The checkpoint run directory this run wrote (or resumed), when
    checkpointing was enabled."""
    duplicates_dropped: int = 0
    """Duplicate pairs the final merge had to drop.  Two-layer
    partitioning makes per-task/per-node outputs disjoint by construction,
    so this must read 0 on every backend; CI gates on it."""
    coordinator_merge_s: float = 0.0
    """Measured coordinator time spent merging the per-task (or per-node)
    result streams into the final pair list — the cost the two-layer
    refactor shrinks from a sorted-set dedup to a k-way interleave."""

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def critical_path_s(self) -> float:
        return max((n.sim_seconds for n in self.nodes), default=0.0)

    @property
    def total_work_s(self) -> float:
        return sum(n.sim_seconds for n in self.nodes)

    @property
    def speedup(self) -> float:
        cp = self.critical_path_s
        return self.total_work_s / cp if cp > 0 else 1.0

    @property
    def remote_fetches(self) -> int:
        return sum(n.remote_fetches for n in self.nodes)


class ParallelPBSM:
    """Declustered PBSM over virtual shared-nothing nodes."""

    def __init__(
        self,
        num_nodes: int,
        scheme: str = REPLICATE_OBJECTS,
        num_tiles: int = 1024,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal=NULL_JOURNAL,
        charge_candidate_fetches: bool = False,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        self.num_nodes = num_nodes
        self.scheme = scheme
        self.num_tiles = num_tiles
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.journal = journal
        self.charge_candidate_fetches = charge_candidate_fetches
        """Under ``REPLICATE_MBRS``, charge a remote fetch for every
        distinct foreign tuple among the *candidates* — false positives
        included, as a real [TY95] node would pay — instead of only those
        surviving into the result (the historical, undercounting charge)."""

    # ------------------------------------------------------------------ #

    def run(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
        predicate: Predicate,
    ) -> ParallelJoinResult:
        """Decluster, join per node, merge.  Result pairs are identified by
        ``feature_id`` (node-local OIDs are meaningless globally)."""
        wall_start = time.perf_counter()
        self.journal.emit(
            EVENT_RUN_STARTED,
            backend="simulated",
            workers=self.num_nodes,
            scheme=self.scheme,
            tuples_r=len(tuples_r),
            tuples_s=len(tuples_s),
            resuming=False,
        )
        if not tuples_r or not tuples_s:
            self.journal.emit(EVENT_RUN_FINISHED, results=0, degraded_pairs=[])
            return ParallelJoinResult([], scheme=self.scheme)

        mbrs_r, mbrs_s = mbr_array(tuples_r), mbr_array(tuples_s)
        partitioner = SpatialPartitioner.for_inputs(
            mbrs_r, mbrs_s, self.num_nodes, self.num_tiles, SCHEME_HASH
        )

        frag_r = self._decluster(tuples_r, partitioner.route_all(mbrs_r))
        frag_s = self._decluster(tuples_s, partitioner.route_all(mbrs_s))
        placed_r = sum(len(frag) for frag in frag_r)
        placed_s = sum(len(frag) for frag in frag_s)

        skew_r = self.metrics.histogram("parallel.fragment.tuples_r")
        skew_s = self.metrics.histogram("parallel.fragment.tuples_s")
        for node_id in range(self.num_nodes):
            skew_r.observe(len(frag_r[node_id]))
            skew_s.observe(len(frag_s[node_id]))
        self.journal.emit(
            EVENT_PARTITION_SEALED, side="r", placed=placed_r,
            counts=[len(f) for f in frag_r], adopted=False,
        )
        self.journal.emit(
            EVENT_PARTITION_SEALED, side="s", placed=placed_s,
            counts=[len(f) for f in frag_s], adopted=False,
        )

        reports: List[NodeReport] = []
        node_pairs: List[List[Tuple[int, int]]] = []
        for node_id in range(self.num_nodes):
            with self.tracer.span("node", worker=node_id, scheme=self.scheme) as span:
                report, pairs = self._run_node(
                    node_id, frag_r[node_id], frag_s[node_id], predicate,
                    partitioner,
                )
                span.tag("local_pairs", report.local_pairs)
                span.tag("remote_fetches", report.remote_fetches)
                span.tag("sim_seconds", round(report.sim_seconds, 6))
            reports.append(report)
            node_pairs.append(pairs)
            self.metrics.counter("parallel.remote_fetches").inc(report.remote_fetches)
            self.journal.emit(
                EVENT_NODE_FINISHED,
                node=node_id,
                tuples_r=report.tuples_r,
                tuples_s=report.tuples_s,
                local_pairs=report.local_pairs,
                remote_fetches=report.remote_fetches,
                sim_seconds=round(report.sim_seconds, 6),
            )

        # Each node kept only the pairs whose reference tile it owns, so
        # the per-node sorted lists are disjoint: a k-way merge replaces
        # the old sort + dedup barrier.  The drop counter must stay 0.
        merge_started = time.perf_counter()
        merged, duplicates_dropped = merge_sorted_unique(node_pairs)
        coordinator_merge_s = time.perf_counter() - merge_started
        self.metrics.counter("merge.duplicates_dropped").inc(duplicates_dropped)
        self.journal.emit(
            EVENT_RUN_FINISHED, results=len(merged), degraded_pairs=[]
        )
        return ParallelJoinResult(
            merged,
            nodes=reports,
            scheme=self.scheme,
            storage_factor_r=placed_r / len(tuples_r),
            storage_factor_s=placed_s / len(tuples_s),
            backend="simulated",
            wall_s=time.perf_counter() - wall_start,
            duplicates_dropped=duplicates_dropped,
            coordinator_merge_s=coordinator_merge_s,
        )

    # ------------------------------------------------------------------ #

    def _decluster(
        self,
        tuples: Sequence[SpatialTuple],
        routed: List[RoutedSlots],
    ) -> List[List[Tuple[SpatialTuple, bool]]]:
        """Assign tuples to the nodes their routing places them on.  Each
        fragment entry is ``(tuple, is_home)``: under MBR-only
        replication, only the home copy — on the lowest-numbered node —
        counts as locally stored; foreign copies trigger remote fetches
        in the refinement."""
        placed = [slots.tuple_ordinals.tolist() for slots in routed]
        home = [self.num_nodes] * len(tuples)
        for node in reversed(range(self.num_nodes)):
            for i in placed[node]:
                home[i] = node
        return [
            [(tuples[i], home[i] == node) for i in ordinals]
            for node, ordinals in enumerate(placed)
        ]

    def _run_node(
        self,
        node_id: int,
        frag_r: List[Tuple[SpatialTuple, bool]],
        frag_s: List[Tuple[SpatialTuple, bool]],
        predicate: Predicate,
        partitioner: SpatialPartitioner,
    ) -> Tuple[NodeReport, List[Tuple[int, int]]]:
        report = NodeReport(node_id, tuples_r=len(frag_r), tuples_s=len(frag_s))
        if not frag_r or not frag_s:
            return report, []

        db = Database(buffer_mb=NODE_BUFFER_MB)
        rel_r = db.create_relation(f"r@{node_id}")
        rel_s = db.create_relation(f"s@{node_id}")
        # The tuple each OID was inserted as: the output's feature ids, the
        # ownership filter's MBRs and the remote-fetch accounting read it.
        stored: Dict[OID, SpatialTuple] = {}
        foreign: set[Tuple[str, int]] = set()
        for side, rel, frag in (("r", rel_r, frag_r), ("s", rel_s, frag_s)):
            for t, is_home in frag:
                stored[rel.insert(t)] = t
                if not is_home:
                    foreign.add((side, t.feature_id))
        db.pool.clear()

        # Per-worker tracing: the node joins against its own disk and pool,
        # so it gets its own tracer; the coordinator adopts the finished
        # spans (tagged with the worker id) under the open "node" span.
        node_tracer = (
            Tracer(disk=db.disk, pool=db.pool) if self.tracer.enabled else None
        )
        needs_candidates = (
            self.scheme == REPLICATE_MBRS and self.charge_candidate_fetches
        )
        wall_start = time.perf_counter()
        io_snapshot = db.disk.snapshot()
        result = PBSMJoin(
            db.pool,
            PBSMConfig(
                num_tiles=self.num_tiles, collect_candidates=needs_candidates
            ),
            tracer=node_tracer,
            metrics=self.metrics,
        ).run(rel_r, rel_s, predicate)
        cpu_s = time.perf_counter() - wall_start
        io_s = db.disk.io_time_since(io_snapshot)
        if node_tracer is not None:
            self.tracer.adopt(node_tracer, worker=node_id)

        # The node's local join finds every pair both of whose members
        # overlap one of its tiles — including pairs other nodes also
        # find.  Keep only the pairs this node *owns* (their reference
        # tile hashes here): node outputs become disjoint and the global
        # merge needs no dedup.  Remote-fetch accounting stays over every
        # pair the node's refinement materialised, owned or not — the
        # fetches happen either way.
        found = [(stored[oid_r], stored[oid_s]) for oid_r, oid_s in result.pairs]
        owners = partitioner.owners(
            mbr_array([t_r for t_r, _ in found]),
            mbr_array([t_s for _, t_s in found]),
        )
        pairs = [
            (t_r.feature_id, t_s.feature_id)
            for (t_r, t_s), owner in zip(found, owners.tolist())
            if owner == node_id
        ]
        remote = 0
        if self.scheme == REPLICATE_MBRS:
            # Under MBR-only declustering the refinement must fetch foreign
            # tuples from their home nodes.  By default the charge covers
            # each distinct foreign tuple appearing in a *result* pair — a
            # slight undercount, since false-positive candidates fetch too.
            # ``charge_candidate_fetches`` extends it to every distinct
            # foreign tuple the refinement actually examined.
            examined = result.pairs
            if self.charge_candidate_fetches and result.candidate_pairs is not None:
                examined = examined + result.candidate_pairs
            touched = {("r", stored[oid_r].feature_id) for oid_r, _ in examined}
            touched |= {("s", stored[oid_s].feature_id) for _, oid_s in examined}
            remote = len(touched & foreign)

        pairs.sort()
        report.local_pairs = len(pairs)
        report.remote_fetches = remote
        report.sim_seconds = cpu_s + io_s + remote * REMOTE_FETCH_SECONDS
        return report, pairs


def serial_feature_pairs(
    tuples_r: Iterable[SpatialTuple],
    tuples_s: Iterable[SpatialTuple],
    predicate: Predicate,
    buffer_mb: float = 8.0,
) -> Tuple[List[Tuple[int, int]], float]:
    """Single-node PBSM reference: (feature-id pairs, simulated seconds)."""
    db = Database(buffer_mb=buffer_mb)
    rel_r = db.create_relation("serial_r")
    rel_r.bulk_load(tuples_r)
    rel_s = db.create_relation("serial_s")
    rel_s.bulk_load(tuples_s)
    db.pool.clear()
    result = PBSMJoin(db.pool).run(rel_r, rel_s, predicate)
    pairs = sorted(
        (rel_r.fetch(a).feature_id, rel_s.fetch(b).feature_id)
        for a, b in result.pairs
    )
    return pairs, result.report.total_s
