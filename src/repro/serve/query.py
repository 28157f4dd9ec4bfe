"""Query specs: what a client asks the join service for.

A :class:`QuerySpec` names a join the service knows how to materialise —
a dataset pair (the TIGER generator workloads), a scale, a generator
seed, an exact predicate, and the execution knobs that change the
*answer* (partition count, via the run fingerprint) or only its *cost*
(buffer budget).  Specs travel as flat JSON objects on the wire
(:mod:`repro.serve.server`) and resolve, deterministically, to the same
input tuples and :class:`~repro.checkpoint.manifest.RunFingerprint` that
a one-shot ``python -m repro parallel --checkpoint-dir`` run of the same
query would compute — which is the whole trick: served artifacts and
one-shot artifacts are interchangeable because their identity is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..core.pbsm import PBSMConfig
from ..core.predicates import Predicate, contains, intersects, intersects_naive
from ..data import sequoia, tiger
from ..checkpoint.manifest import RunFingerprint
from ..parallel.process import DEFAULT_TASK_MEMORY, DEFAULT_TASKS_PER_WORKER
from ..parallel.tasks import InputSide
from ..storage.tuples import SpatialTuple

DATASETS: Dict[str, Tuple[Callable, Callable]] = {
    "road_hydro": (tiger.generate_roads, tiger.generate_hydrography),
    "road_rail": (tiger.generate_roads, tiger.generate_rail),
    "landuse_island": (
        sequoia.generate_landuse_polygons,
        sequoia.generate_islands,
    ),
}
"""Dataset pair name -> (R generator, S generator)."""

POLYGON_DATASETS = frozenset({"landuse_island"})
"""Pairs whose tuples are polygons on both sides — the only inputs the
``contains`` predicate accepts (TIGER roads/hydro/rail are polylines)."""

PREDICATES: Dict[str, Predicate] = {
    "intersects": intersects,
    "intersects_naive": intersects_naive,
    "contains": contains,
}

MAX_SCALE = 1.0
"""Upper bound on a served query's scale: admission control for one
query's memory footprint, not a physical limit."""


class QueryError(ValueError):
    """A request that can never be served: malformed or unknown fields."""


def result_digest(pairs: Iterable[Tuple[int, int]]) -> str:
    """Canonical SHA-256 of a join's answer (the byte-identity check).

    The digest is taken over the sorted, deduplicated feature-id pair
    list in canonical JSON, so any two paths to the same answer — a cold
    run, a checkpoint replay, a one-shot ``parallel`` run — hash equal,
    and anything else does not.  Responses always carry it; shipping the
    full pair list is opt-in."""
    canon = sorted({(int(a), int(b)) for a, b in pairs})
    blob = json.dumps([list(p) for p in canon], separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class QuerySpec:
    """One join query, as named over the wire."""

    dataset: str = "road_hydro"
    scale: float = 0.01
    seed: int = 0
    predicate: str = "intersects"
    workers: int = 2
    num_partitions: int = 0
    """0 means the process backend's default (workers x tasks/worker)."""
    memory_bytes: int = DEFAULT_TASK_MEMORY
    """Kept on the wire and validated, but it no longer reaches the
    engine: the filter step's array join has nothing to overflow
    (:func:`~repro.parallel.tasks.sweep_pair`)."""
    include_pairs: bool = False
    """Ship the full result pair list back (costly; off by default —
    responses always carry the count and a SHA-256 of the sorted pairs)."""
    deadline_s: Optional[float] = None
    """Wall-clock budget for this query.  Past it the server stops
    dispatching pair tasks, abandons in-flight ones, and answers with a
    typed ``deadline_exceeded`` reject — committed checkpoint state stays
    adoptable, so a retry resumes instead of restarting.  A *cost* knob,
    not an *answer* knob: it is deliberately excluded from the run
    fingerprint, so deadlined and undeadlined runs share a cache entry."""

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise QueryError(
                f"unknown dataset {self.dataset!r}; "
                f"expected one of {sorted(DATASETS)}"
            )
        if self.predicate not in PREDICATES:
            raise QueryError(
                f"unknown predicate {self.predicate!r}; "
                f"expected one of {sorted(PREDICATES)}"
            )
        if self.predicate == "contains" and self.dataset not in POLYGON_DATASETS:
            raise QueryError(
                f"predicate 'contains' needs polygon inputs; dataset "
                f"{self.dataset!r} is polylines (use one of "
                f"{sorted(POLYGON_DATASETS)})"
            )
        if not 0 < self.scale <= MAX_SCALE:
            raise QueryError(f"scale must be in (0, {MAX_SCALE}]")
        if self.seed < 0:
            raise QueryError("seed cannot be negative")
        if self.workers < 1:
            raise QueryError("need at least one worker")
        if self.num_partitions < 0:
            raise QueryError("num_partitions cannot be negative")
        if self.memory_bytes < 1:
            raise QueryError("memory budget must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QueryError("deadline_s must be positive when given")

    # ------------------------------------------------------------------ #

    @property
    def partitions(self) -> int:
        """The effective partition count — must match what ProcessPBSM
        would derive, or the fingerprints (and thus the cache keys)
        of served and one-shot runs would diverge."""
        return self.num_partitions or self.workers * DEFAULT_TASKS_PER_WORKER

    @property
    def predicate_fn(self) -> Predicate:
        return PREDICATES[self.predicate]

    @property
    def dataset_key(self) -> Tuple[str, float, int]:
        """What the input tuples depend on (the server memoizes by this)."""
        return (self.dataset, self.scale, self.seed)

    def generate(self) -> Tuple[InputSide, InputSide]:
        """Materialise the two inputs (deterministic in ``dataset_key``),
        each an :class:`~repro.parallel.tasks.InputSide`: whoever keeps
        the pair keeps what its joins and fingerprints derive from it.

        ``seed=0`` keeps each generator's default seed, exactly like the
        ``parallel`` subcommand without ``--seed``; otherwise the R side
        uses ``seed`` and the S side ``seed + 1`` (same convention)."""
        gen_r, gen_s = DATASETS[self.dataset]
        if self.seed == 0:
            return InputSide(gen_r(self.scale)), InputSide(gen_s(self.scale))
        return (
            InputSide(gen_r(self.scale, seed=self.seed)),
            InputSide(gen_s(self.scale, seed=self.seed + 1)),
        )

    def fingerprint(
        self,
        tuples_r: Sequence[SpatialTuple],
        tuples_s: Sequence[SpatialTuple],
    ) -> RunFingerprint:
        return RunFingerprint.compute(
            InputSide(tuples_r), InputSide(tuples_s),
            self.predicate_fn, self.partitions, PBSMConfig(),
        )

    # ------------------------------------------------------------------ #
    # wire form
    # ------------------------------------------------------------------ #

    def to_wire(self) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "predicate": self.predicate,
            "workers": self.workers,
            "num_partitions": self.num_partitions,
            "memory_bytes": self.memory_bytes,
            "include_pairs": self.include_pairs,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "QuerySpec":
        """Build a spec from a request object; unknown keys are rejected
        (a typo'd knob silently ignored would serve the wrong join)."""
        known = {
            "dataset", "scale", "seed", "predicate", "workers",
            "num_partitions", "memory_bytes", "include_pairs",
            "deadline_s",
        }
        extra = set(payload) - known - {"op"}
        if extra:
            raise QueryError(f"unknown query fields: {sorted(extra)}")
        try:
            return cls(
                dataset=str(payload.get("dataset", "road_hydro")),
                scale=float(payload.get("scale", 0.01)),
                seed=int(payload.get("seed", 0)),
                predicate=str(payload.get("predicate", "intersects")),
                workers=int(payload.get("workers", 2)),
                num_partitions=int(payload.get("num_partitions", 0)),
                memory_bytes=int(payload.get("memory_bytes", DEFAULT_TASK_MEMORY)),
                include_pairs=bool(payload.get("include_pairs", False)),
                deadline_s=(
                    float(payload["deadline_s"])
                    if payload.get("deadline_s") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, QueryError):
                raise
            raise QueryError(f"malformed query: {exc}") from exc
