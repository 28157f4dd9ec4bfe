"""Staged replay: the process backend's data path, one stage at a time.

The engine interleaves tile assignment with spill writes in the coordinator
and runs read -> sweep -> read -> refine inside pool workers, so a wall clock
around ``parallel_join`` cannot say which stage the time went to.  The replay
calls the same public functions with the engine's own defaults, serially, in
this process, with one span around each call.  Its pair set must hash to the
engine's digest; its stage sum against a ``workers=1`` engine run is
``trace.coverage`` — how much of the real run the replay explains.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core.partition import SpatialPartitioner, coefficient_of_variation
from repro.core.pbsm import PBSMConfig
from repro.core.refine import merge_sorted_unique
from repro.geometry import Rect
from repro.obs import lpt_replay
from repro.parallel.process import DEFAULT_TASK_MEMORY, DEFAULT_TASKS_PER_WORKER
from repro.parallel.tasks import (
    PartitionSpill,
    read_keypointer_spill,
    read_tuple_spill,
    refine_pair,
    sweep_pair,
)
from repro.serve.query import result_digest
from repro.storage.tuples import deserialize_tuple, serialize_tuple

ENGINE_STAGES = (
    "runtime.gc",
    "core.partition.assign",
    "parallel.tasks.spill_write",
    "parallel.tasks.read_kp",
    "core.pbsm.sweep",
    "parallel.tasks.read_tuples",
    "core.refine.refine",
    "core.refine.merge",
    "serve.query.digest",
)
"""Span names under the root span ``replay``, whose self times add up to the
replay sum: every collector pass, then the engine's stages in data-path order.
The root span ``codec`` holds ``storage.tuples.serialize`` / ``.deserialize``,
a codec probe over both inputs; the engine pays those calls inside
``spill_write`` and ``read_tuples``, so the probe is not part of the sum."""


class SpanRecorder:
    """In-memory spans (``name``/``start``/``end``/``parent``/``trace``),
    written out once at exit; a layer's time is its spans' self time."""

    def __init__(self, trace: str):
        self.trace = trace
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, **tags):
        return _Span(self, name, tags)

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus the part children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span["end"] - span["start"] - covered
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _Span:
    def __init__(self, recorder: SpanRecorder, name: str, tags: dict):
        self.recorder = recorder
        self.record = {"name": name, "trace": recorder.trace, **tags}

    def __enter__(self):
        rec = self.recorder
        self.record["id"] = len(rec.spans)
        self.record["parent"] = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.record["id"])
        rec.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()


@contextmanager
def gc_spans(recorder: SpanRecorder) -> Iterator[None]:
    """Record every cyclic-GC pass in the block as a ``runtime.gc`` span.

    An allocating stage triggers collections that walk the whole live heap —
    here, both input relations — so where a pass lands is chance and its
    cost is not the stage's.  As child spans the passes drop out of the
    stages' self time and add up to a layer of their own."""
    open_spans: List[_Span] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            span = recorder.span("runtime.gc", generation=info["generation"])
            span.__enter__()
            open_spans.append(span)
        elif open_spans:
            open_spans.pop().__exit__()

    gc.callbacks.append(on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(on_gc)


def staged_replay(
    tuples_r,
    tuples_s,
    predicate,
    *,
    workers: int,
    spill_dir: str,
    recorder: SpanRecorder,
) -> dict:
    """Run the join stage by stage; returns digest, counts and layer metrics."""
    config = PBSMConfig()
    num_partitions = workers * DEFAULT_TASKS_PER_WORKER
    universe = Rect.union_all(t.mbr for t in tuples_r).union(
        Rect.union_all(t.mbr for t in tuples_s)
    )
    partitioner = SpatialPartitioner(
        universe, num_partitions,
        max(config.num_tiles, num_partitions), config.scheme,
    )
    sides = (("r", tuples_r), ("s", tuples_s))
    total_tuples = len(tuples_r) + len(tuples_s)

    with recorder.span("codec"):
        with recorder.span("storage.tuples.serialize"):
            blobs = [serialize_tuple(t) for _, side in sides for t in side]
        with recorder.span("storage.tuples.deserialize"):
            for blob in blobs:
                deserialize_tuple(blob)
        tuple_bytes = sum(len(blob) for blob in blobs)
        del blobs

    with recorder.span("replay"), gc_spans(recorder):
        routed: Dict[str, List[Dict[int, List[Tuple[int, int]]]]] = {}
        slots = 0
        for side, tuples in sides:
            with recorder.span("core.partition.assign", side=side):
                per_tuple = []
                for t in tuples:
                    by_part: Dict[int, List[Tuple[int, int]]] = {}
                    for tile, cls in partitioner.tile_assignments(t.mbr):
                        by_part.setdefault(
                            partitioner.partition_of_tile(tile), []
                        ).append((tile, cls))
                    per_tuple.append(by_part)
            routed[side] = per_tuple
            slots += sum(len(s) for bp in per_tuple for s in bp.values())

        spills: Dict[str, List[PartitionSpill]] = {}
        for side, tuples in sides:
            with recorder.span("parallel.tasks.spill_write", side=side):
                writers = [
                    PartitionSpill(spill_dir, side, p)
                    for p in range(num_partitions)
                ]
                for t, by_part in zip(tuples, routed[side]):
                    for p in sorted(by_part):
                        writers[p].add(t, by_part[p])
                for writer in writers:
                    writer.close()
            spills[side] = writers
        del routed
        spill_bytes = sum(
            os.path.getsize(path)
            for writers in spills.values()
            for w in writers
            for path in (w.kp_path, w.tuple_path)
        )

        # One task per non-empty pair in LPT order, as _build_tasks does.
        pairs_todo = sorted(
            (
                (spills["r"][p].count + spills["s"][p].count, p)
                for p in range(num_partitions)
                if spills["r"][p].count and spills["s"][p].count
            ),
            key=lambda cp: (-cp[0], cp[1]),
        )
        outcomes: Dict[int, list] = {}
        candidates_total = dropped = decoded = referenced = 0
        for _, p in pairs_todo:
            spill_r, spill_s = spills["r"][p], spills["s"][p]
            with recorder.span("parallel.tasks.read_kp", pair=p):
                kps_r = read_keypointer_spill(spill_r.kp_path)
                kps_s = read_keypointer_spill(spill_s.kp_path)
            with recorder.span("core.pbsm.sweep", pair=p):
                candidates = sweep_pair(
                    kps_r, kps_s, DEFAULT_TASK_MEMORY, config, label=str(p)
                )
            with recorder.span("parallel.tasks.read_tuples", pair=p):
                part_r = read_tuple_spill(spill_r.tuple_path)
                part_s = read_tuple_spill(spill_s.tuple_path)
            with recorder.span("core.refine.refine", pair=p):
                pairs, pair_dropped = refine_pair(
                    candidates, part_r, part_s, predicate
                )
            outcomes[p] = pairs
            candidates_total += len(candidates)
            dropped += pair_dropped
            decoded += len(part_r) + len(part_s)
            referenced += len({c[0] for c in candidates})
            referenced += len({c[1] for c in candidates})
        with recorder.span("core.refine.merge"):
            merged, merge_dropped = merge_sorted_unique(
                [outcomes[p] for p in sorted(outcomes)]
            )
        with recorder.span("serve.query.digest"):
            digest = result_digest(merged)

    layer_s = recorder.self_times()
    schedule = lpt_replay(
        [{"pair": p, "cost": cost} for cost, p in pairs_todo], workers
    )
    per_partition = [
        spills["r"][p].count + spills["s"][p].count
        for p in range(num_partitions)
    ]
    return {
        "digest": digest,
        "results": len(merged),
        "candidates": candidates_total,
        "duplicates_dropped": dropped + merge_dropped,
        "layer_s": layer_s,
        "engine_sum_s": sum(layer_s.get(name, 0.0) for name in ENGINE_STAGES),
        "tuple_bytes": tuple_bytes,
        "spill_bytes": spill_bytes,
        "replication": slots / total_tuples,
        "cov": coefficient_of_variation(per_partition),
        "lpt_speedup": schedule.total_cost / schedule.makespan_cost,
        "decode_useful_ratio": referenced / decoded if decoded else 0.0,
    }
