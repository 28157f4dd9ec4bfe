"""The per-pair result log: committed merge work, append-only and framed.

The manifest records *lifecycle*; this log records *output*.  Every time a
partition-pair merge+refine completes at the coordinator — whether a
worker returned it, a retry salvaged it, or the degraded path rebuilt it —
its :class:`~repro.parallel.tasks.PairTaskResult` is appended here as one
framed, checksummed JSON record and fsynced before the coordinator
considers the pair *committed*.  A resume replays the log to learn which
pairs never need merging again, and re-adopts their spans so the trace
of a resumed run covers the whole join (their metrics the coordinator
derives from the replayed fields, as it does for every pair).

Unlike the manifest, this file is never rewritten.  Two-layer
partitioning makes every pair's result disjoint from every other's, so
any CRC-valid, well-formed **prefix** of the log is a correct partial
answer, and the only repair the format ever needs is cutting what follows
that prefix — a torn final frame (the coordinator died mid-append: the
pair never committed) and damage further in (the pairs behind it return
to uncommitted) alike.  This module holds the one walk that finds the
prefix (:func:`replay_result_log`), the one cut (:func:`cut_result_log`,
made before any writer appends) and the one verdict on a finished log
(:func:`verified_replay`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from ..core.refine import SortedPairs, merge_sorted_unique
from ..storage.errors import ManifestCorruptionError, SpillCorruptionError
from ..storage.spill import TORN_TAIL_TRUNCATE, pack_frame, read_frames

from .manifest import _encode, read_json_frames

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..parallel.tasks import PairTaskResult

RESULT_RECORD_TYPE = "pair_result"


def result_to_wire(result: "PairTaskResult") -> dict:
    """A committed pair result as one JSON-safe log record: its ``pairs``
    a list of ``[r, s]`` lists."""
    return {
        "type": RESULT_RECORD_TYPE,
        "index": result.index,
        "worker_pid": result.worker_pid,
        "pairs": result.pairs.tolist(),
        "candidates": result.candidates,
        "count_r": result.count_r,
        "count_s": result.count_s,
        "wall_s": result.wall_s,
        "attempt": result.attempt,
        "degraded": result.degraded,
        "degraded_reason": result.degraded_reason,
        "duplicates_dropped": result.duplicates_dropped,
        "spans": result.spans,
    }


def result_from_wire(payload: dict) -> "PairTaskResult":
    """A log record as the result it committed.  The ``metrics`` key of a
    log written before metrics were derived is ignored."""
    from ..parallel.tasks import PairTaskResult

    if payload.get("type") != RESULT_RECORD_TYPE:
        raise ValueError(
            f"result-log record has type {payload.get('type')!r}, "
            f"expected {RESULT_RECORD_TYPE!r}"
        )
    pairs = np.array(payload["pairs"], np.int64).reshape(-1, 2)
    if len(pairs) != len(payload["pairs"]):
        raise ValueError("result-log pairs are not [r, s] pairs")
    return PairTaskResult(
        index=int(payload["index"]),
        worker_pid=int(payload["worker_pid"]),
        pairs=pairs,
        candidates=int(payload["candidates"]),
        count_r=int(payload["count_r"]),
        count_s=int(payload["count_s"]),
        wall_s=float(payload["wall_s"]),
        attempt=int(payload["attempt"]),
        degraded=bool(payload["degraded"]),
        degraded_reason=str(payload["degraded_reason"]),
        duplicates_dropped=int(payload.get("duplicates_dropped", 0)),
        spans=list(payload.get("spans", [])),
    )


def cut_result_log(path: "Path | str", intact_bytes: int, budget=None) -> None:
    """The log's one repair: cut the file to ``intact_bytes`` — the prefix
    :func:`replay_result_log` vouched for — dropping whatever follows, and
    returning it to ``budget``: the dropped frames were charged under
    ``checkpoint`` when they were appended."""
    try:
        cut = os.path.getsize(path) - intact_bytes
        if cut > 0:
            with open(path, "r+b") as fh:
                fh.truncate(intact_bytes)
                os.fsync(fh.fileno())
            if budget is not None:
                budget.release(cut, "checkpoint")
    except FileNotFoundError:
        pass


class ResultLog:
    """Append-only writer for the result log; one fsync per commit.

    A writer is made for a log already walked: it says how long the
    prefix it trusts is (0 to start over) and :func:`cut_result_log` drops
    the rest first, so an append can never land behind bytes no walk has
    accepted.  The file is opened (and created) by the first append.

    With a ``budget`` (:class:`~repro.storage.pressure.DiskBudget`) every
    frame is charged under ``checkpoint`` *before* it is written, so a
    denied commit raises :class:`~repro.storage.errors.DiskFullError`
    with the log unchanged — the pair simply was never committed.
    """

    def __init__(self, path: "Path | str", intact_bytes: int, *, budget=None):
        self.path = Path(path)
        self.budget = budget
        self._fh: Optional[BinaryIO] = None
        cut_result_log(self.path, intact_bytes, budget)

    def append(self, result: "PairTaskResult", *, fsync: bool = True) -> int:
        """Durably commit one pair result; returns the bytes appended."""
        frame = pack_frame(_encode(result_to_wire(result)))
        if self.budget is not None:
            self.budget.charge(len(frame), "checkpoint")
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
        self._fh.write(frame)
        self._fh.flush()
        if fsync:
            os.fsync(self._fh.fileno())
        return len(frame)

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()

    def __enter__(self) -> "ResultLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def replay_result_log(
    path: "Path | str",
) -> Tuple[Dict[int, "PairTaskResult"], int, Optional[ValueError]]:
    """Walk the log once: ``(committed, intact_bytes, ended_by)``.

    ``committed`` is the results of the log's intact prefix keyed by pair
    index, ``intact_bytes`` that prefix's length in the file, and
    ``ended_by`` what stopped the walk: ``None`` at a clean end of file (a
    missing file is an empty log); the frame reader's
    :class:`SpillCorruptionError` for a torn final frame — an interrupted
    append that never committed; a :class:`ManifestCorruptionError` for
    anything else — framing damage with bytes after it, or a CRC-valid
    frame that is not a well-formed pair result.  Whatever ended it, the
    prefix is trustworthy and the rest of the file is not.  Duplicate
    indexes keep the first occurrence: the first append is the one whose
    commit the coordinator acted on.
    """
    committed: Dict[int, PairTaskResult] = {}
    intact_bytes = 0
    torn: List[SpillCorruptionError] = []
    try:
        for frame, payload in read_json_frames(
            read_frames(
                path, torn_tail=TORN_TAIL_TRUNCATE, on_torn_tail=torn.append
            ),
            "result log",
        ):
            try:
                result = result_from_wire(payload)
            except (KeyError, TypeError, ValueError) as exc:
                return committed, intact_bytes, ManifestCorruptionError(
                    f"result log frame {frame.index} is not a pair result: "
                    f"{exc}",
                    path=frame.label, frame_index=frame.index,
                )
            committed.setdefault(result.index, result)
            intact_bytes = frame.end
    except FileNotFoundError:
        pass
    except ManifestCorruptionError as exc:
        return committed, intact_bytes, exc
    return committed, intact_bytes, torn[0] if torn else None


def verified_replay(
    log_path: "Path | str", result_count: Optional[int]
) -> Tuple[Optional[SortedPairs], str]:
    """Is this complete run servable?  ``(pairs, "")`` — the run's
    answer, as its merge made it — or ``(None, why)``.

    The one verdict the query path and the scrubber share.  A finished
    log has no tail to cut: anything that ends its walk early means the
    directory is damaged.  Two-layer partitioning makes the per-pair logs
    disjoint, so the replay is one sort, not a set union; the
    ``complete`` manifest event records the result count, and the replayed
    merge must reproduce it exactly — an unexpected duplicate or a
    different count means the directory is lying.  Neither is served.
    """
    try:
        committed, _intact_bytes, ended_by = replay_result_log(log_path)
    except OSError as exc:
        return None, type(exc).__name__
    if ended_by is not None:
        return None, "result_log_damage"
    merged, dropped = merge_sorted_unique(
        [committed[index].pairs for index in sorted(committed)]
    )
    if dropped:
        return None, "duplicate_results"
    if result_count != len(merged):
        return None, "result_count_mismatch"
    return merged, ""
