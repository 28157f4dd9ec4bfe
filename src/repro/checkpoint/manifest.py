"""The join manifest: one run's durable identity and artifact lifecycle.

A :class:`JoinManifest` is an append-only event log with a header:

* **frame 0 — the header**: the manifest format version plus the run's
  :class:`RunFingerprint` — everything that determines the join's answer
  (input cardinalities and content CRCs, the predicate, the partitioning
  grid, the full PBSM config).  Two runs with the same fingerprint are
  the same join, so their committed pair results are interchangeable; a
  resume against a different fingerprint must refuse.
* **frames 1..n — events**: ``phase`` (the coordinator advanced its
  state machine: merging began, with the pair count) and ``complete``
  (the join finished, with its result count).  Spills are not recorded:
  they are never durable, and a resume re-partitions from its inputs.

On disk every frame uses the spill format's ``<len><crc32>payload``
framing, and the whole file is only ever replaced through the atomic
write-ahead protocol (:func:`repro.storage.disk.atomic_write_bytes`), so
a crash leaves either the previous manifest or the new one — and if
something *does* tear the bytes (a fault injector, a dying disk), the
loader's contract is strict: it returns a manifest built from an intact
**prefix** of the event log, or raises
:class:`~repro.storage.errors.ManifestCorruptionError`.  It never returns
wrong state — the Hypothesis corruption suite flips every byte to hold it
to that.

The derived state machine (``created → merging → complete``) is never
stored; it is recomputed from the events, so there is no second copy to
disagree with the log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.pbsm import PBSMConfig
from ..core.predicates import Predicate
from ..storage.errors import ManifestCorruptionError, SpillCorruptionError
from ..storage.spill import TORN_TAIL_TRUNCATE, Frame, pack_frame, read_frames_bytes

MANIFEST_VERSION = 1

HEADER_TYPE = "pbsm-join-manifest"

EVENT_TYPES = ("phase", "complete")
"""Every event kind the loader will accept; anything else is corruption."""

STATE_CREATED = "created"
STATE_MERGING = "merging"
STATE_COMPLETE = "complete"

STATES = (STATE_CREATED, STATE_MERGING, STATE_COMPLETE)

PARTITION_LAYOUT = "two-layer-v2-blocks"
"""The current partition/spill layout generation, part of the fingerprint.

``two-layer-v2-blocks``: one tagged ``(tile, class)`` key-pointer per
overlapped tile, duplicate-free merge, spills written as blocks (one CRC
frame per run of records, :mod:`repro.parallel.tasks`).  Artifacts
written under an older layout (``two-layer-v1``: the same records, one
frame each; ``replicate-dedup-v0``: one untagged key-pointer per
overlapped *partition*, sorted-set dedup at the coordinator) describe
different spill bytes or per-pair result logs, so they must never be
replayed by a resume or served from the artifact cache — a layout bump
changes the fingerprint digest, turning every stale artifact into a cache
miss."""


@dataclass(frozen=True)
class RunFingerprint:
    """Everything that determines a join's answer, hashed for identity.

    Worker count, retry budgets, and timeouts are deliberately *excluded*:
    they change how fast the answer arrives, never what it is, so a run
    checkpointed with 2 workers can resume with 8.  The partition
    ``layout`` *is* included: per-pair artifacts only replay cleanly
    against the layout that wrote them.
    """

    count_r: int
    count_s: int
    crc_r: int
    crc_s: int
    predicate: str
    num_partitions: int
    config: Dict[str, object]
    layout: str = PARTITION_LAYOUT

    @classmethod
    def compute(
        cls,
        side_r,
        side_s,
        predicate: Predicate,
        num_partitions: int,
        config: PBSMConfig,
    ) -> "RunFingerprint":
        """The fingerprint of a join of two
        :class:`~repro.parallel.tasks.InputSide` — whose ``crc`` is the
        order-sensitive CRC32 over the input's serialised tuples."""
        return cls(
            count_r=len(side_r),
            count_s=len(side_s),
            crc_r=side_r.crc,
            crc_s=side_s.crc,
            predicate=getattr(predicate, "__name__", repr(predicate)),
            num_partitions=num_partitions,
            config=dataclasses.asdict(config),
            layout=PARTITION_LAYOUT,
        )

    def to_dict(self) -> dict:
        return {
            "count_r": self.count_r,
            "count_s": self.count_s,
            "crc_r": self.crc_r,
            "crc_s": self.crc_s,
            "predicate": self.predicate,
            "num_partitions": self.num_partitions,
            "config": dict(self.config),
            "layout": self.layout,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunFingerprint":
        return cls(
            count_r=int(data["count_r"]),
            count_s=int(data["count_s"]),
            crc_r=int(data["crc_r"]),
            crc_s=int(data["crc_s"]),
            predicate=str(data["predicate"]),
            num_partitions=int(data["num_partitions"]),
            config=dict(data["config"]),
            # Pre-two-layer manifests carry no layout field; name their
            # layout explicitly so they load for inspection/GC but can
            # never fingerprint-match (and thus never be adopted by) a
            # current run.
            layout=str(data.get("layout", "replicate-dedup-v0")),
        )

    @property
    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    @property
    def run_id(self) -> str:
        """The checkpoint directory name: stable, collision-resistant."""
        return f"run-{self.digest[:12]}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RunFingerprint) and self.to_dict() == other.to_dict()
        )


class JoinManifest:
    """Header + event log; all state is derived from the events."""

    def __init__(
        self,
        fingerprint: RunFingerprint,
        events: Optional[Sequence[dict]] = None,
    ):
        self.fingerprint = fingerprint
        self.events: List[dict] = [dict(e) for e in (events or [])]
        self.recovered_torn_tail = False
        """Set by the loader when a torn tail was truncated away."""

    # ------------------------------------------------------------------ #
    # derived state
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        state = STATE_CREATED
        for event in self.events:
            if event["type"] == "complete":
                return STATE_COMPLETE
            state = event["state"]
        return state

    @property
    def pairs_total(self) -> Optional[int]:
        """Partition-pair task count, known once merging began."""
        for event in reversed(self.events):
            if event["type"] == "phase" and event["state"] == STATE_MERGING:
                return event.get("pairs_total")
        return None

    @property
    def result_count(self) -> Optional[int]:
        for event in reversed(self.events):
            if event["type"] == "complete":
                return event.get("result_count")
        return None

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def apply(self, event: dict) -> dict:
        if event.get("type") not in EVENT_TYPES:
            raise ValueError(f"unknown manifest event type {event.get('type')!r}")
        self.events.append(dict(event))
        return event

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        header = {
            "type": HEADER_TYPE,
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint.to_dict(),
        }
        frames = [pack_frame(_encode(header))]
        frames.extend(pack_frame(_encode(event)) for event in self.events)
        return b"".join(frames)

    @classmethod
    def from_bytes(cls, data: bytes, *, label: str = "manifest") -> "JoinManifest":
        """Load a manifest: an intact event-log prefix, or a typed error.

        A framing violation whose damage reaches the end of the bytes is a
        torn tail (the atomic protocol was interrupted by something that
        bypassed it): the events before it are the manifest.  A violation
        mid-log, a damaged header, or a CRC-valid frame that is not a
        well-formed event mean the bytes cannot be trusted at all —
        :class:`ManifestCorruptionError`.
        """
        torn: List[SpillCorruptionError] = []
        frames = read_json_frames(
            read_frames_bytes(
                data,
                label=label,
                torn_tail=TORN_TAIL_TRUNCATE,
                on_torn_tail=torn.append,
            ),
            "manifest",
        )
        _, header = next(frames, (None, None))
        if header is None:
            raise ManifestCorruptionError(
                "manifest has no intact header frame", path=label, frame_index=0
            )
        if (
            header.get("type") != HEADER_TYPE
            or header.get("version") != MANIFEST_VERSION
            or not isinstance(header.get("fingerprint"), dict)
        ):
            raise ManifestCorruptionError(
                f"manifest header is not a version-{MANIFEST_VERSION} "
                f"{HEADER_TYPE} record",
                path=label, frame_index=0,
            )
        try:
            fingerprint = RunFingerprint.from_dict(header["fingerprint"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestCorruptionError(
                f"manifest fingerprint is malformed: {exc}",
                path=label, frame_index=0,
            ) from exc
        events = []
        for frame, event in frames:
            if event.get("type") not in EVENT_TYPES:
                raise ManifestCorruptionError(
                    f"manifest frame {frame.index} has unknown event type "
                    f"{event.get('type')!r}",
                    path=label, frame_index=frame.index,
                )
            events.append(event)
        manifest = cls(fingerprint, events)
        manifest.recovered_torn_tail = bool(torn)
        return manifest


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def read_json_frames(
    frames: Iterable[Frame], what: str
) -> Iterator[Tuple[Frame, dict]]:
    """The framed-JSON read the manifest and the result log share: every
    intact frame, in file order, with the object it holds.

    A framing violation the frame reader did not take for a torn tail, or
    a CRC-valid frame that is not a JSON object, raises
    :class:`ManifestCorruptionError` naming that frame — *after* every
    frame before it has been yielded, so a caller that keeps what it has
    consumed keeps an intact prefix.
    """
    try:
        for frame in frames:
            try:
                payload = json.loads(str(frame.record, "utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("not an object")
            except ValueError as exc:  # UnicodeDecode-, JSONDecodeError too
                raise ManifestCorruptionError(
                    f"{what} frame {frame.index} is not a JSON object: {exc}",
                    path=frame.label, frame_index=frame.index,
                ) from exc
            yield frame, payload
    except SpillCorruptionError as exc:
        raise ManifestCorruptionError(
            f"{what} framing corrupt mid-file: {exc}",
            path=exc.path, frame_index=exc.frame_index,
        ) from exc
