"""Spill files: integrity-checked framed record files on the *real* filesystem.

Everything else in ``repro.storage`` lives on the simulated disk, whose
pages exist only inside one process.  The multiprocess PBSM backend needs
a handoff medium that worker processes can actually open, so partitions
are spilled to plain files of length-prefixed, checksummed records::

    <u32 record length> <u32 crc32(record)> <record bytes> ...

The format is deliberately dumb: sequential append on write, sequential
scan on read, no page structure, no cost model.  Spill I/O is part of the
real wall-clock time the process backend is measured by, not part of the
simulated 1996 disk the single-node experiments account against.

The per-frame CRC32 is what makes a *torn* spill frame — a partial write,
a flipped bit, a truncated tail — detectable instead of silently joining
garbage: every framing violation raises
:class:`~repro.storage.errors.SpillCorruptionError` carrying the path, the
frame index, and the byte offset of the damaged frame, so the coordinator
can quarantine exactly the partition whose file is lying.

Crash recovery reads the same files with ``torn_tail="truncate"``: a
violation whose damage reaches the end of the file is what a died-mid-
append writer leaves behind, so the reader treats it as a clean end of
log and yields the intact prefix.  Damage *followed by* more bytes is
still corruption and still raises — a torn tail cannot have a successor
frame.

Writers can be atomic (``SpillWriter(path, atomic=True)``): records go to
``<path>.tmp`` and the file is fsynced and renamed into place on close,
so a reader never observes a half-written spill under its final name and
an abandoned write leaves only a ``*.tmp`` orphan for
:func:`sweep_orphan_spills` to collect.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, List, NamedTuple, Optional

from .errors import SpillCorruptionError

_HEADER = struct.Struct("<II")
"""Frame header: record length + CRC32 of the record bytes."""

FRAME_HEADER_SIZE = _HEADER.size

MAX_RECORD_BYTES = 1 << 30
"""Sanity bound on one framed record (catches corrupt length prefixes)."""

TORN_TAIL_ERROR = "error"
"""Any framing violation raises, even at the end of the file."""

TORN_TAIL_TRUNCATE = "truncate"
"""A violation whose damage reaches EOF ends the log cleanly instead."""

TMP_SUFFIX = ".tmp"
"""Suffix of unsealed (atomic, not yet renamed) spill files."""


def pack_frame(record: bytes) -> bytes:
    """One framed record: length + CRC32 header, then the payload."""
    if len(record) > MAX_RECORD_BYTES:
        raise ValueError(f"record of {len(record)} bytes exceeds frame bound")
    return _HEADER.pack(len(record), zlib.crc32(record)) + record


class SpillWriter:
    """Append length-prefixed, checksummed records to a spill file.

    Usable as a context manager: a clean exit seals the file, an exception
    aborts it (the partial file is deleted — an abandoned partition must
    not leave its frames on disk).  With ``atomic=True`` records are
    written to ``<path>.tmp`` and fsync+renamed into place on close, so
    the final path only ever holds a completely written spill.  ``count``
    tracks records written so the coordinator can seed scheduling
    estimates without re-reading the file.

    With a ``budget`` (:class:`~repro.storage.pressure.DiskBudget`) every
    frame is charged *before* it is written — a denied append raises
    :class:`~repro.storage.errors.DiskFullError` with the file unchanged
    — and ``abort`` releases everything this writer charged.  ``close``
    does not release: sealed bytes stay on disk and stay accounted.
    """

    def __init__(
        self,
        path: "Path | str",
        *,
        atomic: bool = False,
        budget=None,
        category: str = "spill",
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.atomic = atomic
        self.budget = budget
        self.category = category
        self.charged = 0
        self._write_path = (
            self.path.with_name(self.path.name + TMP_SUFFIX)
            if atomic
            else self.path
        )
        self._fh: Optional[BinaryIO] = self._write_path.open("wb")
        self.count = 0

    def append(self, record: bytes) -> None:
        assert self._fh is not None, "writer is closed"
        frame = pack_frame(record)
        if self.budget is not None:
            self.budget.charge(len(frame), self.category)
            self.charged += len(frame)
        self._fh.write(frame)
        self.count += 1

    def close(self) -> None:
        """Seal the file: flush (and, when atomic, fsync + rename)."""
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        if self.atomic:
            fh.flush()
            os.fsync(fh.fileno())
        fh.close()
        if self.atomic:
            os.replace(self._write_path, self.path)

    def abort(self) -> None:
        """Discard the write: close and delete whatever hit the disk."""
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()
        for path in {self._write_path, self.path}:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self.release_budget()

    def release_budget(self) -> None:
        """Return this writer's charged bytes (its files left the disk)."""
        if self.budget is not None and self.charged:
            self.budget.release(self.charged, self.category)
            self.charged = 0

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def sweep_orphan_spills(directory: "Path | str", budget=None) -> List[str]:
    """Delete every unsealed ``*.tmp`` file under ``directory``.

    Atomic writers that died before their rename leave these behind; the
    coordinator calls this on its failure paths (and before a resume) so
    an abandoned partitioning pass cannot leak its frames forever, and
    under disk pressure (its own writers sealed or aborted first) with its
    ``budget``, which is credited the bytes freed: it models the
    directory's footprint, so any file gone is headroom regained.
    Returns the paths removed.
    """
    directory = Path(directory)
    removed: List[str] = []
    if not directory.is_dir():
        return removed
    for path in sorted(directory.rglob(f"*{TMP_SUFFIX}")):
        try:
            size = path.stat().st_size
            os.unlink(path)
        except FileNotFoundError:
            continue
        removed.append(str(path))
        if budget is not None:
            budget.release(size, "spill")
    return removed


class Frame(NamedTuple):
    """One frame of a framed file and where it sits: what a reader needs
    to report damage *inside* a CRC-valid payload the way the scanner
    reports damage to the framing itself."""

    label: str
    index: int
    offset: int
    """Byte offset of the frame's header."""
    record: bytes

    @property
    def end(self) -> int:
        """Byte offset just past the frame: the length of the file's
        prefix that ends with it."""
        return self.offset + FRAME_HEADER_SIZE + len(self.record)

    def violation(self, message: str) -> SpillCorruptionError:
        """The corruption error for this frame, located like every other."""
        return _violation(message, self.label, self.index, self.offset)


def _violation(
    message: str, label: str, frame_index: int, offset: int
) -> SpillCorruptionError:
    return SpillCorruptionError(
        f"{message} in {label} (frame {frame_index} at byte {offset})",
        path=label, frame_index=frame_index, offset=offset,
    )


def _read_frames(
    fh: BinaryIO,
    size: int,
    label: str,
    torn_tail: str,
    on_torn_tail: Optional[Callable[[SpillCorruptionError], None]],
) -> Iterator[Frame]:
    """The framing scanner shared by file and in-memory readers.

    ``torn_tail`` picks the policy for a framing violation whose damaged
    region reaches the end of the input: :data:`TORN_TAIL_ERROR` raises,
    :data:`TORN_TAIL_TRUNCATE` calls ``on_torn_tail`` (if given) with the
    would-be error and ends the iteration — the intact prefix is the log.
    A violation with bytes *after* the damaged frame always raises: that
    is mid-file corruption, not a torn append.
    """
    if torn_tail not in (TORN_TAIL_ERROR, TORN_TAIL_TRUNCATE):
        raise ValueError(f"unknown torn-tail policy {torn_tail!r}")
    frame_index = 0
    offset = 0
    while True:
        header = fh.read(FRAME_HEADER_SIZE)
        if not header:
            return

        def violation(message: str, *, at_tail: bool) -> None:
            error = _violation(message, label, frame_index, offset)
            if at_tail and torn_tail == TORN_TAIL_TRUNCATE:
                if on_torn_tail is not None:
                    on_torn_tail(error)
                return
            raise error

        if len(header) < FRAME_HEADER_SIZE:
            # A short header read necessarily touches EOF.
            violation("torn frame header", at_tail=True)
            return
        length, expected_crc = _HEADER.unpack(header)
        frame_end = offset + FRAME_HEADER_SIZE + length
        if length > MAX_RECORD_BYTES:
            # The length prefix is garbage; framing cannot resync past it,
            # so it only counts as a tail when nothing could follow it.
            violation("corrupt frame length", at_tail=frame_end >= size)
            return
        record = fh.read(length)
        if len(record) < length:
            violation(
                f"truncated record ({len(record)} of {length} bytes)",
                at_tail=True,
            )
            return
        actual_crc = zlib.crc32(record)
        if actual_crc != expected_crc:
            violation(
                f"checksum mismatch (crc32 {actual_crc:#010x} != stored "
                f"{expected_crc:#010x})",
                at_tail=frame_end >= size,
            )
            return
        yield Frame(label, frame_index, offset, record)
        frame_index += 1
        offset = frame_end


def read_frames(
    path: "Path | str",
    *,
    torn_tail: str = TORN_TAIL_ERROR,
    on_torn_tail: Optional[Callable[[SpillCorruptionError], None]] = None,
) -> Iterator[Frame]:
    """Yield the frames of a spill file in write order, each positioned.

    Raises :class:`SpillCorruptionError` on any framing violation: a torn
    header, an implausible length, a truncated record, or a CRC mismatch.
    With ``torn_tail="truncate"`` a violation at the end of the file — what
    a writer that died mid-append leaves — is a clean end-of-log instead;
    ``on_torn_tail`` (if given) observes the recovered damage.
    """
    path = Path(path)
    size = os.path.getsize(path)
    with path.open("rb") as fh:
        yield from _read_frames(fh, size, str(path), torn_tail, on_torn_tail)


def read_frames_bytes(
    data: bytes,
    *,
    label: str = "<bytes>",
    torn_tail: str = TORN_TAIL_ERROR,
    on_torn_tail: Optional[Callable[[SpillCorruptionError], None]] = None,
) -> Iterator[Frame]:
    """:func:`read_frames` over an in-memory byte string (manifest loading)."""
    yield from _read_frames(
        io.BytesIO(data), len(data), label, torn_tail, on_torn_tail
    )
