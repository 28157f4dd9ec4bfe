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

Spills are never durable: a run writes them into a temporary directory
of its own and removes it when it ends, so a writer neither fsyncs nor
stages through a temporary name.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional

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

def pack_frame(record: bytes) -> bytes:
    """One framed record: length + CRC32 header, then the payload."""
    if len(record) > MAX_RECORD_BYTES:
        raise ValueError(f"record of {len(record)} bytes exceeds frame bound")
    return _HEADER.pack(len(record), zlib.crc32(record)) + record


class SpillWriter:
    """Append length-prefixed, checksummed records to a spill file.

    A run makes its spill directory once; a writer makes a missing one.
    Usable as a context manager: a clean exit seals the file, an exception
    aborts it (the partial file is deleted — an abandoned partition must
    not leave its frames on disk).  ``count`` tracks records written so the coordinator can seed scheduling
    estimates without re-reading the file.

    With a ``budget`` (:class:`~repro.storage.pressure.DiskBudget`) every
    frame is charged *before* it is written — a denied append raises
    :class:`~repro.storage.errors.DiskFullError` with the file unchanged
    — and ``abort`` releases everything this writer charged.  ``close``
    does not release: closed bytes stay on disk and stay accounted.
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str",
        *,
        budget=None,
        category: str = "spill",
    ):
        self.path = os.fspath(path)
        self.budget = budget
        self.category = category
        self.charged = 0
        try:
            self._fh: Optional[BinaryIO] = open(self.path, "wb")
        except FileNotFoundError:  # a caller that made no directory
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            self._fh = open(self.path, "wb")
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
        """Finish the file (flushed, not fsynced)."""
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()

    def abort(self) -> None:
        """Discard the write: close and delete whatever hit the disk."""
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()
        try:
            os.unlink(self.path)
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


class Frame(NamedTuple):
    """One frame of a framed file and where it sits: what a reader needs
    to report damage *inside* a CRC-valid payload the way the scanner
    reports damage to the framing itself."""

    label: str
    index: int
    offset: int
    """Byte offset of the frame's header."""
    record: memoryview
    """The payload, in place in the bytes scanned (read-only)."""

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


def read_frames_bytes(
    data: bytes | mmap.mmap,
    *,
    label: str = "<bytes>",
    torn_tail: str = TORN_TAIL_ERROR,
    on_torn_tail: Optional[Callable[[SpillCorruptionError], None]] = None,
) -> Iterator[Frame]:
    """The frames of a framed byte string in write order, each positioned,
    its CRC checked in place: no frame's payload is copied.

    Raises :class:`SpillCorruptionError` on any framing violation: a torn
    header, an implausible length, a truncated record, or a CRC mismatch.
    ``torn_tail`` picks the policy for a violation whose damaged region
    reaches the end of the input: :data:`TORN_TAIL_ERROR` raises,
    :data:`TORN_TAIL_TRUNCATE` calls ``on_torn_tail`` (if given) with the
    would-be error and ends the iteration — the intact prefix is the log,
    as a writer that died mid-append leaves it.  A violation with bytes
    *after* the damaged frame always raises: that is mid-file corruption,
    not a torn append.
    """
    if torn_tail not in (TORN_TAIL_ERROR, TORN_TAIL_TRUNCATE):
        raise ValueError(f"unknown torn-tail policy {torn_tail!r}")
    view = memoryview(data)
    size = len(view)
    frame_index = offset = 0
    while offset < size:

        def violation(message: str, *, at_tail: bool) -> None:
            error = _violation(message, label, frame_index, offset)
            if not (at_tail and torn_tail == TORN_TAIL_TRUNCATE):
                raise error
            if on_torn_tail is not None:
                on_torn_tail(error)

        if size - offset < FRAME_HEADER_SIZE:
            # A short header necessarily touches the end.
            violation("torn frame header", at_tail=True)
            return
        length, expected_crc = _HEADER.unpack_from(view, offset)
        start = offset + FRAME_HEADER_SIZE
        frame_end = start + length
        if length > MAX_RECORD_BYTES:
            # The length prefix is garbage; framing cannot resync past it,
            # so it only counts as a tail when nothing could follow it.
            violation("corrupt frame length", at_tail=frame_end >= size)
            return
        if frame_end > size:
            violation(
                f"truncated record ({size - start} of {length} bytes)",
                at_tail=True,
            )
            return
        record = view[start:frame_end]
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
    """:func:`read_frames_bytes` over a spill file, read whole once."""
    path = Path(path)
    yield from read_frames_bytes(
        path.read_bytes(), label=str(path),
        torn_tail=torn_tail, on_torn_tail=on_torn_tail,
    )
