"""A simulated disk with an explicit I/O cost model.

The paper's experiments ran on a Sun SPARC-10 with a 2 GB Seagate SCSI disk
and SHORE as the storage manager.  We replace the physical disk with an
in-memory page store that *accounts* for every page read and write,
classifying each access as sequential (the page follows the previous access
on the same device) or random (requires a seek).  Simulated I/O time is then
``seeks * seek_time + transfers * transfer_time``, with 1996-era defaults.

All page traffic in the repository goes through here, so buffer-pool-size
experiments and the paper's I/O-contribution breakdowns (Table 4) are
reproducible and deterministic.

This module also owns the **atomic write-ahead protocol** the checkpoint
subsystem persists join manifests with: :func:`atomic_write_bytes` writes
a temp file, fsyncs it, and renames it over the target, so a reader only
ever sees the old bytes or the new bytes — never a tear.  The simulated
disk models the same protocol's price (:meth:`SimulatedDisk.fsync` and
:meth:`SimulatedDisk.charge_durable_write`, charged at
:attr:`IOCostModel.fsync_time`), so experiments that checkpoint can
account for durability like any other I/O.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import PageSizeError, UnallocatedPageError, UnknownFileError

PAGE_SIZE = 8192
"""Bytes per page, matching SHORE's default."""

PageId = Tuple[int, int]
"""(file_id, page_number)"""


@dataclass
class IOCostModel:
    """Charges for the simulated disk, in seconds.

    Defaults model a mid-90s SCSI disk: ~10 ms average seek + rotational
    delay, ~5 MB/s transfer (an 8 KB page in ~1.6 ms).  An fsync forces
    the write cache out and waits for the platter — charged like a seek.
    """

    seek_time: float = 0.010
    transfer_time: float = 0.0016
    fsync_time: float = 0.010


@dataclass
class DiskStats:
    """Cumulative access counters; snapshot-and-diff to meter a phase."""

    page_reads: int = 0
    page_writes: int = 0
    random_reads: int = 0
    random_writes: int = 0
    pages_allocated: int = 0
    fsyncs: int = 0

    def copy(self) -> "DiskStats":
        return DiskStats(
            self.page_reads,
            self.page_writes,
            self.random_reads,
            self.random_writes,
            self.pages_allocated,
            self.fsyncs,
        )

    def minus(self, earlier: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.page_reads - earlier.page_reads,
            self.page_writes - earlier.page_writes,
            self.random_reads - earlier.random_reads,
            self.random_writes - earlier.random_writes,
            self.pages_allocated - earlier.pages_allocated,
            self.fsyncs - earlier.fsyncs,
        )

    @property
    def total_ios(self) -> int:
        return self.page_reads + self.page_writes

    @property
    def seeks(self) -> int:
        return self.random_reads + self.random_writes

    def io_time(self, cost: IOCostModel) -> float:
        return (
            self.seeks * cost.seek_time
            + self.total_ios * cost.transfer_time
            + self.fsyncs * cost.fsync_time
        )


class SimulatedDisk:
    """In-memory page store with sequential/random access classification."""

    def __init__(self, cost_model: IOCostModel | None = None):
        self.cost_model = cost_model or IOCostModel()
        self.stats = DiskStats()
        self._pages: Dict[PageId, bytes] = {}
        self._file_lengths: Dict[int, int] = {}
        self._next_file_id = 0
        self._last_access_per_file: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # file management
    # ------------------------------------------------------------------ #

    def create_file(self) -> int:
        fid = self._next_file_id
        self._next_file_id += 1
        self._file_lengths[fid] = 0
        return fid

    def drop_file(self, file_id: int) -> None:
        if file_id not in self._file_lengths:
            raise UnknownFileError(f"drop of unknown file {file_id}")
        npages = self._file_lengths.pop(file_id)
        for page_no in range(npages):
            self._pages.pop((file_id, page_no), None)
        self._last_access_per_file.pop(file_id, None)

    def file_length(self, file_id: int) -> int:
        """Number of pages allocated to the file."""
        if file_id not in self._file_lengths:
            raise UnknownFileError(f"length of unknown file {file_id}")
        return self._file_lengths[file_id]

    def file_ids(self) -> List[int]:
        return list(self._file_lengths)

    def allocate_page(self, file_id: int) -> int:
        """Extend the file by one (zeroed) page; returns its page number."""
        page_no = self._file_lengths[file_id]
        self._file_lengths[file_id] = page_no + 1
        self._pages[(file_id, page_no)] = bytes(PAGE_SIZE)
        self.stats.pages_allocated += 1
        return page_no

    # ------------------------------------------------------------------ #
    # page I/O
    # ------------------------------------------------------------------ #

    def _is_sequential(self, pid: PageId) -> bool:
        """Sequential = next page of the same file's current access stream.

        Head position is tracked per file, modelling the per-stream
        prefetch/write-behind a real I/O subsystem provides: a scan
        interleaved with writes to another file does not pay a seek per
        page, but random access within any one file does.
        """
        last = self._last_access_per_file.get(pid[0])
        return last is not None and pid[1] == last + 1

    def read_page(self, file_id: int, page_no: int) -> bytes:
        pid = (file_id, page_no)
        if pid not in self._pages:
            raise UnallocatedPageError(f"read of unallocated page {pid}")
        self.stats.page_reads += 1
        if not self._is_sequential(pid):
            self.stats.random_reads += 1
        self._last_access_per_file[pid[0]] = pid[1]
        return self._pages[pid]

    def write_page(self, file_id: int, page_no: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise PageSizeError(f"page must be exactly {PAGE_SIZE} bytes")
        pid = (file_id, page_no)
        if pid not in self._pages:
            raise UnallocatedPageError(f"write of unallocated page {pid}")
        self.stats.page_writes += 1
        if not self._is_sequential(pid):
            self.stats.random_writes += 1
        self._last_access_per_file[pid[0]] = pid[1]
        self._pages[pid] = bytes(data)

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def fsync(self, file_id: int) -> None:
        """Force one file's writes to stable storage (cost-model only:
        the in-memory page store is always 'durable')."""
        if file_id not in self._file_lengths:
            raise UnknownFileError(f"fsync of unknown file {file_id}")
        self.stats.fsyncs += 1

    def charge_durable_write(self, nbytes: int) -> None:
        """Charge the atomic write-ahead protocol for ``nbytes`` of state.

        Models what :func:`atomic_write_bytes` does on a real disk: seek
        to the temp file (one random write), stream the payload (page-
        sized sequential writes), fsync the data, then fsync the directory
        so the rename is durable.  Checkpointing code calls this so the
        simulated cost model sees durability as I/O, not as magic.
        """
        pages = max(1, -(-int(nbytes) // PAGE_SIZE))
        self.stats.page_writes += pages
        self.stats.random_writes += 1
        self.stats.fsyncs += 2

    # ------------------------------------------------------------------ #
    # metering helpers
    # ------------------------------------------------------------------ #

    def snapshot(self) -> DiskStats:
        return self.stats.copy()

    def io_time_since(self, snapshot: DiskStats) -> float:
        return self.stats.minus(snapshot).io_time(self.cost_model)


# ---------------------------------------------------------------------- #
# the atomic write-ahead protocol (real filesystem)
# ---------------------------------------------------------------------- #

ATOMIC_TMP_SUFFIX = ".tmp"
"""Suffix of the not-yet-renamed temp file an atomic write stages into."""


def atomic_write_bytes(
    path: "Path | str",
    data: bytes,
    *,
    fsync: bool = True,
    disk: Optional[SimulatedDisk] = None,
    budget=None,
    category: str = "checkpoint",
) -> Path:
    """Crash-safely replace ``path`` with ``data``: write temp, fsync, rename.

    A reader concurrent with (or resumed after) a crash sees either the
    complete old bytes or the complete new bytes under ``path`` — the
    half-written state only ever exists under ``<path>.tmp``, which the
    next write to ``path`` replaces.  ``disk`` (optional) charges the
    protocol's modeled cost on a :class:`SimulatedDisk` via
    :meth:`~SimulatedDisk.charge_durable_write`.

    ``budget`` (optional :class:`~repro.storage.pressure.DiskBudget`)
    charges ``len(data)`` under ``category`` *before* any byte is staged,
    so a denied write raises :class:`~repro.storage.errors.DiskFullError`
    with the target file untouched.  The caller owns releasing the old
    version's bytes if it is rewriting a file it already charged.
    """
    path = Path(path)
    if budget is not None:
        budget.charge(len(data), category)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ATOMIC_TMP_SUFFIX)
    with tmp.open("wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            dir_fd = -1  # platform without directory fds: best effort
        if dir_fd >= 0:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    if disk is not None:
        disk.charge_durable_write(len(data))
    return path
