"""Key-pointer elements and their temporary on-disk files.

A key-pointer element is the ``<MBR, OID>`` pair PBSM's filter step works
with (§3.1), extended with the two-layer partitioning tags: the tile the
copy belongs to and its A/B/C/D border class
(:mod:`repro.core.partition`).  One record is written per ``(tile,
class)`` replica slot, so the merge can group a partition by tile and
apply the duplicate-free mini-join class filter without recomputing any
geometry.  Candidate files hold the filter step's ``<OID_R, OID_S>``
output pairs.  Both live in temporary files charged to the simulated
disk, so the partitioning and merging I/O the paper measures is
accounted for.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

import numpy as np

from ..geometry import Rect
from ..storage.buffer import BufferPool
from ..storage.heapfile import HeapFile
from ..storage.relation import OID

_KEYPTR = struct.Struct("<ffffIIIIB")
KEYPTR_SIZE = _KEYPTR.size
"""Size of one key-pointer element (the paper's ``size_keyptr``; 33 bytes
here: f32 MBR + 12-byte OID + u32 tile + u8 two-layer class).

Key-pointer MBRs are stored in single precision, like Paradise's: the MBR
is only a filter-step approximation, so the smaller footprint halves the
partition files and keeps Equation 1's partition counts in the paper's
regime.  Rounding is *conservative* (lower bounds rounded down, upper
bounds up), so a stored MBR always contains the exact one and the filter
output remains a superset of the true result.  The tile and class tags
are computed from the *exact* (f64) MBR at partition time and persisted,
never re-derived from the rounded rect — the dedup-free merge depends on
every copy of an object agreeing on its tile span.
"""

_F32 = struct.Struct("<f")

_OIDPAIR = struct.Struct("<IIIIII")
OIDPAIR_SIZE = _OIDPAIR.size

KeyPointer = Tuple[Rect, OID, int, int]
"""``(rect, oid, tile, class)`` — one two-layer replica slot."""
CandidatePair = Tuple[OID, OID]


def _f32_down(value: float) -> float:
    # Compare in float64 explicitly: NumPy 2's weak promotion would
    # otherwise cast ``value`` down to float32 and hide the rounding error.
    f = np.float32(value)
    if float(f) > value:
        f = np.nextafter(f, np.float32(-np.inf))
    return float(f)


def _f32_up(value: float) -> float:
    f = np.float32(value)
    if float(f) < value:
        f = np.nextafter(f, np.float32(np.inf))
    return float(f)


def _f32_all(values: np.ndarray, toward: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        out = values.astype(np.float32)
    # Compared in float64, like the scalars: where the cast moved a value
    # away from ``toward``, step it one float32 back.
    back = out.astype(np.float64)
    wrong = back > values if toward < 0 else back < values
    out[wrong] = np.nextafter(out[wrong], np.float32(toward))
    return out


def f32_down_all(values: np.ndarray) -> np.ndarray:
    """:func:`_f32_down` over a float64 array, bit for bit."""
    return _f32_all(values, -np.inf)


def f32_up_all(values: np.ndarray) -> np.ndarray:
    """:func:`_f32_up` over a float64 array, bit for bit."""
    return _f32_all(values, np.inf)


def conservative_f32(mbrs: np.ndarray) -> np.ndarray:
    """An N×4 float64 ``(xl, yl, xu, yu)`` array as the float32 MBRs a
    key-pointer stores: lower bounds rounded down, upper bounds up."""
    return np.hstack([f32_down_all(mbrs[:, :2]), f32_up_all(mbrs[:, 2:])])


def pack_keypointer(rect: Rect, oid: OID, tile: int = 0, cls: int = 0) -> bytes:
    return _KEYPTR.pack(
        _f32_down(rect.xl), _f32_down(rect.yl),
        _f32_up(rect.xu), _f32_up(rect.yu),
        *oid,
        tile, cls,
    )


def unpack_keypointer(data: bytes) -> KeyPointer:
    xl, yl, xu, yu, a, b, c, tile, cls = _KEYPTR.unpack(data)
    return Rect(xl, yl, xu, yu), OID(a, b, c), tile, cls


class KeyPointerFile:
    """A temporary heap file of key-pointer elements (one PBSM partition)."""

    def __init__(self, pool: BufferPool):
        self.heap = HeapFile(pool)
        self.count = 0

    def append(self, rect: Rect, oid: OID, tile: int = 0, cls: int = 0) -> None:
        self.heap.append(pack_keypointer(rect, oid, tile, cls))
        self.count += 1

    def read_all(self) -> List[KeyPointer]:
        """Read the whole partition into memory (it is sized to fit)."""
        return [unpack_keypointer(record) for _rid, record in self.heap.scan()]

    def scan(self) -> Iterator[KeyPointer]:
        for _rid, record in self.heap.scan():
            yield unpack_keypointer(record)

    def size_bytes(self) -> int:
        return self.count * KEYPTR_SIZE

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def drop(self) -> None:
        self.heap.drop()


class CandidateFile:
    """The filter step's output: a temp file of ``<OID_R, OID_S>`` pairs."""

    def __init__(self, pool: BufferPool):
        self.heap = HeapFile(pool)
        self.count = 0

    def append(self, oid_r: OID, oid_s: OID) -> None:
        self.heap.append(_OIDPAIR.pack(*oid_r, *oid_s))
        self.count += 1

    def read_all(self) -> List[CandidatePair]:
        out: List[CandidatePair] = []
        for _rid, record in self.heap.scan():
            a, b, c, d, e, f = _OIDPAIR.unpack(record)
            out.append((OID(a, b, c), OID(d, e, f)))
        return out

    def drop(self) -> None:
        self.heap.drop()
