"""Spatial tuples and their on-page serialisation.

A tuple mirrors the TIGER/Sequoia records of the paper: a spatial feature
(polyline or polygon-with-holes) plus a handful of alphanumeric attributes
(name, classification).  Serialisation is explicit ``struct`` packing so
that relation sizes in pages are meaningful and comparable to the paper's
megabyte figures (a TIGER road tuple with 8 points packs to ~150 bytes here
vs ~137 in Paradise).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..geometry import Polygon, Polyline, Rect
from ..geometry.kernels import polygon_extents

Geometry = Union[Polyline, Polygon]

_GEOM_POLYLINE = 1
_GEOM_POLYGON = 2

_HEAD = struct.Struct("<BIH")  # geom tag, feature id, category
_U16 = struct.Struct("<H")
_POINT = struct.Struct("<dd")
_NAMED_HEAD = struct.Struct("<BIHH")  # _HEAD, then the name's length

SPILL_BLOCK_RECORDS = 4096
"""Records per window: the generators pack a side's records, and a
relation file frames them, this many at a time (a partition's share of a
window is one frame of its key-pointer spill).  Large enough that numpy,
framing, CRC and the budget charge are paid per block rather than per
record; small enough that a window's serialised tuples are a few hundred
kilobytes."""


def _unpack_run(data: bytes, pos: int):
    """A u16 point count and that many ``(x, y)`` doubles at ``pos``,
    decoded in one ``struct`` call: ``(points, next pos)``."""
    (npoints,) = _U16.unpack_from(data, pos)
    start = pos + _U16.size
    end = start + npoints * _POINT.size
    if end > len(data):
        raise struct.error("coordinate run overruns the record")
    return list(_POINT.iter_unpack(data[start:end])), end


@dataclass(frozen=True, slots=True)
class SpatialTuple:
    """One record of a spatial relation."""

    feature_id: int
    category: int
    name: str
    geom: Geometry

    @property
    def mbr(self) -> Rect:
        return self.geom.mbr

    @property
    def num_points(self) -> int:
        return self.geom.num_points


def _runs(t: SpatialTuple) -> Tuple[int, bytes, Sequence[Sequence[Tuple[float, float]]]]:
    """A tuple's geometry tag, its ring-count field and its coordinate runs."""
    if isinstance(t.geom, Polyline):
        return _GEOM_POLYLINE, b"", [t.geom.points]
    if isinstance(t.geom, Polygon):
        return _GEOM_POLYGON, _U16.pack(len(t.geom.rings)), t.geom.rings
    raise TypeError(f"unsupported geometry: {type(t.geom).__name__}")


def serialize_tuple(t: SpatialTuple) -> bytes:
    """Pack a tuple into bytes (inverse of :func:`deserialize_tuple`)."""
    tag, rings, runs = _runs(t)
    name = t.name.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ValueError("name too long")
    parts = [_NAMED_HEAD.pack(tag, t.feature_id, t.category, len(name)), name, rings]
    for run in runs:
        parts += (_U16.pack(len(run)), *starmap(_POINT.pack, run))
    return b"".join(parts)


def deserialize_tuple(data: bytes) -> SpatialTuple:
    """Unpack bytes produced by :func:`serialize_tuple`."""
    tag, feature_id, category, name_len = _NAMED_HEAD.unpack_from(data, 0)
    pos = _NAMED_HEAD.size + name_len
    name = data[_NAMED_HEAD.size : pos].decode("utf-8")
    if tag not in (_GEOM_POLYLINE, _GEOM_POLYGON):
        raise ValueError(f"unknown geometry tag {tag}")
    (count,) = (1,) if tag == _GEOM_POLYLINE else _U16.unpack_from(data, pos)
    pos += _U16.size * (tag == _GEOM_POLYGON)
    runs = []
    for _ in range(count):
        run, pos = _unpack_run(data, pos)
        runs.append(run)
    geom: Geometry = Polyline(runs[0]) if tag == _GEOM_POLYLINE else Polygon(runs[0], runs[1:])
    return SpatialTuple(feature_id, category, name, geom)


def record_feature_id(data: bytes) -> int:
    """The feature id in the head of a :func:`serialize_tuple` record,
    with nothing else of it decoded."""
    return _NAMED_HEAD.unpack_from(data)[1]


@dataclass(frozen=True, eq=False)
class Records:
    """A relation's stored form: every :func:`serialize_tuple` record back
    to back in ``payload``; record ``i`` is
    ``payload[offsets[i]:offsets[i + 1]]`` (``offsets``: N+1 int64).
    Iterating it decodes the records, one at a time."""

    payload: bytes
    offsets: np.ndarray

    @classmethod
    def of(cls, tuples: Iterable[SpatialTuple]) -> "Records":
        """The stored form of tuples: each serialised once."""
        records = [serialize_tuple(t) for t in tuples]
        return cls(b"".join(records), np.cumsum([0, *map(len, records)], dtype=np.int64))

    def __iter__(self) -> Iterator[SpatialTuple]:
        bounds = self.offsets.tolist()
        for start, end in zip(bounds, bounds[1:]):
            yield deserialize_tuple(self.payload[start:end])


def pack_records(windows: Iterable[tuple]) -> Records:
    """The records :func:`serialize_tuple` makes of geometries given as
    columns, byte for byte, a window of records at a time.  A window is
    ``(fids, category, names, x, y, first)`` — the inverse of
    :func:`polyline_runs`: record ``i`` the polyline of points
    ``first[i]:first[i + 1]`` — or, with ``poly_first`` after them, of
    :func:`polygon_runs`: record ``i`` the polygon of rings
    ``poly_first[i]:poly_first[i + 1]``, shell first, ring ``j`` the points
    ``first[j]:first[j + 1]``, not closed (as ``Polygon`` keeps it).
    Record ``i`` of a window has feature id ``fids[i]`` and name
    ``names[i]``; no run may hold more than 65,535 points, the most a u16
    count says."""
    payloads, sizes = [], [np.zeros(1, np.int64)]
    for fids, category, names, x, y, first, *polygon in windows:
        poly_first = polygon[0] if polygon else np.arange(len(first))
        counts = np.diff(first)
        tag = _GEOM_POLYGON if polygon else _GEOM_POLYLINE
        ring_counts = map(_U16.pack, np.diff(poly_first).tolist()) if polygon else repeat(b"")
        heads = [
            _NAMED_HEAD.pack(tag, fid, category, len(name)) + name + ring_count
            for fid, name, ring_count in zip(fids.tolist(), map(str.encode, names), ring_counts)
        ]
        # Each run: its record's head (before the record's first run only),
        # its point count, its coordinates.
        head_len = np.zeros(len(counts), np.int64)
        head_len[poly_first[:-1]] = np.fromiter(map(len, heads), np.int64, len(heads))
        lengths = np.column_stack((head_len, np.full(len(counts), _U16.size), counts * _POINT.size))
        source = np.repeat(np.tile(np.arange(3, dtype=np.uint8), len(counts)), lengths.ravel())
        payload = np.empty(len(source), np.uint8)
        parts = (np.frombuffer(b"".join(heads), np.uint8), counts.astype("<u2").view(np.uint8),
                 np.column_stack((x, y)).astype("<f8").view(np.uint8).ravel())
        for at, part in enumerate(parts):
            payload[source == at] = part
        payloads.append(payload.tobytes())
        sizes.append(np.add.reduceat(lengths.sum(axis=1), poly_first[:-1]))
    return Records(b"".join(payloads), np.cumsum(np.concatenate(sizes)))


def record_columns(buffer: bytes, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each record's feature id, from its head, and the exact MBR of its
    geometry, N×4 ``(xl, yl, xu, yu)``: of a polyline's points, of a
    polygon's shell — the geometry's ``mbr`` (``Rect.from_points``) — from
    the coordinate runs of a :data:`SPILL_BLOCK_RECORDS` window of records
    at a time.  Every record is a polyline's or a polygon's, as
    :func:`serialize_tuple` and :func:`pack_records` write them."""
    tags = _windows(buffer, "u1")[offsets[:-1]]
    mbrs = np.empty((len(tags), 4))
    for at in range(0, len(tags), SPILL_BLOCK_RECORDS):
        window = np.arange(at, min(at + SPILL_BLOCK_RECORDS, len(tags)))
        for tag, decode in ((_GEOM_POLYLINE, polyline_runs), (_GEOM_POLYGON, polygon_runs)):
            of = window[tags[window] == tag]
            if len(of):
                x, y, first, *shells = decode(buffer, offsets[of], offsets[of + 1])
                # Each run's MBR: the extent of each run taken as its own polygon.
                runs = np.column_stack(polygon_extents(x, y, first, np.arange(len(first))))
                mbrs[of] = runs[shells[0][:-1]] if shells else runs
    return _windows(buffer, "<u4")[offsets[:-1] + 1], mbrs


def record_points(buffer: bytes, offsets: np.ndarray) -> int:
    """The points the records hold, every run of every record: what is
    left of a record after its head, name, ring count and run counts, at
    16 bytes a point — the sum of the geometries' ``num_points``.  Every
    record is a polyline's or a polygon's whose runs end where it does, as
    :func:`record_columns` checks them."""
    starts = offsets[:-1]
    u16 = _windows(buffer, "<u2")
    name_at = starts + _HEAD.size
    at = name_at + _U16.size + u16[name_at]
    polygon = _windows(buffer, "u1")[starts] == _GEOM_POLYGON
    runs = np.where(polygon, u16[at].astype(np.int64), 1)
    counts = (polygon + runs) * _U16.size
    return int((offsets[1:] - at - counts).sum()) // _POINT.size


def _windows(buffer: bytes, dtype: str) -> np.ndarray:
    """Every window of the buffer as one ``dtype`` value, whatever its
    alignment: element ``i`` is the bytes from ``i`` on."""
    size = np.dtype(dtype).itemsize
    return np.ndarray(
        (max(len(buffer) - size + 1, 0),), dtype, buffer, strides=(1,)
    )


def _geometry_at(
    buffer: bytes, starts: np.ndarray, ends: np.ndarray, tag: int
) -> Optional[np.ndarray]:
    """The record-head walk both column decoders share: where each
    record's geometry begins — the u16 after its name, inside the record —
    or ``None`` if some record does not carry ``tag``."""
    name_at = starts + _HEAD.size
    if (name_at + 2 * _U16.size > ends).any():
        raise ValueError("a record is shorter than its fixed fields")
    if (_windows(buffer, "u1")[starts] != tag).any():
        return None
    at = name_at + _U16.size + _windows(buffer, "<u2")[name_at]
    if (at + _U16.size > ends).any():
        raise ValueError("a name overruns its record")
    return at


def _points(buffer: bytes, run_at: np.ndarray, first: np.ndarray):
    """The ``(x, y)`` columns of coordinate runs: run ``i`` is the
    ``first[i + 1] - first[i]`` points stored from byte ``run_at[i]`` on."""
    # The x of point k of run i is the double at run_at[i] + 16 k.
    x_at = np.repeat(run_at - first[:-1] * _POINT.size, np.diff(first))
    x_at += np.arange(first[-1]) * _POINT.size
    f64 = _windows(buffer, "<f8")
    return f64[x_at], f64[x_at + 8]


def polyline_runs(
    buffer: bytes, starts: np.ndarray, ends: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The column form of :func:`deserialize_tuple` for polyline records.

    Record ``i`` is ``buffer[starts[i]:ends[i]]``.  Returns ``(x, y,
    first)`` — record ``i``'s points are ``first[i]:first[i + 1]`` of the
    two float64 columns — or ``None`` if some record is not a polyline.
    Nothing outside a record is read: what :func:`deserialize_tuple` and
    ``Polyline`` reject (a run that overruns its record, fewer than two
    points) is rejected here, and so is a run that stops short of the
    record's end.
    """
    count_at = _geometry_at(buffer, starts, ends, _GEOM_POLYLINE)
    if count_at is None:
        return None
    counts = _windows(buffer, "<u2")[count_at].astype(np.int64)
    run_at = count_at + _U16.size
    if (counts < 2).any() or (run_at + counts * _POINT.size != ends).any():
        raise ValueError(
            "a coordinate run of fewer than two points, or one that does not "
            "end where its record does"
        )
    first = np.concatenate(([0], np.cumsum(counts)))
    return (*_points(buffer, run_at, first), first)


def polygon_runs(
    buffer: bytes, starts: np.ndarray, ends: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The column form of :func:`deserialize_tuple` for polygon records.

    Returns ``(x, y, ring_first, poly_first)`` — ring ``j`` is the vertices
    ``ring_first[j]:ring_first[j + 1]`` of the two float64 columns, record
    ``i``'s rings are ``poly_first[i]:poly_first[i + 1]``, its shell first
    — or ``None`` if some record is not a polygon.  Rings come out as
    ``Polygon`` keeps them: one stored closed (last vertex equal to its
    first) loses the repeat.  Nothing outside a record is read, and what
    :func:`deserialize_tuple` and ``Polygon`` reject is rejected here — no
    rings, a ring that overruns its record, fewer than three vertices
    before or after the repeat is dropped — as are rings that stop short
    of the record's end.
    """
    at = _geometry_at(buffer, starts, ends, _GEOM_POLYGON)
    if at is None:
        return None
    u16, f64 = _windows(buffer, "<u2"), _windows(buffer, "<f8")
    rings = u16[at].astype(np.int64)
    if (rings == 0).any():
        raise ValueError("a polygon record with no rings")
    poly_first = np.concatenate(([0], np.cumsum(rings)))
    run_at = np.empty(poly_first[-1], np.int64)
    counts = np.empty(poly_first[-1], np.int64)
    # A ring starts where the one before it ends, so the records are
    # walked a ring at a time, all of them abreast: as many steps as the
    # most rings any record has.
    at = at + _U16.size
    walking = np.arange(len(starts))
    for depth in range(int(rings.max(initial=0))):
        walking = walking[rings[walking] > depth]
        count_at, end = at[walking], ends[walking]
        if (count_at + _U16.size > end).any():
            raise ValueError("a ring count overruns its record")
        count = u16[count_at].astype(np.int64)
        ring = poly_first[walking] + depth
        run_at[ring], counts[ring] = count_at + _U16.size, count
        at[walking] = run_at[ring] + count * _POINT.size
        if (count < 3).any() or (at[walking] > end).any():
            raise ValueError(
                "a ring of fewer than three vertices, or one that overruns "
                "its record"
            )
    if (at != ends).any():
        raise ValueError("rings that do not end where their record does")
    last_at = run_at + (counts - 1) * _POINT.size
    counts -= (f64[run_at] == f64[last_at]) & (f64[run_at + 8] == f64[last_at + 8])
    if (counts < 3).any():
        raise ValueError("a ring of fewer than three distinct vertices")
    ring_first = np.concatenate(([0], np.cumsum(counts)))
    return (*_points(buffer, run_at, ring_first), ring_first, poly_first)


def tuple_size_bytes(t: SpatialTuple) -> int:
    """Serialised size without materialising the bytes twice."""
    _, rings, runs = _runs(t)
    return _NAMED_HEAD.size + len(t.name.encode("utf-8")) + len(rings) + sum(
        _U16.size + len(run) * _POINT.size for run in runs
    )
