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
from typing import Optional, Tuple, Union

import numpy as np

from ..geometry import Polygon, Polyline, Rect

Geometry = Union[Polyline, Polygon]

_GEOM_POLYLINE = 1
_GEOM_POLYGON = 2

_HEAD = struct.Struct("<BIH")  # geom tag, feature id, category
_U16 = struct.Struct("<H")
_POINT = struct.Struct("<dd")


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


def serialize_tuple(t: SpatialTuple) -> bytes:
    """Pack a tuple into bytes (inverse of :func:`deserialize_tuple`)."""
    if isinstance(t.geom, Polyline):
        tag = _GEOM_POLYLINE
    elif isinstance(t.geom, Polygon):
        tag = _GEOM_POLYGON
    else:
        raise TypeError(f"unsupported geometry: {type(t.geom).__name__}")

    parts = [_HEAD.pack(tag, t.feature_id, t.category)]
    name_bytes = t.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("name too long")
    parts.append(_U16.pack(len(name_bytes)))
    parts.append(name_bytes)

    if tag == _GEOM_POLYLINE:
        points = t.geom.points
        parts.append(_U16.pack(len(points)))
        for x, y in points:
            parts.append(_POINT.pack(x, y))
    else:
        rings = t.geom.rings
        parts.append(_U16.pack(len(rings)))
        for ring in rings:
            parts.append(_U16.pack(len(ring)))
            for x, y in ring:
                parts.append(_POINT.pack(x, y))
    return b"".join(parts)


def deserialize_tuple(data: bytes) -> SpatialTuple:
    """Unpack bytes produced by :func:`serialize_tuple`."""
    tag, feature_id, category = _HEAD.unpack_from(data, 0)
    pos = _HEAD.size
    (name_len,) = _U16.unpack_from(data, pos)
    pos += _U16.size
    name = data[pos : pos + name_len].decode("utf-8")
    pos += name_len

    geom: Geometry
    if tag == _GEOM_POLYLINE:
        points, pos = _unpack_run(data, pos)
        geom = Polyline(points)
    elif tag == _GEOM_POLYGON:
        (nrings,) = _U16.unpack_from(data, pos)
        pos += _U16.size
        rings = []
        for _ in range(nrings):
            ring, pos = _unpack_run(data, pos)
            rings.append(ring)
        geom = Polygon(rings[0], rings[1:])
    else:
        raise ValueError(f"unknown geometry tag {tag}")
    return SpatialTuple(feature_id, category, name, geom)


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
    name_len = len(t.name.encode("utf-8"))
    base = _HEAD.size + _U16.size + name_len
    if isinstance(t.geom, Polyline):
        return base + _U16.size + len(t.geom.points) * _POINT.size
    rings = t.geom.rings
    return base + _U16.size + sum(
        _U16.size + len(ring) * _POINT.size for ring in rings
    )
