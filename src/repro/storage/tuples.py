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
    def windows(dtype: str) -> np.ndarray:
        """Every window of the buffer as one ``dtype`` value, whatever its
        alignment: element ``i`` is the bytes from ``i`` on."""
        size = np.dtype(dtype).itemsize
        return np.ndarray(
            (max(len(buffer) - size + 1, 0),), dtype, buffer, strides=(1,)
        )

    u8, u16, f64 = windows("u1"), windows("<u2"), windows("<f8")
    name_at = starts + _HEAD.size
    if (name_at + 2 * _U16.size > ends).any():
        raise ValueError("a record is shorter than its fixed fields")
    if (u8[starts] != _GEOM_POLYLINE).any():
        return None
    count_at = name_at + _U16.size + u16[name_at]
    if (count_at + _U16.size > ends).any():
        raise ValueError("a name overruns its record")
    counts = u16[count_at].astype(np.int64)
    run_at = count_at + _U16.size
    if (counts < 2).any() or (run_at + counts * _POINT.size != ends).any():
        raise ValueError(
            "a coordinate run of fewer than two points, or one that does not "
            "end where its record does"
        )
    first = np.concatenate(([0], np.cumsum(counts)))
    # The x of point k of record i is the double at run_at[i] + 16 k.
    x_at = np.repeat(run_at - first[:-1] * _POINT.size, counts)
    x_at += np.arange(first[-1]) * _POINT.size
    return f64[x_at], f64[x_at + 8], first


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
