"""Tests for spatial tuple serialisation."""

import copy
import dataclasses
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Polygon, Polyline
from repro.storage import (
    SpatialTuple,
    deserialize_tuple,
    serialize_tuple,
    tuple_size_bytes,
)
from repro.storage.tuples import polygon_runs, polyline_runs
from tests.conftest import points, polyline_points


def polyline_tuple(points=None, name="road-1"):
    return SpatialTuple(
        feature_id=42,
        category=1,
        name=name,
        geom=Polyline(points or [(0, 0), (1, 2), (3, 1)]),
    )


def polygon_tuple(holes=()):
    return SpatialTuple(
        feature_id=7,
        category=10,
        name="landuse-7",
        geom=Polygon([(0, 0), (10, 0), (10, 10), (0, 10)], holes),
    )


class TestRoundtrip:
    def test_polyline(self):
        t = polyline_tuple()
        back = deserialize_tuple(serialize_tuple(t))
        assert back == t

    def test_polygon(self):
        t = polygon_tuple()
        back = deserialize_tuple(serialize_tuple(t))
        assert back == t

    def test_swiss_cheese_polygon(self):
        t = polygon_tuple(holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        back = deserialize_tuple(serialize_tuple(t))
        assert back == t
        assert len(back.geom.holes) == 1

    def test_unicode_name(self):
        t = polyline_tuple(name="rivière-éøü")
        assert deserialize_tuple(serialize_tuple(t)).name == "rivière-éøü"

    def test_empty_name(self):
        t = polyline_tuple(name="")
        assert deserialize_tuple(serialize_tuple(t)).name == ""

    @given(polyline_points(max_points=20))
    def test_arbitrary_polylines(self, pts):
        t = SpatialTuple(1, 2, "x", Polyline(pts))
        assert deserialize_tuple(serialize_tuple(t)) == t


def reference_bytes(t):
    """The record format restated one ``struct`` call per field and per
    point — the loop the codec used before it decoded a coordinate run at
    once, kept as the oracle for both directions."""
    name = t.name.encode("utf-8")
    polyline = isinstance(t.geom, Polyline)
    out = struct.pack("<BIH", 1 if polyline else 2, t.feature_id, t.category)
    out += struct.pack("<H", len(name)) + name
    runs = [t.geom.points] if polyline else t.geom.rings
    if not polyline:
        out += struct.pack("<H", len(runs))
    for run in runs:
        out += struct.pack("<H", len(run))
        for x, y in run:
            out += struct.pack("<dd", x, y)
    return out


ring_points = st.lists(points(), min_size=3, max_size=8, unique=True)
geometries = st.one_of(
    st.builds(Polyline, polyline_points(max_points=20)),
    st.builds(Polygon, ring_points, st.lists(ring_points, max_size=3)),
)
spatial_tuples = st.builds(
    SpatialTuple,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.text(max_size=12),
    geometries,
)


class TestCodecProperty:
    @given(spatial_tuples)
    def test_bytes_are_the_reference_and_roundtrip(self, t):
        data = serialize_tuple(t)
        assert data == reference_bytes(t)
        assert deserialize_tuple(data) == t
        # The spill footprint is computed from this, never by serialising.
        assert tuple_size_bytes(t) == len(data)

    @given(spatial_tuples, st.integers(min_value=1, max_value=16))
    def test_a_truncated_coordinate_run_is_an_error(self, t, cut):
        with pytest.raises(struct.error):
            deserialize_tuple(serialize_tuple(t)[:-cut])


def records(*blobs):
    """Records back to back in one buffer, as a tuple spill keeps them:
    ``(buffer, starts, ends)``."""
    sizes = np.array([len(blob) for blob in blobs], dtype=np.int64)
    return b"".join(blobs), np.cumsum(sizes) - sizes, np.cumsum(sizes)


def polygon_record(rings, name=b"", tag=2):
    """A polygon record written field by field, so that it can say what
    ``serialize_tuple`` never would."""
    out = struct.pack("<BIH", tag, 7, 10) + struct.pack("<H", len(name)) + name
    out += struct.pack("<H", len(rings))
    for ring in rings:
        out += struct.pack("<H", len(ring))
        out += b"".join(struct.pack("<dd", x, y) for x, y in ring)
    return out


def rings_of(columns):
    """``polygon_runs``' columns back as one list of rings per record."""
    x, y, ring_first, poly_first = columns
    points = list(zip(x.tolist(), y.tolist()))
    rings = [points[a:b] for a, b in zip(ring_first[:-1], ring_first[1:])]
    return [rings[a:b] for a, b in zip(poly_first[:-1], poly_first[1:])]


TRIANGLE = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
SQUARE = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
polygon_tuples = st.builds(
    SpatialTuple,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.sampled_from(["", "a", "é", "土地 7", "x" * 300]),
    st.builds(Polygon, ring_points, st.lists(ring_points, max_size=3)),
)


class TestPolygonRuns:
    """The column decoder is ``deserialize_tuple`` for many polygon records
    at once: the same rings from the same bytes, the same records refused,
    and no byte read outside the record it belongs to."""

    @given(st.lists(polygon_tuples, max_size=5))
    def test_round_tripped_polygons_decode_as_deserialize_tuple_does(self, tuples):
        blobs = [serialize_tuple(t) for t in tuples]
        assert rings_of(polygon_runs(*records(*blobs))) == [
            [list(ring) for ring in deserialize_tuple(blob).geom.rings]
            for blob in blobs
        ]

    def test_rings_stored_closed_lose_the_repeat(self):
        """``serialize_tuple`` writes rings open, but ``Polygon`` accepts a
        ring whose last vertex repeats its first, and so must this."""
        blobs = [
            polygon_record([TRIANGLE + TRIANGLE[:1], SQUARE], b"closed shell"),
            polygon_record([TRIANGLE, SQUARE + SQUARE[:1], SQUARE]),
            polygon_record([TRIANGLE]),
        ]
        decoded = rings_of(polygon_runs(*records(*blobs)))
        assert decoded == [
            [TRIANGLE, SQUARE], [TRIANGLE, SQUARE, SQUARE], [TRIANGLE],
        ]
        assert decoded == [
            [list(ring) for ring in deserialize_tuple(blob).geom.rings]
            for blob in blobs
        ]

    def test_no_records(self):
        empty = np.zeros(0, np.int64)
        x, y, ring_first, poly_first = polygon_runs(b"", empty, empty)
        assert len(x) == len(y) == 0
        assert ring_first.tolist() == poly_first.tolist() == [0]

    def test_a_polyline_among_the_records_is_none(self):
        polygon, polyline = map(
            serialize_tuple, (polygon_tuple(), polyline_tuple())
        )
        assert polygon_runs(*records(polygon, polyline, polygon)) is None
        assert polyline_runs(*records(polyline, polygon)) is None
        # Any tag but the decoder's own: the per-tuple path names it.
        unknown = polygon_record([TRIANGLE], tag=99)
        assert polygon_runs(*records(polygon, unknown)) is None
        with pytest.raises(ValueError, match="unknown geometry tag"):
            deserialize_tuple(unknown)

    # What ``deserialize_tuple`` / ``Polygon`` refuse — or, for the bytes
    # left over, what no writer produces.  Each bad record is decoded as
    # the first of the buffer, where reading past its end would read a
    # well-formed neighbour, and as the last, where it would read past the
    # buffer: ``ValueError`` both times, never ``IndexError``.
    two_rings = polygon_record([TRIANGLE, SQUARE])
    MALFORMED = {
        "shorter than its fixed fields": (two_rings[:10], "shorter"),
        "name overruns": (
            two_rings[:7] + struct.pack("<H", 0xFFFF) + two_rings[9:],
            "name overruns",
        ),
        "no rings": (polygon_record([]), "no rings"),
        "more rings than stored": (
            two_rings[:9] + struct.pack("<H", 3) + two_rings[11:],
            "ring count overruns",
        ),
        "fewer rings than stored": (
            two_rings[:9] + struct.pack("<H", 1) + two_rings[11:],
            "do not end where",
        ),
        "a ring count past the end": (
            two_rings[:11] + struct.pack("<H", 200) + two_rings[13:],
            "overruns its record",
        ),
        "trailing bytes": (two_rings + b"\0" * 16, "do not end where"),
        "truncated": (two_rings[:-8], "overruns its record"),
        "a ring of two vertices": (
            polygon_record([TRIANGLE, SQUARE[:2]]), "fewer than three vertices",
        ),
        "a closed ring of two distinct vertices": (
            polygon_record([TRIANGLE[:2] + TRIANGLE[:1]]),
            "fewer than three distinct",
        ),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_a_malformed_record_is_refused_wherever_it_is(self, case, position):
        bad, message = self.MALFORMED[case]
        good = serialize_tuple(polygon_tuple())
        blobs = (bad, good) if position == "first" else (good, bad)
        with pytest.raises(ValueError, match=message):
            polygon_runs(*records(*blobs))
        # Bytes left over are what only the columns refuse.
        if case not in ("trailing bytes", "fewer rings than stored"):
            with pytest.raises((ValueError, IndexError, struct.error)):
                deserialize_tuple(bad)


class TestSizing:
    def test_size_matches_serialisation(self):
        for t in (polyline_tuple(), polygon_tuple(), polygon_tuple(
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]]
        )):
            assert tuple_size_bytes(t) == len(serialize_tuple(t))

    def test_paperlike_road_tuple_size(self):
        # A TIGER road tuple with 8 points should serialise to roughly the
        # paper's ~137 bytes/tuple.
        t = SpatialTuple(1, 1, "road-00001", Polyline([(i, i) for i in range(8)]))
        assert 120 <= tuple_size_bytes(t) <= 200


class TestErrors:
    def test_unsupported_geometry(self):
        t = SpatialTuple(1, 1, "bad", geom="not a geometry")  # type: ignore
        with pytest.raises(TypeError):
            serialize_tuple(t)

    def test_garbage_tag(self):
        data = bytearray(serialize_tuple(polyline_tuple()))
        data[0] = 99
        with pytest.raises(ValueError):
            deserialize_tuple(bytes(data))


class TestAccessors:
    def test_mbr_delegates_to_geometry(self):
        t = polyline_tuple()
        assert t.mbr == t.geom.mbr

    def test_num_points(self):
        assert polyline_tuple().num_points == 3
        assert polygon_tuple().num_points == 4


class TestSlots:
    """The three record classes are frozen *and* slotted: no per-instance
    ``__dict__`` (a generated relation is tens of thousands of them), and
    still picklable — a ``PairTaskResult`` never carries one, but degraded
    results, fault plans and user code may — through the
    ``__getstate__`` / ``__setstate__`` pair ``dataclass(slots=True)``
    writes for a frozen class."""

    CASES = [
        polyline_tuple(),
        polygon_tuple(holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]]),
    ]

    @pytest.mark.parametrize("t", CASES, ids=["polyline", "polygon"])
    def test_no_instance_dict_and_still_frozen(self, t):
        for record in (t, t.geom):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(record)[0].name, 1)
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1  # no slot for it (TypeError before 3.12)

    @pytest.mark.parametrize("t", CASES, ids=["polyline", "polygon"])
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, t, protocol):
        back = pickle.loads(pickle.dumps(t, protocol))
        assert back == t and back is not t
        # The cached MBR is excluded from ``==``: check it came along.
        assert back.mbr == t.mbr and back.geom.mbr == t.geom.mbr
        assert copy.deepcopy(t) == t and copy.copy(t.geom) == t.geom
