"""Tests for spatial tuple serialisation."""

import copy
import dataclasses
import pickle
import struct

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
