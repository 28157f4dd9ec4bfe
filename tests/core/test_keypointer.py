"""Tests for key-pointer elements and their temporary files."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keypointer import (
    _f32_down,
    _f32_up,
    conservative_f32,
    f32_down_all,
    f32_up_all,
)
from repro.core import (
    KEYPTR_SIZE,
    CandidateFile,
    KeyPointerFile,
    pack_keypointer,
    unpack_keypointer,
)
from repro.geometry import Rect
from repro.storage import OID


class TestPacking:
    def test_roundtrip_exact_for_f32_values(self):
        # Coordinates representable in single precision survive unchanged,
        # as do the two-layer (tile, class) tags.
        rect = Rect(1.5, -2.25, 3.0, 4.125)
        oid = OID(3, 17, 250)
        assert unpack_keypointer(pack_keypointer(rect, oid, 7, 2)) == (
            rect, oid, 7, 2
        )

    def test_rounding_is_conservative(self):
        # Arbitrary doubles round *outward*: the stored MBR contains the
        # exact one, preserving the filter step's superset property.
        rect = Rect(0.1, 0.2, 0.3, 0.4)
        back, oid, tile, cls = unpack_keypointer(
            pack_keypointer(rect, OID(1, 2, 3))
        )
        assert back.contains(rect)
        assert oid == OID(1, 2, 3)
        assert (tile, cls) == (0, 0)
        assert back.xl <= rect.xl and back.yu >= rect.yu

    def test_size_matches_constant(self):
        data = pack_keypointer(Rect(0, 0, 1, 1), OID(0, 0, 0))
        assert len(data) == KEYPTR_SIZE

    def test_keyptr_size_near_papers(self):
        # The paper's <MBR, OID> is a few dozen bytes; ours is 33
        # (single-precision MBR + 12-byte OID + tile/class tags).
        assert 16 <= KEYPTR_SIZE <= 48


class TestKeyPointerFile:
    def test_append_and_read_all(self, db):
        kf = KeyPointerFile(db.pool)
        items = [
            (Rect(i, 0, i + 1, 1), OID(0, i, 0), i % 7, i % 4)
            for i in range(300)
        ]
        for rect, oid, tile, cls in items:
            kf.append(rect, oid, tile, cls)
        assert kf.count == 300
        assert kf.read_all() == items  # small integers are f32-exact

    def test_scan_streams(self, db):
        kf = KeyPointerFile(db.pool)
        kf.append(Rect(0, 0, 1, 1), OID(0, 0, 0))
        kf.append(Rect(1, 1, 2, 2), OID(0, 1, 0))
        assert list(kf.scan()) == kf.read_all()

    def test_size_bytes(self, db):
        kf = KeyPointerFile(db.pool)
        for i in range(10):
            kf.append(Rect(0, 0, 1, 1), OID(0, i, 0))
        assert kf.size_bytes() == 10 * KEYPTR_SIZE

    def test_drop(self, db):
        kf = KeyPointerFile(db.pool)
        kf.append(Rect(0, 0, 1, 1), OID(0, 0, 0))
        fid = kf.heap.file_id
        kf.drop()
        assert fid not in db.disk.file_ids()

    def test_spills_to_multiple_pages(self, db):
        kf = KeyPointerFile(db.pool)
        for i in range(800):
            kf.append(Rect(0, 0, 1, 1), OID(0, i, 0))
        assert kf.num_pages >= 3


class TestCandidateFile:
    def test_append_and_read_all(self, db):
        cf = CandidateFile(db.pool)
        pairs = [(OID(1, i, 0), OID(2, i * 2, 1)) for i in range(100)]
        for a, b in pairs:
            cf.append(a, b)
        assert cf.count == 100
        assert cf.read_all() == pairs

    def test_empty(self, db):
        cf = CandidateFile(db.pool)
        assert cf.read_all() == []
        assert cf.count == 0


def _bits(values):
    return struct.pack(f"<{len(values)}f", *values)


def _halfway(f32_value, nudge):
    """The f64 exactly halfway between a float32 and its successor —
    where round-to-nearest-even and the conservative step are easiest to
    get wrong — or one f64 ulp to either side of it."""
    low = np.float32(f32_value)
    mid = (float(low) + float(np.nextafter(low, np.float32(np.inf)))) / 2
    return math.nextafter(mid, nudge) if nudge else mid


F64_CORNERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32),  # f32-exact
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e30, -1e30, 1e-46]),
    st.builds(
        _halfway,
        st.floats(min_value=-(2.0**100), max_value=2.0**100, width=32),
        st.sampled_from([0, -math.inf, math.inf]),
    ),
)


class TestBatchRounding:
    """The block spill writer rounds a whole side at once; the key-pointer
    bytes it writes must be the bytes the scalar pair would have packed
    (candidate counts are pinned to them), at every magnitude."""

    # Beyond float32's range the scalar cast warns; both forms then agree
    # on +-inf stepped back to the largest finite float32.
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @given(st.lists(F64_CORNERS, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_batch_rounding_equals_the_scalar_pair_bit_for_bit(self, values):
        array = np.array(values, dtype=np.float64)
        assert f32_down_all(array).tobytes() == _bits(
            [_f32_down(v) for v in values]
        )
        assert f32_up_all(array).tobytes() == _bits(
            [_f32_up(v) for v in values]
        )

    def test_conservative_f32_rounds_lower_bounds_down_upper_bounds_up(self):
        mbrs = np.array([[0.1, 0.2, 0.3, 0.4], [-0.1, -0.2, 1e30, 16777217.0]])
        rounded = conservative_f32(mbrs)
        assert rounded.dtype == np.float32 and rounded.shape == mbrs.shape
        for row, exact in zip(rounded.tolist(), mbrs.tolist()):
            assert row == [
                _f32_down(exact[0]), _f32_down(exact[1]),
                _f32_up(exact[2]), _f32_up(exact[3]),
            ]
