"""Tests for polylines and the sweep vs naive intersection equivalence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Polyline,
    Rect,
    polylines_intersect_naive,
    polylines_intersect_sweep,
    segments_intersect,
)
from tests.conftest import polyline_points
from tests.geometry.test_kernels import COORDS, SCALES


class TestPolylineBasics:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0)])

    def test_mbr(self):
        pl = Polyline([(0, 0), (2, 3), (-1, 1)])
        assert pl.mbr == Rect(-1, 0, 2, 3)

    def test_counts(self):
        pl = Polyline([(0, 0), (1, 0), (2, 0)])
        assert pl.num_points == 3
        assert pl.num_segments == 2
        assert len(pl.segments()) == 2

    def test_length(self):
        pl = Polyline([(0, 0), (3, 4), (3, 5)])
        assert pl.length() == pytest.approx(6.0)

    def test_points_coerced_to_float(self):
        pl = Polyline([(0, 0), (1, 1)])
        assert all(isinstance(c, float) for p in pl.points for c in p)


class TestIntersection:
    def test_crossing(self):
        a = Polyline([(0, 0), (2, 2)])
        b = Polyline([(0, 2), (2, 0)])
        assert a.intersects(b)

    def test_disjoint(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, 2), (1, 2)])
        assert not a.intersects(b)

    def test_mbrs_overlap_but_lines_do_not(self):
        # b's corner chain nests inside a's: MBRs overlap, chains do not.
        a = Polyline([(0, 0), (10, 0), (10, 10)])
        b = Polyline([(2, 2), (8, 2), (8, 8)])
        assert a.mbr.intersects(b.mbr)
        assert not a.intersects(b)
        assert not polylines_intersect_naive(a, b)

    def test_touching_at_endpoint(self):
        a = Polyline([(0, 0), (1, 1)])
        b = Polyline([(1, 1), (2, 0)])
        assert a.intersects(b)

    def test_long_chains_crossing_once(self):
        a = Polyline([(x, 0) for x in range(10)])
        b = Polyline([(4.5, -1), (4.5, 1)])
        assert a.intersects(b)
        assert b.intersects(a)

    def test_self_comparison(self):
        a = Polyline([(0, 0), (1, 1), (2, 0)])
        assert a.intersects(a)


class TestSweepEqualsNaive:
    @given(polyline_points(), polyline_points())
    @settings(max_examples=200, deadline=None)
    def test_equivalence_random(self, pts_a, pts_b):
        a, b = Polyline(pts_a), Polyline(pts_b)
        assert polylines_intersect_sweep(a, b) == polylines_intersect_naive(a, b)

    def test_equivalence_vertical_segments(self):
        a = Polyline([(1, 0), (1, 5), (1, 10)])
        b = Polyline([(0, 5), (2, 5)])
        assert polylines_intersect_sweep(a, b) == polylines_intersect_naive(a, b) is True

    def test_equivalence_collinear_chains(self):
        a = Polyline([(0, 0), (5, 0)])
        b = Polyline([(3, 0), (8, 0)])
        assert polylines_intersect_sweep(a, b)
        assert polylines_intersect_naive(a, b)


def reference_sweep(a, b):
    """``polylines_intersect_sweep`` as it was at commit 61d888c, before a
    segment had to meet the other chain's MBR to enter it: every segment of
    both chains is an event.  The masked sweep must return this, always."""
    events = []
    for p1, p2 in zip(a.points, a.points[1:]):
        xl, xu = (p1[0], p2[0]) if p1[0] <= p2[0] else (p2[0], p1[0])
        events.append((xl, xu, 0, p1, p2))
    for p3, p4 in zip(b.points, b.points[1:]):
        xl, xu = (p3[0], p4[0]) if p3[0] <= p4[0] else (p4[0], p3[0])
        events.append((xl, xu, 1, p3, p4))
    events.sort(key=lambda e: e[0])
    pad = 1e-9
    active = ([], [])
    for xl, xu, side, p1, p2 in events:
        opp = active[1 - side]
        if opp:
            opp[:] = [seg for seg in opp if seg[0] >= xl - pad]
        ylo, yhi = (p1[1], p2[1]) if p1[1] <= p2[1] else (p2[1], p1[1])
        for _oxu, oylo, oyhi, q1, q2 in opp:
            if oylo > yhi + pad or oyhi < ylo - pad:
                continue
            if segments_intersect(p1, p2, q1, q2):
                return True
        active[side].append((xu, ylo, yhi, p1, p2))
    return False


# A small lattice (so chains touch, share vertices and overlap collinearly
# far more often than chance allows) with off-lattice coordinates mixed in,
# scaled by 1e-6 ... 1e6; then the second chain is moved so that the two
# MBRs are a chosen gap apart — on, one ulp inside and one ulp outside the
# sweep's pad, and well clear of it on both sides.
PAD = 1e-9
GAPS = st.sampled_from([
    None, 0.0, 1e-12, 1e-10,
    math.nextafter(PAD, 0.0), PAD, math.nextafter(PAD, 1.0), 1e-8,
])
CHAINS = st.lists(st.tuples(COORDS, COORDS), min_size=2, max_size=8)


@st.composite
def chain_pairs(draw):
    scale = draw(SCALES)
    a = Polyline([(x * scale, y * scale) for x, y in draw(CHAINS)])
    pts_b = [(x * scale, y * scale) for x, y in draw(CHAINS)]
    gap, axis, sign = draw(GAPS), draw(st.integers(0, 1)), draw(st.sampled_from([1, -1]))
    if gap is not None:
        # Put b's MBR ``gap`` beyond a's along one axis, on either side.
        box = Rect.from_points(pts_b)
        lo_a, hi_a = (a.mbr.xl, a.mbr.xu) if axis == 0 else (a.mbr.yl, a.mbr.yu)
        lo_b, hi_b = (box.xl, box.xu) if axis == 0 else (box.yl, box.yu)
        shift = hi_a + gap - lo_b if sign == 1 else lo_a - gap - hi_b
        pts_b = [
            (x + shift, y) if axis == 0 else (x, y + shift) for x, y in pts_b
        ]
    return a, Polyline(pts_b)


class TestMaskedSweep:
    @given(chain_pairs())
    @settings(max_examples=1500, deadline=None)
    def test_masked_sweep_equals_unmasked_sweep_equals_naive(self, pair):
        a, b = pair
        verdict = polylines_intersect_sweep(a, b)
        assert verdict == reference_sweep(a, b)
        assert verdict == polylines_intersect_sweep(b, a)
        assert verdict == polylines_intersect_naive(a, b)
        # ``intersects`` keeps its own exact MBR test in front, as before.
        assert a.intersects(b) == (a.mbr.intersects(b.mbr) and verdict)

    @pytest.mark.parametrize("gap, touching", [
        (0.0, True), (1e-13, True), (1e-10, False), (PAD, False), (1e-8, False),
    ])
    def test_chains_a_gap_apart(self, gap, touching):
        a = Polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        b = Polyline([(1.0 + gap, 0.5), (2.0, 0.5), (2.0, 3.0)])
        for first, second in ((a, b), (b, a)):
            assert polylines_intersect_sweep(first, second) is touching
            assert reference_sweep(first, second) is touching
            assert polylines_intersect_naive(first, second) is touching

    def test_a_chain_with_no_segment_near_the_other_is_not_swept(self, monkeypatch):
        from repro.geometry import polyline

        def boom(*_args):
            raise AssertionError("no pair should reach the exact test")

        monkeypatch.setattr(polyline, "segments_intersect", boom)
        # MBRs overlap (so ``intersects`` gets past its own MBR test), but
        # no segment of b comes near a's box.
        a = Polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        b = Polyline([(-1.0, 3.0), (-1.0, -1.0), (3.0, -1.0)])
        assert a.mbr.intersects(b.mbr)
        assert not a.intersects(b) and not b.intersects(a)

    def test_every_candidate_of_a_join_and_the_backends_agree(self):
        from repro.parallel import parallel_join
        from repro.serve.query import QuerySpec, result_digest

        spec = QuerySpec(dataset="road_hydro", scale=0.01, seed=5, workers=2)
        tuples_r, tuples_s = spec.generate()
        verdicts = []

        def checked(r, s):
            verdict = spec.predicate_fn(r, s)
            assert verdict == (
                r.geom.mbr.intersects(s.geom.mbr) and reference_sweep(r.geom, s.geom)
            ), (r.feature_id, s.feature_id)
            assert verdict == polylines_intersect_naive(r.geom, s.geom)
            verdicts.append(verdict)
            return verdict

        serial = parallel_join(tuples_r, tuples_s, checked, backend="serial")
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100
        process = parallel_join(tuples_r, tuples_s, spec.predicate_fn,
                                backend="process", workers=2)
        assert process.duplicates_dropped == 0
        assert result_digest(process.pairs) == result_digest(serial.pairs)
