"""The array kernels must return the scalar predicates' answers exactly.

Result digests are gated byte-identical, so ``repro.geometry.kernels`` may
not differ from the per-segment loops it replaced on any input — including
the degenerate ones (shared vertices, collinear overlap, a point exactly on
an edge) where the answer hangs on one tolerance comparison.  The deleted
loops live on here as the reference, built only from the scalar
``segments_intersect`` / ``point_in_ring`` / ``_point_strictly_in_ring``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import _geoms_intersect
from repro.geometry import (
    Polygon,
    Polyline,
    Rect,
    any_segments_intersect,
    kernels,
    point_in_ring,
    points_in_ring,
    polygon as polygon_module,
    rect_inside_polygon,
    ring_segments,
    segments_intersect,
)
from repro.geometry.kernels import polygons_contain_each
from repro.geometry.polygon import _point_strictly_in_ring
from repro.parallel import parallel_join
from repro.serve.query import QuerySpec, result_digest
from tests.geometry.test_polygon_property import star_polygons

# ---------------------------------------------------------------------- #
# the reference: the loops the kernels replaced
# ---------------------------------------------------------------------- #


def ref_any_segments_intersect(asegs, bsegs):
    return any(
        segments_intersect(p1, p2, p3, p4)
        for p1, p2 in asegs
        for p3, p4 in bsegs
    )


def ref_contains_point(poly, x, y):
    if not poly.mbr.contains_point(x, y):
        return False
    if not point_in_ring(x, y, poly.shell):
        return False
    return not any(_point_strictly_in_ring(x, y, hole) for hole in poly.holes)


def ref_boundary_intersects(a, b):
    osegs = b.segments()
    for p1, p2 in a.segments():
        if not Rect.from_points((p1, p2)).intersects(b.mbr):
            continue
        for p3, p4 in osegs:
            if segments_intersect(p1, p2, p3, p4):
                return True
    return False


def ref_intersects(a, b):
    if not a.mbr.intersects(b.mbr):
        return False
    if ref_boundary_intersects(a, b):
        return True
    return ref_contains_point(a, *b.shell[0]) or ref_contains_point(b, *a.shell[0])


def ref_contains(outer, inner):
    if not outer.mbr.contains(inner.mbr):
        return False
    if ref_boundary_intersects(outer, inner):
        return False
    return all(ref_contains_point(outer, x, y) for x, y in inner.shell)


def ref_rect_inside_polygon(rect, poly):
    corners = [
        (rect.xl, rect.yl), (rect.xu, rect.yl),
        (rect.xu, rect.yu), (rect.xl, rect.yu),
    ]
    if not all(ref_contains_point(poly, x, y) for x, y in corners):
        return False
    edges = list(zip(corners, corners[1:] + corners[:1]))
    if ref_any_segments_intersect(edges, poly.segments()):
        return False
    return not any(rect.contains_point(*hole[0]) for hole in poly.holes)


def ref_line_meets_polygon(line, poly):
    if not line.mbr.intersects(poly.mbr):
        return False
    if ref_any_segments_intersect(line.segments(), poly.segments()):
        return True
    return ref_contains_point(poly, *line.points[0])


# ---------------------------------------------------------------------- #
# inputs: a small lattice, so vertices coincide, edges overlap collinearly
# and points land exactly on edges far more often than chance allows, with
# some off-lattice coordinates mixed in, all scaled by 1e-6 ... 1e6 so the
# orientation tolerance is taken on both sides of ``max(scale, 1.0)``
# ---------------------------------------------------------------------- #

SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])
COORDS = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
POINTS = st.tuples(COORDS, COORDS)


def scaled(points, scale):
    return [(x * scale, y * scale) for x, y in points]


SEGMENT_LISTS = st.lists(st.tuples(POINTS, POINTS), max_size=6)


def rings(max_size=8, scale=1.0):
    """Vertices still distinct once scaled: a subnormal times 1e-6 is 0.0."""
    return st.lists(
        POINTS, min_size=3, max_size=max_size,
        unique_by=lambda p: (p[0] * scale, p[1] * scale),
    )


@st.composite
def polygons(draw, scale):
    """Lattice polygons, one in three with a hole; rings need not be simple."""
    shell = draw(rings(scale=scale))
    holes = (
        [draw(rings(max_size=5, scale=scale))]
        if draw(st.integers(0, 2)) == 0 else []
    )
    return Polygon(scaled(shell, scale), [scaled(h, scale) for h in holes])


@st.composite
def polygon_with(draw, other):
    """A polygon and a second drawing (``other(scale)``) at the same scale."""
    scale = draw(SCALES)
    return draw(polygons(scale)), draw(other(scale))


def seg_arrays(segs):
    if not segs:
        return np.empty((0, 2)), np.empty((0, 2))
    return np.array([s[0] for s in segs]), np.array([s[1] for s in segs])


class TestAnySegmentsIntersect:
    @given(SEGMENT_LISTS, SEGMENT_LISTS, SCALES)
    @settings(max_examples=400, deadline=None)
    def test_equals_scalar_all_pairs(self, asegs, bsegs, scale):
        asegs = [tuple(scaled(seg, scale)) for seg in asegs]
        bsegs = [tuple(scaled(seg, scale)) for seg in bsegs]
        assert any_segments_intersect(
            *seg_arrays(asegs), *seg_arrays(bsegs)
        ) == ref_any_segments_intersect(asegs, bsegs)

    @pytest.mark.parametrize("a, b, expected", [
        # shared vertex
        (((0, 0), (2, 2)), ((2, 2), (4, 0)), True),
        # collinear, overlapping
        (((0, 0), (3, 0)), ((2, 0), (5, 0)), True),
        # collinear, apart
        (((0, 0), (1, 0)), ((2, 0), (3, 0)), False),
        # a vertex on the other's interior
        (((0, 0), (4, 0)), ((2, 0), (2, 3)), True),
        # proper crossing
        (((0, 0), (4, 4)), ((0, 4), (4, 0)), True),
        # parallel
        (((0, 0), (4, 0)), ((0, 1), (4, 1)), False),
    ])
    def test_named_cases(self, a, b, expected):
        assert segments_intersect(*a, *b) is expected
        assert any_segments_intersect(*seg_arrays([a]), *seg_arrays([b])) is expected


class TestPointsInRing:
    @given(rings(), st.lists(POINTS, min_size=1, max_size=8), SCALES)
    @settings(max_examples=400, deadline=None)
    def test_equals_scalar_ray_casts(self, ring, points, scale):
        ring = scaled(ring, scale)
        # Ring vertices and edge midpoints join the query set: on-boundary
        # points, and rays running along horizontal edges.
        points = scaled(points, scale) + ring + [
            ((x1 + x2) / 2, (y1 + y2) / 2)
            for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1])
        ]
        px, py = np.array(points).T
        parity, on_boundary = points_in_ring(px, py, np.array(ring))
        assert (on_boundary | parity).tolist() == [
            point_in_ring(x, y, ring) for x, y in points
        ]
        assert (parity & ~on_boundary).tolist() == [
            _point_strictly_in_ring(x, y, ring) for x, y in points
        ]

    def test_horizontal_edge_at_the_rays_height(self):
        # The ray from (1, 2) runs along the notch's floor y = 2.
        ring = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]
        points = [(1, 2), (3, 2), (3, 3), (5, 2), (7, 2), (2, 3)]
        px, py = np.array(points, dtype=float).T
        parity, on_boundary = points_in_ring(px, py, np.array(ring, dtype=float))
        assert [point_in_ring(x, y, ring) for x, y in points] == [
            True, True, False, True, False, True
        ]
        assert (on_boundary | parity).tolist() == [True, True, False, True, False, True]
        assert on_boundary.tolist() == [False, True, False, False, False, True]


CHEESE = Polygon(
    [(0, 0), (12, 0), (12, 12), (0, 12)], [[(4, 4), (8, 4), (8, 8), (4, 8)]]
)


def box(xl, yl, xu, yu):
    return Polygon([(xl, yl), (xu, yl), (xu, yu), (xl, yu)])


class TestPolygonPredicates:
    @given(polygon_with(polygons))
    @settings(max_examples=300, deadline=None)
    def test_pairs_equal_reference(self, pair):
        a, b = pair
        assert a.boundary_intersects(b) == ref_boundary_intersects(a, b)
        assert a.intersects(b) == ref_intersects(a, b)
        assert a.contains(b) == ref_contains(a, b)

    @given(polygon_with(
        lambda scale: st.tuples(POINTS, POINTS).map(
            lambda corners: Rect.from_points(scaled(corners, scale))
        )
    ))
    @settings(max_examples=200, deadline=None)
    def test_rect_inside_polygon_equals_reference(self, pair):
        poly, rect = pair
        assert rect_inside_polygon(rect, poly) == ref_rect_inside_polygon(rect, poly)

    @given(polygon_with(
        lambda scale: st.lists(POINTS, min_size=2, max_size=6).map(
            lambda points: Polyline(scaled(points, scale))
        )
    ))
    @settings(max_examples=200, deadline=None)
    def test_polyline_against_polygon_equals_reference(self, pair):
        poly, line = pair
        expected = ref_line_meets_polygon(line, poly)
        assert _geoms_intersect(line, poly, None) == expected
        assert _geoms_intersect(poly, line, None) == expected

    @pytest.mark.parametrize("inner, contained", [
        (box(1, 1, 3, 3), True),            # beside the hole
        (box(5, 5, 7, 7), False),           # inside the hole
        (box(3, 3, 6, 6), False),           # straddles the hole's edge
        (box(4, 4, 8, 8), False),           # exactly the hole
        (box(0, 1, 2, 3), False),           # an edge along the shell, inside
        (box(9, 9, 12, 12), False),         # shares the shell's corner
        (box(1, 1, 4, 4), False),           # corner on the hole's corner
        (box(11, 11, 13, 13), False),       # pokes out
    ])
    def test_swiss_cheese_cases(self, inner, contained):
        assert ref_contains(CHEESE, inner) is contained
        assert CHEESE.contains(inner) is contained
        assert CHEESE.intersects(inner) == ref_intersects(CHEESE, inner)

    def test_inner_touching_shell_vertex_from_inside(self):
        outer = Polygon([(0, 0), (10, 0), (5, 10)])
        touching = Polygon([(5, 10), (4, 2), (6, 2)])
        assert outer.contains(touching) == ref_contains(outer, touching)
        assert outer.intersects(touching) and ref_intersects(outer, touching)

    def test_empty_prefilter_never_reaches_the_segment_kernel(self, monkeypatch):
        # No shell edge's own box meets the island's MBR, so containment is
        # decided by the vertex test alone.
        outer = Polygon([(0, 0), (30, 0), (30, 30), (0, 30)])
        island = box(14, 14, 16, 16)
        assert ref_contains(outer, island)

        def unreachable(*_args):
            raise AssertionError("pre-filter let a segment through")

        monkeypatch.setattr(polygon_module, "any_segments_intersect", unreachable)
        assert not outer.boundary_intersects(island)
        assert outer.contains(island)

    @pytest.mark.xfail(strict=True, reason=(
        "known deviation: a hole of the outer polygon lying wholly inside "
        "the inner polygon is not detected.  Fixing it moves the digests in "
        "benchmarks/perf/expected.json, which only a benchmark PR may do "
        "(docs/ARCHITECTURE.md, Known deviations)."
    ))
    def test_outer_hole_inside_inner_is_not_contained(self):
        # The inner square covers the hole: part of it lies outside the
        # outer polygon's area, so it is not contained.
        assert not CHEESE.contains(box(2, 2, 10, 10))

    def test_ring_segments_close_each_ring(self):
        starts, ends = ring_segments(CHEESE.rings)
        assert list(zip(map(tuple, starts), map(tuple, ends))) == CHEESE.segments()


# ---------------------------------------------------------------------- #
# every candidate pair at once: ``polygons_contain_each``
# ---------------------------------------------------------------------- #


def ring_columns(polys):
    """Polygons as the kernel takes them: ``(x, y, ring_first, poly_first)``,
    what ``storage.tuples.polygon_runs`` makes of their records."""
    rings = [ring for poly in polys for ring in poly.rings]
    x, y = np.array([point for ring in rings for point in ring]).T
    return (
        x, y,
        np.cumsum([0] + [len(ring) for ring in rings]),
        np.cumsum([0] + [len(poly.rings) for poly in polys]),
    )


def contain_each(outers, inners, pairs):
    of_outer, of_inner = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    verdicts, rows = polygons_contain_each(
        ring_columns(outers), ring_columns(inners), of_outer, of_inner
    )
    assert verdicts.dtype == bool and len(verdicts) == len(pairs)
    assert {type(count) for count in rows.values()} == {int}
    return verdicts.tolist(), rows


def moved(ring, dx, dy):
    return [(x + dx, y + dy) for x, y in ring]


@st.composite
def outers(draw, scale):
    """A lattice polygon with none, one or two holes."""
    holes = draw(st.lists(rings(max_size=5, scale=scale), max_size=2))
    return Polygon(
        scaled(draw(rings(scale=scale)), scale),
        [scaled(hole, scale) for hole in holes],
    )


@st.composite
def inners(draw, scale, outer):
    """A polygon made to collide with ``outer``: drawn from the same
    lattice (so vertices land on the outer's vertices and edges, and edges
    run along the outer's, horizontal ones among them), or one of the
    outer's own rings — hence exactly a hole, or the shell — as it is or a
    lattice step aside, where it straddles what it came from; one in three
    with a hole of its own."""
    shell = draw(st.one_of(
        rings(scale=scale).map(lambda ring: scaled(ring, scale)),
        st.builds(
            moved, st.sampled_from(outer.rings),
            *[st.sampled_from([0.0, scale, -scale])] * 2,
        # Still distinct once moved: a tiny off-lattice coordinate plus a
        # lattice step is the step.
        ).filter(lambda ring: len(set(ring)) == len(ring)),
    ))
    holes = (
        [scaled(draw(rings(max_size=5, scale=scale)), scale)]
        if draw(st.integers(0, 2)) == 0 else []
    )
    return Polygon(shell, holes)


@st.composite
def lattice_batches(draw):
    """A few outers and, for each, a few inners; every outer a candidate
    against every inner, some candidates twice."""
    scale = draw(SCALES)
    some_outers = draw(st.lists(outers(scale), min_size=1, max_size=3))
    some_inners = [
        draw(inners(scale, outer))
        for outer in some_outers for _ in range(draw(st.integers(1, 2)))
    ]
    once = [
        (o, i) for o in range(len(some_outers)) for i in range(len(some_inners))
    ]
    again = draw(st.lists(st.sampled_from(once), max_size=3))
    return some_outers, some_inners, draw(st.permutations(once + again))


def shrunk(poly, factor):
    """``poly`` scaled about the mean of its vertices: for a star polygon
    that is not too spiky, inside it below 1 and around it above; the
    polygon itself at 1."""
    cx, cy = np.mean(poly.shell, axis=0)
    return Polygon(
        [(cx + factor * (x - cx), cy + factor * (y - cy)) for x, y in poly.shell]
    )


CHUNKS = st.sampled_from([1, 5, 1 << 16])

NOTCHED = Polygon(
    [(0, 0), (2, 0), (2, 2), (4, 2), (4, 0), (6, 0),
     (6, 6), (4, 6), (4, 4), (2, 4), (2, 6), (0, 6)]
)
"""A square with a notch cut in from below (ceiling ``y = 2``) and one from
above (floor ``y = 4``), both over ``2 <= x <= 4``."""

EPS = 1e-12
HAND_MADE = {
    # The vertex rule alone: no outer edge's box meets the island's MBR.
    "island": (box(0, 0, 30, 30), box(14, 14, 16, 16), True),
    "beside the hole": (CHEESE, box(1, 1, 3, 3), True),
    "inside the hole": (CHEESE, box(5, 5, 7, 7), False),
    "exactly the hole": (CHEESE, box(4, 4, 8, 8), False),
    "covers the hole (the known deviation)": (CHEESE, box(2, 2, 10, 10), True),
    "pokes out": (CHEESE, box(11, 11, 13, 13), False),
    # Slivers lying in a notch, outside the polygon, every vertex within the
    # tolerance of the notch's floor (ceiling) and so on it; their MBRs miss
    # the box of every outer edge, so only the vertex rule sees them.  The
    # vertices at exactly ``y = 4 + EPS`` (``2 - EPS``) sit on the y-range
    # cut's bound: a cut without its pad, or with a strict bound on that
    # side, loses them, and with them the verdict.
    "on the floor, from above": (
        NOTCHED,
        Polygon([(2.5, 4 + EPS), (3.5, 4 + EPS), (3.0, 4 + EPS / 2)]),
        True,
    ),
    "on the ceiling, from below": (
        NOTCHED,
        Polygon([(2.5, 2 - EPS), (3.5, 2 - EPS), (3.0, 2 - EPS / 2)]),
        True,
    ),
    "in the notch, clear of the floor": (
        NOTCHED, Polygon([(2.5, 4.5), (3.5, 4.5), (3.0, 5.0)]), False,
    ),
    # The same sliver on the far side of a hole's edge: on the hole's
    # boundary is not strictly inside it.
    "on a hole's edge, from inside the hole": (
        CHEESE,
        Polygon([(5.0, 4 + EPS), (7.0, 4 + EPS), (6.0, 4 + EPS / 2)]),
        True,
    ),
    # Rings need not nest: a "hole" that lies in the notch, outside the
    # shell, holds the square, and the shell still does not.
    "in a hole that lies outside the shell": (
        Polygon(NOTCHED.shell, [[(2.2, 4.2), (3.8, 4.2), (3.8, 7), (2.2, 7)]]),
        box(2.5, 4.5, 3.5, 5.5),
        False,
    ),
    # The inner polygon's own hole: its vertices are no part of the vertex
    # rule (this one lies outside the outer polygon altogether) ...
    "an inner hole far outside": (
        box(0, 0, 10, 10),
        Polygon(box(4, 4, 6, 6).shell, [box(20, 20, 21, 21).shell]),
        True,
    ),
    # ... but its edges are part of the boundary test: the shell is clear
    # of the outer hole, the inner hole's ring crosses that hole's edge.
    "an inner hole across an outer edge": (
        CHEESE,
        Polygon([(1, 1), (5, 1), (2, 4)], [[(5, 3.5), (6, 3.5), (5.5, 4.5)]]),
        False,
    ),
    "the same shell without that hole": (
        CHEESE, Polygon([(1, 1), (5, 1), (2, 4)]), True,
    ),
}


class TestPolygonsContainEach:
    @given(lattice_batches(), CHUNKS)
    @settings(max_examples=400, deadline=None)
    def test_lattice_polygons_equal_polygon_contains(self, batch, chunk_rows):
        some_outers, some_inners, pairs = batch
        with mock.patch.object(kernels, "EXPANSION_CHUNK_ROWS", chunk_rows):
            verdicts, _rows = contain_each(some_outers, some_inners, pairs)
        assert verdicts == [
            some_outers[o].contains(some_inners[i]) for o, i in pairs
        ]
        assert verdicts == [
            ref_contains(some_outers[o], some_inners[i]) for o, i in pairs
        ]

    @given(
        st.lists(star_polygons(), min_size=1, max_size=3),
        st.lists(star_polygons(max_radius=2.0), max_size=2),
        CHUNKS,
    )
    @settings(max_examples=150, deadline=None)
    def test_star_polygons_equal_polygon_contains(self, stars, others, chunk_rows):
        some_inners = others + [
            shrunk(star, factor)
            for star in stars for factor in (0.3, 0.9, 1.0, 1.1)
        ]
        pairs = [
            (o, i) for o in range(len(stars)) for i in range(len(some_inners))
        ]
        with mock.patch.object(kernels, "EXPANSION_CHUNK_ROWS", chunk_rows):
            verdicts, _rows = contain_each(stars, some_inners, pairs)
        assert verdicts == [stars[o].contains(some_inners[i]) for o, i in pairs]

    @pytest.mark.parametrize("case", HAND_MADE)
    def test_hand_made_cases(self, case):
        outer, inner, contained = HAND_MADE[case]
        assert outer.contains(inner) is contained
        assert contain_each([outer], [inner], [(0, 0)])[0] == [contained]

    def test_hand_made_cases_all_at_once(self):
        """Every outer against every inner, in one call."""
        some_outers = [outer for outer, _inner, _ in HAND_MADE.values()]
        some_inners = [inner for _outer, inner, _ in HAND_MADE.values()]
        pairs = [
            (o, i) for o in range(len(some_outers)) for i in range(len(some_inners))
        ]
        verdicts, rows = contain_each(some_outers, some_inners, pairs)
        assert verdicts == [
            some_outers[o].contains(some_inners[i]) for o, i in pairs
        ]
        assert verdicts.count(True) > len(HAND_MADE) / 2
        assert rows["segment_pairs"] > 0 and rows["vertex_rows"] > 0

    def test_the_rows_each_test_sees(self):
        outer, island, _ = HAND_MADE["island"]
        # No edge's box meets the island: no segment pair.  Each vertex lies
        # in the y-extent of the two vertical edges alone: 4 x 2 rows of the
        # 4 x 4 product.
        assert contain_each([outer], [island], [(0, 0)])[1] == {
            "segment_pairs": 0, "vertex_rows": 8,
        }
        # The boundary test decides; the vertex rule is not reached.
        _outer, poking, _ = HAND_MADE["pokes out"]
        assert contain_each([CHEESE], [poking], [(0, 0)])[1] == {
            "segment_pairs": 0, "vertex_rows": 0,
        }
        # ``Rect.contains`` is closed: MBRs that share a bound pass it, and
        # the edge along the shell is for the boundary test to find.
        for touching in (box(3, 3, 6, 6), box(0, 1, 2, 3)):
            verdicts, rows = contain_each([CHEESE], [touching], [(0, 0)])
            assert verdicts == [False]
            assert rows["segment_pairs"] > 0 and rows["vertex_rows"] == 0

    def test_no_pairs(self):
        verdicts, rows = contain_each([CHEESE], [box(1, 1, 2, 2)], [])
        assert verdicts == [] and rows == {"segment_pairs": 0, "vertex_rows": 0}


class TestSequoiaEndToEnd:
    def test_every_candidate_equals_reference_and_backends_agree(self):
        spec = QuerySpec(dataset="landuse_island", scale=0.02, seed=11,
                         predicate="contains", workers=2)
        tuples_r, tuples_s = spec.generate()
        verdicts = []

        def checked(r, s):
            verdict = spec.predicate_fn(r, s)
            assert verdict == ref_contains(r.geom, s.geom), (r.feature_id, s.feature_id)
            verdicts.append(verdict)
            return verdict

        serial = parallel_join(tuples_r, tuples_s, checked, backend="serial",
                               num_partitions=spec.partitions)
        # Enough candidates, of both kinds, past the MBR test to mean something.
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50
        process = parallel_join(tuples_r, tuples_s, spec.predicate_fn,
                                backend="process", workers=2,
                                num_partitions=spec.partitions)
        assert process.duplicates_dropped == 0
        assert result_digest(process.pairs) == result_digest(serial.pairs)
