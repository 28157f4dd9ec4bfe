"""Tests for polygons, swiss-cheese polygons and containment predicates."""

import math

import numpy as np
import pytest

from repro.geometry import (
    Polygon,
    Rect,
    maximal_enclosed_rect,
    point_in_ring,
    rect_inside_polygon,
    ring_area_signed,
)

SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
SMALL_SQUARE = [(4, 4), (6, 4), (6, 6), (4, 6)]


def star_polygon(cx, cy, radius, n=20, seed=0, min_frac=0.6):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    radii = rng.uniform(min_frac * radius, radius, n)
    return Polygon(
        [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]
    )


class TestConstruction:
    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_closing_point_stripped(self):
        p = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(p.shell) == 3

    def test_num_points_includes_holes(self):
        p = Polygon(SQUARE, [SMALL_SQUARE])
        assert p.num_points == 8

    def test_mbr(self):
        assert Polygon(SQUARE).mbr == Rect(0, 0, 10, 10)

    def test_rings(self):
        p = Polygon(SQUARE, [SMALL_SQUARE])
        assert len(p.rings) == 2


class TestArea:
    def test_square_area(self):
        assert Polygon(SQUARE).area() == pytest.approx(100.0)

    def test_area_orientation_invariant(self):
        assert Polygon(list(reversed(SQUARE))).area() == pytest.approx(100.0)

    def test_swiss_cheese_area_subtracts_holes(self):
        p = Polygon(SQUARE, [SMALL_SQUARE])
        assert p.area() == pytest.approx(96.0)

    def test_ring_area_signed_ccw_positive(self):
        assert ring_area_signed(SQUARE) > 0
        assert ring_area_signed(list(reversed(SQUARE))) < 0


class TestPointInPolygon:
    def test_inside(self):
        assert Polygon(SQUARE).contains_point(5, 5)

    def test_outside(self):
        assert not Polygon(SQUARE).contains_point(15, 5)

    def test_boundary_is_inside(self):
        assert Polygon(SQUARE).contains_point(0, 5)
        assert Polygon(SQUARE).contains_point(0, 0)

    def test_point_in_hole_is_outside(self):
        p = Polygon(SQUARE, [SMALL_SQUARE])
        assert not p.contains_point(5, 5)
        assert p.contains_point(1, 1)

    def test_hole_boundary_belongs_to_polygon(self):
        p = Polygon(SQUARE, [SMALL_SQUARE])
        assert p.contains_point(4, 5)

    def test_point_in_ring_concave(self):
        # A "U" shape: the notch is outside.
        u_shape = [(0, 0), (6, 0), (6, 6), (4, 6), (4, 2), (2, 2), (2, 6), (0, 6)]
        assert point_in_ring(1, 5, u_shape)
        assert not point_in_ring(3, 5, u_shape)
        assert point_in_ring(3, 1, u_shape)


class TestIntersects:
    def test_overlapping_squares(self):
        a = Polygon(SQUARE)
        b = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert a.intersects(b)
        assert b.intersects(a)

    def test_disjoint_squares(self):
        a = Polygon(SQUARE)
        b = Polygon([(20, 20), (30, 20), (30, 30), (20, 30)])
        assert not a.intersects(b)

    def test_nested_intersects(self):
        assert Polygon(SQUARE).intersects(Polygon(SMALL_SQUARE))
        assert Polygon(SMALL_SQUARE).intersects(Polygon(SQUARE))

    def test_mbr_overlap_but_disjoint(self):
        a = Polygon([(0, 0), (10, 0), (0, 10)])  # lower-left triangle
        b = Polygon([(9, 9), (10, 10), (8, 10)])  # upper-right sliver
        assert a.mbr.intersects(b.mbr)
        assert not a.intersects(b)


class TestContains:
    def test_nested(self):
        assert Polygon(SQUARE).contains(Polygon(SMALL_SQUARE))

    def test_not_contains_overlapping(self):
        b = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert not Polygon(SQUARE).contains(b)

    def test_not_contains_disjoint(self):
        b = Polygon([(20, 20), (30, 20), (30, 30), (20, 30)])
        assert not Polygon(SQUARE).contains(b)

    def test_inner_never_contains_outer(self):
        assert not Polygon(SMALL_SQUARE).contains(Polygon(SQUARE))

    def test_island_in_hole_not_contained(self):
        cheese = Polygon(SQUARE, [SMALL_SQUARE])
        tiny = Polygon([(4.5, 4.5), (5.5, 4.5), (5.5, 5.5), (4.5, 5.5)])
        assert not cheese.contains(tiny)

    def test_island_beside_hole_contained(self):
        cheese = Polygon(SQUARE, [SMALL_SQUARE])
        beside = Polygon([(1, 1), (2, 1), (2, 2), (1, 2)])
        assert cheese.contains(beside)

    def test_star_contains_small_star(self):
        outer = star_polygon(0, 0, 10, seed=1)
        inner = star_polygon(0, 0, 2, seed=2)
        assert outer.contains(inner)

    def test_star_does_not_contain_shifted(self):
        outer = star_polygon(0, 0, 10, seed=3)
        inner = star_polygon(25, 0, 2, seed=4)
        assert not outer.contains(inner)


class TestMERFilters:
    def test_mer_inside_polygon(self):
        mer = maximal_enclosed_rect(Polygon(SQUARE))
        assert mer is not None
        assert Rect(0, 0, 10, 10).contains(mer)
        assert mer.area > 0

    def test_mer_inside_star(self):
        poly = star_polygon(0, 0, 10, seed=5)
        mer = maximal_enclosed_rect(poly)
        assert mer is not None
        assert rect_inside_polygon(mer, poly)

    def test_rect_inside_polygon_true(self):
        assert rect_inside_polygon(Rect(1, 1, 9, 9), Polygon(SQUARE))

    def test_rect_inside_polygon_false_poking(self):
        assert not rect_inside_polygon(Rect(5, 5, 15, 9), Polygon(SQUARE))

    def test_rect_rejected_when_hole_inside(self):
        cheese = Polygon(SQUARE, [SMALL_SQUARE])
        assert not rect_inside_polygon(Rect(3, 3, 7, 7), cheese)
