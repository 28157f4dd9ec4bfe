"""Tests for the exact join predicates."""

import pytest

from repro.core import ContainsWithFilters, contains, intersects, intersects_naive
from repro.geometry import Polygon, Polyline
from repro.storage import SpatialTuple


def line(pts, i=0):
    return SpatialTuple(i, 1, f"line-{i}", Polyline(pts))


def poly(shell, holes=(), i=0):
    return SpatialTuple(i, 10, f"poly-{i}", Polygon(shell, holes))


SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
INNER = [(3, 3), (5, 3), (5, 5), (3, 5)]


class TestIntersects:
    def test_crossing_lines(self):
        assert intersects(line([(0, 0), (2, 2)]), line([(0, 2), (2, 0)], 1))

    def test_disjoint_lines(self):
        assert not intersects(line([(0, 0), (1, 0)]), line([(0, 3), (1, 3)], 1))

    def test_naive_agrees(self):
        cases = [
            (line([(0, 0), (2, 2)]), line([(0, 2), (2, 0)], 1)),
            (line([(0, 0), (1, 0)]), line([(0, 3), (1, 3)], 1)),
            (line([(0, 0), (5, 0), (5, 5)]), line([(1, -1), (1, 1)], 1)),
        ]
        for a, b in cases:
            assert intersects(a, b) == intersects_naive(a, b)

    def test_polygon_polygon(self):
        a = poly(SQUARE)
        b = poly([(5, 5), (15, 5), (15, 15), (5, 15)], i=1)
        assert intersects(a, b)

    def test_line_crossing_polygon_boundary(self):
        assert intersects(poly(SQUARE), line([(-5, 5), (5, 5)], 1))

    def test_line_inside_polygon(self):
        assert intersects(poly(SQUARE), line([(2, 2), (4, 4)], 1))
        assert intersects(line([(2, 2), (4, 4)], 1), poly(SQUARE))

    def test_line_outside_polygon(self):
        assert not intersects(poly(SQUARE), line([(20, 20), (30, 30)], 1))


class TestContains:
    def test_contained(self):
        assert contains(poly(SQUARE), poly(INNER, i=1))

    def test_not_contained(self):
        assert not contains(poly(INNER, i=1), poly(SQUARE))

    def test_requires_polygons(self):
        with pytest.raises(TypeError):
            contains(poly(SQUARE), line([(0, 0), (1, 1)], 1))


class TestContainsWithFilters:
    def test_matches_exact_predicate(self):
        filtered = ContainsWithFilters()
        outer = poly(SQUARE)
        cases = [
            poly(INNER, i=1),
            poly([(8, 8), (12, 8), (12, 12), (8, 12)], i=2),  # pokes out
            poly([(20, 20), (22, 20), (22, 22), (20, 22)], i=3),  # disjoint
        ]
        for inner in cases:
            assert filtered(outer, inner) == contains(outer, inner)
        # Each candidate is decided by exactly one of the two: the MBR test
        # rejects the last two, the first is an MER hit or an exact test.
        assert filtered.filter_hits >= 2
        assert filtered.filter_hits + filtered.exact_tests == len(cases)

    def test_filters_are_used(self):
        filtered = ContainsWithFilters()
        outer = poly(SQUARE)
        # A tiny centred island should be resolved by the MER filter alone.
        tiny = poly([(4.9, 4.9), (5.1, 4.9), (5.1, 5.1), (4.9, 5.1)], i=1)
        assert filtered(outer, tiny)
        assert filtered.filter_hits >= 1

    def test_holes_force_exact_test(self):
        filtered = ContainsWithFilters()
        cheese = poly(SQUARE, holes=[INNER])
        island_in_hole = poly([(3.5, 3.5), (4.5, 3.5), (4.5, 4.5), (3.5, 4.5)], i=1)
        assert not filtered(cheese, island_in_hole)
        assert filtered(cheese, poly([(7, 7), (8, 7), (8, 8), (7, 8)], i=2))

    def test_type_check(self):
        with pytest.raises(TypeError):
            ContainsWithFilters()(poly(SQUARE), line([(0, 0), (1, 1)], 1))
