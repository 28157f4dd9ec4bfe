"""Tests for the synthetic TIGER and Sequoia data generators."""

import collections
import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest

from repro.data import (
    CALIFORNIA,
    WISCONSIN,
    generate_hydrography,
    generate_islands,
    generate_landuse_polygons,
    generate_rail,
    generate_roads,
    scaled_counts,
)
from repro.data import sequoia, tiger
from repro.data.tiger import (
    FULL_HYDRO_COUNT,
    FULL_RAIL_COUNT,
    FULL_ROAD_COUNT,
    HYDRO_AVG_POINTS,
    ROAD_AVG_POINTS,
)
from repro.geometry import Polygon, Polyline, Rect
from repro.storage.tuples import SpatialTuple, serialize_tuple


class TestScaledCounts:
    def test_full_scale(self):
        assert scaled_counts(1.0) == (FULL_ROAD_COUNT, FULL_HYDRO_COUNT, FULL_RAIL_COUNT)

    def test_ratios_preserved(self):
        roads, hydro, rail = scaled_counts(0.01)
        assert roads / hydro == pytest.approx(FULL_ROAD_COUNT / FULL_HYDRO_COUNT, rel=0.05)
        assert roads / rail == pytest.approx(FULL_ROAD_COUNT / FULL_RAIL_COUNT, rel=0.05)

    def test_minimum_one(self):
        assert scaled_counts(1e-9) == (1, 1, 1)

    def test_bad_scale_raises(self):
        with pytest.raises(ValueError):
            scaled_counts(0)


class TestTigerGenerators:
    def test_deterministic(self):
        a = [t.geom.points for t in generate_roads(scale=0.0005)]
        b = [t.geom.points for t in generate_roads(scale=0.0005)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [t.geom.points for t in generate_roads(scale=0.0005, seed=1)]
        b = [t.geom.points for t in generate_roads(scale=0.0005, seed=2)]
        assert a != b

    def test_all_polylines_valid(self):
        for t in generate_roads(scale=0.0005):
            assert isinstance(t.geom, Polyline)
            assert t.geom.num_points >= 2

    def test_within_universe(self):
        for gen in (generate_roads, generate_hydrography, generate_rail):
            for t in gen(scale=0.0003):
                assert WISCONSIN.contains(t.mbr)

    def test_avg_points_near_target(self):
        roads = list(generate_roads(scale=0.003))
        avg = sum(t.num_points for t in roads) / len(roads)
        assert avg == pytest.approx(ROAD_AVG_POINTS, rel=0.25)
        hydro = list(generate_hydrography(scale=0.01))
        avg_h = sum(t.num_points for t in hydro) / len(hydro)
        assert avg_h == pytest.approx(HYDRO_AVG_POINTS, rel=0.25)

    def test_hydro_longer_than_rail(self):
        hydro = list(generate_hydrography(scale=0.005))
        rail = list(generate_rail(scale=0.05))
        avg_h = sum(t.num_points for t in hydro) / len(hydro)
        avg_r = sum(t.num_points for t in rail) / len(rail)
        assert avg_h > avg_r

    def test_data_is_spatially_skewed(self):
        # The clustered distribution should put far more mass in some
        # quadrants than others (the paper's Figure 2 motivation).
        roads = list(generate_roads(scale=0.005))
        cx = (WISCONSIN.xl + WISCONSIN.xu) / 2
        cy = (WISCONSIN.yl + WISCONSIN.yu) / 2
        quadrants = [0, 0, 0, 0]
        for t in roads:
            x, y = t.mbr.center
            quadrants[(x > cx) + 2 * (y > cy)] += 1
        assert max(quadrants) > 2 * min(quadrants)

    def test_names_and_categories(self):
        t = next(iter(generate_rail(scale=0.001)))
        assert t.name.startswith("rail-")
        assert t.category == 3


class TestSequoiaGenerators:
    def test_deterministic(self):
        a = [t.geom.shell for t in generate_landuse_polygons(scale=0.001)]
        b = [t.geom.shell for t in generate_landuse_polygons(scale=0.001)]
        assert a == b

    def test_polygons_valid(self):
        for t in generate_landuse_polygons(scale=0.001):
            assert isinstance(t.geom, Polygon)
            assert t.geom.area() > 0

    def test_some_polygons_have_holes(self):
        polys = list(generate_landuse_polygons(scale=0.01))
        with_holes = sum(1 for t in polys if t.geom.holes)
        assert 0 < with_holes < len(polys)
        # Around the configured 10%.
        assert with_holes / len(polys) == pytest.approx(0.10, abs=0.06)

    def test_islands_smaller_than_polygons(self):
        polys = list(generate_landuse_polygons(scale=0.002))
        islands = list(generate_islands(scale=0.002))
        avg_poly = sum(t.geom.area() for t in polys) / len(polys)
        avg_isl = sum(t.geom.area() for t in islands) / len(islands)
        assert avg_isl < avg_poly / 2

    def test_most_islands_contained_in_some_polygon(self):
        polys = [t.geom for t in generate_landuse_polygons(scale=0.002)]
        islands = [t.geom for t in generate_islands(scale=0.002)]
        contained = 0
        for isl in islands:
            if any(p.mbr.contains(isl.mbr) and p.contains(isl) for p in polys):
                contained += 1
        assert contained / len(islands) > 0.5

    def test_some_islands_not_contained(self):
        polys = [t.geom for t in generate_landuse_polygons(scale=0.002)]
        islands = [t.geom for t in generate_islands(scale=0.002)]
        stray = sum(
            1
            for isl in islands
            if not any(p.mbr.contains(isl.mbr) and p.contains(isl) for p in polys)
        )
        assert stray > 0

    def test_within_universe_roughly(self):
        # Blob jitter can poke slightly past the nominal box; allow margin.
        margin = 1.0
        from repro.geometry import Rect

        padded = Rect(
            CALIFORNIA.xl - margin,
            CALIFORNIA.yl - margin,
            CALIFORNIA.xu + margin,
            CALIFORNIA.yu + margin,
        )
        for t in generate_landuse_polygons(scale=0.001):
            assert padded.contains(t.mbr)


GOLDEN_SCALE = 0.004
GOLDEN_STREAM = {
    "road": (
        "8fcf6553a6d76b08f6061b13276c989583732361e35796cf3bd2824dfd5b45ef",
        "2e5f9fc5a8b1c9a4dd0cdf2138aff608da9ce7ea9170206df5453835f2478eb3",
    ),
    "hydro": (
        "394ce9cac3b6998d9ec270d5618bb27dc38ba3c6b2ec71287f46f19734296fa5",
        "b60d1a05170b2bc262fb48f0982250aa8c517f06228bdca52058ddcfdc3530fa",
    ),
    "rail": (
        "fbf6ade884955ff05d8f40dbcc2bd65b5d13d1d200ea50234b8984a487322d08",
        "fb8a8a863c31db49ac870a06441fbfa70c23fd4e4aa7885b64716280a943a6ec",
    ),
    "landuse": (
        "3385317c7f286e9318d3ef10aa65147d77ebd85b8a5eb1453a1edbe9b051e3c1",
        "c1836607aa4edfc5c31f6d01f0bc4644eca1c8369f572740193f477125514aca",
    ),
    "island": (
        "49e4f84561c6d0383fc9e5df58efe3341dcec03bcefc53982e0a6733c2e51b9e",
        "8d1b84decacb82dce341d0a01e08f8afb586cebf24975a8b1b4469896895f7dd",
    ),
}
"""SHA-256 over ``serialize_tuple`` of every tuple of a generator at
``GOLDEN_SCALE``, for (its default seed, seed 1996) — recorded at commit
61d888c, before the generators' draws were rewritten onto ``random()`` /
``standard_normal()``.  Every committed digest, baseline and
EXPERIMENTS.md number rests on these streams not moving."""


class TestGoldenStream:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STREAM))
    def test_serialised_tuples_are_the_recorded_bytes(self, name):
        generate = {
            "road": generate_roads,
            "hydro": generate_hydrography,
            "rail": generate_rail,
            "landuse": generate_landuse_polygons,
            "island": generate_islands,
        }[name]
        observed = tuple(
            hashlib.sha256(
                b"".join(map(serialize_tuple, generate(GOLDEN_SCALE, **seed)))
            ).hexdigest()
            for seed in ({}, {"seed": 1996})
        )
        assert observed == GOLDEN_STREAM[name]

    def test_every_coordinate_is_a_python_float(self):
        for t in generate_roads(GOLDEN_SCALE / 4):
            assert all(type(c) is float for p in t.geom.points for c in p)
        for t in generate_islands(GOLDEN_SCALE):
            assert all(
                type(c) is float for ring in t.geom.rings for p in ring for c in p
            )


# --------------------------------------------------------------------- #
# the stored-form builders against the object walks they replaced
# --------------------------------------------------------------------- #


def frozen_polylines(spec, count, seed, universe, step_scale, seen):
    """``generate_polylines`` as it was before the walk moved into columns:
    objects, one vertex at a time.  ``seen`` counts clipped coordinates
    and two-point fallbacks."""
    dist = tiger._distribution(seed=7_1996)
    rng = np.random.default_rng(seed)
    step_base = spec.step * step_scale

    def clip(value, lo, hi):
        seen["clipped"] += not lo <= value <= hi
        return lo if value < lo else hi if value > hi else value

    for i in range(count):
        npoints = max(spec.min_points, int(rng.poisson(spec.avg_points)))
        x, y = dist.sample_point(rng)
        heading = 2.0 * math.pi * rng.random()
        points = [(x, y)]
        for _ in range(npoints - 1):
            heading += spec.wander * rng.standard_normal()
            step = step_base * (0.4 + (1.6 - 0.4) * rng.random())
            x = clip(x + step * math.cos(heading), universe.xl, universe.xu)
            y = clip(y + step * math.sin(heading), universe.yl, universe.yu)
            points.append((x, y))
        seen["steps"] += npoints - 1
        if len(points) < 2 or all(p == points[0] for p in points):
            seen["fallbacks"] += 1
            points = [
                (clip(px, universe.xl, universe.xu), clip(py, universe.yl, universe.yu))
                for px, py in ((x, y), (x + step_base, y + step_base))
            ]
            if points[0] == points[1]:
                points[1] = (points[0][0] - step_base, points[0][1])
        yield SpatialTuple(i, spec.category, f"{spec.name_prefix}-{i}", Polyline(points))


def frozen_radial(cx, cy, radius, npoints, rng, min_frac=0.55):
    npoints = max(3, npoints)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, npoints))
    angles = angles + np.arange(npoints) * 1e-9
    radii = rng.uniform(min_frac * radius, radius, npoints)
    return [
        (cx + r * math.cos(a), cy + r * math.sin(a))
        for a, r in zip(angles.tolist(), radii.tolist())
    ]


def frozen_landuse(scale, seed):
    count = max(1, round(sequoia.FULL_POLYGON_COUNT * scale))
    centres, cell_radius, _ = sequoia._landuse_centres(count, CALIFORNIA)
    rng = np.random.default_rng(seed)
    for i, (cx, cy) in enumerate(centres):
        npoints = max(8, int(rng.poisson(sequoia.POLYGON_AVG_POINTS)))
        shell, holes = frozen_radial(cx, cy, cell_radius, npoints, rng), []
        if rng.random() < sequoia.HOLE_FRACTION:
            hx = cx + rng.uniform(-0.15, 0.15) * cell_radius
            hy = cy + rng.uniform(-0.15, 0.15) * cell_radius
            holes.append(frozen_radial(hx, hy, 0.12 * cell_radius, 12, rng, min_frac=0.7))
        yield SpatialTuple(i, sequoia.CATEGORY_LANDUSE, f"landuse-{i}", Polygon(shell, holes))


def frozen_islands(scale, seed):
    poly_count = max(1, round(sequoia.FULL_POLYGON_COUNT * scale))
    count = max(1, round(sequoia.FULL_ISLAND_COUNT * scale))
    centres, cell_radius, (rows, cols, cw, ch) = sequoia._landuse_centres(
        poly_count, CALIFORNIA
    )
    rng = np.random.default_rng(seed)
    for i in range(count):
        npoints = max(6, int(rng.poisson(sequoia.ISLAND_AVG_POINTS)))
        if rng.random() < sequoia.STRAY_ISLAND_FRACTION:
            col, row = int(rng.integers(0, cols)), int(rng.integers(0, rows))
            cx, cy = CALIFORNIA.xl + col * cw, CALIFORNIA.yl + row * ch
            radius = 0.25 * cell_radius
        else:
            px, py = centres[int(rng.integers(0, poly_count))]
            cx = px + rng.uniform(-0.08, 0.08) * cell_radius
            cy = py + rng.uniform(-0.08, 0.08) * cell_radius
            radius = rng.uniform(0.10, 0.30) * cell_radius
        shell = frozen_radial(cx, cy, radius, npoints, rng, min_frac=0.6)
        yield SpatialTuple(i, sequoia.CATEGORY_ISLAND, f"island-{i}", Polygon(shell))


class TestAgainstTheObjectWalks:
    """The stored-form builders write, byte for byte and offset for offset,
    what ``serialize_tuple`` made of the tuples the object walks built —
    a frozen copy of them, here, independent of the code under test."""

    @staticmethod
    def same(records, tuples):
        serialised = [serialize_tuple(t) for t in tuples]
        assert records.payload == b"".join(serialised)
        assert records.offsets.tolist() == [0, *itertools.accumulate(map(len, serialised))]

    @pytest.mark.parametrize("seed", [None, 7, 1996])
    @pytest.mark.parametrize("scale", [GOLDEN_SCALE, 0.02])
    @pytest.mark.parametrize("name", ["road", "hydro", "rail", "landuse", "island"])
    def test_every_generator(self, name, scale, seed):
        build = {
            "road": generate_roads, "hydro": generate_hydrography, "rail": generate_rail,
            "landuse": generate_landuse_polygons, "island": generate_islands,
        }[name]
        if seed is None:
            seed = inspect.signature(build).parameters["seed"].default
        if name in ("landuse", "island"):
            frozen = frozen_landuse if name == "landuse" else frozen_islands
            self.same(build(scale, seed=seed), frozen(scale, seed))
            return
        which = ["road", "hydro", "rail"].index(name)
        self.same(build(scale, seed=seed), frozen_polylines(
            (tiger.ROAD_SPEC, tiger.HYDRO_SPEC, tiger.RAIL_SPEC)[which],
            tiger.scaled_counts(scale)[which], seed, WISCONSIN,
            tiger._step_scale(scale), collections.Counter(),
        ))

    @pytest.mark.parametrize("seed", [101, 7, 1996])
    @pytest.mark.parametrize("universe", ["point", "still"])
    def test_a_shrunken_universe(self, universe, seed):
        """``point``: the universe is road 0's first vertex, so nearly every
        coordinate of every walk is clipped, and road 0, which never moves,
        takes the fallback whose clipped second point is its first.
        ``still``: the south-west quarter, with steps far below a
        coordinate's precision, so every walk starting in it never moves."""
        spec, count, seen = tiger.ROAD_SPEC, tiger.scaled_counts(0.02)[0], collections.Counter()
        if universe == "point":
            start = next(frozen_polylines(spec, 1, seed, WISCONSIN, 1.0, seen)).geom.points[0]
            box, step_scale = Rect(*start, *start), 1.0
        else:
            box, step_scale = Rect(WISCONSIN.xl, WISCONSIN.yl, -89.85, 44.785), 1e-12
        seen.clear()
        self.same(
            tiger.generate_polylines(spec, count, seed, box, step_scale),
            frozen_polylines(spec, count, seed, box, step_scale, seen),
        )
        if universe == "point":
            assert seen["clipped"] > 1.9 * seen["steps"] and seen["fallbacks"] >= 1
        else:
            assert seen["fallbacks"] > count / 10
