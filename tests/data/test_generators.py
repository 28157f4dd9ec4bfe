"""Tests for the synthetic TIGER and Sequoia data generators."""

import hashlib

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
from repro.data.tiger import (
    FULL_HYDRO_COUNT,
    FULL_RAIL_COUNT,
    FULL_ROAD_COUNT,
    HYDRO_AVG_POINTS,
    ROAD_AVG_POINTS,
)
from repro.geometry import Polygon, Polyline
from repro.storage.tuples import serialize_tuple


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
