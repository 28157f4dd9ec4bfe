"""Synthetic TIGER/Line-style Wisconsin data (§4.3, Table 2).

The paper extracts three polyline data sets from the 1992 TIGER/Line files
for Wisconsin:

======  ========  ========  ===========  ==========
set     tuples    size      avg points   R*-tree
======  ========  ========  ===========  ==========
Road    456,613   62.4 MB   8            24.0 MB
Hydro   122,149   25.2 MB   19           6.5 MB
Rail     16,844    2.4 MB   7            1.0 MB
======  ========  ========  ===========  ==========

The generator reproduces the cardinality *ratios*, average point counts and
skewed spatial distribution at a configurable ``scale`` (scale 1.0 is the
full paper-sized data; the default benchmarks run at a few percent of that,
which is what a pure-Python engine sustains).  Everything is deterministic
in the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..geometry import Polyline, Rect
from ..storage.tuples import SpatialTuple
from .distributions import ClusteredDistribution

WISCONSIN = Rect(-92.9, 42.49, -86.80, 47.08)
"""Rough lon/lat bounding box of Wisconsin — the generator's universe."""

FULL_ROAD_COUNT = 456_613
FULL_HYDRO_COUNT = 122_149
FULL_RAIL_COUNT = 16_844

ROAD_AVG_POINTS = 8
HYDRO_AVG_POINTS = 19
RAIL_AVG_POINTS = 7

_NUM_CLUSTERS = 20

REFERENCE_SCALE = 0.02
"""Scale at which the feature step sizes below are calibrated.

At other scales the step is multiplied by ``sqrt(REFERENCE_SCALE / scale)``
so that the expected number of road/hydro intersections per road stays
constant — the property that keeps the join selectivity paper-like (result
cardinality ~7-12% of the road count) at every scale.
"""

CATEGORY_ROAD = 1
CATEGORY_HYDRO = 2
CATEGORY_RAIL = 3


@dataclass(frozen=True)
class PolylineSpec:
    """Shape parameters for one TIGER feature class."""

    category: int
    name_prefix: str
    avg_points: int
    min_points: int
    step: float          # typical segment length, in degrees
    wander: float        # direction jitter per step, radians


ROAD_SPEC = PolylineSpec(CATEGORY_ROAD, "road", ROAD_AVG_POINTS, 2, 0.0010, 0.5)
HYDRO_SPEC = PolylineSpec(CATEGORY_HYDRO, "hydro", HYDRO_AVG_POINTS, 4, 0.0030, 0.9)
RAIL_SPEC = PolylineSpec(CATEGORY_RAIL, "rail", RAIL_AVG_POINTS, 2, 0.0020, 0.2)


def _distribution(seed: int) -> ClusteredDistribution:
    rng = np.random.default_rng(seed)
    return ClusteredDistribution.synthesize(
        WISCONSIN, _NUM_CLUSTERS, rng, background_weight=0.15
    )


def _clip(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def generate_polylines(
    spec: PolylineSpec,
    count: int,
    seed: int,
    universe: Rect = WISCONSIN,
    step_scale: float = 1.0,
) -> Iterator[SpatialTuple]:
    """Yield ``count`` random-walk polylines of the given feature class.

    All classes share the same cluster layout (same base seed) so roads,
    rivers and rails concentrate in the same metro areas and actually
    intersect — the property the join selectivities depend on.
    """
    dist = _distribution(seed=7_1996)  # shared cluster layout
    rng = np.random.default_rng(seed)
    step_base = spec.step * step_scale
    # The draws below are numpy's own formulas for ``uniform`` and
    # ``normal`` on the primitives they are built from — the same stream,
    # value for value (tests/data/test_generators.py pins it), without the
    # per-call argument handling that was most of the generator's time.
    random, standard_normal, sample = rng.random, rng.standard_normal, dist.sample_point
    cos, sin, wander, two_pi = math.cos, math.sin, spec.wander, 2.0 * math.pi
    xl, yl, xu, yu = universe.xl, universe.yl, universe.xu, universe.yu
    for i in range(count):
        npoints = max(spec.min_points, int(rng.poisson(spec.avg_points)))
        x, y = sample(rng)
        heading = two_pi * random()
        points: List[Tuple[float, float]] = [(x, y)]
        for _ in range(npoints - 1):
            heading += wander * standard_normal()
            step = step_base * (0.4 + (1.6 - 0.4) * random())
            x = _clip(x + step * cos(heading), xl, xu)
            y = _clip(y + step * sin(heading), yl, yu)
            points.append((x, y))
        if len(points) < 2 or _degenerate(points):
            points = [(x, y), (x + step_base, y + step_base)]
            points = [
                (_clip(px, universe.xl, universe.xu), _clip(py, universe.yl, universe.yu))
                for px, py in points
            ]
            if points[0] == points[1]:
                points[1] = (points[0][0] - step_base, points[0][1])
        yield SpatialTuple(
            feature_id=i,
            category=spec.category,
            name=f"{spec.name_prefix}-{i}",
            geom=Polyline(points),
        )


def _degenerate(points: List[Tuple[float, float]]) -> bool:
    first = points[0]
    return all(p == first for p in points)


def scaled_counts(scale: float) -> Tuple[int, int, int]:
    """(roads, hydro, rail) cardinalities at the given scale factor."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return (
        max(1, round(FULL_ROAD_COUNT * scale)),
        max(1, round(FULL_HYDRO_COUNT * scale)),
        max(1, round(FULL_RAIL_COUNT * scale)),
    )


def _step_scale(scale: float) -> float:
    return (REFERENCE_SCALE / scale) ** 0.5


def generate_roads(scale: float = 0.01, seed: int = 101) -> Iterator[SpatialTuple]:
    count, _, _ = scaled_counts(scale)
    return generate_polylines(ROAD_SPEC, count, seed, step_scale=_step_scale(scale))


def generate_hydrography(scale: float = 0.01, seed: int = 202) -> Iterator[SpatialTuple]:
    _, count, _ = scaled_counts(scale)
    return generate_polylines(HYDRO_SPEC, count, seed, step_scale=_step_scale(scale))


def generate_rail(scale: float = 0.01, seed: int = 303) -> Iterator[SpatialTuple]:
    _, _, count = scaled_counts(scale)
    return generate_polylines(RAIL_SPEC, count, seed, step_scale=_step_scale(scale))
