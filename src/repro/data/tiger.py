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
from typing import List, Tuple

import numpy as np

from ..geometry import Rect
from ..storage.tuples import SPILL_BLOCK_RECORDS, Records, pack_records
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


def _clip(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``lo if value < lo else hi if value > hi else value``, elementwise."""
    return np.where(value < lo, lo, np.where(value > hi, hi, value))


def generate_polylines(
    spec: PolylineSpec,
    count: int,
    seed: int,
    universe: Rect = WISCONSIN,
    step_scale: float = 1.0,
) -> Records:
    """``count`` random-walk polylines of the given feature class, stored
    (:func:`~repro.storage.tuples.pack_records`); iterating decodes them.

    All classes share the same cluster layout (same base seed) so roads,
    rivers and rails concentrate in the same metro areas and actually
    intersect — the property the join selectivities depend on.
    """
    dist = _distribution(seed=7_1996)  # shared cluster layout
    rng = np.random.default_rng(seed)
    return pack_records(
        _walks(spec, range(first, min(first + SPILL_BLOCK_RECORDS, count)),
               rng, dist, universe, spec.step * step_scale)
        for first in range(0, count, SPILL_BLOCK_RECORDS)
    )


def _walks(spec: PolylineSpec, ids: range, rng: np.random.Generator,
           dist: ClusteredDistribution, universe: Rect, step_base: float) -> tuple:
    """One window of :func:`generate_polylines`: polylines ``ids``, as
    :func:`~repro.storage.tuples.pack_records` takes them.

    Each walk starts at a point of the clustered distribution, turns by
    ``wander`` times a standard normal and steps ``step_base`` times a
    uniform draw in [0.4, 1.6) each vertex, clipped to the universe; a walk
    whose vertices all coincide becomes a two-point segment.  The draws are
    numpy's own formulas for ``uniform`` and ``normal`` on the primitives
    they are built from, one scalar call each, in walk order — the stream
    tests/data/test_generators.py pins.  The arithmetic on them runs on
    arrays, a walk a row: float for float what the walk's floats would do
    (``math.cos``/``math.sin`` for the trigonometry), a column at a time
    where each vertex is clipped from the one before.
    """
    poisson, random, standard_normal = rng.poisson, rng.random, rng.standard_normal
    starts: List[float] = []  # per walk: points, x, y, heading
    draws: List[float] = []  # per step: normal, uniform
    for _ in ids:
        npoints = max(spec.min_points, int(poisson(spec.avg_points)))
        starts += (npoints, *dist.sample_point(rng), 2.0 * math.pi * random())
        for _ in range(npoints - 1):
            draws.append(standard_normal())
            draws.append(random())
    npoints, x0, y0, heading0 = np.array(starts).reshape(-1, 4).T
    npoints = npoints.astype(np.int64)
    normal, uniform = np.array(draws).reshape(-1, 2).T
    moves = np.arange(max(1, npoints.max() - 1)) < npoints[:, None] - 1
    turns = np.zeros(moves.shape)
    turns[moves] = spec.wander * normal
    heading = np.cumsum(np.column_stack((heading0, turns)), axis=1)[:, 1:][moves].tolist()
    length = step_base * (0.4 + (1.6 - 0.4) * uniform)
    xs, ys = np.empty((2, len(npoints), moves.shape[1] + 1))
    for walk, start, trig, lo, hi in (
        (xs, x0, math.cos, universe.xl, universe.xu),
        (ys, y0, math.sin, universe.yl, universe.yu),
    ):
        delta = np.zeros(moves.shape)
        delta[moves] = length * np.fromiter(map(trig, heading), float)
        walk[:, 0] = start
        for k in range(moves.shape[1]):
            walk[:, k + 1] = _clip(walk[:, k] + delta[:, k], lo, hi)
    past = np.arange(xs.shape[1]) >= npoints[:, None]
    still = ((xs == xs[:, :1]) & (ys == ys[:, :1]) | past).all(axis=1)
    for xy, lo, hi in ((xs, universe.xl, universe.xu), (ys, universe.yl, universe.yu)):
        xy[still, :2] = _clip(np.column_stack((xy[still, 0], xy[still, 0] + step_base)), lo, hi)
    same = still & (xs[:, 0] == xs[:, 1]) & (ys[:, 0] == ys[:, 1])
    xs[same, 1] -= step_base
    npoints[still] = 2
    points = np.arange(xs.shape[1]) < npoints[:, None]
    return (np.arange(ids.start, ids.stop), spec.category, [f"{spec.name_prefix}-{i}" for i in ids],
            xs[points], ys[points], np.concatenate(([0], np.cumsum(npoints))))


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


def generate_roads(scale: float = 0.01, seed: int = 101) -> Records:
    count, _, _ = scaled_counts(scale)
    return generate_polylines(ROAD_SPEC, count, seed, step_scale=_step_scale(scale))


def generate_hydrography(scale: float = 0.01, seed: int = 202) -> Records:
    _, count, _ = scaled_counts(scale)
    return generate_polylines(HYDRO_SPEC, count, seed, step_scale=_step_scale(scale))


def generate_rail(scale: float = 0.01, seed: int = 303) -> Records:
    _, _, count = scaled_counts(scale)
    return generate_polylines(RAIL_SPEC, count, seed, step_scale=_step_scale(scale))
