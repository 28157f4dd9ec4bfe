"""Synthetic Sequoia-2000-style polygon and island data (§4.3, Table 3).

The Sequoia polygon set holds 58,115 regions of homogeneous land use in
California/Nevada (avg 46 points per polygon); the island set holds holes in
those polygons — e.g. a lake in a park — averaging 35 points.  The paper's
query joins them with a *containment* predicate, producing 25,260 result
tuples, and its refinement step dominates total cost (79% for PBSM).

The generator tessellates a California-like universe with star-convex
land-use blobs on a jittered grid, gives a fraction of them a hole
("swiss-cheese" polygons), and drops islands inside most polygons (plus a
fraction of stray, uncontained islands), preserving the workload's
character: a containment join with heavy per-candidate geometry.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..geometry import Rect
from ..storage.tuples import SPILL_BLOCK_RECORDS, Records, pack_records

CALIFORNIA = Rect(-124.4, 32.5, -114.1, 42.0)
"""Rough lon/lat bounding box of California — the generator's universe."""

FULL_POLYGON_COUNT = 58_115
FULL_ISLAND_COUNT = 21_000

POLYGON_AVG_POINTS = 46
ISLAND_AVG_POINTS = 35

HOLE_FRACTION = 0.10
"""Fraction of land-use polygons that carry one hole."""

STRAY_ISLAND_FRACTION = 0.15
"""Fraction of islands deliberately placed outside any intended parent."""

CATEGORY_LANDUSE = 10
CATEGORY_ISLAND = 11

_LAYOUT_SEED = 1996_06
"""Seed of the centre layout, shared by the polygon and island generators."""


def _radial_draws(
    cx: float, cy: float, radius: float, npoints: int, rng: np.random.Generator,
    min_frac: float = 0.55,
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """The draws of a star-convex simple ring around a centre — the
    centre, the vertices' angles in ascending order and their radii — of
    which :func:`_windows` makes the ring."""
    npoints = max(3, npoints)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, npoints))
    return cx, cy, angles, rng.uniform(min_frac * radius, radius, npoints)


def _windows(category: int, prefix: str, polygons: Iterable[list]) -> Iterator[tuple]:
    """Polygons, each the :func:`_radial_draws` of its rings (shell first),
    a :data:`~repro.storage.tuples.SPILL_BLOCK_RECORDS` window at a time as
    :func:`~repro.storage.tuples.pack_records` takes them.  A ring's vertex
    ``k``, of angle ``a`` plus ``k`` nanoradians (so consecutive vertices
    never coincide), is ``(cx + r cos a, cy + r sin a)``: float for float
    the arithmetic of the vertices one at a time, on whole arrays,
    ``math.cos``/``math.sin`` for the trigonometry."""
    polygons = iter(polygons)
    for first in itertools.count(0, SPILL_BLOCK_RECORDS):
        window = list(itertools.islice(polygons, SPILL_BLOCK_RECORDS))
        if not window:
            return
        cx, cy, angles, radii = zip(*(ring for rings in window for ring in rings))
        counts = np.fromiter(map(len, angles), np.int64, len(angles))
        ring_first = np.concatenate(([0], np.cumsum(counts)))
        angles = np.concatenate(angles)
        angles += (np.arange(len(angles)) - np.repeat(ring_first[:-1], counts)) * 1e-9
        radii, angles = np.concatenate(radii), angles.tolist()
        ids = range(first, first + len(window))
        yield (
            np.arange(ids.start, ids.stop), category, [f"{prefix}-{i}" for i in ids],
            np.repeat(cx, counts) + radii * np.fromiter(map(math.cos, angles), float),
            np.repeat(cy, counts) + radii * np.fromiter(map(math.sin, angles), float),
            ring_first, np.cumsum([0, *map(len, window)]),
        )


def _grid_layout(count: int, universe: Rect) -> Tuple[int, int, float, float]:
    """Cells arranged to roughly match the universe aspect ratio."""
    aspect = universe.width / universe.height
    rows = max(1, int(math.sqrt(count / aspect)))
    cols = max(1, math.ceil(count / rows))
    return rows, cols, universe.width / cols, universe.height / rows


def _landuse_centres(
    count: int, universe: Rect
) -> Tuple[List[Tuple[float, float]], float, Tuple[int, int, float, float]]:
    """Jittered-grid polygon centres, deterministic in the layout seed.

    Computed identically by both generators so islands can target their
    parent polygons without regenerating the polygons themselves.
    """
    rng = np.random.default_rng(_LAYOUT_SEED)
    rows, cols, cw, ch = _grid_layout(count, universe)
    cell_radius = 0.62 * min(cw, ch)
    centres = []
    for i in range(count):
        row, col = divmod(i, cols)
        cx = universe.xl + (col + 0.5) * cw + rng.normal(0.0, 0.08 * cw)
        cy = universe.yl + (row + 0.5) * ch + rng.normal(0.0, 0.08 * ch)
        centres.append((cx, cy))
    return centres, cell_radius, (rows, cols, cw, ch)


def generate_landuse_polygons(
    scale: float = 0.01,
    seed: int = 404,
    universe: Rect = CALIFORNIA,
) -> Records:
    """The land-use polygons (the paper's "polygon" data set), stored;
    iterating decodes them."""
    count = max(1, round(FULL_POLYGON_COUNT * scale))
    centres, cell_radius, _layout = _landuse_centres(count, universe)
    rng = np.random.default_rng(seed)

    def polygon(cx: float, cy: float) -> list:
        npoints = max(8, int(rng.poisson(POLYGON_AVG_POINTS)))
        rings = [_radial_draws(cx, cy, cell_radius, npoints, rng)]
        if rng.random() < HOLE_FRACTION:
            # A small hole offset from the centre, safely inside the shell.
            hx = cx + rng.uniform(-0.15, 0.15) * cell_radius
            hy = cy + rng.uniform(-0.15, 0.15) * cell_radius
            rings.append(_radial_draws(hx, hy, 0.12 * cell_radius, 12, rng, min_frac=0.7))
        return rings

    return pack_records(_windows(CATEGORY_LANDUSE, "landuse", itertools.starmap(polygon, centres)))


def generate_islands(
    scale: float = 0.01,
    seed: int = 505,
    universe: Rect = CALIFORNIA,
) -> Records:
    """The island polygons, most contained in some land-use polygon, stored;
    iterating decodes them.

    Containment is arranged constructively: an island is a small star-convex
    polygon centred near a land-use polygon's centre with radius well under
    that polygon's minimum shell radius.  A :data:`STRAY_ISLAND_FRACTION` of
    islands is placed at cell corners instead, where they usually cross
    polygon boundaries and fail the exact containment test — giving the
    filter step genuine false positives to weed out.  Islands whose intended
    parent carries a hole near its centre may also fail containment; the
    refinement step is the arbiter either way.
    """
    poly_count = max(1, round(FULL_POLYGON_COUNT * scale))
    count = max(1, round(FULL_ISLAND_COUNT * scale))
    centres, cell_radius, (rows, cols, cw, ch) = _landuse_centres(
        poly_count, universe
    )
    rng = np.random.default_rng(seed)

    def island() -> list:
        npoints = max(6, int(rng.poisson(ISLAND_AVG_POINTS)))
        if rng.random() < STRAY_ISLAND_FRACTION:
            # Straddle a cell corner: rarely contained in anything.
            col = int(rng.integers(0, cols))
            row = int(rng.integers(0, rows))
            cx = universe.xl + col * cw
            cy = universe.yl + row * ch
            radius = 0.25 * cell_radius
        else:
            parent = int(rng.integers(0, poly_count))
            px, py = centres[parent]
            cx = px + rng.uniform(-0.08, 0.08) * cell_radius
            cy = py + rng.uniform(-0.08, 0.08) * cell_radius
            # Min shell radius is 0.55 * cell_radius; stay clearly inside.
            radius = rng.uniform(0.10, 0.30) * cell_radius
        return [_radial_draws(cx, cy, radius, npoints, rng, min_frac=0.6)]

    return pack_records(_windows(CATEGORY_ISLAND, "island", (island() for _ in range(count))))
