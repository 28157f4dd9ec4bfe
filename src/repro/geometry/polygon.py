"""Polygons, including "swiss-cheese" polygons (polygons with holes).

These are the spatial type of the Sequoia land-use data.  The refinement
predicates the paper needs are:

* exact intersection of two polygons (boundary cross or containment), and
* exact containment of one polygon in another (the island-in-landuse query).

Containment is tested with the paper's naive O(n^2) boundary algorithm by
default; the [BKSS94] MBR/MER pre-filters discussed in §4.4 are applied by
:class:`repro.core.predicates.ContainsWithFilters`.

The all-pairs parts of these tests (segment against segment, vertex against
ring edge) run on the array kernels of :mod:`repro.geometry.kernels`, whose
answers equal the scalar :func:`point_in_ring` and
:func:`~repro.geometry.segment.segments_intersect` bit for bit.  Coordinate
arrays are built from the rings on each call, after the MBR test, and are
not kept on the polygon: a join sees each outer polygon about once, and
arrays held by long-lived input tuples cost resident memory for no reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernels import (
    any_segments_intersect,
    clearance_squares,
    points_in_ring,
    ring_segments,
)
from .rect import Rect
from .segment import on_segment, orientation

Point = Tuple[float, float]


def _close_ring(points: Sequence[Point]) -> Tuple[Point, ...]:
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) < 3:
        raise ValueError("a ring needs at least three vertices")
    if pts[0] == pts[-1]:
        pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("a ring needs at least three distinct vertices")
    return pts


def ring_area_signed(ring: Sequence[Point]) -> float:
    """Signed shoelace area; positive for counter-clockwise rings."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def point_in_ring(x: float, y: float, ring: Sequence[Point]) -> bool:
    """Even-odd ray casting; boundary points count as inside."""
    n = len(ring)
    inside = False
    for i in range(n):
        p1 = ring[i]
        p2 = ring[(i + 1) % n]
        # Boundary check first so edges are counted deterministically.
        if orientation(p1, (x, y), p2) == 0 and on_segment(p1, (x, y), p2):
            return True
        y1, y2 = p1[1], p2[1]
        if (y1 > y) != (y2 > y):
            x_cross = p1[0] + (y - y1) * (p2[0] - p1[0]) / (y2 - y1)
            if x_cross > x:
                inside = not inside
    return inside


@dataclass(frozen=True, slots=True)
class Polygon:
    """A simple polygon with optional holes (a swiss-cheese polygon)."""

    shell: Tuple[Point, ...]
    holes: Tuple[Tuple[Point, ...], ...]
    _mbr: Rect = field(init=False, repr=False, compare=False)

    def __init__(self, shell: Sequence[Point], holes: Sequence[Sequence[Point]] = ()):
        object.__setattr__(self, "shell", _close_ring(shell))
        object.__setattr__(
            self, "holes", tuple(_close_ring(h) for h in holes)
        )
        object.__setattr__(self, "_mbr", Rect.from_points(self.shell))

    @property
    def mbr(self) -> Rect:
        return self._mbr

    @property
    def num_points(self) -> int:
        return len(self.shell) + sum(len(h) for h in self.holes)

    @property
    def rings(self) -> List[Tuple[Point, ...]]:
        return [self.shell, *self.holes]

    def area(self) -> float:
        """Unsigned area of the shell minus the holes."""
        total = abs(ring_area_signed(self.shell))
        for hole in self.holes:
            total -= abs(ring_area_signed(hole))
        return total

    def segments(self) -> List[Tuple[Point, Point]]:
        segs: List[Tuple[Point, Point]] = []
        for ring in self.rings:
            n = len(ring)
            for i in range(n):
                segs.append((ring[i], ring[(i + 1) % n]))
        return segs

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    def contains_point(self, x: float, y: float) -> bool:
        """True when the point is in the shell and in none of the holes.

        Hole boundaries count as inside the polygon (they belong to it).
        """
        if not self._mbr.contains_point(x, y):
            return False
        if not point_in_ring(x, y, self.shell):
            return False
        for hole in self.holes:
            if _point_strictly_in_ring(x, y, hole):
                return False
        return True

    def boundary_intersects(self, other: "Polygon") -> bool:
        """True when some boundary segment of one crosses one of the other."""
        p1, p2 = ring_segments(self.rings)
        # Only segments whose own box meets the other polygon's MBR can
        # touch it; typically a handful of the ring enter the n×m test.
        box = other._mbr
        near = (
            (np.minimum(p1[:, 0], p2[:, 0]) <= box.xu)
            & (box.xl <= np.maximum(p1[:, 0], p2[:, 0]))
            & (np.minimum(p1[:, 1], p2[:, 1]) <= box.yu)
            & (box.yl <= np.maximum(p1[:, 1], p2[:, 1]))
        )
        if not near.any():
            return False
        return any_segments_intersect(
            p1[near], p2[near], *ring_segments(other.rings)
        )

    def intersects(self, other: "Polygon") -> bool:
        """Exact area/boundary intersection test."""
        if not self._mbr.intersects(other._mbr):
            return False
        if self.boundary_intersects(other):
            return True
        # No boundary crossing: either disjoint or one inside the other.
        return self.contains_point(*other.shell[0]) or other.contains_point(
            *self.shell[0]
        )

    def contains(self, other: "Polygon") -> bool:
        """Exact containment (the paper's naive O(n^2) refinement check).

        ``other`` is contained when no boundary crossing exists, every vertex
        of ``other`` is inside ``self``, and ``other`` does not sit inside a
        hole of ``self``.
        """
        if not self._mbr.contains(other._mbr):
            return False
        if self.boundary_intersects(other):
            return False
        # Every vertex in or on the shell and none strictly inside a hole;
        # all of them lie in this polygon's MBR already.
        px, py = np.array(other.shell).T
        parity, on_boundary = points_in_ring(px, py, np.array(self.shell))
        if not (on_boundary | parity).all():
            return False
        for hole in self.holes:
            parity, on_boundary = points_in_ring(px, py, np.array(hole))
            if (parity & ~on_boundary).any():
                return False
        return True


def _point_strictly_in_ring(x: float, y: float, ring: Sequence[Point]) -> bool:
    """Ray cast that treats boundary points as *outside* (used for holes)."""
    n = len(ring)
    for i in range(n):
        p1, p2 = ring[i], ring[(i + 1) % n]
        if orientation(p1, (x, y), p2) == 0 and on_segment(p1, (x, y), p2):
            return False
    inside = False
    for i in range(n):
        p1, p2 = ring[i], ring[(i + 1) % n]
        y1, y2 = p1[1], p2[1]
        if (y1 > y) != (y2 > y):
            x_cross = p1[0] + (y - y1) * (p2[0] - p1[0]) / (y2 - y1)
            if x_cross > x:
                inside = not inside
    return inside


# ---------------------------------------------------------------------- #
# [BKSS94]-style refinement pre-filters (§4.4 of the paper)
# ---------------------------------------------------------------------- #


def maximal_enclosed_rect(polygon: Polygon) -> Optional[Rect]:
    """A (not necessarily maximum) axis-aligned rectangle inside the polygon.

    The paper's §4.4 sketches storing a *maximal enclosed rectangle* (MER)
    per polygon so containment can sometimes be decided from approximations
    alone.  Any enclosed rectangle will do; this is the one the columnar
    refine uses, :func:`~repro.geometry.kernels.clearance_squares` of this
    polygon: the square about its shell's area centroid that no ring edge
    comes near.  ``None`` when the centroid is not inside the polygon (a
    crescent, say) or lies in a hole.
    """
    x, y = np.array([point for ring in polygon.rings for point in ring]).T
    ring_first = np.cumsum([0] + [len(ring) for ring in polygon.rings])
    (cx,), (cy,), (half,) = clearance_squares(x, y, ring_first, np.array([0, len(ring_first) - 1]))
    if not half > 0.0:
        return None
    return Rect(float(cx - half), float(cy - half), float(cx + half), float(cy + half))


def rect_inside_polygon(rect: Rect, polygon: Polygon) -> bool:
    """Exact test that an axis-aligned rectangle lies inside a polygon."""
    corners = [
        (rect.xl, rect.yl), (rect.xu, rect.yl),
        (rect.xu, rect.yu), (rect.xl, rect.yu),
    ]
    for x, y in corners:
        if not polygon.contains_point(x, y):
            return False
    # Touching at the boundary is fine only if no crossing; be conservative
    # and reject.
    if any_segments_intersect(
        *ring_segments([corners]), *ring_segments(polygon.rings)
    ):
        return False
    # Guard against a hole fully inside the rectangle.
    for hole in polygon.holes:
        hx, hy = hole[0]
        if rect.contains_point(hx, hy):
            return False
    return True
