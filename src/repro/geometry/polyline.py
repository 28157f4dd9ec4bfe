"""Polylines — the spatial type of the TIGER road/hydrography/rail features.

Two intersection tests are provided:

* :func:`polylines_intersect_naive` — all segment pairs, O(n·m);
* :func:`polylines_intersect_sweep` — a plane-sweep over the merged segment
  list, the technique the paper credits with cutting refinement cost by 62%
  (§4.4).

Both are exact; the sweep is the default used by the refinement step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .rect import Rect
from .segment import segments_intersect

Point = Tuple[float, float]

SWEEP_PAD = 1e-9
"""How far the sweep's interval pre-filters are grown, so that they never
reject a pair the (epsilon-tolerant) exact segment test would accept."""


@dataclass(frozen=True, slots=True)
class Polyline:
    """An open chain of two or more vertices."""

    points: Tuple[Point, ...]
    _mbr: Rect = field(init=False, repr=False, compare=False)

    def __init__(self, points: Sequence[Point]):
        pts = tuple((float(x), float(y)) for x, y in points)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_mbr", Rect.from_points(pts))

    @property
    def mbr(self) -> Rect:
        return self._mbr

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1

    def segments(self) -> List[Tuple[Point, Point]]:
        return list(zip(self.points, self.points[1:]))

    def length(self) -> float:
        total = 0.0
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            total += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
        return total

    def intersects(self, other: "Polyline") -> bool:
        """Exact intersection test (plane-sweep, MBR pre-filtered)."""
        if not self._mbr.intersects(other._mbr):
            return False
        return polylines_intersect_sweep(self, other)


def polylines_intersect_naive(a: Polyline, b: Polyline) -> bool:
    """Test every segment pair.  O(n·m); the ablation baseline."""
    bsegs = b.segments()
    for p1, p2 in zip(a.points, a.points[1:]):
        for p3, p4 in bsegs:
            if segments_intersect(p1, p2, p3, p4):
                return True
    return False


def polylines_intersect_sweep(a: Polyline, b: Polyline) -> bool:
    """Plane-sweep segment intersection between two chains.

    Segments from both chains are sorted by their lower x coordinate; a
    sweep keeps, per side, the segments whose x-interval is still open and
    tests only cross-side pairs whose x-intervals overlap.  This matches the
    refinement-step optimisation of §4.4.

    A segment enters the sweep only if its own box, grown by ``pad``,
    meets the *other* chain's MBR (this repo's addition, not the paper's).
    Verdicts cannot change: the sweep hands ``segments_intersect`` only
    pairs whose boxes overlap within ``pad``, and the other segment's box
    lies inside its chain's MBR, so the mask drops only segments the sweep
    would never test.  Each comparison below is one the sweep itself makes,
    with the other segment's bound replaced by the MBR's (rounding is
    monotonic, so the implication survives it) — both the form the sweep
    uses when this segment is the event and the one when it is active.
    """
    pad = SWEEP_PAD
    events: List[Tuple[float, float, int, Point, Point]] = []
    for side, (chain, box) in enumerate(((a, b._mbr), (b, a._mbr))):
        bxl, byl, bxu, byu = box.xl, box.yl, box.xu, box.yu
        first = len(events)
        for p1, p2 in zip(chain.points, chain.points[1:]):
            xl, xu = (p1[0], p2[0]) if p1[0] <= p2[0] else (p2[0], p1[0])
            if xu < bxl - pad or bxu < xl - pad:
                continue
            ylo, yhi = (p1[1], p2[1]) if p1[1] <= p2[1] else (p2[1], p1[1])
            if (byl > yhi + pad or byu < ylo - pad) and (
                ylo > byu + pad or yhi < byl - pad
            ):
                continue
            events.append((xl, xu, side, p1, p2))
        if len(events) == first:
            return False
    events.sort(key=lambda e: e[0])

    # Active lists per side, pruned lazily as the sweep front advances.
    active: Tuple[list, list] = ([], [])
    for xl, xu, side, p1, p2 in events:
        opp = active[1 - side]
        # Drop opposite-side segments that end before this one begins.
        if opp:
            opp[:] = [seg for seg in opp if seg[0] >= xl - pad]
        ylo, yhi = (p1[1], p2[1]) if p1[1] <= p2[1] else (p2[1], p1[1])
        for oxu, oylo, oyhi, q1, q2 in opp:
            if oylo > yhi + pad or oyhi < ylo - pad:
                continue
            if segments_intersect(p1, p2, q1, q2):
                return True
        active[side].append((xu, ylo, yhi, p1, p2))
    return False
