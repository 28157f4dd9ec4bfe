"""Exact join predicates evaluated by the refinement step.

A predicate takes the two fetched tuples ``(r, s)`` and decides whether the
pair belongs in the join result.  The paper's two queries are:

* *intersects* — TIGER road x hydrography / road x rail overlay;
* *contains*  — Sequoia: is the island (inner, S side) contained in the
  land-use polygon (outer, R side)?

Variants exist for the ablations of §4.4: the naive all-pairs polyline test
(62% more expensive in the paper) and the [BKSS94] MBR/MER-filtered
containment.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..geometry import (
    Polygon,
    Polyline,
    Rect,
    any_segments_intersect,
    maximal_enclosed_rect,
    polylines_intersect_naive,
    polylines_intersect_sweep,
    ring_segments,
)
from ..storage.relation import OID
from ..storage.tuples import SpatialTuple

Predicate = Callable[[SpatialTuple, SpatialTuple], bool]


def _geoms_intersect(a, b, polyline_test) -> bool:
    if not a.mbr.intersects(b.mbr):
        return False
    if isinstance(a, Polyline) and isinstance(b, Polyline):
        return polyline_test(a, b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return a.intersects(b)
    # Mixed polyline/polygon: boundary crossing, or the line lies inside.
    line, poly = (a, b) if isinstance(a, Polyline) else (b, a)
    chain = np.array(line.points)
    if any_segments_intersect(chain[:-1], chain[1:], *ring_segments(poly.rings)):
        return True
    return poly.contains_point(*line.points[0])


def intersects(r: SpatialTuple, s: SpatialTuple) -> bool:
    """Exact spatial intersection (plane-sweep polyline test)."""
    return _geoms_intersect(r.geom, s.geom, polylines_intersect_sweep)


def intersects_naive(r: SpatialTuple, s: SpatialTuple) -> bool:
    """Intersection with the naive O(n*m) polyline test (§4.4 ablation)."""
    return _geoms_intersect(r.geom, s.geom, polylines_intersect_naive)


def contains(r: SpatialTuple, s: SpatialTuple) -> bool:
    """True when the R polygon contains the S polygon (paper's naive check)."""
    if not isinstance(r.geom, Polygon) or not isinstance(s.geom, Polygon):
        raise TypeError("containment predicate requires polygon inputs")
    return r.geom.contains(s.geom)


class ContainsWithFilters:
    """[BKSS94] containment with MBR/MER pre-filters (§4.4).

    Caches a maximal enclosed rectangle per outer polygon so repeated
    candidates against the same land-use polygon often skip the O(n^2)
    geometry entirely.  Stateful, therefore a class rather than a function.
    """

    def __init__(self) -> None:
        self._mer_cache: Dict[OID, Optional[Rect]] = {}
        self.filter_hits = 0
        self.exact_tests = 0

    def mer_for(self, oid: OID, polygon: Polygon) -> Optional[Rect]:
        if oid not in self._mer_cache:
            self._mer_cache[oid] = maximal_enclosed_rect(polygon)
        return self._mer_cache[oid]

    def precompute(self, relation) -> int:
        """Compute and cache the MER of every tuple in a relation.

        The paper's §4.4 assumes the MER "is precomputed and stored along
        with each spatial feature"; call this at load time so the join
        itself only pays for cache lookups.  Returns the number of MERs
        computed.
        """
        n = 0
        for _oid, t in relation.scan():
            if isinstance(t.geom, Polygon):
                self.mer_for(OID(0, t.feature_id, 0), t.geom)
                n += 1
        return n

    def __call__(self, r: SpatialTuple, s: SpatialTuple) -> bool:
        if not isinstance(r.geom, Polygon) or not isinstance(s.geom, Polygon):
            raise TypeError("containment predicate requires polygon inputs")
        mer = self.mer_for(
            OID(0, r.feature_id, 0), r.geom
        )  # keyed by feature id: stable across fetches
        if not r.geom.mbr.contains(s.geom.mbr):
            self.filter_hits += 1
            return False
        # The columnar refine's rule: every ring of the inner polygon in the
        # square, which no ring of the outer one comes near.
        if mer is not None and all(mer.contains(Rect.from_points(r)) for r in s.geom.rings):
            self.filter_hits += 1
            return True
        self.exact_tests += 1
        return r.geom.contains(s.geom)
