"""Computational-geometry substrate for the PBSM reproduction."""

from .curves import CurveMapper, hilbert_d, hilbert_xy, morton_d, morton_xy
from .interval_tree import IntervalTree
from .kernels import any_segments_intersect, points_in_ring, ring_segments
from .planesweep import (
    naive_join_pairs,
    sweep_join,
    sweep_join_interval_tree,
    sweep_join_pairs,
)
from .polygon import (
    Polygon,
    maximal_enclosed_rect,
    point_in_ring,
    rect_inside_polygon,
    ring_area_signed,
)
from .polyline import (
    Polyline,
    polylines_intersect_naive,
    polylines_intersect_sweep,
)
from .rect import Rect
from .segment import (
    on_segment,
    orientation,
    segment_intersection_point,
    segments_intersect,
)

__all__ = [
    "CurveMapper",
    "IntervalTree",
    "Polygon",
    "Polyline",
    "Rect",
    "any_segments_intersect",
    "hilbert_d",
    "hilbert_xy",
    "maximal_enclosed_rect",
    "morton_d",
    "morton_xy",
    "naive_join_pairs",
    "on_segment",
    "orientation",
    "point_in_ring",
    "points_in_ring",
    "polylines_intersect_naive",
    "polylines_intersect_sweep",
    "rect_inside_polygon",
    "ring_area_signed",
    "ring_segments",
    "segment_intersection_point",
    "segments_intersect",
    "sweep_join",
    "sweep_join_interval_tree",
    "sweep_join_pairs",
]
