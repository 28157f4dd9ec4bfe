"""Array kernels for the polygon refinement predicates.

The polygon predicates are all-pairs tests — every boundary segment of one
polygon against every segment of the other, every vertex against every ring
edge — so they run here as numpy broadcasts over coordinate arrays instead
of one :func:`~repro.geometry.segment.segments_intersect` call per pair.

The kernels must return the scalar functions' answers bit for bit (result
digests are gated byte-identical), so each repeats the scalar arithmetic
operation for operation as separate elementwise ufuncs, in the scalar
code's association order.  ``np.cross``, ``einsum`` and ``@`` may fuse or
reorder and are not used.  ``tests/geometry/test_kernels.py`` holds every
kernel equal to a reference built from the scalar primitives.

Polylines stay on the early-exit sweep (``polylines_intersect_sweep``): on
TIGER's short chains an all-pairs kernel is slower than a sweep that stops
at the first hit.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .segment import _EPS


def ring_segments(
    rings: Iterable[Sequence[Tuple[float, float]]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end points, each ``(n, 2)``, of every edge of closed rings."""
    closed = [np.array([*ring, ring[0]], dtype=float) for ring in rings]
    return (
        np.concatenate([pts[:-1] for pts in closed]),
        np.concatenate([pts[1:] for pts in closed]),
    )


def _orientation(px, py, qx, qy, rx, ry) -> np.ndarray:
    """Broadcast :func:`~repro.geometry.segment.orientation`: int8 signs."""
    ax = qx - px
    ay = qy - py
    bx = rx - px
    by = ry - py
    cross = ax * by - ay * bx
    tol = _EPS * np.maximum(np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by), 1.0)
    return (cross > tol).view(np.int8) - (cross < -tol).view(np.int8)


def _on_segment(px, py, qx, qy, rx, ry) -> np.ndarray:
    """Broadcast :func:`~repro.geometry.segment.on_segment`."""
    return (
        (np.minimum(px, rx) - _EPS <= qx)
        & (qx <= np.maximum(px, rx) + _EPS)
        & (np.minimum(py, ry) - _EPS <= qy)
        & (qy <= np.maximum(py, ry) + _EPS)
    )


def any_segments_intersect(
    a1: np.ndarray, a2: np.ndarray, b1: np.ndarray, b2: np.ndarray
) -> bool:
    """True when some closed segment ``a1[i]a2[i]`` meets some ``b1[j]b2[j]``.

    The n×m broadcast of :func:`~repro.geometry.segment.segments_intersect`;
    inputs are ``(n, 2)`` and ``(m, 2)`` point arrays, and the temporaries
    are n×m, so callers narrow the inputs first where they can.
    """
    if len(a1) == 0 or len(b1) == 0:
        return False
    x1, y1, x2, y2 = a1[:, 0, None], a1[:, 1, None], a2[:, 0, None], a2[:, 1, None]
    x3, y3, x4, y4 = b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1]
    d1 = _orientation(x3, y3, x4, y4, x1, y1)
    d2 = _orientation(x3, y3, x4, y4, x2, y2)
    d3 = _orientation(x1, y1, x2, y2, x3, y3)
    d4 = _orientation(x1, y1, x2, y2, x4, y4)
    # A proper crossing has all four orientations nonzero, so each differing
    # pair multiplies to -1.
    if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
        return True
    # Touching and collinear overlap: an endpoint on the other segment.
    return bool((
        ((d1 == 0) & _on_segment(x3, y3, x1, y1, x4, y4))
        | ((d2 == 0) & _on_segment(x3, y3, x2, y2, x4, y4))
        | ((d3 == 0) & _on_segment(x1, y1, x3, y3, x2, y2))
        | ((d4 == 0) & _on_segment(x1, y1, x4, y4, x2, y2))
    ).any())


def points_in_ring(
    px: np.ndarray, py: np.ndarray, ring: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Ray-cast parity and on-boundary flag of k points against one ring.

    Returns ``(parity, on_boundary)``, two ``(k,)`` boolean arrays.  The
    scalar :func:`~repro.geometry.polygon.point_in_ring` (boundary counts as
    inside) is ``on_boundary | parity``; the strict test used for holes
    (boundary counts as outside) is ``parity & ~on_boundary``.  ``ring`` is
    an ``(n, 2)`` array of the ring's vertices, not closed.
    """
    x = px[:, None]
    y = py[:, None]
    closed = np.concatenate((ring, ring[:1]))
    x1, y1 = closed[:-1, 0], closed[:-1, 1]
    x2, y2 = closed[1:, 0], closed[1:, 1]
    # On an edge = collinear with it and inside its box.  The box test is
    # the cheaper half and rarely passes, so the orientation waits on it.
    on_edge = _on_segment(x1, y1, x, y, x2, y2)
    if on_edge.any():
        on_edge &= _orientation(x1, y1, x, y, x2, y2) == 0
    on_boundary = on_edge.any(axis=1)
    # Edges the ray does not straddle (y1 == y2 among them) are masked out,
    # whatever their lane computed; Python floats overflow silently too.
    with np.errstate(all="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        crossings = ((y1 > y) != (y2 > y)) & (x_cross > x)
    return np.logical_xor.reduce(crossings, axis=1), on_boundary
