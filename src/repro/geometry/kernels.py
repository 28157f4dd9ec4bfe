"""Array kernels for the refinement predicates.

The polygon predicates are all-pairs tests — every boundary segment of one
polygon against every segment of the other, every vertex against every ring
edge — so they run here as numpy broadcasts over coordinate arrays instead
of one :func:`~repro.geometry.segment.segments_intersect` call per pair.
Both predicates the paper joins on also have a columnar form, over every
candidate pair of a partition pair at once and straight from spilled
coordinate columns: :func:`polylines_intersect_each` and
:func:`polygons_contain_each`.

The kernels must return the scalar functions' answers bit for bit (result
digests are gated byte-identical), so each repeats the scalar arithmetic
operation for operation as separate elementwise ufuncs, in the scalar
code's association order.  ``np.cross``, ``einsum`` and ``@`` may fuse or
reorder and are not used.  ``tests/geometry/test_kernels.py`` holds every
kernel equal to a reference built from the scalar primitives.

One pair of polylines stays on the early-exit sweep
(``polylines_intersect_sweep``): on TIGER's short chains an all-pairs kernel
is slower than a sweep that stops at the first hit.  What pays is the
cross-pair form, where a few dozen array calls cover every candidate of a
partition pair.  One pair of polygons stays on ``Polygon.contains``, which
single-node PBSM and the paper's Figure 13 run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .polyline import SWEEP_PAD
from .segment import _EPS

EXPANSION_CHUNK_ROWS = 1 << 16
"""The most rows :func:`ragged_rows` expands at a time.  Everything built
from a chunk is a few dozen arrays of this many 8-byte elements at most —
megabytes, whatever the skew of the input — and still enough rows to keep
the per-call overhead of numpy out of sight."""


def ragged_rows(counts: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The rows ``(i, k)`` for ``k < counts[i]``, in order, as ``(i, k)``
    column pairs of at most :data:`EXPANSION_CHUNK_ROWS` rows: a join's
    expansion with its temporaries bounded."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    firsts = ends - counts
    for start in range(0, total, EXPANSION_CHUNK_ROWS):
        rows = np.arange(start, min(start + EXPANSION_CHUNK_ROWS, total))
        owner = np.searchsorted(ends, rows, side="right")
        yield owner, rows - firsts[owner]


RANK_BITS = 31
"""Bits of a :func:`grouped_keys` key that hold the rank."""


def dense_ranks(*columns: np.ndarray) -> List[np.ndarray]:
    """Each column with its values replaced by their ranks among the
    distinct values of all the columns: comparisons between any two
    entries come out as they did, on small integers."""
    values, ranks = np.unique(np.concatenate(columns), return_inverse=True)
    if len(values) > 1 << RANK_BITS:
        raise OverflowError("too many distinct values for an int64 key")
    return np.split(ranks, np.cumsum([len(column) for column in columns])[:-1])


def grouped_keys(groups: np.ndarray, ranks) -> np.ndarray:
    """``(group, rank)`` as one int64 that sorts as the pair does: a u32
    group above a rank below ``2**31`` fills 63 bits and never the sign."""
    return (groups.astype(np.int64) << RANK_BITS) | ranks


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
    ends = (
        a1[:, 0, None], a1[:, 1, None], a2[:, 0, None], a2[:, 1, None],
        b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1],
    )
    turns = _orientations(*ends)
    if _proper(*turns).any():
        return True
    return bool(_touching(*turns, *ends).any())


def segments_intersect_each(x1, y1, x2, y2, x3, y3, x4, y4) -> np.ndarray:
    """Broadcast :func:`~repro.geometry.segment.segments_intersect` of
    ``(x1, y1)(x2, y2)`` against ``(x3, y3)(x4, y4)``."""
    ends = (x1, y1, x2, y2, x3, y3, x4, y4)
    turns = _orientations(*ends)
    return _proper(*turns) | _touching(*turns, *ends)


def _orientations(x1, y1, x2, y2, x3, y3, x4, y4):
    """``segments_intersect``'s ``d1 .. d4``."""
    return (
        _orientation(x3, y3, x4, y4, x1, y1),
        _orientation(x3, y3, x4, y4, x2, y2),
        _orientation(x1, y1, x2, y2, x3, y3),
        _orientation(x1, y1, x2, y2, x4, y4),
    )


def _proper(d1, d2, d3, d4) -> np.ndarray:
    """A proper crossing has all four orientations nonzero, so each differing
    pair multiplies to -1."""
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def _touching(d1, d2, d3, d4, x1, y1, x2, y2, x3, y3, x4, y4) -> np.ndarray:
    """Touching and collinear overlap: an endpoint on the other segment."""
    return (
        ((d1 == 0) & _on_segment(x3, y3, x1, y1, x4, y4))
        | ((d2 == 0) & _on_segment(x3, y3, x2, y2, x4, y4))
        | ((d3 == 0) & _on_segment(x1, y1, x3, y3, x2, y2))
        | ((d4 == 0) & _on_segment(x1, y1, x4, y4, x2, y2))
    )


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
    closed = np.concatenate((ring, ring[:1]))
    on_edge, crossings = _point_against_edge(
        px[:, None], py[:, None],
        closed[:-1, 0], closed[:-1, 1], closed[1:, 0], closed[1:, 1],
    )
    return np.logical_xor.reduce(crossings, axis=1), on_edge.any(axis=1)


def _point_against_edge(x, y, x1, y1, x2, y2):
    """Broadcast, the two things :func:`~repro.geometry.polygon.point_in_ring`
    asks of a point and an edge: is the point on it, and does the ray from
    the point towards +x cross it."""
    # On an edge = collinear with it and inside its box.  The box test is
    # the cheaper half and rarely passes, so the orientation waits on it.
    on_edge = _on_segment(x1, y1, x, y, x2, y2)
    if on_edge.any():
        on_edge &= _orientation(x1, y1, x, y, x2, y2) == 0
    # Edges the ray does not straddle (y1 == y2 among them) are masked out,
    # whatever their lane computed; Python floats overflow silently too.
    with np.errstate(all="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        crossings = ((y1 > y) != (y2 > y)) & (x_cross > x)
    return on_edge, crossings


class _Segments(NamedTuple):
    """The segments of a run of chains, as columns: segment ``first[i] + k``
    is the ``k``-th of chain ``i``."""

    first: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    xl: np.ndarray
    xu: np.ndarray
    ylo: np.ndarray
    yhi: np.ndarray


Chains = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""``(x, y, first)``: chain ``i`` is the points ``first[i]:first[i + 1]`` of
the two coordinate columns, at least two of them."""


def _segments(x: np.ndarray, y: np.ndarray, first: np.ndarray) -> _Segments:
    # Every point but a chain's last starts a segment.
    start = np.delete(np.arange(len(x)), first[1:] - 1)
    x1, y1, x2, y2 = x[start], y[start], x[start + 1], y[start + 1]
    return _Segments(
        first - np.arange(len(first)), x1, y1, x2, y2,
        np.minimum(x1, x2), np.maximum(x1, x2),
        np.minimum(y1, y2), np.maximum(y1, y2),
    )


def _mbrs(x: np.ndarray, y: np.ndarray, first: np.ndarray):
    """Each chain's exact MBR, ``Rect.from_points`` of its points."""
    return (
        np.minimum.reduceat(x, first[:-1]), np.minimum.reduceat(y, first[:-1]),
        np.maximum.reduceat(x, first[:-1]), np.maximum.reduceat(y, first[:-1]),
    )


def _near(segs: _Segments, of: np.ndarray, meet: np.ndarray, box, pad: float):
    """The sweep's entry mask: for each pair whose MBRs ``meet``, the
    segments of its chain ``of`` whose box, grown by the pad, reaches the
    other chain's MBR ``box`` — ``(pair, segment)`` columns in pair order.
    With no pad (``x - 0.0`` is ``x``) the two y-forms are one and the mask
    is the closed box test, ``Polygon.boundary_intersects``' pre-filter."""
    counts = np.where(meet, segs.first[of + 1] - segs.first[of], 0)
    pairs: List[np.ndarray] = [counts[:0]]
    kept: List[np.ndarray] = [counts[:0]]
    for pair, k in ragged_rows(counts):
        s = segs.first[of[pair]] + k
        bxl, byl, bxu, byu = (bound[pair] for bound in box)
        xl, xu, ylo, yhi = segs.xl[s], segs.xu[s], segs.ylo[s], segs.yhi[s]
        keep = ~(
            (xu < bxl - pad) | (bxu < xl - pad)
            | (
                ((byl > yhi + pad) | (byu < ylo - pad))
                & ((ylo > byu + pad) | (yhi < byl - pad))
            )
        )
        pairs.append(pair[keep])
        kept.append(s[keep])
    return np.concatenate(pairs), np.concatenate(kept)


def _segments_meet(a: _Segments, sa: np.ndarray, b: _Segments, sb: np.ndarray):
    """:func:`segments_intersect_each` of segment ``sa[k]`` of ``a`` against
    segment ``sb[k]`` of ``b``."""
    return segments_intersect_each(
        a.x1[sa], a.y1[sa], a.x2[sa], a.y2[sa],
        b.x1[sb], b.y1[sb], b.x2[sb], b.y2[sb],
    )


def polylines_intersect_each(
    chains_a: Chains, chains_b: Chains, of_a: np.ndarray, of_b: np.ndarray
) -> Tuple[np.ndarray, Dict[str, int]]:
    """``a.mbr.intersects(b.mbr) and polylines_intersect_sweep(a, b)`` for
    chain ``of_a[p]`` of ``chains_a`` against chain ``of_b[p]`` of
    ``chains_b``, every pair ``p`` at once: the verdicts, and how many
    segment pairs reached the exact test.

    The sweep's verdict is "some segment pair it would test intersects",
    and the pairs it would test — were it never to stop early — are those
    that pass its entry mask, whose x-intervals overlap within the pad and
    whose y-intervals do.  Those comparisons are made here as the sweep
    makes them (the y-test is not symmetric in floating point, so it is
    taken from the side of whichever segment the sweep would hold as the
    event: the one with the larger ``xl``, chain ``b``'s on a tie), over all
    pairs in a few array calls, and the survivors of every pair go through
    :func:`segments_intersect_each` together.
    """
    pad = SWEEP_PAD
    a, b = _segments(*chains_a), _segments(*chains_b)
    box_a = axl, ayl, axu, ayu = [bound[of_a] for bound in _mbrs(*chains_a)]
    box_b = bxl, byl, bxu, byu = [bound[of_b] for bound in _mbrs(*chains_b)]
    meet = (axl <= bxu) & (bxl <= axu) & (ayl <= byu) & (byl <= ayu)
    pair_a, near_a = _near(a, of_a, meet, box_b, pad)
    pair_b, near_b = _near(b, of_b, meet, box_a, pad)
    count_a = np.bincount(pair_a, minlength=len(meet))
    count_b = np.bincount(pair_b, minlength=len(meet))
    first_a = np.cumsum(count_a) - count_a
    first_b = np.cumsum(count_b) - count_b
    hits = np.zeros(len(meet), dtype=bool)
    tested = 0
    for pair, k in ragged_rows(count_a * count_b):
        sa = near_a[first_a[pair] + k // count_b[pair]]
        sb = near_b[first_b[pair] + k % count_b[pair]]
        a_ylo, a_yhi, b_ylo, b_yhi = a.ylo[sa], a.yhi[sa], b.ylo[sb], b.yhi[sb]
        keep = (
            (a.xu[sa] >= b.xl[sb] - pad) & (b.xu[sb] >= a.xl[sa] - pad)
            & ~np.where(
                a.xl[sa] <= b.xl[sb],
                (a_ylo > b_yhi + pad) | (a_yhi < b_ylo - pad),
                (b_ylo > a_yhi + pad) | (b_yhi < a_ylo - pad),
            )
        )
        pair, sa, sb = pair[keep], sa[keep], sb[keep]
        tested += len(pair)
        hits[pair[_segments_meet(a, sa, b, sb)]] = True
    return hits, {"segment_pairs": tested}


Rings = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
"""``(x, y, ring_first, poly_first)``: ring ``j`` is the vertices
``ring_first[j]:ring_first[j + 1]`` of the two coordinate columns, at least
three and not closed; polygon ``i`` is the rings
``poly_first[i]:poly_first[i + 1]``, its shell first."""


def _ring_edges(x, y, ring_first, poly_first) -> _Segments:
    """Every ring closed (:func:`ring_segments`): edge ``v`` runs from
    vertex ``v`` to the next of its ring, from a ring's last vertex back to
    its first, and polygon ``i``'s are ``first[i]:first[i + 1]``."""
    end = np.arange(1, len(x) + 1)
    end[ring_first[1:] - 1] = ring_first[:-1]
    x2, y2 = x[end], y[end]
    return _Segments(
        ring_first[poly_first], x, y, x2, y2,
        np.minimum(x, x2), np.maximum(x, x2),
        np.minimum(y, y2), np.maximum(y, y2),
    )


def _shell_mbrs(x, y, ring_first, poly_first):
    """Each polygon's ``mbr``: its shell's."""
    return [bound[poly_first[:-1]] for bound in _mbrs(x, y, ring_first)]


def polygons_contain_each(
    outer: Rings, inner: Rings, of_outer: np.ndarray, of_inner: np.ndarray
) -> Tuple[np.ndarray, Dict[str, int]]:
    """``Polygon.contains`` of polygon ``of_outer[p]`` of ``outer`` on
    polygon ``of_inner[p]`` of ``inner``, every pair ``p`` at once: the
    verdicts, and how many rows reached each of the two exact tests.

    The method's three steps, each over every pair the one before left
    undecided: the shell MBRs, ``Rect.contains`` as a mask; no boundary
    crossing (:func:`_boundaries_cross`); every inner shell vertex in or on
    the outer shell and none strictly inside an outer hole
    (:func:`_vertices_outside`).
    """
    o, i = _ring_edges(*outer), _ring_edges(*inner)
    oxl, oyl, oxu, oyu = (bound[of_outer] for bound in _shell_mbrs(*outer))
    box = ixl, iyl, ixu, iyu = [bound[of_inner] for bound in _shell_mbrs(*inner)]
    inside = (oxl <= ixl) & (oyl <= iyl) & (ixu <= oxu) & (iyu <= oyu)
    crossed, segment_pairs = _boundaries_cross(
        o, i, of_outer, of_inner, inside, box
    )
    clear = inside & ~crossed
    outside, vertex_rows = _vertices_outside(
        o, outer, inner, of_outer, of_inner, clear
    )
    return clear & ~outside, {
        "segment_pairs": segment_pairs, "vertex_rows": vertex_rows,
    }


def _boundaries_cross(o: _Segments, i: _Segments, of_outer, of_inner, inside, box):
    """``Polygon.boundary_intersects`` for the pairs ``inside``: the outer
    edges, of every ring, whose box meets the inner shell's MBR ``box``,
    each against every inner edge."""
    pair_o, near_o = _near(o, of_outer, inside, box, 0.0)
    count_o = np.bincount(pair_o, minlength=len(inside))
    first_o = np.cumsum(count_o) - count_o
    count_i = i.first[of_inner + 1] - i.first[of_inner]
    crossed = np.zeros(len(inside), dtype=bool)
    tested = 0
    for pair, k in ragged_rows(count_o * count_i):
        so = near_o[first_o[pair] + k // count_i[pair]]
        si = i.first[of_inner[pair]] + k % count_i[pair]
        tested += len(pair)
        crossed[pair[_segments_meet(o, so, i, si)]] = True
    return crossed, tested


def _vertices_outside(
    o: _Segments, outer: Rings, inner: Rings, of_outer, of_inner, clear
):
    """The vertex rule of ``Polygon.contains`` for the pairs ``clear``:
    true where some inner shell vertex is neither in nor on the outer shell,
    or is strictly inside an outer hole.

    :func:`points_in_ring`'s arithmetic, but not its rows: a vertex meets
    an edge only if its ``y`` lies within the edge's y-extent grown by the
    tolerance.  Both things asked of the two require that — on the edge:
    it is ``_on_segment``'s y half, the very comparison; crossed by the
    ray: ``y`` lies between the edge's ends — so the rows left out are
    rows that decide nothing.  Each inner shell is sorted on ``y`` once,
    and those vertices are then one contiguous run per (pair, edge), a
    twentieth of the full product on Sequoia's polygons.
    """
    x, y, ring_first, poly_first = inner
    outer_ring_first, outer_poly_first = outer[2:]
    shell_at = ring_first[poly_first[:-1]]
    shell_len = ring_first[poly_first[:-1] + 1] - shell_at
    shell_first = np.concatenate(([0], np.cumsum(shell_len)))
    shell_of = np.repeat(np.arange(len(shell_len)), shell_len)
    vertex = np.arange(shell_first[-1]) + (shell_at - shell_first[:-1])[shell_of]
    # Ranks stand in for the values, so (shell, y) is one sortable key and
    # a y-range of one shell a range of keys.
    rank_y, rank_low, rank_high = dense_ranks(
        y[vertex], o.ylo - _EPS, o.yhi + _EPS
    )
    keys = grouped_keys(shell_of, rank_y)
    order = np.argsort(keys)
    keys, vx, vy = keys[order], x[vertex[order]], y[vertex[order]]

    # One slot per (pair, outer ring, inner shell vertex): the parity and
    # the on-boundary flag of that vertex in that ring, the outer shell's
    # slots first, then each hole's.
    vertices = shell_len[of_inner]
    slots = np.where(clear, np.diff(outer_poly_first)[of_outer] * vertices, 0)
    slot_first = np.cumsum(slots) - slots
    crossings = np.zeros(slots.sum(), dtype=np.int64)
    on_boundary = np.zeros(len(crossings), dtype=bool)
    ring_of = np.repeat(
        np.arange(len(outer_ring_first) - 1), np.diff(outer_ring_first)
    )
    tested = 0
    for pair, k in ragged_rows(
        np.where(clear, o.first[of_outer + 1] - o.first[of_outer], 0)
    ):
        edge = o.first[of_outer[pair]] + k
        shell = of_inner[pair]
        low = np.searchsorted(keys, grouped_keys(shell, rank_low[edge]), "left")
        high = np.searchsorted(keys, grouped_keys(shell, rank_high[edge]), "right")
        for row, j in ragged_rows(high - low):
            v, e, p = low[row] + j, edge[row], pair[row]
            on_edge, crossing = _point_against_edge(
                vx[v], vy[v], o.x1[e], o.y1[e], o.x2[e], o.y2[e]
            )
            slot = (
                slot_first[p]
                + (ring_of[e] - outer_poly_first[of_outer[p]]) * vertices[p]
                + (v - shell_first[shell[row]])
            )
            tested += len(row)
            np.add.at(crossings, slot[crossing], 1)
            on_boundary[slot[on_edge]] = True

    parity = crossings % 2 == 1
    pair = np.repeat(np.arange(len(clear)), slots)
    of_shell = np.arange(len(crossings)) - slot_first[pair] < vertices[pair]
    failed = np.where(of_shell, ~(on_boundary | parity), parity & ~on_boundary)
    outside = np.zeros(len(clear), dtype=bool)
    outside[pair[failed]] = True
    return outside, tested
