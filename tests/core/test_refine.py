"""Tests for the shared refinement step."""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dedup_sorted_pairs, intersects, merge_sorted_unique
from repro.core.refine import refine
from repro.geometry import Polyline
from repro.storage import OID, SpatialTuple


def load_lines(db, name, lines):
    rel = db.create_relation(name)
    oids = [
        rel.insert(SpatialTuple(i, 1, f"{name}-{i}", Polyline(pts)))
        for i, pts in enumerate(lines)
    ]
    return rel, oids


class TestDedup:
    def test_removes_adjacent_duplicates(self):
        a, b = OID(0, 0, 0), OID(0, 1, 0)
        pairs = [(a, b), (a, b), (a, b)]
        assert dedup_sorted_pairs(pairs) == [(a, b)]

    def test_keeps_distinct(self):
        a, b, c = OID(0, 0, 0), OID(0, 1, 0), OID(0, 2, 0)
        pairs = sorted([(a, b), (a, c), (b, c)])
        assert dedup_sorted_pairs(pairs) == pairs

    def test_empty(self):
        assert dedup_sorted_pairs([]) == []


def heapq_merge(runs):
    """The merge ``merge_sorted_unique`` replaced: a k-way interleave of
    sorted runs, dropping and counting adjacent repeats."""
    merged, dropped = [], 0
    for item in heapq.merge(*runs):
        if merged and merged[-1] == item:
            dropped += 1
            continue
        merged.append(item)
    return merged, dropped


@st.composite
def sorted_runs(draw):
    """Sorted runs of pairs: overlapping (ids from a small range repeat,
    across runs and within one), disjoint (distinct pairs dealt out, as
    partitions deal out results) or empty."""
    fid = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
    pair, count = st.tuples(fid, fid), draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [sorted(draw(st.lists(pair, max_size=12))) for _ in range(count)]
    pool = draw(st.lists(pair, unique=True, max_size=30))
    return [sorted(pool[at::count]) for at in range(count)]


class TestMergeSortedUnique:
    @given(sorted_runs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_it_is_the_heapq_merge_it_replaced(self, runs, as_arrays):
        expected = heapq_merge(runs)
        if as_arrays:
            runs = [np.array(run, np.int64).reshape(-1, 2) for run in runs]
        merged, dropped = merge_sorted_unique(runs)
        assert merged.array.dtype == np.int64 and merged.array.shape == (len(merged), 2)
        assert (list(merged), dropped) == expected


class TestRefine:
    def test_filters_false_positives(self, db):
        # Two crossing lines and two MBR-overlapping-but-disjoint chains.
        rel_r, r_oids = load_lines(
            db, "r", [[(0, 0), (2, 2)], [(0, 0), (10, 0), (10, 10)]]
        )
        rel_s, s_oids = load_lines(
            db, "s", [[(0, 2), (2, 0)], [(2, 2), (8, 2), (8, 8)]]
        )
        candidates = [
            (r_oids[0], s_oids[0]),  # true hit
            (r_oids[1], s_oids[1]),  # MBRs overlap, geometry disjoint
        ]
        got = refine(rel_r, rel_s, candidates, intersects, 10**6)
        assert got == [(r_oids[0], s_oids[0])]

    def test_duplicates_collapsed(self, db):
        rel_r, r_oids = load_lines(db, "r", [[(0, 0), (2, 2)]])
        rel_s, s_oids = load_lines(db, "s", [[(0, 2), (2, 0)]])
        candidates = [(r_oids[0], s_oids[0])] * 5
        got = refine(rel_r, rel_s, candidates, intersects, 10**6)
        assert got == [(r_oids[0], s_oids[0])]

    def test_tiny_memory_budget_still_correct(self, db):
        rng = np.random.default_rng(0)
        lines_r, lines_s = [], []
        for _ in range(40):
            x, y = rng.uniform(0, 10, 2)
            lines_r.append([(x, y), (x + 1, y + 1)])
            x, y = rng.uniform(0, 10, 2)
            lines_s.append([(x, y + 1), (x + 1, y)])
        rel_r, r_oids = load_lines(db, "r", lines_r)
        rel_s, s_oids = load_lines(db, "s", lines_s)
        candidates = [
            (ro, so)
            for ro, rt in zip(r_oids, (t for _o, t in rel_r.scan()))
            for so, st in zip(s_oids, (t for _o, t in rel_s.scan()))
        ]
        # Budget of ~3 tuples forces many batches; result must not change.
        small = refine(rel_r, rel_s, list(candidates), intersects, 400)
        large = refine(rel_r, rel_s, list(candidates), intersects, 10**7)
        assert small == large

    def test_predicate_receives_r_then_s(self, db):
        rel_r, r_oids = load_lines(db, "r", [[(0, 0), (2, 2)]])
        rel_s, s_oids = load_lines(db, "s", [[(0, 2), (2, 0)]])
        seen = []

        def spy(r, s):
            seen.append((r.name, s.name))
            return True

        refine(rel_r, rel_s, [(r_oids[0], s_oids[0])], spy, 10**6)
        assert seen == [("r-0", "s-0")]

    def test_results_sorted(self, db):
        rel_r, r_oids = load_lines(
            db, "r", [[(0, 0), (2, 2)], [(0, 0), (2, 2)], [(0, 0), (2, 2)]]
        )
        rel_s, s_oids = load_lines(db, "s", [[(0, 2), (2, 0)]])
        candidates = [(r_oids[2], s_oids[0]), (r_oids[0], s_oids[0]),
                      (r_oids[1], s_oids[0])]
        got = refine(rel_r, rel_s, candidates, intersects, 10**6)
        assert got == sorted(got)

    def test_empty_candidates(self, db):
        rel_r, _ = load_lines(db, "r", [[(0, 0), (1, 1)]])
        rel_s, _ = load_lines(db, "s", [[(0, 0), (1, 1)]])
        assert refine(rel_r, rel_s, [], intersects, 10**6) == []

    def test_bad_memory_raises(self, db):
        import pytest

        rel_r, _ = load_lines(db, "r", [[(0, 0), (1, 1)]])
        rel_s, _ = load_lines(db, "s", [[(0, 0), (1, 1)]])
        with pytest.raises(ValueError):
            refine(rel_r, rel_s, [], intersects, 0)


class TestExternalSortPath:
    def test_external_candidate_sort_matches_in_memory(self, db):
        import numpy as np

        rng = np.random.default_rng(1)
        lines_r, lines_s = [], []
        for _ in range(30):
            x, y = rng.uniform(0, 10, 2)
            lines_r.append([(x, y), (x + 2, y + 2)])
            x, y = rng.uniform(0, 10, 2)
            lines_s.append([(x, y + 2), (x + 2, y)])
        rel_r, r_oids = load_lines(db, "xr", lines_r)
        rel_s, s_oids = load_lines(db, "xs", lines_s)
        candidates = [(ro, so) for ro in r_oids for so in s_oids]
        # Duplicate heavily so dedup-in-external-sort is exercised too.
        candidates = candidates * 3
        # 2700 pairs * 24 bytes ~ 65 KB >> the 2 KB budget -> external path.
        small = refine(rel_r, rel_s, list(candidates), intersects, 2048)
        large = refine(rel_r, rel_s, list(candidates), intersects, 10**7)
        assert small == large
        assert small == dedup_sorted_pairs(sorted(small))
