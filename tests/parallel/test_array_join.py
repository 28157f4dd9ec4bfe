"""The filter step's array join emits what the plane sweep emits.

``sweep_pair`` joins a partition pair's key-pointer records in a few dozen
array calls; ``merge_partition_pair`` — dictionaries of tile groups, one
``Rect`` per record, a sweep per group — is what single-node PBSM still
runs and is the oracle here.  Equal means equal *multisets*: the same
feature-id pairs, each as often, under every ``PBSMConfig`` the oracle can
be run with.

Inputs are tagged rectangle sets on a small lattice of float32 values with
their one-ulp neighbours, so equal ``xl``, touching edges (``r.xu ==
s.xl``, ``r.yu == s.yl``), zero-area MBRs and bounds one ulp apart are the
rule rather than the exception; every class combination occurs, and tiles
are drawn so that many are present on one side only.  The real partitions
of two datasets close the gap to what a worker reads.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import SpatialPartitioner
from repro.core.pbsm import PBSMConfig, merge_partition_pair
from repro.geometry import Rect, kernels
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.process import DEFAULT_TASK_MEMORY
from repro.parallel.tasks import (
    KEYPOINTER_DTYPE,
    InputSide,
    sweep_pair,
)
from repro.serve.query import QuerySpec

ORACLE_CONFIGS = [
    (PBSMConfig(), DEFAULT_TASK_MEMORY),
    (PBSMConfig(use_interval_tree=True), DEFAULT_TASK_MEMORY),
    # One byte of memory: every tile group overflows and is repartitioned.
    (PBSMConfig(handle_partition_skew=True), 1),
]


def as_records(kps):
    """A key-pointer array as the oracle's ``(Rect, key, tile, class)``
    records — the per-record decode the worker no longer does."""
    return [
        (Rect(*mbr), fid, tile, cls) for mbr, fid, tile, cls in kps.tolist()
    ]


def oracle(kps_r, kps_s, config=None, memory=DEFAULT_TASK_MEMORY):
    emitted = []
    count = merge_partition_pair(
        as_records(kps_r), as_records(kps_s),
        lambda fid_r, fid_s: emitted.append((fid_r, fid_s)), memory, config,
    )
    assert count == len(emitted)
    return Counter(emitted)


def joined(kps_r, kps_s, **observe):
    return sweep_pair(
        kps_r, kps_s, DEFAULT_TASK_MEMORY, PBSMConfig(), label="t", **observe
    )


LATTICE = [np.float32(v) for v in (0.0, 0.5, 1.0, 2.0, 3.0)]
BOUNDS = st.one_of(
    st.sampled_from([
        float(w)
        for v in LATTICE
        for w in (np.nextafter(v, np.float32(-9)), v, np.nextafter(v, np.float32(9)))
    ]),
    st.floats(min_value=-1.0, max_value=4.0, width=32),
)
TILES = st.sampled_from([0, 1, 2, 3, 7, 2**32 - 2, 2**32 - 1])


@st.composite
def keypointers(draw, max_size=14):
    rows = draw(st.lists(
        st.tuples(
            BOUNDS, BOUNDS, BOUNDS, BOUNDS,
            st.integers(0, 5), TILES, st.integers(0, 3),
        ),
        max_size=max_size,
    ))
    return np.array(
        [
            ((min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)), fid, tile, cls)
            for x1, y1, x2, y2, fid, tile, cls in rows
        ],
        KEYPOINTER_DTYPE,
    )


class TestAgainstTheSweep:
    @given(keypointers(), keypointers(), st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=400, deadline=None)
    def test_same_candidate_multiset(self, kps_r, kps_s, chunk_rows):
        with mock.patch.object(kernels, "EXPANSION_CHUNK_ROWS", chunk_rows):
            candidates = joined(kps_r, kps_s)
        assert all(type(fid) is int for pair in candidates for fid in pair)
        found = Counter(candidates)
        for config, memory in ORACLE_CONFIGS:
            assert found == oracle(kps_r, kps_s, config, memory)

    @given(keypointers(max_size=6), keypointers(max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_one_tile_is_the_plain_rectangle_join(self, kps_r, kps_s):
        """All in one tile, all class A: every intersecting pair, once."""
        for kps in (kps_r, kps_s):
            kps["tile"], kps["cls"] = 5, 0
        assert Counter(joined(kps_r, kps_s)) == Counter(
            (fid_r, fid_s)
            for rect_r, fid_r, _, _ in as_records(kps_r)
            for rect_s, fid_s, _, _ in as_records(kps_s)
            if rect_r.intersects(rect_s)
        )

    @pytest.mark.parametrize("dataset, scale", [
        ("road_hydro", 0.01), ("landuse_island", 0.02),
    ])
    def test_every_partition_of_a_dataset(self, dataset, scale):
        spec = QuerySpec(dataset=dataset, scale=scale, seed=7)
        side_r, side_s = map(InputSide, spec.generate())
        partitioner = SpatialPartitioner.for_inputs(
            side_r.mbrs, side_s.mbrs, 4, PBSMConfig().num_tiles
        )
        total = 0
        for routed_r, routed_s in zip(
            partitioner.route_all(side_r.mbrs), partitioner.route_all(side_s.mbrs)
        ):
            kps_r, kps_s = side_r.keypointers(routed_r), side_s.keypointers(routed_s)
            found = Counter(joined(kps_r, kps_s))
            assert found == oracle(kps_r, kps_s)
            assert set(found.values()) <= {1}
            total += len(found)
        assert total > 100

    def test_an_empty_side_joins_to_nothing(self):
        kps = np.zeros(3, KEYPOINTER_DTYPE)
        assert joined(kps, kps[:0]) == joined(kps[:0], kps) == []

    def test_a_malformed_rectangle_is_rejected_as_rect_rejects_it(self):
        kps = np.zeros(2, KEYPOINTER_DTYPE)
        kps["mbr"][1] = (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="malformed"):
            joined(kps, kps)
        with pytest.raises(ValueError, match="malformed"):
            as_records(kps)


class TestCompositeKey:
    def test_the_largest_tile_and_rank_fit_an_int64(self):
        tiles = np.array([0, 1, 2**32 - 2, 2**32 - 1], "<u4")
        ranks = np.array([0, 1, 2**31 - 2, 2**31 - 1], np.int64)
        keys = kernels.grouped_keys(np.repeat(tiles, 4), np.tile(ranks, 4))
        assert keys.dtype == np.int64
        # Sorted as (tile, rank) sorts, so nothing wrapped into the sign.
        assert (np.diff(keys) > 0).all() and keys[0] == 0
        assert int(keys[-1]) == 2**63 - 1

    def test_tiles_at_the_top_of_u32_join_like_any_other(self):
        kps = np.zeros(4, KEYPOINTER_DTYPE)
        kps["mbr"] = [(0, 0, 1, 1), (1, 1, 2, 2), (0, 0, 1, 1), (5, 5, 6, 6)]
        kps["fid"] = [1, 2, 3, 4]
        kps["tile"] = [2**32 - 1, 2**32 - 1, 0, 2**32 - 2]
        found = Counter(joined(kps, kps))
        assert found == oracle(kps, kps)
        assert found == Counter(
            [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 4)]
        )


class TestWhatTheCoordinatorStillSees:
    def test_span_tags_and_metrics_of_the_merge(self):
        kps_r, kps_s = np.zeros(3, KEYPOINTER_DTYPE), np.zeros(2, KEYPOINTER_DTYPE)
        kps_r["tile"], kps_s["tile"] = [1, 1, 2], [1, 3]
        tracer, metrics = Tracer(), MetricsRegistry()
        candidates = joined(kps_r, kps_s, tracer=tracer, metrics=metrics)
        assert len(candidates) == 2
        (span,) = tracer.find("merge_pair")
        assert span.tags == {
            "pair": "t", "depth": 0, "len_r": 3, "len_s": 2,
            "tile_groups": 1, "candidates": 2,
        }
        snapshot = metrics.snapshot()
        assert snapshot["pbsm.merge.pairs_swept"]["value"] == 1
        assert snapshot["pbsm.merge.inputs_per_pair"]["count"] == 1
        assert snapshot["pbsm.merge.candidates_per_pair"]["sum"] == 2
