"""The columnar refine returns the per-pair loop's answer.

``refine_pair`` has two forms.  Handed either the ``intersects`` predicate
with candidates that name only polylines or the ``contains`` predicate
with candidates that name only polygons, it gathers coordinate runs and
decides every candidate in a few array calls; handed anything else it
looks each pair of tuples up and calls the predicate.  Whose records they
are — a relation file's or an ``InputSide``'s own — decides nothing: both
are one type, held to one behaviour at the end of this file.
Result digests are gated byte-identical, so on the same relation files the two
must agree on every candidate — including the ones decided by a single
padded comparison, which is why the polyline inputs are
``TestMaskedSweep``'s (lattice chains that touch, share vertices and overlap
collinearly, scaled 1e-6 ... 1e6, with the second chain's MBR a chosen gap
— none, zero, either side of the pad — from the first's) and the polygon
inputs ``test_kernels.py``'s lattice batches and hand-made cases.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import contains, intersects
from repro.core.partition import SpatialPartitioner
from repro.core.pbsm import PBSMConfig
from repro.core.predicates import ContainsWithFilters, intersects_naive
from repro.geometry import Polygon, Polyline, kernels
from repro.obs import Tracer
from repro.parallel import tasks
from repro.parallel.process import DEFAULT_TASK_MEMORY, ProcessPBSM
from repro.parallel.tasks import (
    InputSide, PartitionSpill, read_relation, read_tuple_spill,
)
from repro.serve.query import QuerySpec
from repro.storage.tuples import (
    SpatialTuple,
    polygon_runs,
    polyline_runs,
    serialize_tuple,
)
from tests.conftest import write_records
from tests.geometry.test_kernels import HAND_MADE, lattice_batches, ref_contains
from tests.geometry.test_polyline import PAD, chain_pairs

NAMES = st.sampled_from(["", "a", "é", "道路 101", "x" * 300])
S_BASE = 100
"""Feature ids of the S side start here, so a swapped pair cannot pass."""


def spill(path, tuples, block=3):
    """A relation file of ``tuples``, ``block`` records (and their refine
    rows, if they are polygons) a frame."""
    side = InputSide(tuples)
    write_records(path, [side.tuple_block(at, at + block) for at in range(0, len(side), block)])
    return str(path)


def tuple_block(*records, refine=None):
    """One tuple frame of ``(feature id, record bytes)`` pairs."""
    fids, blobs = zip(*records)
    return tasks.pack_tuple_block(
        np.array(fids), np.cumsum([0, *map(len, blobs)]), b"".join(blobs), refine
    )


def untimed(span):
    """A refine span's tags less its layer seconds, which it must have."""
    tags = dict(span.tags)
    assert tags.pop("decode_s") >= 0 and tags.pop("kernel_s") >= 0
    return tags


def refine_pair(candidates, *args, **kwargs):
    """``tasks.refine_pair`` handed ``(r, s)`` pairs as the sorted array the
    sweep makes, its answer back as tuples."""
    pairs = np.array(candidates, np.int64).reshape(-1, 2)
    answer, dropped = tasks.refine_pair(pairs[np.lexsort(pairs.T[::-1])], *args, **kwargs)
    return list(map(tuple, answer.tolist())), dropped


def refined(candidates, path_r, path_s, predicate):
    """``refine_pair`` over freshly opened relation files: its answer and
    what it tagged the span with."""
    span = Tracer().start_span("worker.refine")
    answer = refine_pair(
        candidates, read_relation(path_r), read_relation(path_s),
        predicate, span=span,
    )
    return answer, untimed(span)


def by_the_loop(r, s):
    """``intersects`` under another identity: the per-pair loop."""
    return intersects(r, s)


def contains_by_the_loop(r, s):
    """``contains`` under another identity."""
    return contains(r, s)


def one_partition(spec, directory):
    """The join ``spec`` names as a single partition pair: the candidates
    the sweep finds, and both sides' relation files."""
    side_r, side_s = map(InputSide, spec.generate())
    partitioner = SpatialPartitioner.for_inputs(
        side_r.mbrs, side_s.mbrs, 1, PBSMConfig().num_tiles
    )
    (routed_r,), (routed_s,) = (
        partitioner.route_all(side.mbrs) for side in (side_r, side_s)
    )
    candidates = tasks.sweep_pair(
        side_r.keypointers(routed_r), side_s.keypointers(routed_s),
        DEFAULT_TASK_MEMORY, PBSMConfig(), label="0",
    )
    return (
        candidates,
        spill(directory / "r.rel", side_r, block=64),
        spill(directory / "s.rel", side_s, block=64),
    )


@st.composite
def batches(draw):
    """A few chain pairs as two relations, every R chain a candidate
    against every S chain, some candidates more than once, in any order."""
    pairs = draw(st.lists(chain_pairs(), min_size=1, max_size=4))
    tuples_r = [
        SpatialTuple(i, 1, draw(NAMES), a) for i, (a, _b) in enumerate(pairs)
    ]
    tuples_s = [
        SpatialTuple(S_BASE + i, 2, draw(NAMES), b)
        for i, (_a, b) in enumerate(pairs)
    ]
    once = [(r.feature_id, s.feature_id) for r in tuples_r for s in tuples_s]
    again = draw(st.lists(st.sampled_from(once), max_size=4))
    return tuples_r, tuples_s, draw(st.permutations(once + again)), len(again)


def the_two_forms_agree(
    directory, tuples_r, tuples_s, candidates, chunk_rows, predicate, loop, holds
):
    """``predicate`` (columnar) and ``loop`` (the same test under another
    identity) over the same spill files: same pairs — those ``holds`` says,
    as ints — same ``dropped``, and span tags that tell the forms apart."""
    path_r = spill(directory / "r.rel", tuples_r)
    path_s = spill(directory / "s.rel", tuples_s)
    with mock.patch.object(kernels, "EXPANSION_CHUNK_ROWS", chunk_rows):
        columnar, tags = refined(candidates, path_r, path_s, predicate)
    looped, loop_tags = refined(candidates, path_r, path_s, loop)
    assert columnar == looped
    assert tags["columnar"] is True and loop_tags["columnar"] is False
    named = len({r for r, _s in candidates}) + len({s for _r, s in candidates})
    assert loop_tags["records_decoded"] == named
    if predicate is intersects:
        assert tags["records_decoded"] == named
    else:
        # Only the polygons of the pairs the stored rows leave to the exact
        # tests: none when no pair reaches them.
        assert tags["records_decoded"] <= named
        assert (tags["records_decoded"] == 0) is (tags["vertex_rows"] == 0)
    assert loop_tags["segment_pairs"] == loop_tags["vertex_rows"] == 0
    assert loop_tags["square_hits"] == 0
    by_fid = {t.feature_id: t.geom for t in (*tuples_r, *tuples_s)}
    pairs, dropped = columnar
    assert dropped == len(candidates) - len(set(candidates))
    assert pairs == [
        pair for pair in sorted(set(candidates))
        if holds(by_fid[pair[0]], by_fid[pair[1]])
    ]
    assert all(type(fid) is int for pair in pairs for fid in pair)


class TestAgainstTheLoop:
    @given(batches(), st.sampled_from([1, 5, 1 << 16]))
    @settings(max_examples=500, deadline=None)
    def test_same_pairs_same_drops(self, tmp_path_factory, batch, chunk_rows):
        tuples_r, tuples_s, candidates, repeats = batch
        assert repeats == len(candidates) - len(set(candidates))
        the_two_forms_agree(
            tmp_path_factory.mktemp("spills"), tuples_r, tuples_s, candidates,
            chunk_rows, intersects, by_the_loop, Polyline.intersects,
        )

    def test_every_candidate_of_a_join(self, tmp_path):
        """The candidates a real sweep produces, all partitions in one."""
        spec = QuerySpec(dataset="road_hydro", scale=0.01, seed=11)
        candidates, path_r, path_s = one_partition(spec, tmp_path)
        columnar, tags = refined(candidates, path_r, path_s, intersects)
        assert columnar == refined(candidates, path_r, path_s, by_the_loop)[0]
        assert tags["columnar"] and tags["segment_pairs"] > len(candidates) / 2
        assert 100 < len(columnar[0]) < len(candidates) and columnar[1] == 0

    def test_no_candidates(self, tmp_path):
        path = spill(tmp_path / "r.rel", [line(1, [(0, 0), (1, 1)])])
        answer, tags = refined([], path, path, intersects)
        assert answer == ([], 0)
        assert tags == {
            "columnar": True, "records_decoded": 0, "segment_pairs": 0,
            "vertex_rows": 0, "square_hits": 0,
        }


def line(fid, points, name="n"):
    return SpatialTuple(fid, 1, name, Polyline(points))


ELL = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
"""The chain the hand-made cases are held against."""


class TestWhichFormRuns:
    """The form follows from the predicate's identity and the geometry
    tags of the records candidates name — from nothing else."""

    @pytest.fixture
    def paths(self, tmp_path):
        square = Polygon([(0.5, 0.5), (3.0, 0.5), (3.0, 3.0), (0.5, 3.0)])
        tuples_r = [line(1, ELL), line(2, [(5.0, 5.0), (6.0, 6.0)])]
        tuples_s = [
            line(S_BASE, [(0.5, -1.0), (0.5, 2.0)]),
            SpatialTuple(S_BASE + 1, 2, "square", square),
            line(S_BASE + 2, [(9.0, 9.0), (9.5, 9.5)]),
        ]
        return (
            spill(tmp_path / "r.rel", tuples_r), spill(tmp_path / "s.rel", tuples_s),
            tuples_r, tuples_s,
        )

    LINES_ONLY = [(1, S_BASE), (2, S_BASE), (1, S_BASE + 2), (2, S_BASE + 2)]

    def test_polylines_under_intersects_are_columnar(self, paths):
        path_r, path_s, _, _ = paths
        answer, tags = refined(self.LINES_ONLY, path_r, path_s, intersects)
        assert answer == ([(1, S_BASE)], 0)
        assert tags == {
            "columnar": True, "records_decoded": 4, "segment_pairs": 1,
            "vertex_rows": 0, "square_hits": 0,
        }

    def test_a_polygon_among_the_named_records_takes_the_loop(self, paths):
        path_r, path_s, _, _ = paths
        candidates = self.LINES_ONLY + [(1, S_BASE + 1), (2, S_BASE + 1)]
        answer, tags = refined(candidates, path_r, path_s, intersects)
        assert answer == ([(1, S_BASE), (1, S_BASE + 1)], 0)
        assert answer == refined(candidates, path_r, path_s, by_the_loop)[0]
        assert tags == {
            "columnar": False, "records_decoded": 5, "segment_pairs": 0,
            "vertex_rows": 0, "square_hits": 0,
        }

    @pytest.mark.parametrize(
        "predicate", [intersects_naive, lambda r, s: intersects(r, s)],
        ids=["intersects_naive", "lambda"],
    )
    def test_any_other_predicate_takes_the_loop(self, paths, predicate):
        path_r, path_s, _, _ = paths
        answer, tags = refined(self.LINES_ONLY, path_r, path_s, predicate)
        assert answer == ([(1, S_BASE)], 0)
        assert tags["columnar"] is False and tags["segment_pairs"] == 0

    def test_a_sides_own_records_take_the_form_its_spill_would(self, paths):
        """The coordinator's rebuild hands over ``InputSide.stored``."""
        path_r, path_s, tuples_r, tuples_s = paths
        stored_r, stored_s = InputSide(tuples_r).stored, InputSide(tuples_s).stored
        with_a_polygon = self.LINES_ONLY + [(1, S_BASE + 1)]
        for candidates, predicate, columnar in (
            (self.LINES_ONLY, intersects, True),
            (with_a_polygon, intersects, False),
            (self.LINES_ONLY, by_the_loop, False),
        ):
            span = Tracer().start_span("process.degraded_pair")
            answer = refine_pair(
                candidates, stored_r, stored_s, predicate, span=span
            )
            assert span.tags["columnar"] is columnar
            assert (answer, untimed(span)) == refined(
                candidates, path_r, path_s, predicate
            )

    @pytest.mark.parametrize("predicate", [intersects, by_the_loop])
    def test_an_absent_feature_id_is_a_key_error(self, paths, predicate):
        path_r, path_s, _, _ = paths
        for candidates in ([(1, S_BASE), (3, S_BASE)], [(1, S_BASE + 9)]):
            with pytest.raises(KeyError):
                refined(candidates, path_r, path_s, predicate)


def area(fid, polygon, name="n"):
    return SpatialTuple(fid, 3, name, polygon)


@st.composite
def polygon_batches(draw):
    """``test_kernels.py``'s lattice batches as two relations and the
    candidate list between them, repeats and all."""
    outers, inners, pairs = draw(lattice_batches())
    tuples_r = [area(i, outer, draw(NAMES)) for i, outer in enumerate(outers)]
    tuples_s = [
        area(S_BASE + i, inner, draw(NAMES)) for i, inner in enumerate(inners)
    ]
    return tuples_r, tuples_s, [(o, S_BASE + i) for o, i in pairs]


def hand_made_batch():
    """``HAND_MADE``'s outers and inners as two relations, each outer a
    candidate against each inner."""
    cases = list(HAND_MADE.values())
    return (
        [area(i, outer) for i, (outer, _inner, _) in enumerate(cases)],
        [area(S_BASE + i, inner) for i, (_outer, inner, _) in enumerate(cases)],
        [(o, S_BASE + i) for o in range(len(cases)) for i in range(len(cases))],
    )


class TestPolygonsAgainstTheLoop:
    @given(polygon_batches(), st.sampled_from([1, 5, 1 << 16]))
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_same_drops(self, tmp_path_factory, batch, chunk_rows):
        the_two_forms_agree(
            tmp_path_factory.mktemp("spills"), *batch, chunk_rows,
            contains, contains_by_the_loop, Polygon.contains,
        )

    @given(st.one_of(polygon_batches(), st.just(hand_made_batch())))
    @settings(max_examples=100, deadline=None)
    def test_stored_rows_whoever_built_them(self, tmp_path_factory, batch):
        """``ref_contains``' verdicts and the same rows from the refine
        rows of all three constructors: a side's own, its relation file's
        and a ``PartitionSpill`` ``.tup``'s."""
        tuples_r, tuples_s, candidates = batch
        directory = str(tmp_path_factory.mktemp("stored"))
        sides = [InputSide(tuples_r), InputSide(tuples_s)]
        spills = [PartitionSpill(directory, name, 0) for name in "rs"]
        for side, spilled in zip(sides, spills):
            for t in side:
                spilled.add(t, [(0, 0)])
            spilled.close()
        geoms = {t.feature_id: t.geom for t in (*tuples_r, *tuples_s)}
        expected = sorted(
            pair for pair in set(candidates) if ref_contains(geoms[pair[0]], geoms[pair[1]])
        )
        tags = []
        for records in (
            [side.stored for side in sides],
            [read_relation(side.relation.path) for side in sides],
            [read_tuple_spill(spilled.tuple_path) for spilled in spills],
        ):
            span = Tracer().start_span("worker.refine")
            assert refine_pair(candidates, *records, contains, span=span)[0] == expected
            tags.append(untimed(span))
        assert tags[0] == tags[1] == tags[2] and tags[0]["columnar"] is True

    def test_the_hand_made_cases(self, tmp_path):
        """Among them the slivers only the cut's pad keeps, the inner holes
        and the known deviation: each outer against each inner."""
        cases = list(HAND_MADE.values())
        tuples_r, tuples_s, candidates = hand_made_batch()
        path_r = spill(tmp_path / "r.rel", tuples_r)
        path_s = spill(tmp_path / "s.rel", tuples_s)
        columnar, tags = refined(candidates, path_r, path_s, contains)
        assert columnar == refined(
            candidates, path_r, path_s, contains_by_the_loop
        )[0]
        assert tags["columnar"] and tags["vertex_rows"] > 0 < tags["segment_pairs"]
        for i, (_outer, _inner, contained) in enumerate(cases):
            assert ((i, S_BASE + i) in columnar[0]) is contained

    def test_every_candidate_of_a_join(self, tmp_path):
        spec = QuerySpec(dataset="landuse_island", scale=0.02, seed=11,
                         predicate="contains")
        candidates, path_r, path_s = one_partition(spec, tmp_path)
        columnar, tags = refined(candidates, path_r, path_s, contains)
        assert columnar == refined(
            candidates, path_r, path_s, contains_by_the_loop
        )[0]
        # The stored square decides all the results but one; the exact
        # tests see, and only 67 of the 859 polygons named are decoded
        # for, what it leaves.
        assert len(candidates) == 581 and columnar[1] == 0
        assert len(columnar[0]) == 333
        assert tags == {
            "columnar": True, "records_decoded": 67, "square_hits": 332,
            "segment_pairs": 516, "vertex_rows": 4198,
        }

    def test_the_benchmark_join(self):
        """``sequoia_refine``'s join (seed 1996, scale 0.2) on the shed path,
        whose rebuilt pairs are tagged as a worker's refine is: the square
        decides 3,197 of the 3,256 results, and the exact tests see a fifth
        of the 125,982 + 239,676 rows they saw without it."""
        spec = QuerySpec(dataset="landuse_island", scale=0.2, seed=1996,
                         predicate="contains")
        tracer = Tracer()
        result = ProcessPBSM(2, tracer=tracer, num_partitions=spec.partitions).run_serial(
            *spec.generate(), spec.predicate_fn
        )
        spans = tracer.find("process.degraded_pair")
        assert len(result.pairs) == 3256 and result.duplicates_dropped == 0
        assert {
            name: sum(span.tags[name] for span in spans)
            for name in ("square_hits", "segment_pairs", "vertex_rows")
        } == {"square_hits": 3197, "segment_pairs": 21609, "vertex_rows": 53300}


class TestWhichFormRunsOnPolygons:
    @pytest.fixture
    def paths(self, tmp_path):
        outer, island, _ = HAND_MADE["island"]
        tuples_r = [area(1, outer), area(2, island)]
        return (
            spill(tmp_path / "r.rel", tuples_r),
            spill(tmp_path / "s.rel", [area(S_BASE, island)]),
        )

    POLYGONS_ONLY = [(1, S_BASE), (2, S_BASE)]

    def test_polygons_under_contains_are_columnar(self, paths):
        answer, tags = refined(self.POLYGONS_ONLY, *paths, contains)
        # The island holds itself no more than ``Polygon.contains`` says:
        # outside its own square, on its own boundary, every edge crossed.
        # The box holds it by the square alone.
        assert answer == ([(1, S_BASE)], 0)
        assert tags == {
            "columnar": True, "records_decoded": 2, "segment_pairs": 16,
            "vertex_rows": 12, "square_hits": 1,
        }

    def test_no_candidates(self, paths):
        answer, tags = refined([], *paths, contains)
        assert answer == ([], 0)
        assert tags == {
            "columnar": True, "records_decoded": 0, "segment_pairs": 0,
            "vertex_rows": 0, "square_hits": 0,
        }

    def test_a_polyline_among_the_named_records_takes_the_loop(self, paths, tmp_path):
        """It has no refine rows; and ``contains`` refuses a polyline, as
        it always has."""
        path_r, _ = paths
        mixed = spill(tmp_path / "mixed.rel", [
            area(S_BASE, HAND_MADE["island"][1]),
            line(S_BASE + 1, [(14.0, 14.0), (16.0, 16.0)]),
        ])
        answer, tags = refined(self.POLYGONS_ONLY, path_r, mixed, contains)
        assert answer == ([(1, S_BASE)], 0) and tags["columnar"] is False
        for predicate in (contains, contains_by_the_loop):
            with pytest.raises(TypeError, match="requires polygon inputs"):
                refined([(1, S_BASE + 1)], path_r, mixed, predicate)

    @pytest.mark.parametrize(
        "predicate", [intersects, ContainsWithFilters(), contains_by_the_loop],
        ids=["intersects", "ContainsWithFilters", "another identity"],
    )
    def test_any_other_predicate_takes_the_loop(self, paths, predicate):
        answer, tags = refined(self.POLYGONS_ONLY, *paths, predicate)
        assert answer[0][0] == (1, S_BASE) and answer[1] == 0
        assert tags["columnar"] is False
        assert tags["segment_pairs"] == tags["vertex_rows"] == tags["square_hits"] == 0

    @pytest.mark.parametrize("predicate", [contains, contains_by_the_loop])
    def test_an_absent_feature_id_is_a_key_error(self, paths, predicate):
        for candidates in ([(1, S_BASE), (3, S_BASE)], [(1, S_BASE + 9)]):
            with pytest.raises(KeyError):
                refined(candidates, *paths, predicate)

    def test_a_bad_record_fails_the_refine_in_either_form(self, tmp_path):
        outer, island, _ = HAND_MADE["island"]
        good = serialize_tuple(area(1, outer))
        inner = serialize_tuple(area(2, island))
        rows = InputSide([area(1, outer), area(2, island), area(3, island)]).refine
        # The ring's vertex count, two bytes before its four points.
        at = len(inner) - 16 * 4 - 2
        assert struct.unpack_from("<H", inner, at) == (4,)
        for count, loop_error in ((5, struct.error), (2, ValueError)):
            bad = inner[:at] + struct.pack("<H", count) + inner[at + 2 :]
            path = tmp_path / f"bad{count}.rel"
            write_records(path, [tuple_block((1, good), (2, bad), (3, inner), refine=rows)])
            # The island against itself is for the exact tests to decide.
            with pytest.raises(ValueError, match="ring"):
                refined([(2, 3)], str(path), str(path), contains)
            with pytest.raises(loop_error):
                refined([(2, 3)], str(path), str(path), contains_by_the_loop)
            # A bad record nobody decodes is not read at all: the stored
            # square decides that the box holds it.
            assert refined([(1, 2), (1, 3)], str(path), str(path), contains)[0] == (
                [(1, 2), (1, 3)], 0
            )


class TestTheTestsWouldNotice:
    """Mutants of the two pieces a verdict hangs on, each killed by a
    hand-made pair — so the differential test above is not vacuous there."""

    @pytest.fixture
    def a_hair_apart(self, tmp_path):
        """MBRs overlap, and the only contact is a vertex of one chain
        1e-13 off a segment of the other: inside the exact test's
        tolerance, so only the pad lets the pair reach it."""
        hook = [(1.0 + 1e-13, 0.5), (2.0, 0.5), (2.0, 3.0), (0.5, 3.0), (0.5, 2.0)]
        return (
            spill(tmp_path / "r.rel", [line(1, ELL)]),
            spill(tmp_path / "s.rel", [line(S_BASE, hook)]),
        )

    def test_the_pad(self, a_hair_apart):
        candidates = [(1, S_BASE)]
        loop = refined(candidates, *a_hair_apart, by_the_loop)[0]
        assert loop == ([(1, S_BASE)], 0)
        assert refined(candidates, *a_hair_apart, intersects)[0] == loop
        assert kernels.SWEEP_PAD == PAD
        with mock.patch.object(kernels, "SWEEP_PAD", 0.0):
            assert refined(candidates, *a_hair_apart, intersects)[0] != loop

    def test_the_mbr_is_of_the_whole_chain(self, tmp_path):
        """Only the last point of the second chain reaches the first."""
        path_r = spill(tmp_path / "r.rel", [line(1, ELL)])
        path_s = spill(
            tmp_path / "s.rel", [line(S_BASE, [(5.0, 5.0), (4.0, 4.0), (0.5, 0.0)])]
        )
        candidates = [(1, S_BASE)]
        loop = refined(candidates, path_r, path_s, by_the_loop)[0]
        assert loop == ([(1, S_BASE)], 0)
        assert refined(candidates, path_r, path_s, intersects)[0] == loop

        def first_segment_only(x, y, first):
            at = first[:-1]
            return (
                np.minimum(x[at], x[at + 1]), np.minimum(y[at], y[at + 1]),
                np.maximum(x[at], x[at + 1]), np.maximum(y[at], y[at + 1]),
            )

        with mock.patch.object(kernels, "_mbrs", first_segment_only):
            assert refined(candidates, path_r, path_s, intersects)[0] != loop


class TestRecordsAreReadWithinTheirBounds:
    """``polyline_runs`` trusts a record's extent, not its point count."""

    def records(self, *blobs):
        buffer = b"".join(blobs)
        ends = np.cumsum([len(blob) for blob in blobs])
        return buffer, ends - [len(blob) for blob in blobs], ends

    def with_count(self, t, count):
        blob = serialize_tuple(t)
        at = len(blob) - 16 * len(t.geom.points) - 2
        assert struct.unpack_from("<H", blob, at) == (len(t.geom.points),)
        return blob[:at] + struct.pack("<H", count) + blob[at + 2 :]

    def test_round_trip(self):
        tuples = [
            line(1, ELL, ""), line(2, [(0.1, 0.2), (0.3, 0.4)], "道路"),
            line(3, [(float(i), -float(i)) for i in range(7)], "x" * 300),
        ]
        x, y, first = polyline_runs(*self.records(*map(serialize_tuple, tuples)))
        assert first.tolist() == [0, 3, 5, 12]
        assert list(zip(x.tolist(), y.tolist())) == [
            point for t in tuples for point in t.geom.points
        ]

    def test_no_records(self):
        x, y, first = polyline_runs(b"", np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert len(x) == len(y) == 0 and first.tolist() == [0]

    @pytest.mark.parametrize("count", [4, 2, 1, 0, 0xFFFF])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_a_run_that_is_not_the_rest_of_its_record(self, count, position):
        """Three points stored; the count says otherwise.  One more would
        read into the next record (or past the buffer), fewer would leave
        bytes unaccounted for: both are refused, wherever the record is."""
        bad = self.with_count(line(1, ELL), count)
        good = serialize_tuple(line(2, ELL))
        blobs = (bad, good) if position == "first" else (good, bad)
        with pytest.raises(ValueError, match="coordinate run"):
            polyline_runs(*self.records(*blobs))

    def test_a_name_that_overruns_its_record(self):
        blob = bytearray(serialize_tuple(line(1, ELL, "ab")))
        struct.pack_into("<H", blob, 7, 0xFFFF)
        with pytest.raises(ValueError, match="name overruns"):
            polyline_runs(*self.records(bytes(blob), serialize_tuple(line(2, ELL))))

    def test_a_record_shorter_than_its_fixed_fields(self):
        with pytest.raises(ValueError, match="shorter"):
            polyline_runs(*self.records(serialize_tuple(line(1, ELL))[:10]))

    def test_a_bad_record_fails_the_refine_in_either_form(self, tmp_path):
        good = serialize_tuple(line(1, ELL))
        for count, loop_error in ((4, struct.error), (1, ValueError)):
            path = tmp_path / f"bad{count}.rel"
            write_records(path, [tuple_block(
                (1, good), (2, self.with_count(line(2, ELL), count)), (3, good),
            )])
            with pytest.raises(ValueError, match="coordinate run"):
                refined([(1, 1), (2, 2)], str(path), str(path), intersects)
            with pytest.raises(loop_error):
                refined([(1, 1), (2, 2)], str(path), str(path), by_the_loop)
            # A bad record nobody names is not read at all.
            assert refined([(1, 3)], str(path), str(path), intersects)[0] == (
                [(1, 3)], 0
            )


@st.composite
def relations(draw):
    """A few tuples of either geometry whose feature ids repeat, and
    feature ids to ask for: present ones in any order, some twice."""
    geoms = st.one_of(
        chain_pairs().map(lambda pair: pair[0]),
        st.sampled_from([outer for outer, _inner, _ in HAND_MADE.values()]),
    )
    tuples = [
        SpatialTuple(fid, 1, name, geom)
        for fid, name, geom in draw(st.lists(
            st.tuples(st.integers(0, 7), NAMES, geoms), min_size=1, max_size=8
        ))
    ]
    present = st.sampled_from(sorted({t.feature_id for t in tuples}))
    return tuples, np.array(draw(st.lists(present, max_size=6)), np.int64)


class TestSideAndSpillRecords:
    """One stored-record type, two constructors: the same tuples as an
    ``InputSide``'s own records and as a relation file's answer alike."""

    @given(relations())
    @settings(max_examples=200, deadline=None)
    def test_same_tuples_same_lookups(self, tmp_path_factory, drawn):
        tuples, asked = drawn
        side = InputSide(tuples)
        of_side = side.stored
        of_spill = read_relation(
            spill(tmp_path_factory.mktemp("records") / "r.rel", tuples)
        )
        assert of_side is side.stored  # built once, kept with the side
        assert (of_side.refine is None) is (of_spill.refine is None)
        assert of_side.refine is None or of_side.refine.tobytes() == of_spill.refine.tobytes()
        assert len(of_side) == len(of_spill) == len(tuples)
        assert list(of_side) == list(of_spill) == [t.feature_id for t in tuples]
        # Of two records with one feature id the later is found — and both
        # decode a copy of it.
        for fid, at in {t.feature_id: i for i, t in enumerate(tuples)}.items():
            for records in (of_side, of_spill):
                assert records[fid] == side[at] and records[fid] is not side[at]
        for decode in (polyline_runs, polygon_runs):
            columns, twin = of_side.columns(asked, decode), of_spill.columns(asked, decode)
            assert (columns is None) is (twin is None)
            for column, other in zip(columns or (), twin or ()):
                assert column.dtype == other.dtype
                assert np.array_equal(column, other)
        for records in (of_side, of_spill):
            for absent in (-1, 8, 1 << 32):
                with pytest.raises(KeyError):
                    records[absent]
                with pytest.raises(KeyError):
                    records.columns(np.array([*asked, absent]), polyline_runs)
