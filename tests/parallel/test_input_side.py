"""``InputSide``: one materialised input, serialised once.

* *golden identity* — the run fingerprint and every key-pointer spill
  byte the engine writes for a fixed input are the values recorded at
  commit 61d888c (before the columns were kept with the input), whether
  the engine is handed a plain list, a cold ``InputSide`` or one whose
  columns are built; its relation file is its stored form;
* *the memo is used* — ``serialize_tuple`` runs once per tuple per
  ``InputSide``, whoever asks first, and never again;
* the sequence is immutable and its columns — the stored-record index a
  shed run refines from among them — are safe to first-touch from two
  threads.
"""

import hashlib
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import intersects
from repro.checkpoint.manifest import RunFingerprint
from repro.core.pbsm import PBSMConfig
from repro.data import generate_hydrography, generate_roads
from repro.parallel import ProcessPBSM, parallel_join, process, tasks
from repro.parallel.tasks import InputSide
from repro.serve.query import QuerySpec
from repro.storage import DiskBudget
from repro.storage.tuples import SpatialTuple, serialize_tuple
from tests.conftest import read_records

SCALE = 0.002
PARTITIONS = 4

GOLDEN_FINGERPRINT = {
    "config": {
        "collect_candidates": False,
        "handle_partition_skew": False,
        "max_repartition_depth": 4,
        "memory_bytes": None,
        "num_tiles": 1024,
        "scheme": "hash",
        "use_interval_tree": False,
    },
    "count_r": 913,
    "count_s": 244,
    "crc_r": 4007763571,
    "crc_s": 515265398,
    "layout": "two-layer-v2-blocks",
    "num_partitions": PARTITIONS,
    "predicate": "intersects",
}
GOLDEN_RUN_ID = "run-27eaff8cc14a"
GOLDEN_SPILLS = "c168e439a8640b230589572d75cf069afc35f54a8dbd1b629956199356965a90"
"""SHA-256 over ``<file name>:<SHA-256 of its bytes>\\n`` for the eight
``.kp`` files of the checkpointed run below, sorted by name — the files
of the same name the run wrote beside its ``.tup`` files at 61d888c."""


@pytest.fixture(scope="module")
def workload():
    return (
        list(generate_roads(scale=SCALE)),
        list(generate_hydrography(scale=SCALE)),
    )


def spill_digest(root):
    files = sorted(p for p in Path(root).rglob("*") if p.suffix == ".kp")
    assert len(files) == 2 * PARTITIONS
    assert not list(Path(root).rglob("*.tup"))
    listing = "".join(
        f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in files
    )
    return hashlib.sha256(listing.encode()).hexdigest()


class TestGoldenIdentity:
    @pytest.mark.parametrize("form", ["list", "cold", "warm"])
    def test_fingerprint_and_spill_bytes_are_the_recorded_ones(
        self, workload, tmp_path, form
    ):
        tuples_r, tuples_s = workload
        if form != "list":
            tuples_r, tuples_s = InputSide(tuples_r), InputSide(tuples_s)
        if form == "warm":
            for side in (tuples_r, tuples_s):
                assert len(side.payload) == side.offsets[-1] and len(side.mbrs)
        engine = ProcessPBSM(
            2, num_partitions=PARTITIONS, checkpoint_dir=str(tmp_path)
        )
        result = engine.run(tuples_r, tuples_s, intersects)
        assert result.checkpoint_run_id == GOLDEN_RUN_ID
        assert spill_digest(tmp_path) == GOLDEN_SPILLS
        fingerprint = RunFingerprint.compute(
            InputSide(tuples_r), InputSide(tuples_s), intersects,
            PARTITIONS, PBSMConfig(),
        )
        assert fingerprint.to_dict() == GOLDEN_FINGERPRINT
        assert fingerprint.run_id == GOLDEN_RUN_ID

    def test_stored_form_is_the_records_back_to_back(self, workload):
        side = InputSide(workload[0])
        records = [serialize_tuple(t) for t in side]
        assert side.payload == b"".join(records)
        assert side.offsets.dtype == np.int64
        assert side.offsets.tolist() == [
            sum(map(len, records[:i])) for i in range(len(side) + 1)
        ]
        # The relation file: a window a frame, each its fids' directory
        # and then the records of the window, back to back.
        window = tasks.SPILL_BLOCK_RECORDS
        frames = read_records(side.relation.path)
        assert len(frames) == -(-len(side) // window)
        for at, frame in zip(range(0, len(side), window), frames):
            count = min(window, len(side) - at)
            assert frame[(2 * count + 2) * 4 :] == b"".join(records[at : at + count])
            assert np.frombuffer(frame, "<u4", count + 1).tolist() == [
                count, *(t.feature_id for t in side[at : at + count])
            ]

    def test_wrapping_a_side_is_the_side(self, workload):
        side = InputSide(workload[1])
        assert InputSide(side) is side
        assert InputSide(list(side)) is not side and InputSide(list(side)) == side
        assert InputSide() == ()


class TestSerialisedOnce:
    def test_engine_fingerprint_footprint_and_rewrite_share_one_pass(
        self, workload, tmp_path, serialised
    ):
        side_r, side_s = InputSide(workload[0]), InputSide(workload[1])
        ProcessPBSM(
            2, num_partitions=PARTITIONS, checkpoint_dir=str(tmp_path / "a")
        ).run(side_r, side_s, intersects)
        # One pass a side, in input order — the fingerprint's CRC and the
        # spill pass read the same bytes.
        assert serialised == [t.feature_id for t in side_r + side_s]
        del serialised[:]
        relations = [vars(side)["_relation"] for side in (side_r, side_s)]

        ProcessPBSM(
            2, num_partitions=PARTITIONS + 1, checkpoint_dir=str(tmp_path / "b")
        ).run(side_r, side_s, intersects)
        # ... and one relation file a side, written by the first run.
        assert [vars(side)["_relation"] for side in (side_r, side_s)] == relations
        spec = QuerySpec(scale=SCALE, num_partitions=PARTITIONS)
        assert spec.fingerprint(side_r, side_s).run_id == GOLDEN_RUN_ID
        engine = ProcessPBSM(2, num_partitions=PARTITIONS)
        footprint = engine.spill_footprint(side_r, side_s)
        # Starved of disk, the engine rewrites denied partitions whole —
        # from the columns, not from the tuples.
        starved = ProcessPBSM(
            2, num_partitions=PARTITIONS, disk_budget=DiskBudget(footprint // 2)
        ).run(side_r, side_s, intersects)
        assert starved.fault_summary["disk_pressure"] >= 1
        assert serialised == []

    def test_a_plain_list_is_serialised_once_a_run(
        self, workload, tmp_path, serialised
    ):
        tuples_r, tuples_s = workload
        engine = ProcessPBSM(
            2, num_partitions=PARTITIONS, checkpoint_dir=str(tmp_path)
        )
        for _ in range(2):  # the wrapper does not outlive the call
            del serialised[:]
            engine.run(tuples_r, tuples_s, intersects)
            assert len(serialised) == len(tuples_r) + len(tuples_s)

    def test_serial_and_shed_runs_need_no_stored_form(self, workload, serialised):
        """... of their own.  The serial backend loads the tuples into its
        own heap files and builds no column of the side; a shed run refines
        from the side's stored records — made once if nobody has, then
        read — and from a side that has them serialises nothing, and
        decodes a record only the first time a candidate needs its tuple."""
        side_r, side_s = InputSide(workload[0]), InputSide(workload[1])
        serial = parallel_join(side_r, side_s, intersects, backend="serial")
        assert not vars(side_r) and not vars(side_s)
        del serialised[:]
        engine = ProcessPBSM(2, num_partitions=PARTITIONS)
        shed = engine.run_serial(side_r, side_s, intersects)
        assert serialised == [t.feature_id for t in side_r + side_s]
        columns = dict(vars(side_r))
        assert {"mbrs", "payload", "stored"} <= set(columns)
        del serialised[:]
        decoded = []
        with mock.patch.object(
            tasks, "deserialize_tuple", wraps=tasks.deserialize_tuple
        ) as decode:
            def loop(r, s):
                return intersects(r, s)

            for predicate in (intersects, loop, loop):
                again = engine.run_serial(side_r, side_s, predicate)
                assert again.pairs == shed.pairs == serial.pairs != []
                decoded.append(decode.call_count)
        assert serialised == [] and decoded[0] == 0
        assert 0 < decoded[1] == decoded[2] < len(side_r) + len(side_s)
        assert vars(side_r).keys() == columns.keys()
        assert all(vars(side_r)[name] is columns[name] for name in columns)


class TestImmutableAndShared:
    def test_rejects_mutation(self, workload):
        side = InputSide(workload[1])
        with pytest.raises(TypeError):
            side[0] = side[1]
        with pytest.raises(TypeError):
            del side[0]
        for mutator in ("append", "extend", "sort", "clear", "insert", "pop"):
            assert not hasattr(side, mutator)
        grown = side
        grown += (side[0],)  # a new plain tuple; the side is as it was
        assert grown is not side and type(grown) is tuple
        assert len(side) == len(workload[1]) and hash(side) == hash(tuple(side))
        assert not hasattr(side, "no_such_column")

    ORDERS = (
        ("payload", "offsets"), ("crc",), ("offsets", "mbrs"), ("fids", "payload"),
        ("stored", "crc"),
    )

    @staticmethod
    def first_touches(side):
        """What each of four threads sees after touching columns of a cold
        ``side`` in its own order, all released at once."""
        seen, barrier = [], threading.Barrier(len(TestImmutableAndShared.ORDERS))

        def touch(first):
            barrier.wait()
            for name in first:
                getattr(side, name)
            # Whatever was touched first, the whole group is there.
            seen.append((
                side.payload, side.offsets, side.crc,
                side.mbrs, side.mbrs_f32, side.fids, side.stored,
            ))

        threads = [
            threading.Thread(target=touch, args=(order,))
            for order in TestImmutableAndShared.ORDERS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        return seen

    def test_two_threads_first_touching_get_one_consistent_group(self, workload):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                side = InputSide(workload[1])
                seen = self.first_touches(side)
                assert len(seen) == len(self.ORDERS)
                for got in seen:
                    # One builder: every thread holds the same objects.
                    assert all(a is b for a, b in zip(got, seen[0]))
                    payload, offsets = got[0], got[1]
                    assert offsets[-1] == len(payload)
                    assert len(offsets) == len(side) + 1
        finally:
            sys.setswitchinterval(interval)

    def test_two_shed_runs_sharing_a_side_index_its_records_once(
        self, workload, monkeypatch
    ):
        """The server's case: a memoised side, a breaker open, two queries."""
        indexed = []

        def counting(buffer, starts, ends, fids, refine):
            indexed.append(buffer)
            return stored_records(buffer, starts, ends, fids, refine)

        stored_records = tasks.StoredRecords
        monkeypatch.setattr(tasks, "StoredRecords", counting)
        side_r, side_s = InputSide(workload[0]), InputSide(workload[1])
        answers, barrier = [], threading.Barrier(2)

        def shed():
            barrier.wait()
            answers.append(ProcessPBSM(2, num_partitions=PARTITIONS).run_serial(
                side_r, side_s, intersects
            ).pairs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=shed) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(indexed) == 2 and {id(buffer) for buffer in indexed} == {
            id(side_r.payload), id(side_s.payload)
        }
        assert len(answers) == 2 and answers[0] == answers[1] != []


class TestGeneratedSidesBuildNoTuples:
    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    @pytest.mark.parametrize("dataset, predicate", [
        ("road_hydro", "intersects"), ("landuse_island", "contains"),
    ])
    def test_the_process_path_builds_none_and_the_shed_path_only_candidates(
        self, dataset, predicate, pooled, monkeypatch
    ):
        """A side as ``QuerySpec.generate`` makes it, S in a fork-started
        worker or not, is its stored form: generating it and a fork-started
        process run build no ``SpatialTuple``, in the coordinator or a
        worker; the shed path, refining in the loop form, decodes each
        record a candidate names once and no other."""
        spec = QuerySpec(dataset, SCALE, seed=1996, predicate=predicate)
        reference = parallel_join(*spec.generate(), spec.predicate_fn, backend="serial")

        def refusing(*_):
            raise AssertionError("a SpatialTuple was built")

        init = SpatialTuple.__init__
        monkeypatch.setattr(SpatialTuple, "__init__", refusing)
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=fork) if pooled else nullcontext() as pool:
            side_r, side_s = spec.generate(pool)
        engine = ProcessPBSM(2, num_partitions=PARTITIONS, start_method="fork")
        result = engine.run(side_r, side_s, spec.predicate_fn)
        assert result.pairs == reference.pairs != [] and result.fault_summary == {}
        assert engine.run_serial(side_r, side_s, spec.predicate_fn).pairs == result.pairs

        built, named_r, named_s = [], set(), set()

        def building(t, feature_id, *rest):
            built.append(feature_id)
            init(t, feature_id, *rest)

        def naming(candidates, *args, **kwargs):
            named_r.update(r for r, _ in candidates)
            named_s.update(s for _, s in candidates)
            return refine_pair(candidates, *args, **kwargs)

        refine_pair = process.refine_pair
        monkeypatch.setattr(SpatialTuple, "__init__", building)
        monkeypatch.setattr(process, "refine_pair", naming)
        shed = engine.run_serial(
            side_r, side_s, lambda r, s: spec.predicate_fn(r, s)
        )
        assert shed.pairs == result.pairs
        assert sorted(built) == sorted([*named_r, *named_s])
        assert len(built) < len(side_r) + len(side_s)
