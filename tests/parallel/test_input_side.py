"""``InputSide``: one materialised input, serialised once.

* *golden identity* — the run fingerprint and every spill byte the engine
  writes for a fixed input are the values recorded at commit 61d888c
  (before the columns were kept with the input), whether the engine is
  handed a plain list, a cold ``InputSide`` or one whose columns are built;
* *the memo is used* — ``serialize_tuple`` runs once per tuple per
  ``InputSide``, whoever asks first, and never again;
* the sequence is immutable and its columns — the stored-record index a
  shed run refines from among them — are safe to first-touch from two
  threads.
"""

import hashlib
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import intersects
from repro.checkpoint.manifest import RunFingerprint
from repro.core.pbsm import PBSMConfig
from repro.data import generate_hydrography, generate_roads
from repro.parallel import ProcessPBSM, parallel_join, tasks
from repro.parallel.tasks import InputSide
from repro.serve.query import QuerySpec
from repro.storage import DiskBudget
from repro.storage.tuples import serialize_tuple

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
GOLDEN_SPILLS = "f4c70df3637244c2fbf3d149cbafa6ad07d126b65342420e2d8e3a19a0865d2b"
"""SHA-256 over ``<file name>:<SHA-256 of its bytes>\\n`` for the sixteen
``.kp`` / ``.tup`` files of the checkpointed run below, sorted by name."""


@pytest.fixture(scope="module")
def workload():
    return (
        list(generate_roads(scale=SCALE)),
        list(generate_hydrography(scale=SCALE)),
    )


def spill_digest(root):
    files = sorted(
        p for p in Path(root).rglob("*") if p.suffix in (".kp", ".tup")
    )
    assert len(files) == 4 * PARTITIONS
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
        assert side.records(np.array([2, 0])) == [
            (side[2].feature_id, records[2]), (side[0].feature_id, records[0]),
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

        ProcessPBSM(
            2, num_partitions=PARTITIONS + 1, checkpoint_dir=str(tmp_path / "b")
        ).run(side_r, side_s, intersects)
        spec = QuerySpec(scale=SCALE, num_partitions=PARTITIONS)
        assert spec.fingerprint(side_r, side_s).run_id == GOLDEN_RUN_ID
        engine = ProcessPBSM(2, num_partitions=PARTITIONS)
        footprint = engine.spill_footprint(side_r, side_s)
        # Starved of disk, the engine rewrites denied partitions whole —
        # from the stored form, not from the tuples.
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
        read — and from a side that has them serialises nothing and
        decodes nothing."""
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
        with mock.patch.object(tasks, "deserialize_tuple") as decode:
            for predicate in (intersects, lambda r, s: intersects(r, s)):
                again = engine.run_serial(side_r, side_s, predicate)
                assert again.pairs == shed.pairs == serial.pairs != []
        assert serialised == [] and not decode.called
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

        def counting(buffer, starts, ends, fids, live):
            indexed.append(live)
            return stored_records(buffer, starts, ends, fids, live)

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
        assert len(indexed) == 2 and {id(side) for side in indexed} == {
            id(side_r), id(side_s)
        }
        assert len(answers) == 2 and answers[0] == answers[1] != []
