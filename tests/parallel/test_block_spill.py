"""The block spill format: one on-disk form, a lazy reader that still
checks every byte, and workers that freeze the heap they inherit.

* the block-at-a-time and the one-tuple-at-a-time entries write the same
  files, whose key-pointer records are the scalar codec's bytes, and
  ``spill_bytes`` is their size;
* the tuple reader decodes only what is looked up, but any damage to any
  frame — referenced or not — fails the task as corruption, whether the
  refine gathers coordinate columns (of polylines, of polygons) or looks
  tuples up one by one;
* a pool worker has a frozen heap after its first task.
"""

import dataclasses
import gc
import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import contains, intersects
from repro.core.keypointer import _f32_down, _f32_up
from repro.core.predicates import ContainsWithFilters, intersects_naive
from repro.core.partition import SpatialPartitioner
from repro.core.pbsm import PBSMConfig
from repro.data import generate_hydrography, generate_roads
from repro.faults import tear_frame
from repro.parallel import ProcessPBSM, WorkerTaskError
from repro.parallel import tasks
from repro.parallel.process import DEFAULT_TASK_MEMORY, START_METHOD_ENV
from repro.parallel.tasks import (
    InputSide,
    PairTask,
    PartitionSpill,
    read_keypointer_spill,
    read_tuple_spill,
    run_pair_task,
    spill_bytes,
    sweep_pair,
)
from repro.serve.query import QuerySpec
from repro.storage import SpillCorruptionError
from repro.storage.spill import FRAME_HEADER_SIZE
from repro.storage.tuples import serialize_tuple
from tests.conftest import read_records, write_records

BLOCK = 4
"""Records per block in these tests: small, so a partition of a few dozen
tuples spans many frames."""


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", BLOCK)


@pytest.fixture(scope="module")
def sides():
    tuples_r = list(generate_roads(scale=0.001))
    tuples_s = list(generate_hydrography(scale=0.001))
    side_r, side_s = InputSide(tuples_r), InputSide(tuples_s)
    partitioner = SpatialPartitioner.for_inputs(
        side_r.mbrs, side_s.mbrs, 1, PBSMConfig().num_tiles
    )
    return partitioner, side_r, side_s


def spill_side(directory, name, partitioner, side):
    """Partition 0 of ``side``, spilled the way the coordinator does."""
    spill = PartitionSpill(str(directory), name, 0)
    for _window, keypointers, records in side.blocks(partitioner.route_all(side.mbrs)[0]):
        spill.extend(keypointers, records)
    spill.close()
    return spill


@pytest.fixture
def pair_task(tmp_path, sides):
    partitioner, side_r, side_s = sides
    spill_r = spill_side(tmp_path, "r", partitioner, side_r)
    spill_s = spill_side(tmp_path, "s", partitioner, side_s)
    return PairTask(
        index=0,
        kp_r_path=spill_r.kp_path, kp_s_path=spill_s.kp_path,
        tuples_r_path=spill_r.tuple_path, tuples_s_path=spill_s.tuple_path,
        count_r=spill_r.count, count_s=spill_s.count,
        config=PBSMConfig(), predicate=intersects,
    )


class TestOneFormat:
    def test_add_and_extend_write_the_same_bytes(self, tmp_path, sides):
        partitioner, side, _ = sides
        bulk = spill_side(tmp_path / "bulk", "r", partitioner, side)
        single = PartitionSpill(str(tmp_path / "single"), "r", 0)
        for t in side:
            single.add(t, partitioner.tile_assignments(t.mbr))
        single.close()
        assert single.count == bulk.count >= len(side)
        for one, other in (
            (single.kp_path, bulk.kp_path),
            (single.tuple_path, bulk.tuple_path),
        ):
            with open(one, "rb") as a, open(other, "rb") as b:
                assert a.read() == b.read()

    def test_engine_files_are_what_add_writes_a_window_at_a_time(
        self, tmp_path, sides
    ):
        """The format pin, over many windows and four partitions: a block
        is a partition's share of one window of ``BLOCK`` input ordinals,
        and its bytes are the ones ``add`` makes of those tuples."""
        _, side_r, side_s = sides
        ProcessPBSM(2, num_partitions=4, checkpoint_dir=str(tmp_path / "run")).run(
            side_r, side_s, intersects
        )
        partitioner = SpatialPartitioner.for_inputs(
            side_r.mbrs, side_s.mbrs, 4, PBSMConfig().num_tiles
        )
        for name, side in (("r", side_r), ("s", side_s)):
            spills = [PartitionSpill(str(tmp_path), name, p) for p in range(4)]
            for ordinal, t in enumerate(side):
                slots = partitioner.tile_assignments(t.mbr)
                for p in {partitioner.partition_of_tile(tile) for tile, _ in slots}:
                    spills[p].add(t, [
                        slot for slot in slots
                        if partitioner.partition_of_tile(slot[0]) == p
                    ])
                if (ordinal + 1) % BLOCK == 0:  # the window ends: cut here
                    for spill in spills:
                        if spill._added:
                            spill._extend_added()
            for spill in spills:
                spill.close()
                for path in map(Path, (spill.kp_path, spill.tuple_path)):
                    (written,) = (tmp_path / "run").rglob(path.name)
                    assert written.read_bytes() == path.read_bytes() != b""

    def test_keypointer_records_are_the_scalar_codecs_bytes(
        self, tmp_path, sides
    ):
        partitioner, side, _ = sides
        spill = spill_side(tmp_path, "r", partitioner, side)
        expected = b"".join(
            struct.pack(
                "<ffffIIB",
                _f32_down(t.mbr.xl), _f32_down(t.mbr.yl),
                _f32_up(t.mbr.xu), _f32_up(t.mbr.yu),
                t.feature_id, tile, cls,
            )
            for t in side
            for tile, cls in partitioner.tile_assignments(t.mbr)
        )
        frames = read_records(spill.kp_path)
        assert b"".join(frames) == expected
        assert len(frames) == -(-len(side) // BLOCK)  # one a window
        records = read_keypointer_spill(spill.kp_path)
        assert records.tobytes() == expected
        assert records[["fid", "tile", "cls"]].tolist() == [
            (t.feature_id, tile, cls)
            for t in side
            for tile, cls in partitioner.tile_assignments(t.mbr)
        ]

    def test_spill_bytes_is_the_size_on_disk(self, tmp_path, sides):
        partitioner, side, _ = sides
        spill = spill_side(tmp_path, "r", partitioner, side)
        (routed,) = partitioner.route_all(side.mbrs)
        footprint = spill_bytes(routed, side)
        assert footprint == (
            os.path.getsize(spill.kp_path) + os.path.getsize(spill.tuple_path)
        )
        # A reject quotes it over the wire: an int, not a numpy scalar.
        assert type(footprint) is int
        (nothing,) = partitioner.route_all(side.mbrs[:0])
        assert spill_bytes(nothing, InputSide()) == 0


def block_fids(block):
    """The feature ids in a tuple block's directory."""
    count = int(np.frombuffer(block, "<u4", 1)[0])
    return set(np.frombuffer(block, "<u4", count, 4).tolist())


class TestLazyTuples:
    def test_decodes_on_first_lookup_only(self, tmp_path, sides, monkeypatch):
        partitioner, side, _ = sides
        spill = spill_side(tmp_path, "r", partitioner, side)
        decoded = []
        decode = tasks.deserialize_tuple

        def counting(data):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(tasks, "deserialize_tuple", counting)
        lookup = read_tuple_spill(spill.tuple_path)
        assert len(lookup) == len(side) and not decoded
        wanted = side[len(side) // 2]
        assert lookup[wanted.feature_id] == wanted
        assert lookup[wanted.feature_id] is lookup[wanted.feature_id]
        assert decoded == [serialize_tuple(wanted)]
        assert sorted(lookup) == sorted(t.feature_id for t in side)

    def test_absent_feature_id_is_a_key_error(self, tmp_path, sides):
        partitioner, side, _ = sides
        lookup = read_tuple_spill(
            spill_side(tmp_path, "r", partitioner, side).tuple_path
        )
        with pytest.raises(KeyError):
            lookup[max(t.feature_id for t in side) + 1]
        with pytest.raises(TypeError):
            lookup[0] = side[0]  # read-only


class TestIntegrity:
    def located(self, error, path, frame):
        assert error.path == str(path) and error.frame_index == frame
        assert error.offset == sum(
            FRAME_HEADER_SIZE + len(f) for f in read_records(path)[:frame]
        )

    def test_truncated_tail(self, tmp_path, sides):
        partitioner, side, _ = sides
        path = spill_side(tmp_path, "r", partitioner, side).tuple_path
        frames = len(read_records(path))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with pytest.raises(SpillCorruptionError, match="truncated") as info:
            read_tuple_spill(path)
        assert info.value.frame_index == frames - 1

    @pytest.mark.parametrize(
        "word,value",
        [
            (7, lambda head: head[7] + 1),  # last offset past the payload
            (7, lambda head: head[7] - 1),  # ... or short of its end
            (5, lambda head: head[6] + 1),  # offsets not ascending
            (4, lambda head: 1),  # first record not at the payload's start
            (0, lambda head: 1 << 20),  # count overruns the frame
        ],
    )
    def test_directory_that_does_not_fit_its_payload(
        self, tmp_path, word, value
    ):
        good = tasks.pack_tuple_block(
            InputSide(list(generate_roads(scale=0.001))[:3]).records(np.arange(3))
        )
        # The directory: [count=3, fid, fid, fid, 0, end, end, end].
        head = np.frombuffer(good[: 8 * 4], "<u4").copy()
        head[word] = value(head)
        path = tmp_path / "bad.tup"
        write_records(path, [good, head.tobytes() + good[8 * 4 :]])
        with pytest.raises(SpillCorruptionError, match="tuple block") as info:
            read_tuple_spill(str(path))
        self.located(info.value, path, 1)

    def test_empty_tuple_frame_is_corruption(self, tmp_path):
        path = tmp_path / "empty.tup"
        write_records(path, [b""])
        with pytest.raises(SpillCorruptionError, match="tuple block"):
            read_tuple_spill(str(path))

    def test_keypointer_block_of_a_fractional_record(self, tmp_path):
        path = tmp_path / "bad.kp"
        write_records(path, [b"\0" * 50, b"\0" * 26])
        with pytest.raises(SpillCorruptionError, match="whole number") as info:
            read_keypointer_spill(str(path))
        self.located(info.value, path, 1)

    def test_tear_frame_tears_the_only_block(self, tmp_path, sides, monkeypatch):
        monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", 1 << 20)  # one window
        partitioner, side, _ = sides
        path = spill_side(tmp_path, "r", partitioner, side).kp_path
        assert len(read_records(path)) == 1
        assert tear_frame(path, 5) == 0
        with pytest.raises(SpillCorruptionError, match="checksum") as info:
            read_keypointer_spill(path)
        assert info.value.frame_index == 0

    def test_any_torn_tuple_frame_fails_the_task_as_corruption(
        self, pair_task
    ):
        clean = run_pair_task(pair_task)
        assert clean.pairs and clean.candidates
        candidates = sweep_pair(
            read_keypointer_spill(pair_task.kp_r_path),
            read_keypointer_spill(pair_task.kp_s_path),
            DEFAULT_TASK_MEMORY, pair_task.config, label="0",
        )
        referenced = {fid_r for fid_r, _fid_s in candidates}
        blocks = read_records(pair_task.tuples_r_path)
        idle = [
            index for index, block in enumerate(blocks)
            if not referenced & block_fids(block)
        ]
        assert idle, "need a block no candidate references"
        pristine = open(pair_task.tuples_r_path, "rb").read()
        for frame in {0, idle[0], idle[-1], len(blocks) - 1}:
            assert tear_frame(pair_task.tuples_r_path, frame) == frame
            with pytest.raises(WorkerTaskError) as info:
                run_pair_task(pair_task)
            assert info.value.corruption
            assert info.value.cause_type == "SpillCorruptionError"
            with open(pair_task.tuples_r_path, "wb") as fh:
                fh.write(pristine)
        assert run_pair_task(pair_task).pairs == clean.pairs


class TestIntegrityThroughTheLookups(TestIntegrity):
    """The same damage with the refine on its per-pair loop: a predicate
    other than ``intersects`` reads the spill one tuple at a time, where
    ``TestIntegrity``'s task gathers coordinate columns."""

    @pytest.fixture
    def pair_task(self, pair_task):
        return dataclasses.replace(pair_task, predicate=intersects_naive)

    def test_the_two_tasks_are_the_two_forms(self, pair_task):
        def refine_tags(task):
            result = run_pair_task(dataclasses.replace(task, observe=True))
            (root,) = result.spans
            (span,) = [
                child for child in root["children"]
                if child["name"] == "worker.refine"
            ]
            return result, span["tags"]

        loop, loop_tags = refine_tags(pair_task)
        columnar, tags = refine_tags(
            dataclasses.replace(pair_task, predicate=intersects)
        )
        assert loop.pairs == columnar.pairs and loop.pairs
        assert loop_tags["columnar"] is False and tags["columnar"] is True
        assert loop_tags["segment_pairs"] == 0 < tags["segment_pairs"]
        assert loop_tags["records_decoded"] == tags["records_decoded"] > 0
        assert tags["candidates"] == columnar.candidates


class TestIntegrityThroughThePolygonColumns(TestIntegrity):
    """The same damage with the refine on ring columns: landuse x islands
    under ``contains``, where a worker builds no ``Polygon`` — and still
    fails on a torn frame that no candidate references."""

    @pytest.fixture(scope="class")
    def sides(self):
        spec = QuerySpec(dataset="landuse_island", scale=0.01, seed=11,
                         predicate="contains")
        side_r, side_s = map(InputSide, spec.generate())
        partitioner = SpatialPartitioner.for_inputs(
            side_r.mbrs, side_s.mbrs, 1, PBSMConfig().num_tiles
        )
        return partitioner, side_r, side_s

    @pytest.fixture
    def pair_task(self, pair_task):
        return dataclasses.replace(pair_task, predicate=contains)

    def test_the_task_is_the_polygon_form(self, pair_task):
        result = run_pair_task(dataclasses.replace(pair_task, observe=True))
        (root,) = result.spans
        (tags,) = [
            child["tags"] for child in root["children"]
            if child["name"] == "worker.refine"
        ]
        assert result.pairs and tags["columnar"] is True
        assert tags["square_hits"] > 0 < tags["vertex_rows"]
        loop = run_pair_task(dataclasses.replace(
            pair_task, predicate=ContainsWithFilters()
        ))
        assert loop.pairs == result.pairs


class TestFrozenWorkerHeap:
    def test_a_pool_worker_is_frozen_after_its_first_task(self, pair_task):
        context = multiprocessing.get_context(
            os.environ.get(START_METHOD_ENV)
        )
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            first = pool.submit(run_pair_task, pair_task).result(timeout=60)
            frozen = pool.submit(gc.get_freeze_count).result(timeout=60)
            assert frozen > 0
            again = pool.submit(run_pair_task, pair_task).result(timeout=60)
            # Once per process: the second task froze nothing more.
            assert pool.submit(gc.get_freeze_count).result(timeout=60) == frozen
        assert first.pairs == again.pairs and first.worker_pid == again.worker_pid
