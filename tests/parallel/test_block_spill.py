"""The block formats: one on-disk form per file kind, a lazy reader that
still checks every byte, and workers that keep what they have read.

* the engine's key-pointer spill and the one-tuple-at-a-time entry write
  the same bytes, which are the scalar codec's, and ``spill_bytes`` is
  their size;
* the relation reader decodes only what is looked up, but any damage to
  any frame — referenced or not — fails the task as corruption, whether
  the refine gathers coordinate columns (of polylines, of polygons) or
  looks tuples up one by one;
* a worker reads a relation once, keeps at most the memo's bound, and
  reads it afresh when the file at its path changes; a pool worker has a
  frozen heap after its first task;
* a relation file lives as long as its side, in the process that wrote it.
"""

import dataclasses
import gc
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
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
from repro.obs import Tracer
from repro.parallel import ProcessPBSM, WorkerTaskError
from repro.parallel import tasks
from repro.parallel.process import DEFAULT_TASK_MEMORY, mp_context
from repro.parallel.tasks import (
    InputSide,
    PairTask,
    PartitionSpill,
    StoredRecords,
    read_keypointer_spill,
    read_relation,
    run_pair_task,
    spill_blocks,
    spill_bytes,
    sweep_pair,
)
from repro.serve.pool import SharedPoolProvider
from repro.serve.query import QuerySpec
from repro.storage import SpillCorruptionError
from repro.storage.spill import FRAME_HEADER_SIZE, SpillWriter
from repro.storage.tuples import serialize_tuple
from tests.conftest import read_records, write_records

BLOCK = 4
"""Records per block in these tests: small, so a partition of a few dozen
tuples spans many frames."""

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", BLOCK)
    # Each test's own worker memo: tasks run in this process here.
    tasks._RELATIONS.clear()


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
    """Partition 0 of ``side``, its key-pointers spilled the way the
    coordinator does: ``(path, records)``."""
    routing = side.routing(partitioner)
    path = os.path.join(directory, f"part0000.{name}.kp")
    with SpillWriter(path) as writer:
        for _window, keypointers in spill_blocks(routing.ordinals[0], routing.keypointers[0]):
            writer.append(keypointers.tobytes())
    return path, len(routing.ordinals[0])


def relation_copy(directory, name, side):
    """A copy of ``side``'s relation file that a test may damage."""
    return shutil.copy(side.relation.path, os.path.join(directory, f"{name}.rel"))


@pytest.fixture
def pair_task(tmp_path, sides):
    partitioner, side_r, side_s = sides
    kp_r, count_r = spill_side(tmp_path, "r", partitioner, side_r)
    kp_s, count_s = spill_side(tmp_path, "s", partitioner, side_s)
    return PairTask(
        index=0, kp_r_path=kp_r, kp_s_path=kp_s,
        relation_r_path=relation_copy(tmp_path, "r", side_r),
        relation_s_path=relation_copy(tmp_path, "s", side_s),
        count_r=count_r, count_s=count_s,
        config=PBSMConfig(), predicate=intersects,
    )


def refine_tags(result):
    """The ``worker.refine`` span's tags of an observed task."""
    (root,) = result.spans
    (tags,) = [c["tags"] for c in root["children"] if c["name"] == "worker.refine"]
    return tags


class TestOneFormat:
    def test_add_writes_the_engines_bytes(self, tmp_path, sides):
        """... a partition's key-pointers, and — one partition holding
        every tuple — the relation file as its ``.tup``."""
        partitioner, side, _ = sides
        kp, count = spill_side(tmp_path, "r", partitioner, side)
        single = PartitionSpill(str(tmp_path / "single"), "r", 0)
        for t in side:
            single.add(t, partitioner.tile_assignments(t.mbr))
        single.close()
        assert single.count == count >= len(side)
        for one, other in ((single.kp_path, kp), (single.tuple_path, side.relation.path)):
            assert Path(one).read_bytes() == Path(other).read_bytes()

    def test_engine_files_are_what_add_writes_a_window_at_a_time(
        self, tmp_path, sides
    ):
        """The format pin, over many windows and four partitions: a block
        is a partition's share of one window of ``BLOCK`` input ordinals,
        and its bytes are the ones ``add`` makes of those tuples.  The
        engine spills key-pointers alone."""
        _, side_r, side_s = sides
        ProcessPBSM(2, num_partitions=4, checkpoint_dir=str(tmp_path / "run")).run(
            side_r, side_s, intersects
        )
        assert not list((tmp_path / "run").rglob("*.tup"))
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
                            spill._write_added()
            for spill in spills:
                spill.close()
                path = Path(spill.kp_path)
                (written,) = (tmp_path / "run").rglob(path.name)
                assert written.read_bytes() == path.read_bytes() != b""

    def test_keypointer_records_are_the_scalar_codecs_bytes(
        self, tmp_path, sides
    ):
        partitioner, side, _ = sides
        path, _count = spill_side(tmp_path, "r", partitioner, side)
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
        frames = read_records(path)
        assert b"".join(frames) == expected
        assert len(frames) == -(-len(side) // BLOCK)  # one a window
        records = read_keypointer_spill(path)
        assert records.tobytes() == expected
        assert records[["fid", "tile", "cls"]].tolist() == [
            (t.feature_id, tile, cls)
            for t in side
            for tile, cls in partitioner.tile_assignments(t.mbr)
        ]

    def test_spill_bytes_is_the_size_on_disk(self, tmp_path, sides):
        partitioner, side, _ = sides
        path, _count = spill_side(tmp_path, "r", partitioner, side)
        (routed,) = partitioner.route_all(side.mbrs)
        footprint = spill_bytes(routed.ordinal)
        assert footprint == os.path.getsize(path)
        # A reject quotes it over the wire: an int, not a numpy scalar.
        assert type(footprint) is int
        (nothing,) = partitioner.route_all(side.mbrs[:0])
        assert spill_bytes(nothing.ordinal) == 0


def block_fids(block):
    """The feature ids in a tuple block's directory."""
    count = int(np.frombuffer(block, "<u4", 1)[0])
    return set(np.frombuffer(block, "<u4", count, 4).tolist())


class TestLazyTuples:
    def test_decodes_on_first_lookup_only(self, sides, monkeypatch):
        _, side, _ = sides
        decoded = []
        decode = tasks.deserialize_tuple

        def counting(data):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(tasks, "deserialize_tuple", counting)
        lookup = read_relation(side.relation.path)
        assert len(lookup) == len(side) and not decoded
        wanted = side[len(side) // 2]
        assert lookup[wanted.feature_id] == wanted
        assert lookup[wanted.feature_id] is lookup[wanted.feature_id]
        assert decoded == [serialize_tuple(wanted)]
        assert sorted(lookup) == sorted(t.feature_id for t in side)

    def test_absent_feature_id_is_a_key_error(self, sides):
        _, side, _ = sides
        lookup = read_relation(side.relation.path)
        with pytest.raises(KeyError):
            lookup[max(t.feature_id for t in side) + 1]
        with pytest.raises(TypeError):
            lookup[0] = side[0]  # read-only

    @pytest.mark.parametrize("ids", ["ascending", "shuffled", "duplicated", "shuffled duplicates"])
    def test_the_index_finds_what_record_order_would(self, sides, ids):
        """Ascending ids skip the sort; either way a lookup finds what a
        mapping filled in record order would — of two records with one
        feature id, the later."""
        _, side, _ = sides
        fids = np.arange(len(side))
        if "duplicate" in ids:
            fids //= 2
        if "shuffled" in ids:
            fids = np.random.default_rng(7).permutation(fids)
        records = StoredRecords(side.payload, side.offsets[:-1], side.offsets[1:], fids)
        expected = {fid: record for record, fid in enumerate(fids.tolist())}
        wanted = np.array(sorted(expected))
        assert records.records_of(wanted).tolist() == [expected[f] for f in wanted.tolist()]
        for fid in wanted.tolist()[::7]:
            assert records[fid] == side[expected[fid]]


class TestIntegrity:
    def located(self, error, path, frame):
        assert error.path == str(path) and error.frame_index == frame
        assert error.offset == sum(
            FRAME_HEADER_SIZE + len(f) for f in read_records(path)[:frame]
        )

    def test_truncated_tail(self, pair_task):
        path = pair_task.relation_r_path
        frames = len(read_records(path))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with pytest.raises(SpillCorruptionError, match="truncated") as info:
            read_relation(path)
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
        side = InputSide(list(generate_roads(scale=0.001))[:3])
        good = tasks.pack_tuple_block(side.fids, side.offsets, side.payload)
        # The directory: [count=3, fid, fid, fid, 0, end, end, end].
        head = np.frombuffer(good[: 8 * 4], "<u4").copy()
        head[word] = value(head)
        path = tmp_path / "bad.rel"
        write_records(path, [good, head.tobytes() + good[8 * 4 :]])
        with pytest.raises(SpillCorruptionError, match="tuple block") as info:
            read_relation(str(path))
        self.located(info.value, path, 1)

    def test_an_empty_file_is_an_empty_relation(self, tmp_path):
        """``mmap`` refuses a 0-byte file; the reader does not."""
        path = str(tmp_path / "nothing.rel")
        open(path, "wb").close()
        for records in (read_relation(path), tasks.open_relation(path)):
            assert len(records) == 0 and list(records) == []
            assert records.identity[2] == 0 and len(records.refine) == 0

    def test_empty_tuple_frame_is_corruption(self, tmp_path):
        path = tmp_path / "empty.rel"
        write_records(path, [b""])
        with pytest.raises(SpillCorruptionError, match="tuple block"):
            read_relation(str(path))

    def test_keypointer_block_of_a_fractional_record(self, tmp_path):
        path = tmp_path / "bad.kp"
        write_records(path, [b"\0" * 50, b"\0" * 26])
        with pytest.raises(SpillCorruptionError, match="whole number") as info:
            read_keypointer_spill(str(path))
        self.located(info.value, path, 1)

    def test_tear_frame_tears_the_only_block(self, tmp_path, sides, monkeypatch):
        monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", 1 << 20)  # one window
        partitioner, side, _ = sides
        path, _count = spill_side(tmp_path, "r", partitioner, side)
        assert len(read_records(path)) == 1
        assert tear_frame(path, 5) == 0
        with pytest.raises(SpillCorruptionError, match="checksum") as info:
            read_keypointer_spill(path)
        assert info.value.frame_index == 0

    def test_any_torn_tuple_frame_fails_the_task_as_corruption(
        self, pair_task, tmp_path
    ):
        """... of a relation file — each tear a file of its own, which no
        worker has read yet."""
        clean = run_pair_task(pair_task)
        assert len(clean.pairs) and clean.candidates
        candidates = sweep_pair(
            read_keypointer_spill(pair_task.kp_r_path),
            read_keypointer_spill(pair_task.kp_s_path),
            DEFAULT_TASK_MEMORY, pair_task.config, label="0",
        )
        referenced = {fid_r for fid_r, _fid_s in candidates}
        blocks = read_records(pair_task.relation_r_path)
        idle = [
            index for index, block in enumerate(blocks)
            if not referenced & block_fids(block)
        ]
        assert idle, "need a block no candidate references"
        for frame in {0, idle[0], idle[-1], len(blocks) - 1}:
            torn = shutil.copy(pair_task.relation_r_path, tmp_path / f"torn{frame}")
            assert tear_frame(torn, frame) == frame
            with pytest.raises(WorkerTaskError) as info:
                run_pair_task(dataclasses.replace(pair_task, relation_r_path=str(torn)))
            assert info.value.corruption
            assert info.value.cause_type == "SpillCorruptionError"
        assert run_pair_task(pair_task).pairs.tolist() == clean.pairs.tolist()


class TestIntegrityThroughTheLookups(TestIntegrity):
    """The same damage with the refine on its per-pair loop: a predicate
    other than ``intersects`` reads the relation one tuple at a time,
    where ``TestIntegrity``'s task gathers coordinate columns."""

    @pytest.fixture
    def pair_task(self, pair_task):
        return dataclasses.replace(pair_task, predicate=intersects_naive)

    def test_the_two_tasks_are_the_two_forms(self, pair_task):
        observed = dataclasses.replace(pair_task, observe=True)
        loop = run_pair_task(observed)
        columnar = run_pair_task(dataclasses.replace(observed, predicate=intersects))
        loop_tags, tags = refine_tags(loop), refine_tags(columnar)
        assert loop.pairs.tolist() == columnar.pairs.tolist() != []
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
        tags = refine_tags(result)
        assert len(result.pairs) and tags["columnar"] is True
        assert tags["square_hits"] > 0 < tags["vertex_rows"]
        loop = run_pair_task(dataclasses.replace(
            pair_task, predicate=ContainsWithFilters()
        ))
        assert loop.pairs.tolist() == result.pairs.tolist()


def memo_size():
    """How many relations the calling worker keeps."""
    return len(tasks._RELATIONS)


def tear_while_refining(task):
    """:func:`run_pair_task` with its R relation torn in place after the
    worker mapped and checked it, before the refine reads it."""
    refine = tasks.refine_pair

    def tearing(*args, **kwargs):
        assert tear_frame(task.relation_r_path, 0) == 0
        return refine(*args, **kwargs)

    tasks.refine_pair = tearing
    try:
        return run_pair_task(task)
    finally:
        tasks.refine_pair = refine


class TestWorkerRelations:
    def test_a_worker_reads_each_relation_once(self, pair_task, monkeypatch):
        reads = []
        read = tasks.read_relation

        def counting(path, **kwargs):
            reads.append(path)
            return read(path, **kwargs)

        monkeypatch.setattr(tasks, "read_relation", counting)
        first, again = run_pair_task(pair_task), run_pair_task(pair_task)
        assert first.pairs.tolist() == again.pairs.tolist() != []
        assert reads == [pair_task.relation_r_path, pair_task.relation_s_path]

    def test_a_changed_file_is_read_afresh(self, pair_task, tmp_path):
        """The memo never serves a verified copy of a file that is no
        longer the one at its path."""
        path = pair_task.relation_r_path
        clean = run_pair_task(pair_task)
        pristine = shutil.copy(path, tmp_path / "pristine")
        torn = shutil.copy(path, tmp_path / "torn")
        assert tear_frame(torn, 0) == 0
        os.replace(torn, path)
        with pytest.raises(WorkerTaskError) as info:
            run_pair_task(pair_task)
        assert info.value.corruption
        os.replace(pristine, path)
        assert run_pair_task(pair_task).pairs.tolist() == clean.pairs.tolist()

    def test_a_file_damaged_in_place_between_tasks_fails_the_next(self, pair_task):
        """Same path, same inode: only the write's new ``mtime`` tells the
        worker's memo that its mapping no longer holds checked bytes."""
        path = pair_task.relation_r_path
        inode = os.stat(path).st_ino
        with ProcessPoolExecutor(1, mp_context=mp_context()) as pool:
            assert pool.submit(run_pair_task, pair_task).result(timeout=60).pairs.size
            assert tear_frame(path, 0) == 0 and os.stat(path).st_ino == inode
            with pytest.raises(WorkerTaskError) as info:
                pool.submit(run_pair_task, pair_task).result(timeout=60)
        assert info.value.corruption and info.value.damaged_path == path

    def test_a_file_damaged_during_a_task_fails_it(self, pair_task):
        """The refine decoded from a mapping written after its check: the
        task fails as corruption rather than answer from those bytes."""
        with ProcessPoolExecutor(1, mp_context=mp_context()) as pool:
            with pytest.raises(WorkerTaskError) as info:
                pool.submit(tear_while_refining, pair_task).result(timeout=60)
        assert info.value.corruption
        assert info.value.damaged_path == pair_task.relation_r_path
        assert "changed after its check" in info.value.cause_message

    def test_a_relation_damaged_mid_run_is_quarantined_and_rebuilt(self):
        """One worker keeps the S relation mapped across the run; the file
        is torn in place after its first task.  Every later task fails as
        corruption and is rebuilt from the side: the answer is the clean
        run's."""
        sides = tuple(map(InputSide, QuerySpec(scale=0.002, seed=5).generate()))
        expected = ProcessPBSM(1, num_partitions=8).run(*sides, intersects)
        later = []

        class DamagesMidRun(ProcessPBSM):
            def _execute(self, pair_tasks, on_result=None):
                done, failed = super()._execute(pair_tasks[:1], on_result)
                later.extend(pair_tasks[1:])
                assert tear_frame(pair_tasks[0].relation_s_path, -1) >= 0
                rest, failed_rest = super()._execute(pair_tasks[1:], on_result)
                return done + rest, {**failed, **failed_rest}

        provider = SharedPoolProvider(1)
        try:
            result = DamagesMidRun(
                1, num_partitions=8, pool_provider=provider
            ).run(*sides, intersects)
        finally:
            provider.close()
        assert result.pairs == expected.pairs != [] and result.duplicates_dropped == 0
        assert result.fault_summary == dict.fromkeys(
            ("task_failures", "quarantined", "degraded"), len(later)
        )
        assert result.degraded_pairs == sorted(t.index for t in later) != []
        again = ProcessPBSM(1, num_partitions=8).run(*sides, intersects)
        assert again.pairs == expected.pairs and again.fault_summary == {}
        assert sides[1].relation.path != later[0].relation_s_path

    def test_the_open_reports_its_check(self, pair_task):
        """``check_s`` is the frame walk of the relations opened, inside
        ``open_s``; both are 0 when the memo served them."""
        observed = dataclasses.replace(pair_task, observe=True)
        first, again = map(refine_tags, (run_pair_task(observed), run_pair_task(observed)))
        assert 0 < first["check_s"] <= first["open_s"]
        assert again["check_s"] == again["open_s"] == 0

    def test_forked_workers_inherit_the_coordinators_check(self):
        """Under fork the coordinator opens and checks both relations
        before its pool forks, and says so on ``process.execute`` — on the
        sides' first run, not the next; no worker's refine opens anything.
        Under spawn each worker opens them in its first task of the sides,
        whichever run it comes in: the pool outlives the run."""
        sides = tuple(map(InputSide, QuerySpec(scale=0.002, seed=5).generate()))
        runs, seen = [], set()
        for _ in range(2):
            tracer = Tracer()
            ProcessPBSM(2, num_partitions=8, tracer=tracer).run(*sides, intersects)
            (execute,) = tracer.find("process.execute")
            runs.append((execute.tags, tracer.find("worker.task")))
        for tags, worker_tasks in runs:
            assert worker_tasks
            refines = [
                next(c.tags for c in task.children if c.name == "worker.refine")
                for task in worker_tasks
            ]
            if mp_context().get_start_method() == "fork":
                assert all(r["open_s"] == r["check_s"] == 0 for r in refines)
            else:
                assert tags["open_s"] == tags["check_s"] == 0
                for task, refine in zip(worker_tasks, refines):
                    assert (refine["open_s"] > 0) == (task.tags["pid"] not in seen)
                    seen.add(task.tags["pid"])
        if mp_context().get_start_method() == "fork":
            (first, _), (again, _) = runs
            assert 0 < first["check_s"] <= first["open_s"]
            assert again["open_s"] == again["check_s"] == 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
    )
    def test_a_dropped_file_leaves_the_memo_and_the_address_space(self):
        """A memo entry maps its file: the writer drops it with the file —
        when the side goes, and when a damaged file is forgotten while a
        run still holds it — so no deleted file stays pinned."""

        def memoised(path):
            return any(key[0] == path for key in tasks._RELATIONS)

        def mapped(path):
            return path in Path("/proc/self/maps").read_text()

        side = InputSide(generate_roads(scale=0.001))
        path = side.relation.path
        tasks.check_relations(path)
        assert memoised(path) and mapped(path)
        del side
        gc.collect()
        assert not os.path.exists(path)
        assert not memoised(path) and not mapped(path)

        side = InputSide(generate_roads(scale=0.001))
        held = side.relation  # a run that still holds the file
        tasks.check_relations(held.path)
        side.forget_relation({held.path})
        assert not memoised(held.path) and not mapped(held.path)
        assert os.path.exists(held.path) and side.relation.path != held.path
        path = held.path
        del held
        gc.collect()
        assert not os.path.exists(path)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps"
    )
    def test_the_coordinators_check_keeps_no_page_resident(self):
        """``check_relations`` maps the file and checks every frame, yet
        leaves none of its pages in this process's resident set; a read
        afterwards faults them back in."""

        def resident_kb(path):
            total = inside = 0
            for line in Path("/proc/self/smaps").read_text().splitlines():
                head = line.split()
                if not head[0].endswith(":"):
                    inside = head[-1] == path
                elif inside and head[0] == "Rss:":
                    total += int(head[1])
            return total

        side = InputSide(generate_roads(scale=0.001))
        path = side.relation.path
        assert os.path.getsize(path) > 4 * os.sysconf("SC_PAGE_SIZE")
        open_s, check_s = tasks.check_relations(path)
        assert 0 < check_s <= open_s
        assert path in Path("/proc/self/maps").read_text() and resident_kb(path) == 0
        records = tasks.open_relation(path)
        assert [records[t.feature_id] for t in side[::9]] == list(side[::9])
        assert resident_kb(path) > 0

    def test_a_shared_pool_worker_keeps_at_most_the_bound(self):
        provider = SharedPoolProvider(1)
        joins = (tasks.RELATION_MEMO_ENTRIES // 2) + 1
        try:
            for seed in range(1, joins + 1):
                spec = QuerySpec(scale=0.001, seed=seed)
                result = ProcessPBSM(
                    1, num_partitions=2, pool_provider=provider
                ).run(*spec.generate(), spec.predicate_fn)
                assert result.pairs and not result.degraded_pairs
            pool = provider.acquire(1, None)
            assert pool.submit(memo_size).result(timeout=60) == (
                tasks.RELATION_MEMO_ENTRIES
            )
        finally:
            provider.close()


class TestFrozenWorkerHeap:
    def test_a_pool_worker_is_frozen_after_its_first_task(self, pair_task):
        context = mp_context()
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            first = pool.submit(run_pair_task, pair_task).result(timeout=60)
            frozen = pool.submit(gc.get_freeze_count).result(timeout=60)
            assert frozen > 0
            again = pool.submit(run_pair_task, pair_task).result(timeout=60)
            # Once per process: the second task froze nothing more.
            assert pool.submit(gc.get_freeze_count).result(timeout=60) == frozen
        assert first.pairs.tolist() == again.pairs.tolist() and first.worker_pid == again.worker_pid


def drop_and_exit(held):
    """A forked child's end: its copy of the side collected, and its
    relation directory's exit hook run."""
    held.clear()
    gc.collect()
    tasks._remove_relation_dir(tasks._RELATION_DIR[1], tasks._RELATION_DIR[0])


class TestRelationFileLifetime:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_a_fork_worker_that_exits_leaves_the_coordinators_file(self):
        held = [InputSide(generate_roads(scale=0.001))]
        tuples_s = list(generate_hydrography(scale=0.001))
        path = held[0].relation.path
        first = ProcessPBSM(2, num_partitions=4, start_method="fork").run(
            held[0], tuples_s, intersects
        )
        assert os.path.exists(path)
        child = multiprocessing.get_context("fork").Process(
            target=drop_and_exit, args=(held,)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0 and os.path.exists(path)
        again = ProcessPBSM(2, num_partitions=4, start_method="fork").run(
            held[0], tuples_s, intersects
        )
        assert again.pairs == first.pairs != [] and not again.degraded_pairs
        # ... and the coordinator's own collection removes it.
        held.clear()
        gc.collect()
        assert not os.path.exists(path)

    def test_collecting_a_side_removes_its_file(self, sides):
        _, side, _ = sides
        copy = InputSide(list(side))
        path = copy.relation.path
        assert path != side.relation.path and os.path.exists(path)
        del copy
        gc.collect()
        assert not os.path.exists(path) and os.path.exists(side.relation.path)

    def test_a_file_taken_off_the_disk_is_written_again(self, sides):
        _, side, _ = sides
        copy = InputSide(list(side))
        gone = copy.relation.path
        os.unlink(gone)
        assert copy.relation.path != gone
        assert Path(copy.relation.path).read_bytes() == Path(side.relation.path).read_bytes()

    def test_exiting_the_interpreter_removes_its_files(self):
        code = (
            "from repro.data import generate_roads\n"
            "from repro.parallel.tasks import InputSide\n"
            "side = InputSide(generate_roads(scale=0.001))\n"
            "print(side.relation.path)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, text=True, check=True,
        )
        path = Path(done.stdout.strip())
        assert path.suffix == ".rel"
        assert not path.exists() and not path.parent.exists()
