"""The coordinator's single-source decisions, checked against each other.

* the serial rebuild of a pair (whatever the reason, the predicate and
  the geometry) returns exactly what the pooled task for that pair
  returned, refining from the sides' own stored records in the form the
  worker's refine took;
* a run routes each input side once — a shed ``run_serial``, and a pool
  run whose spill pass and rebuild of a degraded pair both place tuples;
* ``spill_footprint`` is to the byte what an unconstrained run meters;
* a run starved of disk, or denied one write, returns the same pairs.
"""

import dataclasses

import pytest

from repro import contains, intersects
from repro.checkpoint.manifest import RunFingerprint
from repro.checkpoint.store import CheckpointStore
from repro.core.partition import SpatialPartitioner
from repro.data import (
    generate_hydrography,
    generate_islands,
    generate_landuse_polygons,
    generate_roads,
)
from repro.data.tiger import WISCONSIN
from repro.faults import FaultPlan, FaultSpec, WorkerFaults
from repro.obs import RunJournal, Tracer
from repro.parallel import ProcessPBSM, parallel_join, tasks
from repro.parallel.tasks import InputSide
from repro.storage import DiskBudget

SCALE = 0.002
NUM_PAIRS = 8


@pytest.fixture(scope="module")
def workload():
    return (
        list(generate_roads(scale=SCALE)),
        list(generate_hydrography(scale=SCALE)),
    )


def pooled_run(tuples_r, tuples_s, predicate, root):
    """Each pair's result as a pool worker produced it, read back from a
    checkpointed run's result log."""
    engine = ProcessPBSM(2, num_partitions=NUM_PAIRS, checkpoint_dir=str(root))
    result = engine.run(tuples_r, tuples_s, predicate)
    assert result.degraded_pairs == []
    fingerprint = RunFingerprint.compute(
        InputSide(tuples_r), InputSide(tuples_s), predicate, NUM_PAIRS,
        engine.config,
    )
    committed, torn = CheckpointStore(root, fingerprint).replay_results()
    assert not torn and any(o.pairs for o in committed.values())
    return committed


@pytest.fixture(scope="module")
def pooled(workload, tmp_path_factory):
    return pooled_run(*workload, intersects, tmp_path_factory.mktemp("pooled"))


@pytest.fixture(scope="module")
def joins(workload, pooled, tmp_path_factory):
    """``name → (R, S, predicate, pooled results, pairs columnar?)``:
    polylines under ``intersects`` and polygons under ``contains`` — the
    columnar refine's two cases — and a join it must leave to the loop, an
    R that mixes roads with land-use polygons."""
    roads, hydro = workload
    landuse = list(generate_landuse_polygons(scale=5 * SCALE))
    islands = list(generate_islands(scale=5 * SCALE))
    fields = generate_landuse_polygons(scale=SCALE, universe=WISCONSIN)
    mixed = roads + [
        dataclasses.replace(t, feature_id=len(roads) + i)
        for i, t in enumerate(fields)
    ]
    return {
        "road_hydro": (roads, hydro, intersects, pooled, True),
        "landuse_island": (
            landuse, islands, contains,
            pooled_run(landuse, islands, contains, tmp_path_factory.mktemp("p")),
            True,
        ),
        "mixed": (
            mixed, hydro, intersects,
            pooled_run(mixed, hydro, intersects, tmp_path_factory.mktemp("m")),
            False,
        ),
    }


REASONS = ("retry_exhausted", "corrupt_spill", "disk_full", "breaker_shed")


def rebuilt_pairs(tuples_r, tuples_s, predicate, reason="breaker_shed"):
    """Every pair rebuilt for ``reason``: the outcomes, those committed,
    each pair's ``columnar`` span tag, and the engine's fault tally."""
    tracer = Tracer()
    engine = ProcessPBSM(2, num_partitions=NUM_PAIRS, tracer=tracer)
    committed = []
    side_r, side_s = InputSide(tuples_r), InputSide(tuples_s)
    rebuilt = engine._rebuild_pairs(
        dict.fromkeys(range(NUM_PAIRS), reason), side_r, side_s,
        engine._routing(side_r, side_s), predicate,
        on_result=committed.append,
    )
    columnar = [
        span.tags["columnar"] for span in tracer.find("process.degraded_pair")
    ]
    return rebuilt, committed, columnar, engine._fault_summary()


class TestRebuildPairs:
    @pytest.mark.parametrize(
        "reason,join",
        [
            # (The polyline join's ids are the reasons alone, as they were
            # when it was the only join.)
            pytest.param(reason, join, id=reason + suffix)
            for join, suffix in (
                ("road_hydro", ""), ("landuse_island", "-landuse_island"),
                ("mixed", "-mixed"),
            )
            for reason in REASONS
        ],
    )
    def test_rebuild_equals_the_pooled_task(self, joins, reason, join):
        tuples_r, tuples_s, predicate, pooled, all_columnar = joins[join]
        rebuilt, committed, columnar, tally = rebuilt_pairs(
            tuples_r, tuples_s, predicate, reason
        )
        assert [o.index for o in rebuilt] == sorted(pooled)
        assert committed == rebuilt
        for outcome in rebuilt:
            task = pooled[outcome.index]
            assert outcome.pairs == task.pairs
            assert outcome.candidates == task.candidates
            assert (outcome.count_r, outcome.count_s) == (
                task.count_r, task.count_s
            )
            assert outcome.degraded and outcome.degraded_reason == reason
        assert tally == {"degraded": len(pooled)}
        # The form follows from predicate and geometry, as in a worker:
        # candidates that name a polygon under ``intersects`` — here, some
        # of every pair's — are left to the loop.
        assert columnar == [all_columnar] * NUM_PAIRS

    def test_what_needs_a_tuple_takes_the_loop_to_the_same_answer(self, joins):
        roads, hydro, _, pooled, _ = joins["road_hydro"]
        rebuilt, _, columnar, _ = rebuilt_pairs(
            roads, hydro, lambda r, s: intersects(r, s)
        )
        assert not any(columnar)
        assert [o.pairs for o in rebuilt] == [
            pooled[o.index].pairs for o in rebuilt
        ]
        landuse, islands, *_ = joins["landuse_island"]
        rebuilt, _, columnar, _ = rebuilt_pairs(landuse, islands, intersects)
        assert not any(columnar)
        assert sorted(pair for o in rebuilt for pair in o.pairs) == (
            parallel_join(landuse, islands, intersects, backend="serial").pairs
        ) != []

    @pytest.fixture
    def routed(self, monkeypatch):
        """The length of every input ``route_all`` is called with."""
        calls = []
        route_all = SpatialPartitioner.route_all

        def counting(self, mbrs):
            calls.append(len(mbrs))
            return route_all(self, mbrs)

        monkeypatch.setattr(SpatialPartitioner, "route_all", counting)
        return calls

    def test_shed_run_routes_each_side_once(self, workload, routed):
        tuples_r, tuples_s = workload
        result = ProcessPBSM(2, num_partitions=NUM_PAIRS).run_serial(
            tuples_r, tuples_s, intersects
        )
        assert routed == [len(tuples_r), len(tuples_s)]
        # A shed run tallies its rebuilt pairs like any other degraded pair.
        assert result.degraded_pairs == list(range(NUM_PAIRS))
        assert result.fault_summary == {"degraded": NUM_PAIRS}

    def test_storage_factor_is_tuples_placed_on_every_path(self, workload):
        """... over tuples read — not key-pointer slots, which a shed run
        used to sum."""
        engine = ProcessPBSM(2, num_partitions=NUM_PAIRS)
        pool, shed = (
            run(*workload, intersects) for run in (engine.run, engine.run_serial)
        )
        assert (pool.storage_factor_r, pool.storage_factor_s) == (
            shed.storage_factor_r, shed.storage_factor_s
        )
        assert 1 < pool.storage_factor_r < pool.storage_factor_s

    def test_pool_run_that_degrades_a_pair_routes_each_side_once(
        self, workload, pooled, routed
    ):
        """The spill pass and the rebuild of the pair the pool gave up on
        read one routing."""
        tuples_r, tuples_s = workload
        plan = FaultPlan(
            seed=0, num_pairs=NUM_PAIRS, spec=FaultSpec(disk_read_errors=1),
            worker_faults={3: WorkerFaults(read_error_attempts=(0,))},
        )
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, fault_plan=plan, max_task_retries=0
        ).run(tuples_r, tuples_s, intersects)
        assert routed == [len(tuples_r), len(tuples_s)]
        assert result.degraded_pairs == [3]
        assert result.fault_summary["retry_exhausted"] == 1
        assert result.pairs == sorted(
            pair for task in pooled.values() for pair in task.pairs
        )


class TestSpillFootprint:
    def test_footprint_is_the_metered_spill_peak(self, workload):
        tuples_r, tuples_s = workload
        budget = DiskBudget()  # no ceiling: meters, never denies
        ProcessPBSM(2, num_partitions=NUM_PAIRS, disk_budget=budget).run(
            tuples_r, tuples_s, intersects
        )
        footprint = ProcessPBSM(2, num_partitions=NUM_PAIRS).spill_footprint(
            tuples_r, tuples_s
        )
        assert footprint == budget.snapshot()["peak_by_category"]["spill"] > 0

    def test_empty_input_spills_nothing(self, workload):
        tuples_r, _ = workload
        assert ProcessPBSM(2).spill_footprint(tuples_r, []) == 0


class TestDiskPressure:
    """The block writer charges a frame at a time — some of them only when
    a spill is closed — and recovery rewrites a partition from its routed
    columns; the answer must not notice."""

    def test_half_the_footprint_degrades_but_stays_exact(
        self, workload, pooled
    ):
        tuples_r, tuples_s = workload
        engine = ProcessPBSM(2, num_partitions=NUM_PAIRS)
        cap = engine.spill_footprint(tuples_r, tuples_s) // 2
        budget = DiskBudget(cap)
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, disk_budget=budget
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == sorted(
            pair for task in pooled.values() for pair in task.pairs
        )
        assert result.duplicates_dropped == 0
        summary = result.fault_summary
        assert summary["disk_pressure"] >= 1
        assert summary["disk_degraded"] == len(result.degraded_pairs) >= 1
        assert budget.snapshot()["high_watermark_bytes"] <= cap

    def test_an_injected_denial_is_recovered_by_one_rewrite(
        self, workload, pooled
    ):
        tuples_r, tuples_s = workload
        plan = FaultPlan(
            seed=0, num_pairs=NUM_PAIRS, spec=FaultSpec(disk_full=1),
            disk_full_points=(("spill", 5000),),
        )
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, fault_plan=plan
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == sorted(
            pair for task in pooled.values() for pair in task.pairs
        )
        assert result.degraded_pairs == []
        assert result.fault_summary == {
            "disk_pressure": 1, "disk_full_recovered": 1,
            "injected_disk_full": 1,
        }

    def test_a_denial_after_the_first_partition_spares_the_ones_written(
        self, workload, pooled, tmp_path
    ):
        """A checkpointed side's files are sealed together at its end, so a
        denial at a later partition finds earlier ones still staged: they
        are sealed before the orphan sweep, which must not take them."""
        tuples_r, tuples_s = workload
        engine = ProcessPBSM(2, num_partitions=NUM_PAIRS)
        plan = FaultPlan(
            seed=0, num_pairs=NUM_PAIRS, spec=FaultSpec(disk_full=1),
            disk_full_points=(
                ("spill", engine.spill_footprint(tuples_r, tuples_s) // 3),
            ),
        )
        journal = RunJournal()
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, fault_plan=plan, journal=journal,
            checkpoint_dir=str(tmp_path),
        ).run(tuples_r, tuples_s, intersects)
        [denied] = [r for r in journal.records if r["type"] == "disk_pressure"]
        assert denied["partition"] > 0
        assert result.degraded_pairs == []
        assert result.fault_summary["disk_full_recovered"] == 1
        assert result.pairs == sorted(
            pair for task in pooled.values() for pair in task.pairs
        )
        assert len(list(tmp_path.rglob("part*.[rs].*"))) == 2 * NUM_PAIRS
        assert not list(tmp_path.rglob("*.tmp"))

    def test_a_second_denial_degrades_the_partition_and_nothing_adopts_it(
        self, workload, pooled, tmp_path, monkeypatch
    ):
        """Partition 0 of side ``r`` is denied, rewritten, denied again:
        both its sides become sealed empty files, no side is sealed in
        the manifest, and a resume partitions again from the inputs.
        (Blocks of 64 tuples: a denial spends every point its frame
        spans, so the second must fall in a later frame of the rewrite.)"""
        monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", 64)
        tuples_r, tuples_s = workload
        plan = FaultPlan(
            seed=0, num_pairs=NUM_PAIRS, spec=FaultSpec(disk_full=2),
            disk_full_points=(("spill", 1000), ("spill", 2000)),
        )
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        ).run(tuples_r, tuples_s, intersects)
        assert result.degraded_pairs == [0]
        assert result.fault_summary == {
            "disk_pressure": 1, "disk_degraded": 1, "degraded": 1,
            "injected_disk_full": 2,
        }
        files = sorted(tmp_path.rglob("part0000.*"))
        assert len(files) == 2 and not any(f.stat().st_size for f in files)
        resumed = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, checkpoint_dir=str(tmp_path)
        ).resume(tuples_r, tuples_s, intersects)
        assert resumed.fault_summary == {"resumed_pairs": NUM_PAIRS}
        assert all(f.stat().st_size for f in files)
        assert resumed.pairs == result.pairs == sorted(
            pair for task in pooled.values() for pair in task.pairs
        )
