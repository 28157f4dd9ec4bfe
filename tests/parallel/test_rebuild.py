"""The coordinator's single-source decisions, checked against each other.

* the serial rebuild of a pair (whatever the reason) returns exactly what
  the pooled task for that pair returned;
* a shed ``run_serial`` routes each input side once, not once per
  partition;
* ``spill_footprint`` is to the byte what an unconstrained run meters;
* a run starved of disk, or denied one write, returns the same pairs.
"""

import pytest

from repro import intersects
from repro.checkpoint.manifest import RunFingerprint
from repro.checkpoint.store import CheckpointStore
from repro.core.partition import SpatialPartitioner
from repro.data import generate_hydrography, generate_roads
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import ProcessPBSM
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


@pytest.fixture(scope="module")
def pooled(workload, tmp_path_factory):
    """Each pair's result as a pool worker produced it, read back from a
    checkpointed run's result log."""
    tuples_r, tuples_s = workload
    root = str(tmp_path_factory.mktemp("pooled"))
    engine = ProcessPBSM(2, num_partitions=NUM_PAIRS, checkpoint_dir=root)
    result = engine.run(tuples_r, tuples_s, intersects)
    assert result.degraded_pairs == []
    fingerprint = RunFingerprint.compute(
        InputSide(tuples_r), InputSide(tuples_s), intersects, NUM_PAIRS,
        engine.config,
    )
    committed, torn = CheckpointStore(root, fingerprint).replay_results()
    assert not torn and any(o.pairs for o in committed.values())
    return committed


class TestRebuildPairs:
    @pytest.mark.parametrize(
        "reason",
        ["retry_exhausted", "corrupt_spill", "disk_full", "breaker_shed"],
    )
    def test_rebuild_equals_the_pooled_task(self, workload, pooled, reason):
        tuples_r, tuples_s = workload
        engine = ProcessPBSM(2, num_partitions=NUM_PAIRS)
        committed = []
        side_r, side_s = InputSide(tuples_r), InputSide(tuples_s)
        rebuilt = engine._rebuild_pairs(
            dict.fromkeys(pooled, reason), side_r, side_s,
            engine._partitioner(side_r, side_s), intersects,
            on_result=committed.append,
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
        assert engine._fault_summary() == {"degraded": len(pooled)}

    def test_shed_run_routes_each_side_once(self, workload, monkeypatch):
        tuples_r, tuples_s = workload
        calls = []
        route_all = SpatialPartitioner.route_all

        def counting(self, mbrs):
            calls.append(len(mbrs))
            return route_all(self, mbrs)

        monkeypatch.setattr(SpatialPartitioner, "route_all", counting)
        result = ProcessPBSM(2, num_partitions=NUM_PAIRS).run_serial(
            tuples_r, tuples_s, intersects
        )
        assert calls == [len(tuples_r), len(tuples_s)]
        # A shed run tallies its rebuilt pairs like any other degraded pair.
        assert result.degraded_pairs == list(range(NUM_PAIRS))
        assert result.fault_summary == {"degraded": NUM_PAIRS}


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
