"""Run deadlines: cooperative cancellation at every stage of a join.

The contract: ``deadline_s`` bounds the whole run.  Past it the
coordinator stops dispatching, abandons in-flight futures through the
pool-abandonment path, and raises the typed
:class:`~repro.parallel.DeadlineExceededError` — and everything
committed before the expiry stays adoptable, so a retry *resumes*.
"""

import json

import pytest

from repro import intersects
from repro.faults import load_plan
from repro.obs import RunJournal
from repro.parallel import DeadlineExceededError, ProcessPBSM
from tests.conftest import road_hydro

SCALE = 0.002
NUM_PAIRS = 8
STALL_SEED = 3  # pins the hang to one pair's attempt 0 across the suite


@pytest.fixture(scope="module")
def workload():
    return road_hydro(SCALE)


def stall_plan(hang_s):
    return load_plan(
        "deadline_stall", seed=STALL_SEED, num_pairs=NUM_PAIRS, hang_s=hang_s
    )


def journal_types(path):
    return [
        json.loads(line)["type"]
        for line in path.read_text().splitlines()
    ]


class TestValidation:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessPBSM(2, deadline_s=0)
        with pytest.raises(ValueError):
            ProcessPBSM(2, deadline_s=-1.0)

    def test_generous_deadline_changes_nothing(self, workload):
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, deadline_s=300.0
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected


class TestQueuedExpiry:
    def test_expiry_before_any_dispatch_abandons_nothing(
        self, workload, tmp_path
    ):
        # A deadline that cannot survive partitioning expires with the
        # whole pair domain still queued: nothing committed, nothing in
        # flight — and crucially no pool abandonment (a purely queued
        # expiry must not kill a healthy pool other tenants may share).
        tuples_r, tuples_s, _ = workload
        journal = RunJournal(tmp_path / "journal.jsonl")
        engine = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, deadline_s=1e-6, journal=journal,
        )
        with pytest.raises(DeadlineExceededError) as info:
            engine.run(tuples_r, tuples_s, intersects)
        journal.close()
        err = info.value
        assert err.deadline_s == 1e-6
        assert err.completed == 0
        assert err.pending == NUM_PAIRS
        types = journal_types(tmp_path / "journal.jsonl")
        assert "deadline_exceeded" in types
        assert "pool_respawn" not in types


class TestDispatchedExpiry:
    def test_stalled_worker_is_abandoned_through_the_pool(
        self, workload, tmp_path
    ):
        # One pair hangs for longer than the deadline: the expiry finds
        # futures in flight and must retire the pool to walk away from
        # the wedged worker (it cannot be killed without breaking the
        # executor).  Everything harvested before the expiry counts.
        tuples_r, tuples_s, _ = workload
        journal = RunJournal(tmp_path / "journal.jsonl")
        engine = ProcessPBSM(
            2, num_partitions=NUM_PAIRS,
            fault_plan=stall_plan(4.0), deadline_s=1.5, journal=journal,
        )
        with pytest.raises(DeadlineExceededError) as info:
            engine.run(tuples_r, tuples_s, intersects)
        journal.close()
        err = info.value
        assert err.completed + err.pending == NUM_PAIRS
        assert err.pending >= 1  # the stalled pair never committed
        assert "stalled" not in str(err)  # message speaks in pair counts
        assert f"{err.completed} pairs committed" in str(err)
        types = journal_types(tmp_path / "journal.jsonl")
        assert "deadline_exceeded" in types
        assert "pool_respawn" in types  # in-flight work forced abandonment


class TestSerialExpiry:
    def test_run_serial_checks_between_pairs(self, workload):
        # The shed path has no pool to abandon, but the same deadline
        # applies between pair rebuilds.
        tuples_r, tuples_s, _ = workload
        engine = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, deadline_s=0.005
        )
        with pytest.raises(DeadlineExceededError) as info:
            engine.run_serial(tuples_r, tuples_s, intersects)
        err = info.value
        assert err.completed + err.pending == NUM_PAIRS
        assert err.pending >= 1

    def test_run_serial_without_deadline_is_exact(self, workload):
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(2, num_partitions=NUM_PAIRS).run_serial(
            tuples_r, tuples_s, intersects
        )
        assert result.pairs == expected
        assert result.backend == "process-serial"
        assert result.duplicates_dropped == 0

    def test_run_serial_after_a_run_reports_only_its_own_faults(self, workload):
        """One engine, two calls: the shed path writes nothing to disk, so
        the disk_full points the pool run spent are not its to report."""
        tuples_r, tuples_s, expected = workload
        plan = load_plan("disk_full", seed=0, num_pairs=NUM_PAIRS)
        engine, fresh = (ProcessPBSM(2, num_partitions=NUM_PAIRS, fault_plan=plan) for _ in (0, 1))
        pooled = engine.run(tuples_r, tuples_s, intersects)
        assert pooled.pairs == expected and pooled.fault_summary["injected_disk_full"] > 0
        shed, alone = (e.run_serial(tuples_r, tuples_s, intersects) for e in (engine, fresh))
        assert shed.pairs == expected
        assert shed.fault_summary == alone.fault_summary == {"degraded": NUM_PAIRS}


class TestAdoptableState:
    def test_deadlined_checkpoint_resumes_to_the_exact_answer(
        self, workload, tmp_path
    ):
        # A deadlined run's committed prefix is durable: a retry resumes
        # (replaying exactly the committed pairs) and lands on the
        # byte-identical answer — the serve tier's warm-retry story.
        tuples_r, tuples_s, expected = workload
        engine = ProcessPBSM(
            2, num_partitions=NUM_PAIRS,
            fault_plan=stall_plan(4.0), deadline_s=1.5,
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(DeadlineExceededError) as info:
            engine.run(tuples_r, tuples_s, intersects)

        retry = ProcessPBSM(
            2, num_partitions=NUM_PAIRS, checkpoint_dir=str(tmp_path)
        )
        result = retry.resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert len(result.resumed_pairs) == info.value.completed
