"""Flight-recorder integration: journaled runs, deterministic reports.

Three contracts:

* a journaled process run records the full task lifecycle — dispatches,
  worker-side start/finish events (shipped on the result wire), liveness
  heartbeats, sampler ticks, and the schedule itself;
* two chaos runs with the same seed render **byte-identical** report
  bodies naming the planned fault pairs (the acceptance criterion);
* a kill-then-resume run journals the adopted pairs as ``task_replayed``
  and the analyzer excludes them from straggler/critical-path analysis;
* a worker that dies mid-ping cannot keep the others from exiting.
"""

import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import intersects
from repro.data import generate_hydrography, generate_roads
from repro.faults import CoordinatorKilledError, load_plan
from repro.obs import RunJournal, Tracer, analyze_events, render_report
from repro.obs.journal import journal_path, read_journal
from repro.parallel import ProcessPBSM, process, serial_feature_pairs, tasks

SCALE = 0.001
NUM_PARTITIONS = 8
WORKERS = 2


@pytest.fixture(scope="module")
def workload():
    tuples_r = list(generate_roads(scale=SCALE))
    tuples_s = list(generate_hydrography(scale=SCALE))
    expected, _ = serial_feature_pairs(tuples_r, tuples_s, intersects)
    assert expected, "flight-recorder tests need a non-trivial workload"
    return tuples_r, tuples_s, expected


class TestJournaledRun:
    def test_clean_run_records_full_lifecycle(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        journal = RunJournal(journal_path(tmp_path))
        result = ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
        ).run(tuples_r, tuples_s, intersects)
        journal.close()
        assert result.pairs == expected

        records = read_journal(journal_path(tmp_path))
        counts = Counter(r["type"] for r in records)
        assert counts["run_started"] == 1
        assert counts["run_finished"] == 1
        assert counts["partition_sealed"] == 2
        assert counts["schedule"] == 1
        assert counts["task_dispatched"] == NUM_PARTITIONS
        assert counts["task_started"] == NUM_PARTITIONS
        assert counts["task_finished"] == NUM_PARTITIONS
        # Three heartbeats per pair: merge, refine, done.
        assert counts["worker_heartbeat"] == 3 * NUM_PARTITIONS

    def test_worker_events_ride_the_wire(self, tmp_path, workload):
        tuples_r, tuples_s, _ = workload
        journal = RunJournal(journal_path(tmp_path))
        ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
        ).run(tuples_r, tuples_s, intersects)
        journal.close()
        records = read_journal(journal_path(tmp_path))
        started = [r for r in records if r["type"] == "task_started"]
        finished = [r for r in records if r["type"] == "task_finished"]
        # Worker-side events are re-emitted by the coordinator with the
        # producer's clock preserved, so ordering questions stay answerable.
        assert all("worker_t" in r and r["pid"] > 0 for r in started)
        assert all(r["wall_s"] >= 0 for r in finished)
        assert {r["pair"] for r in finished} == set(range(NUM_PARTITIONS))

    def test_sampler_emits_utilization_ticks(
        self, tmp_path, workload, monkeypatch
    ):
        tuples_r, tuples_s, _ = workload
        monkeypatch.setattr(process, "SAMPLE_INTERVAL_S", 0.0001)
        journal = RunJournal(journal_path(tmp_path))
        ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
        ).run(tuples_r, tuples_s, intersects)
        journal.close()
        samples = [
            r for r in read_journal(journal_path(tmp_path))
            if r["type"] == "sample"
        ]
        assert samples, "scheduling loop never sampled"
        tick = samples[0]
        assert set(tick) >= {"queued", "inflight", "done", "total", "workers"}
        assert tick["total"] == NUM_PARTITIONS

    def test_schedule_event_carries_lpt_order(self, tmp_path, workload):
        tuples_r, tuples_s, _ = workload
        journal = RunJournal(journal_path(tmp_path))
        ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
        ).run(tuples_r, tuples_s, intersects)
        journal.close()
        (schedule,) = [
            r for r in read_journal(journal_path(tmp_path))
            if r["type"] == "schedule"
        ]
        costs = [item["cost"] for item in schedule["order"]]
        assert costs == sorted(costs, reverse=True)  # LPT: heaviest first
        assert {item["pair"] for item in schedule["order"]} == set(
            range(NUM_PARTITIONS)
        )


class TestChaosReportDeterminism:
    def _run(self, workload):
        tuples_r, tuples_s, expected = workload
        plan = load_plan("worker_faults", seed=42, num_pairs=NUM_PARTITIONS)
        journal = RunJournal()
        result = ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
            fault_plan=plan,
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        return render_report(analyze_events(journal.records))

    def test_same_seed_runs_render_byte_identical_reports(self, workload):
        # The acceptance criterion: the default report body is a pure
        # function of the workload seed and the fault plan — collateral
        # retries and pool timing must not leak into it.
        assert self._run(workload) == self._run(workload)

    def test_report_names_the_planned_fault_pairs(self, workload):
        report = self._run(workload)
        # worker_faults @ seed 42 over 8 pairs compiles to exactly these
        # injection points (a crash pre-empts same-attempt co-faults).
        assert "`disk_read_error` (pair 0, attempt 0)" in report
        assert "`slow_task` (pair 4, attempt 0)" in report
        assert "`worker_crash` (pair 7, attempt 0)" in report


class TestResumeThenReport:
    def test_replayed_pairs_are_tagged_and_excluded(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload

        def engine(journal, **kwargs):
            return ProcessPBSM(
                WORKERS, num_partitions=NUM_PARTITIONS, journal=journal,
                checkpoint_dir=str(tmp_path / "ckpt"), **kwargs,
            )

        # Kill after ordinal 8: manifest + 2 seals + merging = 4, so four
        # result commits are durable when the coordinator dies.
        first = RunJournal()
        with pytest.raises(CoordinatorKilledError):
            engine(first, kill_coordinator_after=8).run(
                tuples_r, tuples_s, intersects
            )

        second = RunJournal(journal_path(tmp_path))
        tracer = Tracer()
        result = engine(second, tracer=tracer).resume(
            tuples_r, tuples_s, intersects
        )
        second.close()
        assert result.pairs == expected
        assert len(result.resumed_pairs) == 4

        records = read_journal(journal_path(tmp_path))
        replayed = [r for r in records if r["type"] == "task_replayed"]
        assert sorted(r["pair"] for r in replayed) == result.resumed_pairs

        analysis = analyze_events(records)
        assert analysis.resuming is True
        assert analysis.replayed_pairs == result.resumed_pairs
        executed = {p.pair for p in analysis.executed_pairs}
        assert executed.isdisjoint(analysis.replayed_pairs)
        assert executed | set(analysis.replayed_pairs) == set(
            range(NUM_PARTITIONS)
        )
        for stats in analysis.stragglers_by_cost():
            assert stats.pair not in analysis.replayed_pairs

        # Adopted spans carry the replayed tag for the trace-side exclusion.
        adopted = [
            root for root in tracer.roots if root.tags.get("replayed")
        ]
        assert len(adopted) == len(result.resumed_pairs)

        report = render_report(analysis)
        assert "## Resumed work" in report
        assert f"{analysis.replayed_pairs}" in report


class TestHeartbeatChannel:
    def test_a_lock_a_dead_worker_held_does_not_stall_shutdown(self):
        """A worker killed while its queue feeder sends a ping leaves the
        queue's shared write lock taken; the pool's other workers must
        still exit (their unsent pings are dropped)."""
        context = process.mp_context()
        heartbeats = context.Queue()
        heartbeats._wlock.acquire()  # what the dead worker took with it
        pool = ProcessPoolExecutor(
            1, mp_context=context, initializer=tasks.init_pool_worker,
            initargs=(heartbeats,),
        )
        pool.submit(tasks._heartbeat, 0, 0, "done").result(timeout=60)
        shutdown = threading.Thread(target=pool.shutdown, daemon=True)
        shutdown.start()
        shutdown.join(timeout=30)
        if shutdown.is_alive():  # a failing run must not leak the worker
            for worker in pool._processes.values():
                worker.kill()
        assert not shutdown.is_alive()
