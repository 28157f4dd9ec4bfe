"""Flight-recorder integration: journaled runs, deterministic reports.

Four contracts:

* a journaled process run records the full task lifecycle — dispatches,
  worker-side start/finish events (shipped on the result wire), liveness
  heartbeats, sampler ticks, and the schedule itself;
* two chaos runs with the same seed render **byte-identical** report
  bodies naming the planned fault pairs (the acceptance criterion);
* a kill-then-resume run journals the adopted pairs as ``task_replayed``
  and the analyzer excludes them from straggler/critical-path analysis;
* each journaled run reads only its own heartbeat file, and only its
  complete lines.
"""

import functools
import os
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro import intersects
from repro.faults import CoordinatorKilledError, load_plan
from repro.obs import RunJournal, Tracer, analyze_events, render_report
from repro.obs.journal import journal_path, read_journal
from repro.parallel import ProcessPBSM, process, tasks
from tests.conftest import race, road_hydro

SCALE = 0.001
NUM_PARTITIONS = 8
WORKERS = 2


@pytest.fixture(scope="module")
def workload():
    return road_hydro(SCALE)


def journaled(tmp_path, workload):
    """A journaled run's result and the records of its journal file, by
    type."""
    journal = RunJournal(journal_path(tmp_path))
    result = ProcessPBSM(WORKERS, num_partitions=NUM_PARTITIONS, journal=journal).run(
        *workload[:2], intersects
    )
    journal.close()
    events = defaultdict(list)
    for record in read_journal(journal_path(tmp_path)):
        events[record["type"]].append(record)
    return result, events


class TestJournaledRun:
    def test_clean_run_records_full_lifecycle(self, tmp_path, workload):
        result, events = journaled(tmp_path, workload)
        assert result.pairs == workload[2]
        counts = {kind: len(records) for kind, records in events.items()}
        assert counts["run_started"] == counts["run_finished"] == counts["schedule"] == 1
        assert counts["partition_sealed"] == 2
        assert counts["task_dispatched"] == NUM_PARTITIONS
        assert counts["task_started"] == counts["task_finished"] == NUM_PARTITIONS
        # Three heartbeats per pair: merge, refine, done.
        assert counts["worker_heartbeat"] == 3 * NUM_PARTITIONS

    def test_worker_events_ride_the_wire(self, tmp_path, workload):
        _, events = journaled(tmp_path, workload)
        # Worker-side events are re-emitted by the coordinator with the
        # producer's clock preserved, so ordering questions stay answerable.
        assert all("worker_t" in r and r["pid"] > 0 for r in events["task_started"])
        assert all(r["wall_s"] >= 0 for r in events["task_finished"])
        assert {r["pair"] for r in events["task_finished"]} == set(range(NUM_PARTITIONS))

    def test_sampler_emits_utilization_ticks(self, tmp_path, workload, monkeypatch):
        monkeypatch.setattr(process, "SAMPLE_INTERVAL_S", 0.0001)
        _, events = journaled(tmp_path, workload)
        assert events["sample"], "scheduling loop never sampled"
        tick = events["sample"][0]
        assert set(tick) >= {"queued", "inflight", "done", "total", "workers"}
        assert tick["total"] == NUM_PARTITIONS

    def test_schedule_event_carries_lpt_order(self, tmp_path, workload):
        _, events = journaled(tmp_path, workload)
        (schedule,) = events["schedule"]
        costs = [item["cost"] for item in schedule["order"]]
        assert costs == sorted(costs, reverse=True)  # LPT: heaviest first
        assert {item["pair"] for item in schedule["order"]} == set(range(NUM_PARTITIONS))


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

        # Kill after ordinal 6: manifest + merging = 2, so four result
        # commits are durable when the coordinator dies.
        first = RunJournal()
        with pytest.raises(CoordinatorKilledError):
            engine(first, kill_coordinator_after=6).run(
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


class TestHeartbeatFile:
    def test_co_tenant_runs_each_journal_their_own_heartbeats(self, workload, resident_pool):
        """Two journaled runs racing on one pool (held busy, so it serves
        both): each run's file holds its own pings and no one else's."""
        results = {}

        def run(engine):
            results[engine] = engine.run(*workload[:2], intersects)

        engines = [
            ProcessPBSM(WORKERS, num_partitions=partitions, journal=RunJournal())
            for partitions in (NUM_PARTITIONS, 6)
        ]
        held = resident_pool.acquire(WORKERS, process.mp_context())
        try:
            race(*(functools.partial(run, engine) for engine in engines))
        finally:
            resident_pool.release(held)
        assert resident_pool.generation == 1
        for engine in engines:
            beats = [r for r in engine.journal.records if r["type"] == "worker_heartbeat"]
            assert results[engine].pairs == workload[2]
            assert Counter((r["pair"], r["phase"]) for r in beats) == {
                (task.index, phase): 1
                for task in results[engine].tasks for phase in ("merge", "refine", "done")
            }

    def test_a_ping_after_its_run_creates_nothing(self):
        beats = tasks.HeartbeatFile()
        beats.close()  # the run is over: its file is removed
        tasks._heartbeat(SimpleNamespace(heartbeats=beats.path, index=0, attempt=0), "done")
        assert not os.path.exists(beats.path)

    def test_only_complete_lines_are_read(self):
        beats = tasks.HeartbeatFile()
        ping = SimpleNamespace(heartbeats=beats.path, index=3, attempt=1)
        try:
            tasks._heartbeat(ping, "merge")
            with open(beats.path, "ab") as file:
                file.write(b"4242 3 1 ref")  # a writer torn mid-line
            assert beats.read() == [(os.getpid(), 3, 1, "merge")]
            assert beats.read() == []
        finally:
            beats.close()
        assert not os.path.exists(beats.path)
