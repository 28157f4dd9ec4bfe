"""Recovery mechanics: retries, exhaustion, quarantine, degraded rebuilds,
and a coordinator's death taking its workers with it."""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import intersects
from repro.__main__ import main
from repro.data import generate_hydrography, generate_roads
from repro.faults import (
    FaultPlan, FaultSpec, TornFrame, WorkerFaults, WriteError, tear_frame,
)
from repro.parallel import (
    ProcessPBSM,
    WorkerTaskError,
    parallel_join,
    serial_feature_pairs,
    tasks,
)
from repro.storage import DiskBudget

SCALE = 0.001


@pytest.fixture(scope="module")
def workload():
    tuples_r = list(generate_roads(scale=SCALE))
    tuples_s = list(generate_hydrography(scale=SCALE))
    expected, _ = serial_feature_pairs(tuples_r, tuples_s, intersects)
    return tuples_r, tuples_s, expected


def _always_failing_plan():
    # Read errors on attempts 0..3 of the only pair: a retry budget of 3
    # (four dispatches) can never clear them, forcing the degraded path.
    return FaultPlan(
        seed=0,
        num_pairs=1,
        spec=FaultSpec(disk_read_errors=4),
        worker_faults={0: WorkerFaults(read_error_attempts=(0, 1, 2, 3))},
    )


class TestRetryExhaustion:
    def test_degraded_rebuild_preserves_the_answer(self, workload):
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(
            2, num_partitions=1,
            fault_plan=_always_failing_plan(), max_task_retries=3,
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.degraded_pairs == [0]
        summary = result.fault_summary
        assert summary["task_failures"] == 4
        assert summary["retries"] == 3
        assert summary["retry_exhausted"] == 1
        assert summary["degraded"] == 1
        assert result.tasks[0].degraded is True


class TestSpillWriteError:
    def test_a_write_error_rewrites_the_partition_it_hit(
        self, workload, monkeypatch
    ):
        """... not the side: what the run charges beyond its footprint is
        at most that partition's two files."""
        monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", 16)
        tuples_r, tuples_s, expected = workload
        ordinal = len(tuples_r) - 1  # the side's last window: all but written
        plan = FaultPlan(
            seed=0, num_pairs=4, spec=FaultSpec(disk_write_errors=1),
            write_errors=(WriteError(side="r", ordinal=ordinal),),
        )
        budget = DiskBudget()  # no ceiling: meters every byte charged
        engine = ProcessPBSM(
            2, num_partitions=4, fault_plan=plan, disk_budget=budget
        )
        result = engine.run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.fault_summary == {
            "injected_write_errors": 1, "partition_retries": 1,
        }
        side_r, side_s = tasks.InputSide(tuples_r), tasks.InputSide(tuples_s)
        hit = next(  # the first partition with a block in that window
            routed for routed in engine._routing(side_r, side_s)["r"]
            if ordinal // 16 in routed.ordinal // 16
        )
        assert 0 < budget.charged_clock["spill"] - engine.spill_footprint(
            tuples_r, tuples_s
        ) <= tasks.spill_bytes(hit, side_r)


class TestQuarantine:
    def test_corruption_skips_retries_and_degrades(self, workload):
        tuples_r, tuples_s, expected = workload
        plan = FaultPlan(
            seed=0,
            num_pairs=4,
            spec=FaultSpec(torn_frames=1),
            torn_frames=(TornFrame(side="r", partition=2, frame=0),),
        )
        result = ProcessPBSM(
            2, num_partitions=4, fault_plan=plan, max_task_retries=3,
        ).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        summary = result.fault_summary
        assert summary["quarantined"] == 1
        assert summary["degraded"] == 1
        # Corruption is not transient: no retry may be burned on it.
        assert "retries" not in summary
        assert len(result.degraded_pairs) == 1


    @pytest.mark.parametrize("frame", [0, -1])
    def test_a_torn_tuple_spill_is_quarantined_and_rebuilt(
        self, workload, frame, monkeypatch
    ):
        # The tuple reader decodes lazily but checks every frame, so damage
        # anywhere in a .tup file — even in tuples no candidate needs —
        # must take the same quarantine-and-rebuild path as a torn .kp.
        # (Fault plans only tear .kp files; this tears a .tup by hand,
        # after partitioning and before any task reads it.)
        monkeypatch.setattr(tasks, "SPILL_BLOCK_RECORDS", 16)
        tuples_r, tuples_s, expected = workload

        class TearsATupleSpill(ProcessPBSM):
            def _build_tasks(self, spills_r, spills_s, predicate):
                built = super()._build_tasks(spills_r, spills_s, predicate)
                assert tear_frame(built[0].tuples_s_path, frame) >= 0
                return built

        result = TearsATupleSpill(2, num_partitions=4).run(
            tuples_r, tuples_s, intersects
        )
        assert result.pairs == expected
        assert result.fault_summary == {
            "task_failures": 1, "quarantined": 1, "degraded": 1,
        }
        assert len(result.degraded_pairs) == 1


class TestWorkerTaskError:
    def test_pickle_round_trip(self):
        err = WorkerTaskError(
            pair_index=5, attempt=2, worker_pid=4242,
            cause_type="InjectedFaultError", cause_message="injected",
            traceback_text="Traceback ...", corruption=True,
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerTaskError)
        assert clone.pair_index == 5
        assert clone.attempt == 2
        assert clone.worker_pid == 4242
        assert clone.corruption is True
        assert clone.traceback_text == "Traceback ..."
        assert str(clone) == str(err)

    def test_message_names_pair_attempt_and_worker(self):
        err = WorkerTaskError(
            pair_index=3, attempt=1, worker_pid=0,
            cause_type="OSError", cause_message="disk on fire",
        )
        text = str(err)
        assert "partition pair 3" in text
        assert "attempt 1" in text
        assert "<unknown>" in text  # pid 0 = failure before a worker reported
        assert "disk on fire" in text


class TestConfiguration:
    def test_fault_plan_requires_the_process_backend(self):
        plan = FaultPlan(seed=0, num_pairs=1, spec=FaultSpec())
        for backend in ("serial", "simulated"):
            with pytest.raises(ValueError, match="process backend"):
                parallel_join([], [], intersects, backend=backend,
                              fault_plan=plan)

    def test_recovery_knobs_validated(self):
        with pytest.raises(ValueError):
            ProcessPBSM(2, task_timeout_s=0)
        with pytest.raises(ValueError):
            ProcessPBSM(2, task_timeout_s=-1.5)
        with pytest.raises(ValueError):
            ProcessPBSM(2, max_task_retries=-1)


def group_members(pgid):
    """The live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            # "pid (comm) state ppid pgrp ...", and comm may hold spaces.
            state, _ppid, pgrp = (
                (entry / "stat").read_text().rpartition(")")[2].split()[:3]
            )
        except (OSError, ValueError):
            continue  # not a process, or one that exited under the scan
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestCoordinatorDeath:
    def test_a_hard_killed_coordinator_leaves_no_worker_behind(
        self, tmp_path, capsys
    ):
        """SIGKILL mid-merge: the pool is never shut down, and fork-started
        workers hold each other's pipe ends, so no end-of-file stops them
        — their parent watchdog must.  Then the run resumes."""
        args = [
            "chaos", "--plan", "none", "--scale", "0.01", "--workers", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--out", str(tmp_path / "out"),
        ]
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", *args,
             "--kill-coordinator-after", "6", "--kill-hard"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own group: it and its workers
        )
        assert coordinator.wait(timeout=120) == -signal.SIGKILL
        deadline = time.monotonic() + 2.0
        while group_members(coordinator.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = group_members(coordinator.pid)
        for pid in orphans:  # a failing run must not leak them either
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

        assert main([*args, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "survived: OK" in out
