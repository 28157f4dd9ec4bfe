"""Kill the coordinator at every distinct checkpoint state, then resume.

The invariant under test is the tentpole's: a run that is killed after
checkpoint ordinal N and then resumed produces the **byte-identical**
sorted feature-id pair set of an uninterrupted serial join — for every N,
under worker-fault plans, with torn logs, and across repeated kills.

Checkpoint ordinal layout for a fresh run (8 partition pairs):
ordinal 1 = manifest init, 2 = merging phase, 3..10 = the eight result
commits, 11 = the complete event.  Spills are not part of it: a resume
re-partitions both sides from the inputs.
"""

import tempfile

import pytest

from repro import intersects
from repro.checkpoint import (
    RESULTS_FILENAME,
    CheckpointMismatchError,
    RunFingerprint,
    replay_result_log,
)
from repro.data import generate_hydrography, generate_roads
from repro.faults import CoordinatorKilledError, load_plan, tear_tail
from repro.obs import MetricsRegistry
from repro.parallel import ProcessPBSM, serial_feature_pairs
from repro.storage.pressure import DiskBudget

SCALE = 0.001
NUM_PARTITIONS = 8
WORKERS = 2

# >= 3 kill ordinals x >= 2 fault plans (the acceptance matrix): one kill
# at the merging transition, two after results have committed.
KILL_ORDINALS = [2, 4, 6]
PLANS = ["none", "disk_error"]


@pytest.fixture(scope="module")
def workload():
    tuples_r = list(generate_roads(scale=SCALE))
    tuples_s = list(generate_hydrography(scale=SCALE))
    expected, _ = serial_feature_pairs(tuples_r, tuples_s, intersects)
    assert expected, "resume matrix needs a non-trivial workload"
    return tuples_r, tuples_s, expected


def make_engine(checkpoint_dir, plan_name="none", **kwargs):
    plan = load_plan(plan_name, seed=0, num_pairs=NUM_PARTITIONS)
    return ProcessPBSM(
        WORKERS,
        num_partitions=NUM_PARTITIONS,
        fault_plan=plan,
        checkpoint_dir=str(checkpoint_dir),
        **kwargs,
    )


def committed_indexes(checkpoint_dir):
    """Pair indexes durably committed in the (single) run's result log."""
    logs = list(checkpoint_dir.glob(f"run-*/{RESULTS_FILENAME}"))
    if not logs:
        return set()
    (log,) = logs
    committed, _intact_bytes, _ended_by = replay_result_log(log)
    return set(committed)


class TestKillResumeMatrix:
    @pytest.mark.parametrize("plan_name", PLANS)
    @pytest.mark.parametrize("kill_at", KILL_ORDINALS)
    def test_kill_then_resume_is_byte_identical(
        self, tmp_path, plan_name, kill_at, workload
    ):
        tuples_r, tuples_s, expected = workload
        engine = make_engine(tmp_path, plan_name,
                             kill_coordinator_after=kill_at)
        with pytest.raises(CoordinatorKilledError) as exc_info:
            engine.run(tuples_r, tuples_s, intersects)
        assert exc_info.value.ordinal == kill_at
        survived = committed_indexes(tmp_path)

        result = make_engine(tmp_path, plan_name).resume(
            tuples_r, tuples_s, intersects
        )
        assert result.pairs == expected
        # Exactly the durably committed pairs were replayed, none re-merged.
        assert set(result.resumed_pairs) == survived
        assert all(
            t.resumed == (t.index in survived) for t in result.tasks
        )

    def test_every_result_ordinal_resumes(self, tmp_path, workload):
        # Kill after each committed result in one run's lifetime: each
        # resume starts from one more replayed pair and ends identically.
        tuples_r, tuples_s, expected = workload
        for kill_at in range(3, 3 + 3):
            ckpt = tmp_path / f"at-{kill_at}"
            engine = make_engine(ckpt, kill_coordinator_after=kill_at)
            with pytest.raises(CoordinatorKilledError):
                engine.run(tuples_r, tuples_s, intersects)
            assert len(committed_indexes(ckpt)) == kill_at - 2
            result = make_engine(ckpt).resume(tuples_r, tuples_s, intersects)
            assert result.pairs == expected
            assert len(result.resumed_pairs) == kill_at - 2

    def test_double_kill_double_resume(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=2).run(
                tuples_r, tuples_s, intersects
            )
        # Second coordinator dies too — later, mid-merge.
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=7).resume(
                tuples_r, tuples_s, intersects
            )
        survived = committed_indexes(tmp_path)
        assert survived  # the second life committed results before dying
        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert set(result.resumed_pairs) == survived


class TestTornState:
    def test_torn_result_log_tail_requeues_only_the_torn_pair(
        self, tmp_path, workload
    ):
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=5).run(
                tuples_r, tuples_s, intersects
            )
        before = committed_indexes(tmp_path)
        assert len(before) == 3
        (log,) = tmp_path.glob(f"run-*/{RESULTS_FILENAME}")
        assert tear_tail(log)
        after = committed_indexes(tmp_path)
        assert len(after) == 2 and after < before

        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert set(result.resumed_pairs) == after
        assert result.fault_summary.get("torn_tail_recovered", 0) >= 1
        # The tail was cut before the resume appended: the finished log
        # replays clean, lists every pair, and a second resume adopts
        # them all instead of finding damage mid-file.
        committed, intact_bytes, ended_by = replay_result_log(log)
        assert ended_by is None and intact_bytes == log.stat().st_size
        assert set(committed) == set(range(NUM_PARTITIONS))
        again = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert again.pairs == expected
        assert again.resumed_pairs == list(range(NUM_PARTITIONS))
        assert not [k for k in again.fault_summary if k.endswith("_discarded")]
        assert "torn_tail_recovered" not in again.fault_summary

    def test_torn_tail_then_a_second_kill_still_converges(
        self, tmp_path, workload
    ):
        # kill -> tear -> resume killed again -> resume: the last life
        # adopts the union of what both earlier lives committed.
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=5).run(
                tuples_r, tuples_s, intersects
            )
        (log,) = tmp_path.glob(f"run-*/{RESULTS_FILENAME}")
        assert tear_tail(log)
        first_life = committed_indexes(tmp_path)
        assert len(first_life) == 2
        # The resumed coordinator's ordinals: 1 = manifest, 2 and 3 = two
        # result commits.
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=3).resume(
                tuples_r, tuples_s, intersects
            )
        both_lives = committed_indexes(tmp_path)
        assert first_life < both_lives and len(both_lives) == 4
        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert set(result.resumed_pairs) == both_lives
        assert not [k for k in result.fault_summary if k.endswith("_discarded")]

    def test_mid_file_damage_resumes_from_the_intact_prefix(
        self, tmp_path, workload
    ):
        # An incomplete run's log damaged part-way keeps its prefix —
        # what the scrubber does to a warm entry, on the path a query
        # takes — and the pairs behind the damage are merged again.
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=5).run(
                tuples_r, tuples_s, intersects
            )
        (log,) = tmp_path.glob(f"run-*/{RESULTS_FILENAME}")
        first_frame_end = 8 + int.from_bytes(log.read_bytes()[:4], "little")
        data = bytearray(log.read_bytes())
        data[first_frame_end + 10] ^= 0xFF  # frame 1 of 3: not the tail
        log.write_bytes(bytes(data))
        prefix = committed_indexes(tmp_path)
        assert len(prefix) == 1

        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert set(result.resumed_pairs) == prefix
        assert result.fault_summary.get("torn_tail_recovered") == 1
        assert not [k for k in result.fault_summary if k.endswith("_discarded")]
        committed, _intact_bytes, ended_by = replay_result_log(log)
        assert ended_by is None
        assert set(committed) == set(range(NUM_PARTITIONS))

    def test_torn_manifest_tail_recovers_the_prefix(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        (manifest,) = tmp_path.glob("run-*/manifest.bin")
        assert tear_tail(manifest)
        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.fault_summary.get("torn_tail_recovered", 0) >= 1

    def test_destroyed_manifest_restarts_but_stays_correct(
        self, tmp_path, workload
    ):
        # Mid-log damage means the manifest cannot be trusted at all: the
        # resume must discard it (and the result log with it) rather than
        # guess, then still converge to the right answer.
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        (manifest,) = tmp_path.glob("run-*/manifest.bin")
        manifest.write_bytes(b"\xff" * 64)
        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.resumed_pairs == []
        assert result.fault_summary.get("manifest_discarded") == 1


class TestResumeSemantics:
    def test_complete_run_resumes_without_remerging(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        first = make_engine(tmp_path).run(tuples_r, tuples_s, intersects)
        assert first.pairs == expected
        again = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert again.pairs == expected
        assert len(again.resumed_pairs) == NUM_PARTITIONS
        assert all(t.resumed for t in again.tasks)

    def test_replayed_pairs_count_in_the_metrics(self, tmp_path, workload):
        """A first life that observed nothing still committed what each
        pair's metrics are derived from."""
        tuples_r, tuples_s, _ = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path / "a", kill_coordinator_after=6).run(
                tuples_r, tuples_s, intersects
            )
        resumed, clean = MetricsRegistry(), MetricsRegistry()
        result = make_engine(tmp_path / "a", metrics=resumed).resume(tuples_r, tuples_s, intersects)
        assert result.resumed_pairs
        make_engine(tmp_path / "b", metrics=clean).run(tuples_r, tuples_s, intersects)
        for name in ("parallel.worker.results", "pbsm.merge.pairs_swept"):
            assert resumed.snapshot()[name] == clean.snapshot()[name]

    def test_run_through_kill_disarms_only_its_own_recovery(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        engine = make_engine(tmp_path, kill_coordinator_after=3)
        result, killed_at = engine.run_through_kill(tuples_r, tuples_s, intersects)
        assert killed_at == 3 and result.pairs == expected
        with pytest.raises(CoordinatorKilledError) as exc_info:
            engine.run(tuples_r, tuples_s, intersects)
        assert exc_info.value.ordinal == 3
        assert engine.kill_coordinator_after == 3

    def test_run_discards_and_starts_over(self, tmp_path, workload):
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        assert committed_indexes(tmp_path)
        # run(), not resume(): "start over" must not adopt stale results.
        result = make_engine(tmp_path).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.resumed_pairs == []

    def test_resume_refuses_a_different_joins_checkpoints(
        self, tmp_path, workload
    ):
        tuples_r, tuples_s, _expected = workload
        make_engine(tmp_path).run(tuples_r, tuples_s, intersects)
        with pytest.raises(CheckpointMismatchError):
            make_engine(tmp_path).resume(tuples_r[:-1], tuples_s, intersects)

    def test_a_per_record_layout_checkpoint_is_never_adopted(
        self, tmp_path, workload, monkeypatch
    ):
        # A run checkpointed under two-layer-v1 left one-frame-per-record
        # spills the block reader must never be pointed at.  The layout is
        # part of the run id, so this engine sees a different join's state:
        # resume refuses it, run starts over — nothing adopted, nothing
        # replayed, no corruption error, same answer.
        tuples_r, tuples_s, expected = workload
        monkeypatch.setattr(
            "repro.checkpoint.manifest.PARTITION_LAYOUT", "two-layer-v1"
        )
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        monkeypatch.undo()
        with pytest.raises(CheckpointMismatchError):
            make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        result = make_engine(tmp_path).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.resumed_pairs == [] and result.degraded_pairs == []
        assert len(list(tmp_path.glob("run-*"))) == 2

    def test_resume_of_an_empty_directory_is_a_fresh_run(
        self, tmp_path, workload
    ):
        tuples_r, tuples_s, expected = workload
        result = make_engine(tmp_path).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.resumed_pairs == []

    def test_worker_count_is_not_part_of_the_fingerprint(
        self, tmp_path, workload
    ):
        tuples_r, tuples_s, expected = workload
        with pytest.raises(CoordinatorKilledError):
            make_engine(tmp_path, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        survived = committed_indexes(tmp_path)
        plan = load_plan("none", seed=0, num_pairs=NUM_PARTITIONS)
        wider = ProcessPBSM(
            WORKERS * 2, num_partitions=NUM_PARTITIONS, fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        result = wider.resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert set(result.resumed_pairs) == survived

    def test_fingerprint_matches_engine_identity(self, tmp_path, workload):
        tuples_r, tuples_s, _expected = workload
        result = make_engine(tmp_path).run(tuples_r, tuples_s, intersects)
        fingerprint = RunFingerprint(
            count_r=len(tuples_r), count_s=len(tuples_s), crc_r=0, crc_s=0,
            predicate="intersects", num_partitions=NUM_PARTITIONS, config={},
        )
        # The run directory the engine created is named by the computed
        # fingerprint; a second store computes the same id from the same
        # inputs (full equality checked via the manifest round trip).
        assert result.checkpoint_run_id.startswith("run-")
        store_dirs = [p.name for p in tmp_path.glob("run-*")]
        assert store_dirs == [result.checkpoint_run_id]
        assert fingerprint.run_id != result.checkpoint_run_id  # crc matters


class TestChaosPlansEndToEnd:
    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_coordinator_kill_plan_then_resume(self, tmp_path, seed, workload):
        tuples_r, tuples_s, expected = workload
        plan = load_plan("coordinator_kill", seed=seed,
                         num_pairs=NUM_PARTITIONS)
        (ordinal,) = plan.coordinator_kill_ordinals
        engine = ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(CoordinatorKilledError) as exc_info:
            engine.run(tuples_r, tuples_s, intersects)
        assert exc_info.value.ordinal == ordinal
        # Resuming with the same plan must not re-arm the kill.
        result = engine.resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected

    def test_torn_manifest_plan_is_survivable_inline(self, tmp_path, workload):
        # A tear not followed by a kill is healed by the next atomic
        # rewrite; the run itself must already survive it.
        tuples_r, tuples_s, expected = workload
        plan = load_plan("torn_manifest", seed=1, num_pairs=NUM_PARTITIONS)
        engine = ProcessPBSM(
            WORKERS, num_partitions=NUM_PARTITIONS, fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        result = engine.run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected
        assert result.fault_summary.get("injected_torn_manifests") == 1


class TestRunDirectory:
    def test_holds_only_the_manifest_and_the_result_log(
        self, tmp_path, workload, monkeypatch
    ):
        # Complete, killed or resumed, a run directory is its manifest and
        # its result log — the spills went with the run's own temporary
        # directory — and the disk budget meters exactly those two files.
        tuples_r, tuples_s, expected = workload
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        budget = DiskBudget()

        def check(ckpt):
            (run_dir,) = ckpt.glob("run-*")
            files = sorted(run_dir.iterdir())
            assert [f.name for f in files] == ["manifest.bin", RESULTS_FILENAME]
            assert budget.used == sum(f.stat().st_size for f in files)
            assert not list((tmp_path / "tmp").glob("repro-pbsm-*"))

        ckpt = tmp_path / "ckpt"
        assert make_engine(ckpt, disk_budget=budget).run(
            tuples_r, tuples_s, intersects
        ).pairs == expected
        check(ckpt)
        with pytest.raises(CoordinatorKilledError):
            make_engine(ckpt, disk_budget=budget, kill_coordinator_after=4).run(
                tuples_r, tuples_s, intersects
            )
        check(ckpt)
        result = make_engine(ckpt, disk_budget=budget).resume(tuples_r, tuples_s, intersects)
        assert result.pairs == expected and len(result.resumed_pairs) == 2
        check(ckpt)
