"""CheckpointStore: the ordinal clock, durability charging, the fault
gate's injection points, and directory-level inspect/gc."""

import pytest

from repro.checkpoint import (
    STATE_COMPLETE,
    STATE_MERGING,
    CheckpointStore,
    JoinManifest,
    ResultLog,
    RunFingerprint,
    gc_checkpoint_dir,
    inspect_checkpoint_dir,
    replay_result_log,
)
from repro.faults import CheckpointFaultGate, CoordinatorKilledError, tear_tail
from repro.faults.plan import FaultPlan, FaultSpec
from repro.parallel import PairTaskResult
from repro.storage import DiskBudget, DiskFullError
from repro.storage.disk import SimulatedDisk


def make_fingerprint(salt=0):
    return RunFingerprint(
        count_r=10 + salt, count_s=20, crc_r=111, crc_s=222,
        predicate="intersects", num_partitions=4, config={"num_tiles": 64},
    )


def make_result(index=0, pairs=((1, 2),)):
    return PairTaskResult(
        index=index, worker_pid=1234, pairs=[tuple(p) for p in pairs],
        candidates=3, count_r=2, count_s=2, wall_s=0.01,
    )


SEAL_R = {"type": "spills_sealed", "side": "r", "files": [], "placed": 0}
SEAL_S = {"type": "spills_sealed", "side": "s", "files": [], "placed": 0}


class TestOrdinalClock:
    def test_every_durable_op_ticks_once(self, tmp_path):
        seen = []
        store = CheckpointStore(
            tmp_path, make_fingerprint(),
            on_durable=lambda o, p, k: seen.append((o, k)),
        )
        with store:
            store.begin(JoinManifest(store.fingerprint))      # ordinal 1
            store.append_event(SEAL_R)                        # ordinal 2
            store.append_result(make_result(0))               # ordinal 3
            store.append_result(make_result(1))               # ordinal 4
        assert store.ordinal == 4
        assert seen == [(1, "manifest"), (2, "manifest"),
                        (3, "result"), (4, "result")]

    def test_callback_fires_after_the_write_is_durable(self, tmp_path):
        # State observed at callback time must already be on disk: a kill
        # fired at ordinal N keeps everything through N.
        store = CheckpointStore(tmp_path, make_fingerprint())
        observed = {}

        def peek(ordinal, path, kind):
            observed[ordinal] = store.manifest_path.read_bytes()

        store.on_durable = peek
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_event(SEAL_R)
        reloaded = JoinManifest.from_bytes(observed[2])
        assert reloaded.events == [SEAL_R]

    def test_durable_writes_charge_the_simulated_disk(self, tmp_path):
        disk = SimulatedDisk()
        store = CheckpointStore(tmp_path, make_fingerprint(), disk=disk)
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_result(make_result())
        # Each durable op pays pages + fsyncs into the model.
        assert disk.stats.fsyncs == 4           # 2 per durable op
        assert disk.stats.random_writes == 2    # 1 per durable op
        assert disk.stats.page_writes >= 2


class TestResultRoundTrip:
    def test_results_replay_by_pair_index(self, tmp_path):
        store = CheckpointStore(tmp_path, make_fingerprint())
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_result(make_result(2, pairs=((5, 6),)))
            store.append_result(make_result(0, pairs=((1, 2), (3, 4))))
        committed, torn = store.replay_results()
        assert not torn
        assert sorted(committed) == [0, 2]
        assert committed[0].pairs == [(1, 2), (3, 4)]
        assert committed[2].pairs == [(5, 6)]

    def test_torn_result_tail_loses_only_the_last_append(self, tmp_path):
        store = CheckpointStore(tmp_path, make_fingerprint())
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_result(make_result(0))
            store.append_result(make_result(1))
        assert tear_tail(store.results_path)
        committed, torn = store.replay_results()
        assert torn
        assert sorted(committed) == [0]
        # The replay cut the tail from the file, not just skipped it.
        assert store.replay_results() == (committed, False)

    def test_a_cut_tail_goes_back_to_the_budget(self, tmp_path):
        """A long-lived ledger (the server's) must not drift upward with
        every repaired entry: what the cut drops was charged."""
        budget = DiskBudget()
        log = tmp_path / "results.log"
        with ResultLog(log, 0, budget=budget) as writer:
            kept = writer.append(make_result(0))
            writer.append(make_result(1))
        assert budget.snapshot()["used_bytes"] == log.stat().st_size > kept
        assert tear_tail(log)
        _committed, intact_bytes, ended_by = replay_result_log(log)
        assert intact_bytes == kept and ended_by is not None
        ResultLog(log, intact_bytes, budget=budget)
        assert budget.snapshot()["used_bytes"] == log.stat().st_size == kept

    def test_discard_results_requeues_everything(self, tmp_path):
        store = CheckpointStore(tmp_path, make_fingerprint())
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_result(make_result(0))
            store.discard_results()
            committed, _ = store.replay_results()
        assert committed == {}
        assert not store.results_path.exists()


class TestFaultGate:
    def test_soft_kill_fires_after_the_planned_ordinal(self, tmp_path):
        gate = CheckpointFaultGate(None, extra_kills=(2,))
        store = CheckpointStore(
            tmp_path, make_fingerprint(), on_durable=gate.after_durable
        )
        with store:
            store.begin(JoinManifest(store.fingerprint))
            with pytest.raises(CoordinatorKilledError) as exc_info:
                store.append_event(SEAL_R)
            assert exc_info.value.ordinal == 2
        assert gate.fired_kills == 1
        # Ordinal 2's write completed before the kill: it must be on disk.
        reloaded = store.load()
        assert reloaded.events == [SEAL_R]

    def test_kill_is_one_shot(self, tmp_path):
        gate = CheckpointFaultGate(None, extra_kills=(1,))
        store = CheckpointStore(
            tmp_path, make_fingerprint(), on_durable=gate.after_durable
        )
        with store:
            with pytest.raises(CoordinatorKilledError):
                store.begin(JoinManifest(store.fingerprint))
            store.manifest = JoinManifest(store.fingerprint)
            store.append_event(SEAL_R)  # ordinal 2: no second kill
        assert gate.fired_kills == 1
        assert not gate.armed

    def test_plan_compiled_tear_damages_the_manifest(self, tmp_path):
        plan = FaultPlan.compile(
            FaultSpec(torn_manifests=1), seed=1, num_pairs=4
        )
        (ordinal,) = plan.torn_manifest_ordinals
        assert 1 <= ordinal <= 4
        events = []
        gate = CheckpointFaultGate(plan, on_event=events.append)
        store = CheckpointStore(
            tmp_path, make_fingerprint(), on_durable=gate.after_durable
        )
        with store:
            store.begin(JoinManifest(store.fingerprint))
            for _ in range(ordinal):  # push past the tear point
                try:
                    store.append_event(SEAL_R)
                except CoordinatorKilledError:  # pragma: no cover
                    pytest.fail("tear-only plan must not kill")
        assert gate.fired_tears == 1
        assert events == ["torn_manifest"]

    def test_named_plans_compile_checkpoint_faults(self):
        kill = FaultPlan.compile(FaultSpec(coordinator_kills=1), seed=3,
                                 num_pairs=8)
        assert len(kill.coordinator_kill_ordinals) == 1
        assert all(o >= 2 for o in kill.coordinator_kill_ordinals)
        # Serialization keeps plans replayable: same dict, same points.
        again = FaultPlan.from_dict(kill.to_dict())
        assert again.coordinator_kill_ordinals == kill.coordinator_kill_ordinals


class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, fields))


class TestDiskFullRecovery:
    """A denied durable write frees completed sibling runs — finished
    with, under pressure — and retries once; then the denial stands."""

    def _complete_sibling(self, root, budget):
        done = CheckpointStore(root, make_fingerprint(1), budget=budget)
        with done:
            done.begin(JoinManifest(done.fingerprint))
            done.append_result(make_result(0))
            done.append_event({"type": "complete", "result_count": 1})
        return done

    def test_denied_manifest_write_reclaims_a_complete_sibling(self, tmp_path):
        budget = DiskBudget()
        sibling = self._complete_sibling(tmp_path, budget)
        sibling_bytes = budget.used
        assert sibling_bytes == sum(
            f.stat().st_size for f in sibling.run_dir.iterdir() if f.is_file()
        )
        budget.max_bytes = sibling_bytes + 8  # no room for a second manifest
        journal = _Recorder()
        store = CheckpointStore(
            tmp_path, make_fingerprint(0), budget=budget, journal=journal
        )
        with store:
            store.begin(JoinManifest(store.fingerprint))
        assert not sibling.run_dir.exists()
        assert budget.denials == 1
        assert budget.used == store.manifest_path.stat().st_size
        assert store.ordinal == 1
        assert store.load().events == []
        assert [
            (kind, fields.get("action"), fields.get("bytes_freed"))
            for kind, fields in journal.events
            if kind != "checkpoint_commit"
        ] == [
            ("disk_pressure", None, None),
            ("disk_full_recovered", "sibling_gc", sibling_bytes),
        ]

    def test_second_denial_propagates_with_the_manifest_intact(self, tmp_path):
        budget = DiskBudget()
        journal = _Recorder()
        store = CheckpointStore(
            tmp_path, make_fingerprint(0), budget=budget, journal=journal
        )
        with store:
            store.begin(JoinManifest(store.fingerprint))
            before = store.manifest_path.read_bytes()
            budget.max_bytes = budget.used  # nothing fits, nothing to free
            with pytest.raises(DiskFullError):
                store.append_event(SEAL_R)
        assert budget.denials == 2
        assert store.manifest_path.read_bytes() == before
        reloaded = CheckpointStore(tmp_path, make_fingerprint(0)).load()
        assert reloaded.events == []
        kinds = [kind for kind, _fields in journal.events]
        assert kinds == ["checkpoint_commit", "disk_pressure"]


class TestHousekeeping:
    def test_sweep_collects_orphan_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, make_fingerprint())
        with store:
            store.begin(JoinManifest(store.fingerprint))
            orphan = store.spill_dir / "r_3.kp.tmp"
            orphan.write_bytes(b"half-written")
            swept = store.sweep_orphans()
        assert [p.endswith("r_3.kp.tmp") for p in swept] == [True]
        assert not orphan.exists()

    def test_sibling_run_ids(self, tmp_path):
        a = CheckpointStore(tmp_path, make_fingerprint(0))
        b = CheckpointStore(tmp_path, make_fingerprint(1))
        with a, b:
            a.begin(JoinManifest(a.fingerprint))
            b.begin(JoinManifest(b.fingerprint))
        assert a.sibling_run_ids() == [b.fingerprint.run_id]
        assert b.sibling_run_ids() == [a.fingerprint.run_id]


class TestInspectAndGC:
    def _seed_runs(self, tmp_path):
        done = CheckpointStore(tmp_path, make_fingerprint(0))
        with done:
            done.begin(JoinManifest(done.fingerprint))
            done.append_event(SEAL_R)
            done.append_event(SEAL_S)
            done.append_event({"type": "phase", "state": STATE_MERGING,
                               "pairs_total": 2})
            done.append_result(make_result(0))
            done.append_result(make_result(1))
            done.append_event({"type": "complete", "result_count": 2})
        half = CheckpointStore(tmp_path, make_fingerprint(1))
        with half:
            half.begin(JoinManifest(half.fingerprint))
            half.append_event(SEAL_R)
        return done, half

    def test_inspect_reports_state_and_progress(self, tmp_path):
        done, half = self._seed_runs(tmp_path)
        infos = {i.run_id: i for i in inspect_checkpoint_dir(tmp_path)}
        assert set(infos) == {done.fingerprint.run_id, half.fingerprint.run_id}
        d = infos[done.fingerprint.run_id]
        assert d.state == STATE_COMPLETE and d.complete
        assert d.pairs_done == 2 and d.pairs_total == 2
        assert d.result_count == 2 and d.bytes_total > 0 and not d.error
        h = infos[half.fingerprint.run_id]
        assert not h.complete and h.pairs_done == 0 and h.pairs_total is None

    def test_inspect_flags_a_corrupt_manifest_instead_of_raising(self, tmp_path):
        done, _half = self._seed_runs(tmp_path)
        (done.manifest_path).write_bytes(b"\x00" * 32)
        info = {i.run_id: i for i in inspect_checkpoint_dir(tmp_path)}[
            done.fingerprint.run_id
        ]
        assert info.state == "corrupt" and info.error

    def test_gc_default_keeps_resumable_runs(self, tmp_path):
        done, half = self._seed_runs(tmp_path)
        report = gc_checkpoint_dir(tmp_path)
        assert report.removed == [done.fingerprint.run_id]
        assert report.kept == [half.fingerprint.run_id]
        assert report.bytes_freed > 0
        assert half.run_dir.is_dir() and not done.run_dir.exists()

    def test_gc_dry_run_previews_without_deleting(self, tmp_path):
        done, half = self._seed_runs(tmp_path)
        rehearsal = gc_checkpoint_dir(tmp_path, dry_run=True)
        assert rehearsal.removed == [done.fingerprint.run_id]
        assert rehearsal.kept == [half.fingerprint.run_id]
        assert rehearsal.bytes_freed > 0
        assert done.run_dir.is_dir() and half.run_dir.is_dir()
        # The real pass removes exactly what the rehearsal promised —
        # same selection code, so the numbers cannot drift.
        real = gc_checkpoint_dir(tmp_path)
        assert real.removed == rehearsal.removed
        assert real.bytes_freed == rehearsal.bytes_freed
        assert not done.run_dir.exists() and half.run_dir.is_dir()

    def test_gc_by_name_and_all(self, tmp_path):
        done, half = self._seed_runs(tmp_path)
        by_name = gc_checkpoint_dir(tmp_path, run_id=half.fingerprint.run_id)
        assert by_name.removed == [half.fingerprint.run_id]
        rest = gc_checkpoint_dir(tmp_path, all_runs=True)
        assert rest.removed == [done.fingerprint.run_id]
        assert inspect_checkpoint_dir(tmp_path) == []
