"""Fault plans: deterministic compilation, stacking, and (de)serialisation."""

import pytest

from repro.faults import (
    NAMED_SPECS,
    FaultPlan,
    FaultSpec,
    WorkerFaults,
    load_plan,
)


class TestCompilation:
    def test_same_inputs_compile_identically(self):
        spec = NAMED_SPECS["combined"]
        a = FaultPlan.compile(spec, seed=42, num_pairs=8)
        b = FaultPlan.compile(spec, seed=42, num_pairs=8)
        assert a == b
        assert a.worker_faults == b.worker_faults
        assert a.torn_frames == b.torn_frames
        assert a.write_errors == b.write_errors

    def test_seed_varies_the_schedule(self):
        spec = FaultSpec(disk_read_errors=5, worker_crashes=2, torn_frames=2)
        plans = [
            FaultPlan.compile(spec, seed=s, num_pairs=16) for s in range(20)
        ]
        # 20 seeds over a 16-pair domain cannot all collide.
        assert any(plan != plans[0] for plan in plans[1:])

    def test_attempts_stack_per_pair(self):
        # Five read errors on a one-pair domain must land on attempts
        # 0..4 of pair 0 — attempt 0 first, so a bounded retry budget
        # always clears the plan.
        plan = FaultPlan.compile(
            FaultSpec(disk_read_errors=5), seed=3, num_pairs=1
        )
        assert plan.faults_for_pair(0).read_error_attempts == (0, 1, 2, 3, 4)
        assert plan.faults_for_pair(1) is None

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.compile(FaultSpec(), seed=0, num_pairs=0)

    def test_total_faults(self):
        assert FaultSpec().total_faults == 0
        assert NAMED_SPECS["combined"].total_faults == 6

    def test_resilience_drill_plans_compile(self):
        # The serve-chaos drills: one stall pinned to a single pair's
        # attempt 0, and one at-rest cache corruption ordinal (applied by
        # the chaos harness, never by a worker).
        stall = load_plan(
            "deadline_stall", seed=3, num_pairs=8, hang_s=2.5
        )
        assert stall.spec.hangs == 1
        assert stall.max_hang_s == 2.5
        hangs = [
            (pair, wf.hang_attempts)
            for pair, wf in sorted(stall.worker_faults.items())
            if wf.hang_attempts
        ]
        assert len(hangs) == 1
        assert hangs[0][1] == (0,)  # attempt 0: fires on first dispatch

        scrub = load_plan("scrub_corruption", seed=3, num_pairs=8)
        assert scrub.spec.cache_corruptions == 1
        assert len(scrub.cache_corruption_ordinals) == 1
        assert not scrub.worker_faults  # nothing fires inside a worker
        assert FaultPlan.from_dict(scrub.to_dict()) == scrub

    def test_cache_corruptions_count_as_faults(self):
        assert FaultSpec(cache_corruptions=2).total_faults == 2

    def test_max_hang_s(self):
        quiet = FaultPlan.compile(FaultSpec(slow_tasks=1), seed=0, num_pairs=4)
        assert quiet.max_hang_s == 0.0
        hangy = FaultPlan.compile(
            FaultSpec(hangs=1, hang_s=9.5), seed=0, num_pairs=4
        )
        assert hangy.max_hang_s == 9.5


class TestFiring:
    FAULTS = WorkerFaults(
        read_error_attempts=(0, 1, 3),
        crash_attempts=(0,),
        hang_attempts=(1, 2),
        slow_attempts=(1,),
    )

    @pytest.mark.parametrize(
        "attempt, kinds",
        [
            (0, ["worker_crash"]),  # the crash pre-empts the read error
            (1, ["hang", "slow_task", "disk_read_error"]),  # injection order
            (2, ["hang"]),
            (3, ["disk_read_error"]),
            (4, []),
        ],
    )
    def test_firing_table(self, attempt, kinds):
        assert self.FAULTS.firing(attempt) == kinds

    def test_unplanned_pair_fires_nothing(self):
        assert WorkerFaults().firing(0) == []


class TestDiskFullPoints:
    def test_points_compile_deterministically(self):
        spec = NAMED_SPECS["disk_full"]
        a = FaultPlan.compile(spec, seed=7, num_pairs=8)
        b = FaultPlan.compile(spec, seed=7, num_pairs=8)
        assert a.disk_full_points == b.disk_full_points
        assert len(a.disk_full_points) == spec.disk_full == 2

    def test_points_stay_in_category_bounds(self):
        for seed in range(20):
            plan = FaultPlan.compile(
                FaultSpec(disk_full=4), seed=seed, num_pairs=8
            )
            for category, ordinal in plan.disk_full_points:
                assert category in ("spill", "checkpoint")
                bound = 1 << 12 if category == "spill" else 1 << 10
                assert 0 <= ordinal < bound

    def test_adding_disk_full_never_perturbs_other_kinds(self):
        # Disk-full points draw after every earlier fault kind, so a spec
        # that grows a disk_full count keeps the same crash/hang/tear
        # schedule under one seed — committed plans stay stable.
        base = NAMED_SPECS["combined"]
        grown = FaultSpec(
            **{**base.to_dict(), "disk_full": 3}
        )
        a = FaultPlan.compile(base, seed=13, num_pairs=8)
        b = FaultPlan.compile(grown, seed=13, num_pairs=8)
        assert a.worker_faults == b.worker_faults
        assert a.torn_frames == b.torn_frames
        assert a.write_errors == b.write_errors
        assert a.coordinator_kill_ordinals == b.coordinator_kill_ordinals
        assert not a.disk_full_points
        assert len(b.disk_full_points) == 3

    def test_committed_drill_plan_matches_its_compiled_form(self):
        # benchmarks/faultplans/disk_full.json is exactly what its
        # (spec, seed, domain) triple compiles to — nobody hand-edited
        # the artifact into something unreproducible.
        import json
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "faultplans" / "disk_full.json"
        )
        committed = json.loads(path.read_text())
        plan = FaultPlan.compile(
            NAMED_SPECS["disk_full"],
            seed=committed["seed"], num_pairs=committed["num_pairs"],
        )
        assert plan.to_dict() == committed
        # The committed points are spill-only, so the drill's injections
        # fire even without a checkpoint directory.
        assert plan.disk_full_points
        assert all(c == "spill" for c, _ in plan.disk_full_points)

    def test_round_trip_preserves_points(self, tmp_path):
        plan = FaultPlan.compile(NAMED_SPECS["disk_full"], seed=5, num_pairs=8)
        path = plan.save(tmp_path / "df.json")
        assert FaultPlan.load(path).disk_full_points == plan.disk_full_points


class TestSerialisation:
    def test_dict_round_trip_recompiles_equal(self):
        plan = FaultPlan.compile(NAMED_SPECS["combined"], seed=11, num_pairs=6)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan.compile(NAMED_SPECS["disk_error"], seed=4, num_pairs=8)
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"disk_read_errors": 1, "cosmic_rays": 3})


class TestLoadPlan:
    def test_named_plans_resolve(self):
        for name in NAMED_SPECS:
            plan = load_plan(name, seed=1, num_pairs=4)
            assert plan.spec == NAMED_SPECS[name]
            assert plan.num_pairs == 4

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="combined"):
            load_plan("thermonuclear")

    def test_json_file_ignores_cli_seed(self, tmp_path):
        committed = FaultPlan.compile(
            NAMED_SPECS["worker_crash"], seed=99, num_pairs=12
        )
        path = committed.save(tmp_path / "p.json")
        loaded = load_plan(str(path), seed=0, num_pairs=4)
        assert loaded == committed

    def test_hang_s_override_recompiles(self, tmp_path):
        path = FaultPlan.compile(
            NAMED_SPECS["hang"], seed=2, num_pairs=8
        ).save(tmp_path / "hang.json")
        fast = load_plan(str(path), hang_s=1.25)
        assert fast.spec.hangs == 1
        assert fast.max_hang_s == 1.25
        # Only the durations changed; the schedule (which pair, which
        # attempt) is pinned by the seed alone.
        slow = load_plan(str(path))
        assert set(fast.worker_faults) == set(slow.worker_faults)

    def test_worker_faults_are_picklable(self):
        import pickle

        wf = WorkerFaults(read_error_attempts=(0, 1), crash_attempts=(2,))
        assert pickle.loads(pickle.dumps(wf)) == wf
        assert wf.total_points == 3
