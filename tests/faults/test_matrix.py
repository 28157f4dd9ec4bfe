"""The fault matrix: every failure mode x several plan seeds, one invariant.

For every fault plan that stays within the retry budget, the process
backend must produce the exact sorted feature-id pair set of a fault-free
serial run — recovery is only recovery if the answer is byte-identical.
"""

import pytest

from repro import intersects
from repro.faults import load_plan
from repro.parallel import ProcessPBSM
from tests.conftest import road_hydro

SCALE = 0.001
NUM_PARTITIONS = 8
WORKERS = 2
RETRIES = 3

# Plans with hangs need a timeout that undercuts the injected sleep;
# everything else runs without one so the timeout machinery stays cold.
HANG_S = 3.0
TIMEOUT_S = 1.0

MATRIX = ["disk_error", "torn_frame", "worker_crash", "slow", "combined"]


@pytest.fixture(scope="module")
def workload():
    return road_hydro(SCALE)


def _run_under(plan_name, plan_seed, workload):
    tuples_r, tuples_s, expected = workload
    has_hangs = plan_name in ("hang", "combined")
    plan = load_plan(
        plan_name,
        seed=plan_seed,
        num_pairs=NUM_PARTITIONS,
        hang_s=HANG_S if has_hangs else None,
    )
    engine = ProcessPBSM(
        WORKERS,
        num_partitions=NUM_PARTITIONS,
        fault_plan=plan,
        task_timeout_s=TIMEOUT_S if has_hangs else None,
        max_task_retries=RETRIES,
    )
    result = engine.run(tuples_r, tuples_s, intersects)
    assert result.pairs == expected, (
        f"plan {plan_name!r} seed {plan_seed} changed the join result"
    )
    return result


class TestFaultMatrix:
    @pytest.mark.parametrize("plan_name", MATRIX)
    @pytest.mark.parametrize("plan_seed", [0, 1, 2])
    def test_survives_byte_identical(self, plan_name, plan_seed, workload):
        result = _run_under(plan_name, plan_seed, workload)
        # Every planned fault was at least registered with the run.
        assert any(
            k.startswith("injected_") for k in result.fault_summary
        ), result.fault_summary

    def test_none_plan_is_a_clean_run(self, workload):
        result = _run_under("none", 0, workload)
        assert result.fault_summary == {}
        assert result.degraded_pairs == []
        assert all(t.attempts == 1 and not t.degraded for t in result.tasks)

    def test_replay_is_deterministic(self, workload):
        # Same plan, same data: the recovery path may differ in timing but
        # the answer and the degraded-pair set must replay exactly.
        first = _run_under("torn_frame", 1, workload)
        second = _run_under("torn_frame", 1, workload)
        assert first.pairs == second.pairs
        assert first.degraded_pairs == second.degraded_pairs
        assert first.fault_summary.get("quarantined") == second.fault_summary.get("quarantined")
