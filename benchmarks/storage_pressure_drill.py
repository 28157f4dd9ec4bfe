"""Storage-pressure drill: disk budgets, ENOSPC injection, typed rejects.

Four phases against the real process backend and a real ``python -m
repro serve`` subprocess:

**Phase 1 — meter the unconstrained footprint.**  One run with an
unbounded :class:`~repro.storage.pressure.DiskBudget` records the
workload's peak on-disk footprint (the high watermark) and the baseline
result digest every later phase is compared against.

**Phase 2 — shrink the budget.**  The same workload runs at 1.0x, 0.5x
and 0.25x of that peak.  Every run must finish with a byte-identical
``result_digest`` and ``merge.duplicates_dropped == 0``: under pressure
the engine reclaims, retries once, then degrades the starved pair to
the serial in-memory path — it never drops or double-counts a pair.
The sub-peak budgets must actually deny charges and journal
``disk_pressure`` episodes, or the drill proved nothing.

**Phase 3 — deterministic ENOSPC replay.**  The committed
``benchmarks/faultplans/disk_full.json`` must byte-match what
``FaultPlan.compile`` derives from its (spec, seed, domain) triple, and
plans compiled for three seeds must each inject the same (category,
byte-ordinal) denials — in the same order, with identical digests —
when replayed twice.

**Phase 4 — serve-tier admission.**  A server with a tiny
``--disk-budget`` must answer an over-footprint query with the *typed*
``storage_overload`` reject (carrying ``estimated_bytes`` /
``available_bytes``), never a crash or a partial answer; a generously
budgeted server must serve the same query to the baseline digest.

Run locally with ``PYTHONPATH=src python benchmarks/storage_pressure_drill.py``;
CI runs it in the ``storage-pressure`` job and uploads the out directory.
"""

import json
import sys
from pathlib import Path

from common import WORKERS, drain, start_server
from repro.faults import FaultPlan, load_plan
from repro.faults.plan import NAMED_SPECS
from repro.obs import RunJournal
from repro.parallel import parallel_join
from repro.serve import QuerySpec, ServeClient, result_digest
from repro.storage import DiskBudget

FIELDS = {"dataset": "road_hydro", "scale": 0.004, "workers": WORKERS}
PLAN_PATH = Path(__file__).parent / "faultplans" / "disk_full.json"
PLAN_SEEDS = (0, 1, 2)
FAULT_PAIRS = 8  # matches the specs' default partitions (workers * 4)


def run_once(budget=None, fault_plan=None, journal_path=None, out=None):
    spec = QuerySpec(**FIELDS)
    tuples_r, tuples_s = spec.generate()
    journal = RunJournal(journal_path) if journal_path is not None else None
    kwargs = {}
    if out is not None:
        kwargs["checkpoint_dir"] = str(out)
    result = parallel_join(
        tuples_r, tuples_s, spec.predicate_fn,
        backend="process", workers=spec.workers,
        disk_budget=budget, fault_plan=fault_plan, journal=journal,
        **kwargs,
    )
    return result_digest(result.pairs), result


def journal_records(path, *types):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    if types:
        records = [r for r in records if r["type"] in types]
    return records


def phase_1_meter(out: Path):
    print("== phase 1: meter the unconstrained footprint ==")
    out.mkdir(parents=True, exist_ok=True)
    budget = DiskBudget()  # unbounded: meters, never denies
    digest, result = run_once(budget=budget)
    snap = budget.snapshot()
    peak = snap["high_watermark_bytes"]
    assert peak > 0, snap
    assert snap["denials"] == 0, snap
    assert result.duplicates_dropped == 0, result.duplicates_dropped
    print(f"  peak footprint {peak} bytes {snap['peak_by_category']}; "
          f"baseline digest {digest[:12]}")
    return peak, digest


def phase_2_budgets(out: Path, peak: int, baseline: str) -> None:
    print("== phase 2: byte-identical results under shrinking budgets ==")
    out.mkdir(parents=True, exist_ok=True)
    for fraction in (1.0, 0.5, 0.25):
        cap = int(peak * fraction)
        budget = DiskBudget(cap)
        journal_path = out / f"journal-{fraction:g}.jsonl"
        digest, result = run_once(budget=budget, journal_path=journal_path)
        snap = budget.snapshot()
        assert digest == baseline, (
            f"digest diverged at {fraction:g}x: {digest} != {baseline}"
        )
        assert result.duplicates_dropped == 0, result.duplicates_dropped
        pressure = journal_records(journal_path, "disk_pressure")
        if fraction < 1.0:
            # A sub-peak budget that never denied proved nothing.
            assert snap["denials"] > 0, (fraction, snap)
            assert pressure, f"no disk_pressure events at {fraction:g}x"
        print(f"  {fraction:g}x ({cap} bytes): digest identical, "
              f"{snap['denials']} denial(s), "
              f"{len(result.degraded_pairs)} degraded pair(s), "
              f"{len(pressure)} pressure episode(s), 0 duplicates")


def phase_3_replay(out: Path) -> None:
    print("== phase 3: deterministic ENOSPC injection replay ==")
    out.mkdir(parents=True, exist_ok=True)

    # The committed plan is exactly what its (spec, seed, domain) triple
    # compiles to — nobody hand-edited the JSON into an unreproducible
    # artifact.
    committed = json.loads(PLAN_PATH.read_text())
    recompiled = FaultPlan.compile(
        NAMED_SPECS["disk_full"],
        seed=committed["seed"], num_pairs=committed["num_pairs"],
    )
    assert recompiled.to_dict() == committed, (
        "committed plan drifted from its compiled form"
    )
    plan = load_plan(str(PLAN_PATH))
    assert plan.disk_full_points, "committed plan lost its injection points"
    print(f"  committed plan verified: points {plan.disk_full_points}")

    for seed in PLAN_SEEDS:
        seeded = FaultPlan.compile(
            NAMED_SPECS["disk_full"], seed=seed, num_pairs=FAULT_PAIRS
        )
        replays = []
        for attempt in (1, 2):
            journal_path = out / f"journal-seed{seed}-run{attempt}.jsonl"
            run_dir = out / f"ckpt-seed{seed}-run{attempt}"
            digest, result = run_once(
                fault_plan=seeded, journal_path=journal_path, out=run_dir,
            )
            assert result.duplicates_dropped == 0, result.duplicates_dropped
            injected = [
                (r["category"], r["ordinal"], r.get("kind"))
                for r in journal_records(journal_path, "fault_injected")
                if r.get("kind") == "disk_full"
            ]
            recovered = [
                (r["category"], r.get("action"))
                for r in journal_records(journal_path, "disk_full_recovered")
            ]
            replays.append((digest, injected, recovered))
        (digest_a, injected_a, recovered_a), (digest_b, injected_b,
                                              recovered_b) = replays
        assert digest_a == digest_b, f"seed {seed}: digests diverged"
        assert injected_a == injected_b, (
            f"seed {seed}: injection sequence diverged:\n"
            f"  {injected_a}\n  {injected_b}"
        )
        assert recovered_a == recovered_b, (
            f"seed {seed}: recovery sequence diverged"
        )
        assert injected_a, f"seed {seed}: plan injected nothing"
        print(f"  seed {seed}: {len(injected_a)} injection(s) "
              f"{[(c, o) for c, o, _ in injected_a]} replayed identically, "
              f"recoveries {recovered_a}")


def phase_4_serve(out: Path, peak: int, baseline: str) -> None:
    print("== phase 4: serve-tier spill-aware admission ==")

    # A budget far under the workload's footprint: admission must reject
    # with the typed error before a single spill byte hits disk.
    tiny = out / "tiny"
    proc, port = start_server(tiny, "--disk-budget", str(max(peak // 50, 1)))
    try:
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            response = client.join(**FIELDS)
            assert not response.get("ok"), response
            assert response["error"] == "storage_overload", response
            assert response["estimated_bytes"] > response["available_bytes"], (
                response
            )
            print(f"  tiny budget: typed storage_overload reject "
                  f"(estimated {response['estimated_bytes']} > "
                  f"available {response['available_bytes']})")
            stats = client.stats()["stats"]
            assert stats["outcomes"]["storage_overload"] == 1, stats["outcomes"]
            assert stats["disk"]["used_bytes"] == 0, stats["disk"]
    finally:
        if proc.poll() is None:
            output = drain(proc)
        else:
            output, _ = proc.communicate()
            raise AssertionError(f"server died early:\n{output}")
    assert "storage-overload" in output, output
    pressure = journal_records(tiny / "serve.jsonl", "disk_pressure")
    assert pressure and pressure[0]["estimated_bytes"] > 0, pressure
    print("  admission reject journaled as disk_pressure")

    # A generous budget admits and serves the identical bytes.
    roomy = out / "roomy"
    proc, port = start_server(roomy, "--disk-budget", str(peak * 8))
    try:
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            response = client.join(**FIELDS)
            assert response.get("ok"), response
            assert response["source"] == "miss", response
            assert response["result_sha256"] == baseline, (
                "served digest diverged from baseline"
            )
            stats = client.stats()["stats"]
            assert stats["duplicates_dropped"] == 0, stats
            assert stats["disk"]["used_bytes"] > 0, stats["disk"]
            print(f"  roomy budget: served digest-identical "
                  f"({stats['disk']['used_bytes']} bytes charged)")
    finally:
        if proc.poll() is None:
            drain(proc)
        else:
            output, _ = proc.communicate()
            raise AssertionError(f"server died early:\n{output}")


def main(out_dir: str = "storage-pressure-out") -> int:
    root = Path(out_dir)
    peak, baseline = phase_1_meter(root / "phase-1")
    phase_2_budgets(root / "phase-2", peak, baseline)
    phase_3_replay(root / "phase-3")
    phase_4_serve(root / "phase-4", peak, baseline)
    print("storage pressure ok: budgets at 1.0x/0.5x/0.25x byte-identical, "
          "ENOSPC plans replay deterministically, serve rejects are typed — "
          "0 duplicates dropped throughout")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
