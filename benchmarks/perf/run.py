#!/usr/bin/env python3
"""The repo's performance benchmark.  See README.md beside this file.

Two ways in, one contract:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload in this (fresh) interpreter and prints, as its last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
  that BENCHMARK.json names.
* ``run.py [--seed N] [--workload NAME] [--traced] [--agree]`` is the report:
  it runs each workload through the line above in its own child interpreter
  (so peak RSS, ``lru_cache``s and pools never leak between workloads) and
  prints every metric by name with unit, direction and bound.

Exit status is non-zero on any failed operation or digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1996
SMOKE_SCALE_DIV = 10

EXACT_LAYERS = frozenset({
    "storage.tuples.bytes", "core.partition.replication",
    "core.partition.cov", "core.partition.lpt_speedup",
    "parallel.tasks.spill_bytes", "parallel.tasks.spill_bytes_per_input_byte",
    "parallel.tasks.decode_useful_ratio", "core.pbsm.candidates",
    "core.refine.results", "core.refine.true_hit_ratio",
})
"""Counts and ratios of counts: they must repeat bit-for-bit for one seed."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the timed window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE workload here and end with the result "
                             "line: 0 = end-to-end, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="report: also run the per-layer (traced) runs")
    parser.add_argument("--agree", action="store_true",
                        help="report: run the full set twice and compare")
    parser.add_argument("--rounds", type=int, default=None,
                        help="fixed count of every repeated operation "
                             "instead of the time window and defaults")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scales / {SMOKE_SCALE_DIV}: a wiring check, "
                             "not a measurement")
    args = parser.parse_args()
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.seed < 1:
        parser.error("--seed must be >= 1 (0 means generator defaults)")
    return args


# ---------------------------------------------------------------------- #
# one workload, in this interpreter
# ---------------------------------------------------------------------- #


def environment(workers: int, loadavg_start: float) -> dict:
    import multiprocessing

    import numpy

    from repro.parallel.process import START_METHOD_ENV

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    nproc = os.cpu_count() or 1
    env = {
        "nproc": nproc,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": os.environ.get(START_METHOD_ENV)
        or multiprocessing.get_start_method(),
        "git_commit": commit,
        "loadavg_1m_start": loadavg_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    if workers < 2:
        env["scaling_unreported"] = (
            f"nproc={nproc}: a second worker would be time-sliced, so "
            "parallel.process.scaling reads 0"
        )
    return env


def expected_mismatch(args, workload: str, run) -> list:
    """Committed digests and counts apply to the default seed at full scale;
    on any other seed the cross-path equality inside the run is the gate."""
    if args.seed != DEFAULT_SEED or args.smoke:
        return []
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["workloads"][workload]
    observed = dict(run.detail, digest=run.digest)
    return [
        f"expected {key}={want!r}, observed {observed.get(key)!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


def run_workload(args, contract: dict) -> int:
    started = time.perf_counter()  # set-up includes importing the program
    loadavg_start = os.getloadavg()[0]
    sys.path.insert(0, SRC)
    import workloads

    workers = min(2, os.cpu_count() or 1)
    os.makedirs(OUT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    # Engine spill dirs come from tempfile's default; keep them in here too.
    tempfile.tempdir = tmp_root
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, rounds=args.rounds,
        trace=bool(args.trace), scale_div=SMOKE_SCALE_DIV if args.smoke else 1,
        workers=workers, tmp_root=tmp_root, out_dir=OUT, src_dir=SRC,
        started=started,
    )
    try:
        values = workloads.WORKLOADS[args.workload](run)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp_root, ignore_errors=True)
    env = environment(workers, loadavg_start)
    run.detail["samples"]["calibration"] = [
        round(wall, 4) for wall in run.calibration
    ]

    declared = contract["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics BENCHMARK.json does not name: {unknown}")
    if not args.trace and len(values) != len(declared):
        raise RuntimeError("an end-to-end metric is missing from this run")
    for failure in run.failures:
        print(f"FAILED {failure}")
    mismatches = expected_mismatch(args, args.workload, run)
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}")
    metrics = {}
    for m in declared:
        # A layer this workload never executes did no work: 0.
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:44s} {value:>16.6f} {m['unit']:10s} "
              f"({m['better']} is better)")
    print("detail " + json.dumps(
        {"env": env, "digest": run.digest, **run.detail}, sort_keys=True
    ))
    correct = run.failed == 0 and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# the report: every workload in its own child interpreter
# ---------------------------------------------------------------------- #


def child(args, workload: str, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.rounds:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(("FAILED", "MISMATCH")):
            print(f"  {workload}: {line}")
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {done.returncode} "
            "without a result line"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].split(" ", 1)[1])
    result["wall_s"] = time.perf_counter() - started
    return result


def run_sets(args, names: list, traced: bool, sets: int) -> list:
    """``sets`` result sets, each ``{workload: {"end_to_end": result,
    "per_layer": result}}``.  The sets alternate run by run, so a slow drift
    of the machine lands on all of them alike."""
    out = [{} for _ in range(sets)]
    kinds = ["end_to_end", "per_layer"] if traced else ["end_to_end"]
    for name in names:
        for trace, kind in enumerate(kinds):
            for results in out:
                result = child(args, name, trace)
                results.setdefault(name, {})[kind] = result
                print(f"# {name} {kind}: {result['wall_s']:.1f}s, "
                      f"{result['attempted']} ops, {result['failed']} failed")
    return out


def print_report(contract: dict, results: dict) -> None:
    names = list(results)
    print(f"\n{'metric':44s} {'unit':10s} {'better':7s} {'bound':>6s}  "
          + "  ".join(f"{n:>14s}" for n in names))
    for kind in ("end_to_end", "per_layer"):
        if not all(kind in results[n] for n in names):
            continue
        for m in contract[kind]:
            cells = "  ".join(
                f"{results[n][kind]['metrics'][m['name']]['value']:>14.4f}"
                for n in names
            )
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            print(f"{m['name']:44s} {m['unit']:10s} {m['better']:7s} "
                  f"{bound:>6s}  {cells}")
    for n in names:
        detail = results[n]["end_to_end"]["detail"]
        print(f"# {n}: {detail['tuples'][0]} x {detail['tuples'][1]} tuples, "
              f"{detail['results']} results, digest {detail['digest'][:16]}, "
              f"samples {detail['samples']}")
        if "per_layer" in results[n]:
            share = results[n]["per_layer"]["detail"].get("replay_share")
            if share:
                print(f"#   replay shares: " + ", ".join(
                    f"{stage} {part:.1%}" for stage, part in share.items()
                ))
    env = results[names[0]]["end_to_end"]["detail"]["env"]
    print("# env: " + json.dumps(env, sort_keys=True))


def all_correct(results: dict) -> bool:
    return all(r["correct"] for per in results.values() for r in per.values())


def print_agreement(contract: dict, first: dict, second: dict) -> bool:
    """Two runs of the same code must agree: end-to-end metrics within their
    bounds, exact per-layer counts and digests bit-for-bit."""
    ok = True
    print(f"\n{'metric':44s} {'workload':15s} {'first':>14s} "
          f"{'second':>14s} {'gap':>8s} {'bound':>6s}")
    for name in first:
        for m in contract["end_to_end"]:
            a, b = (r[name]["end_to_end"]["metrics"][m["name"]]["value"]
                    for r in (first, second))
            gap = abs(a - b) / min(abs(a), abs(b))
            passed = gap <= m["bound"]
            ok &= passed
            print(f"{m['name']:44s} {name:15s} {a:>14.4f} {b:>14.4f} "
                  f"{gap:>8.2%} {m['bound']:>6.2f} "
                  f"{'PASS' if passed else 'FAIL'}")
        for m in contract["per_layer"]:
            if m["name"] not in EXACT_LAYERS:
                continue
            a, b = (r[name]["per_layer"]["metrics"][m["name"]]["value"]
                    for r in (first, second))
            ok &= a == b
            print(f"{m['name']:44s} {name:15s} {a:>14.4f} {b:>14.4f} "
                  f"{'exact':>8s} {'-':>6s} {'PASS' if a == b else 'FAIL'}")
        digests = {r[name][kind]["detail"]["digest"]
                   for r in (first, second) for kind in r[name]}
        ok &= len(digests) == 1
        print(f"{'result digest':44s} {name:15s} "
              f"{'PASS' if len(digests) == 1 else 'FAIL ' + str(digests)}")
    return ok


def report(args, contract: dict) -> int:
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]
    ]
    os.makedirs(OUT, exist_ok=True)
    sets = run_sets(args, names, args.traced or args.agree,
                    2 if args.agree else 1)
    for results in sets:
        print_report(contract, results)
    ok = all(all_correct(results) for results in sets)
    if args.agree:
        ok &= print_agreement(contract, *sets)
    document = {"seed": args.seed, "smoke": args.smoke, "runs": sets}
    with open(os.path.join(OUT, "report.json"), "w") as fh:
        json.dump(document, fh, indent=2)
    print("\nOK" if ok else "\nFAILED: see FAILED/MISMATCH/FAIL lines above")
    return 0 if ok else 1


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.trace is not None:
        return run_workload(args, contract)
    return report(args, contract)


if __name__ == "__main__":
    sys.exit(main())
