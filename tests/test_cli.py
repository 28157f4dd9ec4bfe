"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # ``chaos`` defaults --out to ./run_out (and ``trace`` to
    # ./trace_out): keep both out of the repo root, where ``repro
    # report``'s default argument would read whichever test ran last.
    monkeypatch.chdir(tmp_path)


class TestCLI:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "demo" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SIGMOD 1996" in out

    def test_demo_tiny(self, capsys):
        assert main(["demo", "--scale", "0.001", "--buffer-mb", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "intersecting pairs" in out
        assert "Partition road" in out

    def test_demo_json(self, capsys):
        args = ["demo", "--scale", "0.001", "--buffer-mb", "1.0", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["algorithm"] == "PBSM"
        assert document["scale"] == 0.001
        assert {p["name"] for p in document["phases"]} >= {
            "Partition road", "Partition hydro", "Merge Partitions", "Refinement"
        }

    def test_demo_seed_reproducible(self, capsys):
        def run(seed):
            assert main(["demo", "--scale", "0.001", "--buffer-mb", "1.0",
                         "--json", "--seed", str(seed)]) == 0
            return json.loads(capsys.readouterr().out)

        a, b, c = run(7), run(7), run(8)
        assert a["result_count"] == b["result_count"]
        assert a["candidates"] == b["candidates"]
        assert (a["result_count"], a["candidates"]) != (
            c["result_count"], c["candidates"]
        )

    def test_trace_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "trace_out"
        args = ["trace", "--scale", "0.001", "--buffer-mb", "1.0",
                "--out", str(out)]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "spans" in text

        lines = (out / "trace.jsonl").read_text().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert {"Partition road", "Merge Partitions", "Refinement"} <= names

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["algorithm"] == "PBSM"
        assert "pbsm.num_partitions" in metrics["metrics"]

        chrome = json.loads((out / "chrome_trace.json").read_text())
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        assert len(chrome["traceEvents"]) == len(lines)

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], "PBSM"),
            (["--index-r"], "RTREE"),
            (["--index-r", "--index-s"], "RTREE"),
            (["--index-s"], "PBSM"),
        ],
    )
    def test_plan_scenarios(self, capsys, flags, expected):
        assert main(["plan", "--scale", "0.005", "--buffer-mb", "0.25", *flags]) == 0
        out = capsys.readouterr().out
        assert f"chosen algorithm: {expected}" in out


class TestParallelCLI:
    @pytest.mark.parametrize("backend", ["serial", "simulated", "process"])
    def test_backends_agree_via_cli(self, capsys, backend):
        args = ["parallel", "--backend", backend, "--workers", "2",
                "--scale", "0.002", "--json"]
        if backend != "serial":
            args.append("--verify")
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == backend
        assert document["result_count"] > 0
        assert document["wall_s"] > 0
        if backend != "serial":
            assert document["verified_against_serial"] is True

    def test_process_reports_tasks(self, capsys):
        assert main(["parallel", "--backend", "process", "--workers", "2",
                     "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "partition-pair tasks" in out
        assert "intersecting pairs" in out

    def test_the_sequoia_query_on_either_backend(self, capsys):
        """``--predicate contains``: the paper's landuse x island query, the
        process backend's digest the serial reference's."""
        documents = {}
        for backend in ("serial", "process"):
            assert main(["parallel", "--backend", backend, "--workers", "2",
                         "--dataset", "landuse_island", "--predicate",
                         "contains", "--scale", "0.02", "--json"]) == 0
            documents[backend] = json.loads(capsys.readouterr().out)
        serial, process = documents["serial"], documents["process"]
        assert serial["predicate"] == process["predicate"] == "contains"
        assert process["result_digest"] == serial["result_digest"]
        assert process["result_count"] == serial["result_count"] > 100
        assert process["merge"]["duplicates_dropped"] == 0
        # Containment is the narrower question of the same pair.
        assert main(["parallel", "--backend", "serial", "--dataset",
                     "landuse_island", "--scale", "0.02", "--json"]) == 0
        overlap = json.loads(capsys.readouterr().out)
        assert overlap["predicate"] == "intersects"
        assert overlap["result_count"] > serial["result_count"]

    @pytest.mark.parametrize("flags, message", [
        (["--predicate", "contains"], "needs polygon inputs"),
        (["--predicate", "touches"], "unknown predicate"),
    ])
    def test_a_predicate_the_query_spec_refuses_is_a_usage_error(
        self, capsys, flags, message
    ):
        assert main(["parallel", "--backend", "serial", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_seed_changes_workload(self, capsys):
        def run(seed):
            assert main(["parallel", "--backend", "serial", "--scale", "0.002",
                         "--seed", str(seed), "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        a, b, c = run(7), run(7), run(8)
        assert a["result_count"] == b["result_count"]
        assert a["result_count"] != c["result_count"]


class TestChaosCLI:
    def test_none_plan_is_a_clean_survival(self, capsys):
        args = ["chaos", "--plan", "none", "--scale", "0.001",
                "--workers", "2", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["survived"] is True
        assert document["fault_summary"] == {}
        assert document["faults"]["injected"] == 0
        assert document["result_count"] == document["reference_count"]

    def test_torn_frame_plan_survives_with_tallies(self, capsys):
        args = ["chaos", "--plan", "torn_frame", "--scale", "0.001",
                "--workers", "2", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["survived"] is True
        assert document["faults"]["injected"] >= 1
        assert document["faults"]["quarantined"] == 1
        assert document["faults"]["degraded"] == 1

    def test_unknown_plan_exits_2(self, capsys):
        assert main(["chaos", "--plan", "thermonuclear"]) == 2
        assert "chaos:" in capsys.readouterr().err

    def test_hang_timeout_mismatch_exits_2(self, capsys):
        args = ["chaos", "--plan", "hang", "--timeout", "5.0",
                "--hang-s", "1.0"]
        assert main(args) == 2
        assert "never trip" in capsys.readouterr().err

    def test_bench_out_writes_schema_valid_faults_block(self, capsys, tmp_path):
        from repro.obs.bench import load_bench_file

        out = tmp_path / "BENCH_chaos.json"
        args = ["chaos", "--plan", "disk_error", "--scale", "0.001",
                "--workers", "2", "--json", "--bench-out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        document = load_bench_file(out)  # re-validates against the schema
        faults = document["records"][0]["faults"]
        assert faults["survived"] is True
        assert faults["injected"] >= 1
        assert faults["plan"]["spec"]["disk_read_errors"] == 2

    def test_committed_plan_file_resolves(self, capsys):
        from pathlib import Path

        plan_path = (Path(__file__).resolve().parents[1]
                     / "benchmarks" / "faultplans" / "combined.json")
        args = ["chaos", "--plan", str(plan_path),
                "--scale", "0.001", "--workers", "2", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["survived"] is True
        assert document["plan"] == "combined"


class TestFlightRecorderCLI:
    def _chaos_run(self, tmp_path, name="run"):
        out = str(tmp_path / name)
        args = ["chaos", "--plan", "worker_faults", "--seed", "42",
                "--scale", "0.001", "--workers", "2", "--out", out]
        assert main(args) == 0
        return out

    def test_chaos_out_writes_all_artifacts(self, capsys, tmp_path):
        out = Path(self._chaos_run(tmp_path))
        assert "flight recorder" in capsys.readouterr().out
        for name in ("journal.jsonl", "trace.jsonl", "chrome_trace.json",
                     "metrics.json"):
            assert (out / name).exists(), name
        events = json.loads((out / "chrome_trace.json").read_text())
        phases = {e["ph"] for e in events["traceEvents"]}
        assert "i" in phases  # fault instants alongside the X spans

    def test_chaos_then_report_names_fault_pairs(self, capsys, tmp_path):
        out = self._chaos_run(tmp_path)
        capsys.readouterr()
        assert main(["report", out]) == 0
        report = capsys.readouterr().out
        assert "# Run report" in report
        # worker_faults @ seed 42 / 8 pairs: the planned injection points.
        assert "`disk_read_error` (pair 0, attempt 0)" in report
        assert "`slow_task` (pair 4, attempt 0)" in report
        assert "`worker_crash` (pair 7, attempt 0)" in report
        assert "Stragglers" in report

    def test_two_same_seed_reports_are_byte_identical(self, capsys, tmp_path):
        def render(name):
            out = self._chaos_run(tmp_path, name)
            capsys.readouterr()
            assert main(["report", out]) == 0
            return capsys.readouterr().out

        assert render("a") == render("b")

    def test_report_timings_sections_are_opt_in(self, capsys, tmp_path):
        out = self._chaos_run(tmp_path)
        capsys.readouterr()
        assert main(["report", out]) == 0
        default = capsys.readouterr().out
        assert main(["report", out, "--timings"]) == 0
        timed = capsys.readouterr().out
        assert "Measured timings" not in default
        assert "Measured timings (not deterministic)" in timed
        assert timed.startswith(default.rstrip("\n"))

    def test_report_json(self, capsys, tmp_path):
        out = self._chaos_run(tmp_path)
        capsys.readouterr()
        assert main(["report", out, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "process"
        assert {r["kind"] for r in document["fault_ledger"]} == {
            "disk_read_error", "slow_task", "worker_crash"
        }

    def test_report_missing_journal_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "journal.jsonl" in capsys.readouterr().err

    def test_parallel_out_writes_journal(self, capsys, tmp_path):
        out = str(tmp_path / "prun")
        assert main(["parallel", "--workers", "2", "--scale", "0.002",
                     "--out", out]) == 0
        assert "run journal" in capsys.readouterr().out
        lines = (Path(out) / "journal.jsonl").read_text().splitlines()
        types = [json.loads(line)["type"] for line in lines]
        assert types[0] == "run_started" and types[-1] == "run_finished"
        assert "task_finished" in types

    def test_parallel_live_streams_progress(self, capsys):
        assert main(["parallel", "--workers", "2", "--scale", "0.002",
                     "--live"]) == 0
        out = capsys.readouterr().out
        assert "[live]" in out
        assert "tasks scheduled" in out
        assert "done (" in out

    def test_live_rejected_for_serial_backend(self, capsys):
        assert main(["parallel", "--backend", "serial", "--live"]) == 2
        assert "scheduled backend" in capsys.readouterr().err

    def test_simulated_backend_journals_nodes(self, capsys, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["parallel", "--backend", "simulated", "--workers", "3",
                     "--scale", "0.002", "--out", out]) == 0
        lines = (Path(out) / "journal.jsonl").read_text().splitlines()
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("node_finished") == 3


class TestCheckpointCLI:
    def test_parallel_resume_without_dir_exits_2(self, capsys):
        assert main(["parallel", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_parallel_checkpoint_needs_process_backend(self, capsys):
        assert main(["parallel", "--backend", "serial",
                     "--checkpoint-dir", "x"]) == 2
        assert "process" in capsys.readouterr().err

    def test_parallel_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["parallel", "--backend", "process", "--workers", "2",
                "--scale", "0.001", "--checkpoint-dir", ckpt,
                "--verify", "--json"]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["verified_against_serial"] is True
        assert first["checkpoint_run_id"].startswith("run-")
        assert first["resumed_pairs"] == []

        assert main(base + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["verified_against_serial"] is True
        assert second["checkpoint_run_id"] == first["checkpoint_run_id"]
        assert len(second["resumed_pairs"]) == second["tasks"]

    def test_chaos_kill_without_dir_exits_2(self, capsys):
        assert main(["chaos", "--plan", "none",
                     "--kill-coordinator-after", "3"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_chaos_checkpoint_plan_without_dir_exits_2(self, capsys):
        assert main(["chaos", "--plan", "coordinator_kill", "--seed", "3"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_chaos_bad_kill_ordinal_exits_2(self, capsys):
        assert main(["chaos", "--plan", "none", "--checkpoint-dir", "x",
                     "--kill-coordinator-after", "0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_chaos_soft_kill_auto_resumes_in_one_invocation(
        self, capsys, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        args = ["chaos", "--plan", "none", "--scale", "0.001",
                "--workers", "2", "--checkpoint-dir", ckpt,
                "--kill-coordinator-after", "6", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["survived"] is True
        assert document["coordinator_killed_at"] == 6
        # Ordinals 5 and 6 committed two results before the kill; the
        # auto-resume adopted exactly those.
        assert len(document["resumed_pairs"]) == 2
        assert document["faults"]["coordinator_killed_at"] == 6
        assert document["faults"]["resumed_pairs"] == 2

    def test_chaos_coordinator_kill_plan_auto_resumes(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        args = ["chaos", "--plan", "coordinator_kill", "--seed", "3",
                "--scale", "0.001", "--workers", "2",
                "--checkpoint-dir", ckpt, "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["survived"] is True
        assert document["coordinator_killed_at"] is not None

    def test_checkpoints_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["checkpoints", "list",
                     "--dir", str(tmp_path / "nope")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_checkpoints_unknown_run_exits_2(self, capsys, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        for action in ("inspect", "gc"):
            assert main(["checkpoints", action, "run-ffffffffffff",
                         "--dir", str(tmp_path)]) == 2
            assert "unknown run id" in capsys.readouterr().err

    def test_checkpoints_inspect_needs_run_id(self, capsys, tmp_path):
        assert main(["checkpoints", "inspect", "--dir", str(tmp_path)]) == 2
        assert "needs a run id" in capsys.readouterr().err

    def test_checkpoints_list_inspect_gc_lifecycle(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert main(["parallel", "--backend", "process", "--workers", "2",
                     "--scale", "0.001", "--checkpoint-dir", str(ckpt),
                     "--json"]) == 0
        run_id = json.loads(capsys.readouterr().out)["checkpoint_run_id"]

        assert main(["checkpoints", "list", "--dir", str(ckpt),
                     "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [i["run_id"] for i in listed] == [run_id]
        assert listed[0]["state"] == "complete"

        assert main(["checkpoints", "inspect", run_id,
                     "--dir", str(ckpt), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["pairs_done"] == info["pairs_total"]
        assert info["bytes_total"] > 0

        assert main(["checkpoints", "gc", "--dir", str(ckpt), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == [run_id]
        assert report["bytes_freed"] > 0

        assert main(["checkpoints", "list", "--dir", str(ckpt)]) == 0
        assert "no checkpointed runs" in capsys.readouterr().out

    def test_checkpoints_gc_dry_run_previews_without_deleting(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        assert main(["parallel", "--backend", "process", "--workers", "2",
                     "--scale", "0.001", "--checkpoint-dir", str(ckpt),
                     "--json"]) == 0
        run_id = json.loads(capsys.readouterr().out)["checkpoint_run_id"]

        assert main(["checkpoints", "gc", "--dir", str(ckpt),
                     "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["removed"] == [run_id]
        assert report["bytes_freed"] > 0

        # Nothing was deleted: the run still lists, and the text-mode
        # rehearsal says "would remove" instead of "removed".
        assert main(["checkpoints", "list", "--dir", str(ckpt),
                     "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [i["run_id"] for i in listed] == [run_id]
        assert main(["checkpoints", "gc", "--dir", str(ckpt),
                     "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out

    def test_parallel_disk_budget_requires_process_backend(self, capsys):
        assert main(["parallel", "--backend", "serial",
                     "--disk-budget", "1000"]) == 2

    def test_checkpoints_gc_keeps_resumable_runs_by_default(
        self, capsys, tmp_path
    ):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        ckpt = tmp_path / "ckpt"
        # Interrupt a run (real SIGKILL, in a subprocess) so its
        # checkpoints stay resumable.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "chaos", "--plan", "none",
             "--scale", "0.001", "--workers", "2",
             "--checkpoint-dir", str(ckpt),
             "--kill-coordinator-after", "4", "--kill-hard"],
            capture_output=True, env=env,
        )
        assert proc.returncode == -9  # SIGKILL: a real coordinator death

        assert main(["checkpoints", "gc", "--dir", str(ckpt), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == [] and len(report["kept"]) == 1

        assert main(["checkpoints", "gc", "--dir", str(ckpt), "--all",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["removed"]) == 1


def _engine(**options):
    from repro.parallel import ProcessPBSM

    return ProcessPBSM(2, **options)


def _join(**options):
    from repro.core.predicates import intersects
    from repro.parallel import parallel_join

    return parallel_join([], [], intersects, **options)


def _plan(name):
    from repro.faults import load_plan

    return load_plan(name, seed=3)


def _spec(**fields):
    from repro.serve import QuerySpec

    return QuerySpec(**fields)


def _gc(**policy):
    from repro.checkpoint import gc_checkpoint_dir

    return gc_checkpoint_dir(".", **policy)


SMALL = ["--scale", "0.001"]
REFUSED = [
    # (argv, the flag stderr must name, the library call that owns the
    #  refusal — None where the refusal is about the shell and stays here)
    (["parallel", "--resume", *SMALL], "--checkpoint-dir",
     lambda: _engine().resume([], [], None)),
    (["parallel", "--backend", "serial", "--checkpoint-dir", "x", *SMALL],
     "--checkpoint-dir", lambda: _join(backend="serial", checkpoint_dir="x")),
    (["parallel", "--backend", "simulated", "--resume", *SMALL], "--resume",
     lambda: _join(backend="simulated", resume=True)),
    (["parallel", "--backend", "serial", "--disk-budget", "1000", *SMALL],
     "--disk-budget", lambda: _join(backend="serial", disk_budget=object())),
    (["parallel", "--predicate", "contains"], "contains",
     lambda: _spec(predicate="contains")),
    (["parallel", "--backend", "serial", "--live"], "--live", None),
    (["parallel", "--backend", "serial", "--out", "d"], "--out", None),
    (["chaos", "--plan", "none", "--kill-coordinator-after", "3", *SMALL],
     "--checkpoint-dir", lambda: _engine(kill_coordinator_after=3)),
    (["chaos", "--plan", "coordinator_kill", "--seed", "3", *SMALL],
     "--checkpoint-dir", lambda: _engine(fault_plan=_plan("coordinator_kill"))),
    (["chaos", "--plan", "none", "--checkpoint-dir", "x",
      "--kill-coordinator-after", "0", *SMALL], "--kill-coordinator-after",
     lambda: _engine(checkpoint_dir="x", kill_coordinator_after=0)),
    (["chaos", "--plan", "none", "--resume", *SMALL], "--checkpoint-dir",
     lambda: _engine().resume([], [], None)),
    (["chaos", "--plan", "hang", "--timeout", "5", "--hang-s", "1"],
     "--hang-s", None),
    (["chaos", "--plan", "thermonuclear"], "thermonuclear",
     lambda: _plan("thermonuclear")),
    (["checkpoints", "gc", "--dir", ".", "--max-bytes", "0", "--all"],
     "--max-bytes", lambda: _gc(max_bytes=0, all_runs=True)),
    (["query"], "--port", None),
    (["top"], "--port", None),
]


@pytest.mark.parametrize(
    "argv, flag, library", REFUSED, ids=[" ".join(r[0]) for r in REFUSED]
)
def test_a_refused_flag_combination_is_a_usage_error(
    capsys, argv, flag, library
):
    """Exit 2, nothing on stdout, the flag named on stderr — and where the
    code the flag acts on owns the refusal, an API caller is refused too."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]}: ") and flag in captured.err
    if library is not None:
        with pytest.raises(ValueError):
            library()


def test_one_kill_and_resume_behind_the_cli_and_the_server(capsys, tmp_path):
    """``chaos --kill-coordinator-after`` and the server's drill recover a
    soft kill through the same helper: both return an unkilled run's
    answer, part of it adopted from what the dead coordinator committed."""
    from repro.obs import read_journal
    from repro.serve import JoinServer, ServeClient

    run = ["--scale", "0.001", "--workers", "2", "--json"]
    assert main(["parallel", *run]) == 0
    unkilled = json.loads(capsys.readouterr().out)

    assert main(["chaos", "--plan", "none", *run, "--checkpoint-dir",
                 str(tmp_path / "ckpt"), "--kill-coordinator-after", "6"]) == 0
    chaos = json.loads(capsys.readouterr().out)
    assert chaos["survived"] and chaos["coordinator_killed_at"] == 6
    assert chaos["result_count"] == unkilled["result_count"]
    assert len(chaos["resumed_pairs"]) > 0

    server = JoinServer(tmp_path / "cache", tmp_path / "out", workers=2,
                        kill_coordinator_after=6)
    host, port = server.start()
    try:
        with ServeClient(host, port) as client:
            served = client.join(dataset="road_hydro", scale=0.001, workers=2)
    finally:
        server.shutdown()
    assert served["drill"] == {"killed_at_ordinal": 6, "resumed": True}
    assert served["result_sha256"] == unkilled["result_digest"]
    replayed = [r for r in read_journal(Path(served["journal"]) / "journal.jsonl")
                if r["type"] == "task_replayed"]
    assert len(replayed) > 0


def write_serve_journal(root, latencies):
    """A minimal serve root: one query_received/query_done per latency."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    seq = 0
    for i, latency in enumerate(latencies):
        seq += 1
        lines.append({"seq": seq, "t": 0.1 * seq, "type": "query_received",
                      "query": f"query-{i:04d}", "dataset": "road_hydro",
                      "seed": 7})
        seq += 1
        lines.append({"seq": seq, "t": 0.1 * seq, "type": "query_done",
                      "query": f"query-{i:04d}", "source": "miss",
                      "latency_s": latency})
    with (root / "serve.jsonl").open("w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return root


class TestRunsCLI:
    def test_list_show_and_determinism(self, capsys, tmp_path):
        write_serve_journal(tmp_path / "runA", [0.1, 0.2])
        write_serve_journal(tmp_path / "runB", [0.3])

        assert main(["runs", "list", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert main(["runs", "list", str(tmp_path)]) == 0
        assert capsys.readouterr().out == first  # byte-identical
        assert "runA" in first and "runB" in first

        assert main(["runs", "show", str(tmp_path), "runA", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "serve"
        assert record["metrics"]["queries_done"] == 2

        assert main(["runs", "show", str(tmp_path), "missing"]) == 2
        assert "missing" in capsys.readouterr().err

    def test_compare_is_deterministic_and_gates(self, capsys, tmp_path):
        fast = write_serve_journal(tmp_path / "fast", [0.1, 0.1, 0.1])
        slow = write_serve_journal(tmp_path / "slow", [0.4, 0.5, 0.6])

        assert main(["runs", "compare", str(fast), str(slow)]) == 0
        first = capsys.readouterr().out
        assert main(["runs", "compare", str(fast), str(slow)]) == 0
        assert capsys.readouterr().out == first
        assert "# runs compare" in first
        assert "latency_p50_s" in first

        # The seeded regression trips the gate (exit 4)...
        assert main(["runs", "compare", str(fast), str(slow),
                     "--gate", "latency_p50_s", "--threshold", "0.2"]) == 4
        assert "REGRESSION" in capsys.readouterr().out
        # ...and an identical pair passes it.
        assert main(["runs", "compare", str(fast), str(fast),
                     "--gate", "latency_p50_s", "--threshold", "0.2"]) == 0
        capsys.readouterr()

    def test_compare_json_and_metric_restriction(self, capsys, tmp_path):
        fast = write_serve_journal(tmp_path / "fast", [0.1])
        slow = write_serve_journal(tmp_path / "slow", [0.2])
        assert main(["runs", "compare", str(fast), str(slow),
                     "--metric", "latency_p50_s", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = document["rows"]
        assert [r["metric"] for r in rows] == ["latency_p50_s"]
        assert rows[0]["ratio"] == 2.0

    def test_compare_unusable_artifact_exits_2(self, capsys, tmp_path):
        fast = write_serve_journal(tmp_path / "fast", [0.1])
        assert main(["runs", "compare", str(fast),
                     str(tmp_path / "nowhere")]) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_trend_gates_a_growing_metric(self, capsys, tmp_path):
        for i, latency in enumerate([0.1, 0.2, 0.4]):
            write_serve_journal(tmp_path / f"run{i}", [latency] * 2)
        args = ["runs", "compare", str(tmp_path), "--trend",
                "--metric", "latency_p50_s"]
        assert main(args + ["--threshold", "10.0"]) == 0
        out = capsys.readouterr().out
        assert "# runs trend" in out and "slope" in out
        assert main(args + ["--threshold", "0.05"]) == 4
        assert "REGRESSION" in capsys.readouterr().out

    def test_trend_needs_enough_points(self, capsys, tmp_path):
        write_serve_journal(tmp_path / "only", [0.1])
        assert main(["runs", "compare", str(tmp_path), "--trend",
                     "--metric", "latency_p50_s", "--kind", "serve"]) == 2
        assert "needs at least 2" in capsys.readouterr().err


class TestTopCLI:
    def test_once_renders_a_frame_from_a_port_file(self, capsys, tmp_path):
        from repro.serve import JoinServer

        server = JoinServer(tmp_path / "cache", tmp_path / "out", workers=2)
        host, port = server.start()
        port_file = tmp_path / "port.txt"
        port_file.write_text(f"{port}\n")
        try:
            from repro.serve import ServeClient

            with ServeClient(host, port) as client:
                assert client.join(dataset="road_hydro", scale=0.003,
                                   workers=2)["ok"]
            server.sampler.sample()
            assert main(["top", str(port_file), "--once"]) == 0
            frame = capsys.readouterr().out
        finally:
            server.shutdown()
        assert "repro serve" in frame
        assert "completed=1" in frame
        assert "slow log" in frame

    def test_no_port_source_exits_2(self, capsys):
        assert main(["top"]) == 2
        assert "port" in capsys.readouterr().err

    def test_dead_server_exits_1(self, capsys, tmp_path):
        port_file = tmp_path / "port.txt"
        port_file.write_text("1\n")  # nothing listens on port 1
        assert main(["top", str(port_file), "--once"]) == 1
        assert capsys.readouterr().err
