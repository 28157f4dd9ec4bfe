"""Command-line entry point: ``python -m repro``.

``python -m repro --help`` lists the subcommands, ``python -m repro <cmd>
--help`` each one's flags, and ``python -m repro info`` prints the same
list beside the package inventory: the parser in :func:`build_parser` is
the one description of this surface, so nothing here restates it.

This module parses, dispatches and prints; it decides nothing twice:

* ``parallel`` and ``chaos`` are one function (:func:`_cmd_join`) —
  ``chaos`` is ``parallel`` with a fault plan, fixed to the process
  backend and always verified against the serial reference.
* Which flag combinations are legal is for the code the flag acts on to
  say: ``parallel_join`` / ``ProcessPBSM`` / ``gc_checkpoint_dir`` raise
  ``ValueError`` naming the flag, and :func:`main` prints it as
  ``<cmd>: message`` with exit 2.  Only what is about the shell itself is
  checked here (``--live``/``--out`` on a backend with nothing to
  record, a hang no longer than the task timeout, a missing port).
* Recovery from a soft coordinator kill is
  :meth:`~repro.parallel.process.ProcessPBSM.run_through_kill`; what a
  recorded run is handed and writes is :class:`~repro.obs.export.RunRecorder`;
  ``--live`` is :func:`~repro.obs.journal.live_renderer`.

Every subcommand imports what it needs when it runs, so ``info`` or a
usage error never pays for the engine.
"""

from __future__ import annotations

import argparse
import json
import sys


def _tiger_relations(args: argparse.Namespace):
    """The single-node subcommands' input: a database of ``--buffer-mb``
    holding TIGER roads and hydrography at ``--scale``."""
    from .data import make_tiger_datasets
    from .storage import Database

    db = Database(buffer_mb=args.buffer_mb)
    rels = make_tiger_datasets(
        db, scale=args.scale, include=("road", "hydro"),
        seed=getattr(args, "seed", None),
    )
    db.pool.clear()
    return db, rels["road"], rels["hydro"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import PBSMJoin, intersects
    from .obs import report_to_dict

    db, road, hydro = _tiger_relations(args)
    if not args.json:
        print(
            f"loaded {len(road)} roads and {len(hydro)} "
            f"hydrography features (scale={args.scale})"
        )
    result = PBSMJoin(db.pool).run(road, hydro, intersects)
    if args.json:
        document = report_to_dict(result.report)
        document["scale"] = args.scale
        document["buffer_mb"] = args.buffer_mb
        document["seed"] = args.seed
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"{len(result)} intersecting pairs\n")
    print(result.report.format_table())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import PBSMJoin, intersects
    from .obs import MetricsRegistry, Tracer
    from .obs.export import write_run_dir

    db, road, hydro = _tiger_relations(args)
    db.pool.reset_counters()
    tracer = Tracer(disk=db.disk, pool=db.pool)
    metrics = MetricsRegistry()
    result = PBSMJoin(db.pool, tracer=tracer, metrics=metrics).run(
        road, hydro, intersects
    )
    trace_path, metrics_path, chrome_path = write_run_dir(
        args.out,
        tracer,
        metrics,
        extra={
            "algorithm": "PBSM",
            "scale": args.scale,
            "buffer_mb": args.buffer_mb,
            "result_count": len(result),
        },
    )

    print(result.report.format_table())
    print(f"\n{tracer.span_count} spans from {len(result)} result pairs")
    print(f"trace:   {trace_path}")
    print(f"metrics: {metrics_path}")
    print(f"timeline: {chrome_path}  (open in chrome://tracing or Perfetto)")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    """``parallel`` and ``chaos``: one join from a shell.

    ``chaos`` is ``parallel`` with a fault plan — the parser fixes what it
    does not offer (process backend, road x hydro, ``intersects``, always
    verified) — so inputs, recording, engine, recovery and exit codes are
    written once; only the two reports differ, as their readers expect.
    """
    import time
    from concurrent.futures import ProcessPoolExecutor
    from contextlib import nullcontext

    from .checkpoint import CheckpointMismatchError
    from .obs import RunRecorder, live_renderer
    from .parallel import ProcessPBSM, parallel_join
    from .parallel.process import mp_context
    from .parallel.tasks import init_pool_worker
    from .serve.query import QuerySpec
    from .storage import DiskBudget, DiskFullError

    plan = None
    chaos_options = {}
    if args.plan is not None:
        from .faults import load_plan

        plan = load_plan(
            args.plan, seed=args.plan_seed, num_pairs=args.partitions,
            hang_s=args.hang_s,
        )
        if 0 < plan.max_hang_s <= args.timeout:
            raise ValueError(
                f"plan hangs for {plan.max_hang_s}s but the task timeout "
                f"is {args.timeout}s; hangs would never trip it "
                "(raise --hang-s or lower --timeout)"
            )
        chaos_options = dict(
            num_partitions=args.partitions, fault_plan=plan,
            task_timeout_s=args.timeout, max_task_retries=args.retries,
            kill_coordinator_after=args.kill_coordinator_after,
            kill_hard=args.kill_hard,
        )
    # A served query's names, rules and inputs: ``contains`` needs a
    # polygon pair, and no --seed is seed 0, each generator's own.
    spec = QuerySpec(args.dataset, args.scale, args.seed or 0, args.predicate,
                     args.workers)
    predicate = spec.predicate_fn
    if (args.live or args.out) and args.backend == "serial":
        raise ValueError(
            "--live/--out need a scheduled backend (process or simulated); "
            "the serial reference has no journal to record"
        )
    budget = (
        DiskBudget(args.disk_budget) if args.disk_budget is not None else None
    )

    # With workers to spare, a child generates S while this process
    # generates R; it is gone before the engine starts.
    started = time.perf_counter()
    with (ProcessPoolExecutor(1, mp_context=mp_context(args.start_method),
                              initializer=init_pool_worker)
          if spec.workers >= 2 else nullcontext()) as pool:
        side_r, side_s = spec.generate(pool)
    generate_s = time.perf_counter() - started

    # A recorded run: `parallel --out` keeps the journal, `chaos --out`
    # the whole flight recorder `python -m repro report` diagnoses.
    recorder = None
    if args.live or args.out:
        recorder = RunRecorder(
            args.out or None,
            spans=plan is not None,
            on_event=live_renderer(sys.stdout) if args.live else None,
        )
    observers = recorder.observers if recorder is not None else {}
    killed_at = None
    try:
        if args.backend == "process":
            engine = ProcessPBSM(
                args.workers, start_method=args.start_method,
                checkpoint_dir=args.checkpoint_dir, disk_budget=budget,
                **chaos_options, **observers,
            )
            result, killed_at = engine.run_through_kill(
                side_r, side_s, predicate, resume=args.resume
            )
        else:
            result = parallel_join(
                side_r, side_s, predicate,
                backend=args.backend, workers=args.workers,
                scheme=args.scheme, checkpoint_dir=args.checkpoint_dir,
                resume=args.resume, disk_budget=budget, **observers,
            )
    except CheckpointMismatchError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except DiskFullError as exc:
        print(f"{args.command}: disk budget exhausted past every recovery: "
              f"{exc}", file=sys.stderr)
        return 3
    finally:
        if recorder is not None:
            recorder.journal.close()
    if plan is not None and recorder is not None:
        recorder.write(
            extra={"plan": plan.to_dict(), "scale": args.scale,
                   "workers": args.workers, "partitions": args.partitions},
        )
    verified = None
    if args.verify and args.backend != "serial":
        reference = parallel_join(side_r, side_s, predicate, backend="serial")
        verified = reference.pairs == result.pairs
    if plan is not None:
        _report_chaos(
            args, plan, result, len(reference), verified, killed_at, recorder
        )
    else:
        _report_parallel(args, result, (len(side_r), len(side_s)), generate_s,
                         verified, budget, recorder)
    return 0 if verified in (None, True) else 1


def _report_parallel(args, result, sizes, generate_s, verified, budget, recorder) -> None:
    from .serve.query import result_digest

    if args.json:
        document = {
            "backend": result.backend,
            "workers": args.workers,
            "dataset": args.dataset,
            "predicate": args.predicate,
            "scale": args.scale,
            "seed": args.seed,
            "result_count": len(result),
            "result_digest": result_digest(result.pairs),
            "merge": {
                "duplicates_dropped": result.duplicates_dropped,
                "coordinator_merge_s": round(result.coordinator_merge_s, 6),
            },
            "wall_s": round(result.wall_s, 6),
            "generate_s": round(generate_s, 6),
            "critical_path_s": round(result.critical_path_s, 6),
            "total_work_s": round(result.total_work_s, 6),
            "speedup": round(result.speedup, 4),
            "storage_factor_r": round(result.storage_factor_r, 4),
            "storage_factor_s": round(result.storage_factor_s, 4),
            "nodes": [
                {
                    "node_id": n.node_id,
                    "tuples_r": n.tuples_r,
                    "tuples_s": n.tuples_s,
                    "local_pairs": n.local_pairs,
                    "remote_fetches": n.remote_fetches,
                    "seconds": round(n.sim_seconds, 6),
                }
                for n in result.nodes
            ],
            "tasks": len(result.tasks),
        }
        if args.checkpoint_dir:
            document["checkpoint_run_id"] = result.checkpoint_run_id
            document["resumed_pairs"] = result.resumed_pairs
        if budget is not None:
            document["disk"] = budget.snapshot()
        if args.out:
            document["journal"] = str(recorder.journal.path)
        if verified is not None:
            document["verified_against_serial"] = verified
        print(json.dumps(document, indent=2, sort_keys=True))
        return
    print(
        f"{sizes[0]} x {sizes[1]} features ({args.dataset}, "
        f"scale={args.scale}, generated in {generate_s:.3f}s) on "
        f"backend={result.backend!r}"
    )
    found = "contained" if args.predicate == "contains" else "intersecting"
    print(f"{len(result)} {found} pairs "
          f"(merge duplicates dropped: {result.duplicates_dropped})")
    print(
        f"wall {result.wall_s:.3f}s; per-{'worker' if args.backend == 'process' else 'node'} "
        f"work {result.total_work_s:.3f}s over {len(result.nodes)} "
        f"{'workers' if args.backend == 'process' else 'nodes'} "
        f"(critical path {result.critical_path_s:.3f}s, "
        f"work-distribution speedup {result.speedup:.2f}x)"
    )
    if result.tasks:
        costs = sorted(t.cost_estimate for t in result.tasks)
        print(
            f"{len(result.tasks)} partition-pair tasks, LPT cost seeds "
            f"min/median/max = {costs[0]}/{costs[len(costs) // 2]}/{costs[-1]}"
        )
    if args.checkpoint_dir:
        line = f"checkpoint run {result.checkpoint_run_id} under {args.checkpoint_dir}"
        if args.resume:
            line += f"; resumed {len(result.resumed_pairs)} committed pair(s)"
        print(line)
    if budget is not None:
        snap = budget.snapshot()
        print(f"disk budget {snap['max_bytes']} bytes: "
              f"peak {snap['high_watermark_bytes']}, "
              f"{snap['used_bytes']} still on disk, "
              f"{snap['denials']} denial(s)")
    if args.out:
        print(f"run journal: {recorder.journal.path}  "
              f"(analyze with `python -m repro report {args.out}`)")
    if verified is not None:
        print(f"verified against serial reference: {'OK' if verified else 'MISMATCH'}")


def _report_chaos(
    args, plan, result, reference_count, survived, killed_at, recorder
) -> None:
    from pathlib import Path

    summary = dict(result.fault_summary)
    faults_block = {
        "injected": sum(
            v for k, v in summary.items() if k.startswith("injected_")
        ),
        **{tally: summary.get(tally, 0) for tally in (
            "retries", "timeouts", "quarantined", "degraded", "pool_respawns",
        )},
        "survived": survived,
        "plan": plan.to_dict(),
    }
    if killed_at is not None or args.resume or args.checkpoint_dir:
        faults_block["coordinator_killed_at"] = killed_at
        faults_block["resumed_pairs"] = len(result.resumed_pairs)

    plan_label = Path(args.plan).stem if args.plan.endswith(".json") else args.plan
    if args.bench_out:
        from .obs.bench import wall_clock_record, write_bench_path

        record = wall_clock_record(
            "PBSM-process",
            scale=args.scale,
            total_s=round(result.wall_s, 6),
            candidates=sum(t.candidates for t in result.tasks),
            result_count=len(result),
            notes={"workers": args.workers, "partitions": args.partitions},
            faults=faults_block,
        )
        write_bench_path(f"chaos_{plan_label}", [record], args.bench_out)

    if args.json:
        document = {
            "plan": plan_label,
            "scale": args.scale,
            "workers": args.workers,
            "partitions": args.partitions,
            "result_count": len(result),
            "reference_count": reference_count,
            "wall_s": round(result.wall_s, 6),
            "degraded_pairs": result.degraded_pairs,
            "fault_summary": summary,
            "faults": faults_block,
            "survived": survived,
        }
        if args.checkpoint_dir:
            document["checkpoint_run_id"] = result.checkpoint_run_id
            document["coordinator_killed_at"] = killed_at
            document["resumed_pairs"] = result.resumed_pairs
        if recorder is not None:
            document["run_dir"] = str(recorder.run_dir)
        print(json.dumps(document, indent=2, sort_keys=True))
        return
    if killed_at is not None:
        print(f"coordinator killed after checkpoint ordinal {killed_at}; "
              f"resuming from {args.checkpoint_dir} ...")
    print(
        f"chaos plan {plan_label!r} (seed={plan.seed}, "
        f"{plan.spec.total_faults} fault(s)) over {args.workers} workers x "
        f"{args.partitions} partition pairs at scale {args.scale}"
    )
    if summary:
        tallies = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        print(f"fault/recovery events: {tallies}")
    else:
        print("fault/recovery events: none")
    if result.degraded_pairs:
        print(f"degraded pairs (coordinator rebuilt serially): "
              f"{result.degraded_pairs}")
    if args.checkpoint_dir:
        line = f"checkpoint run {result.checkpoint_run_id}"
        if killed_at is not None:
            line += f"; coordinator killed after ordinal {killed_at}"
        if result.resumed_pairs:
            line += (f"; resumed {len(result.resumed_pairs)} committed "
                     f"pair(s): {result.resumed_pairs}")
        print(line)
    if recorder is not None:
        print(f"flight recorder: {recorder.run_dir}/  "
              f"(analyze with `python -m repro report {recorder.run_dir}`)")
    print(
        f"{len(result)} pairs vs {reference_count} serial reference pairs "
        f"in {result.wall_s:.3f}s"
    )
    print(f"survived: {'OK — pair set identical to fault-free serial run' if survived else 'MISMATCH'}")


def _emit(args: argparse.Namespace, document, render) -> None:
    """``--json`` prints ``document``; otherwise what ``render()`` returns,
    written as it is (the renderers end their own last line)."""
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render())


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import analyze_run, render_report

    analysis = analyze_run(args.run_dir)
    _emit(args, analysis.to_dict(),
          lambda: render_report(analysis, timings=args.timings))
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    import time as _time
    from pathlib import Path

    from .checkpoint import gc_checkpoint_dir, inspect_checkpoint_dir, stat_checkpoint_dir

    root = Path(args.dir)
    if not root.is_dir():
        raise ValueError(f"no such directory: {root}")

    # gc reports sizes and ages; only list / inspect read the logs.
    walk = stat_checkpoint_dir if args.action == "gc" else inspect_checkpoint_dir
    infos = walk(root)
    by_id = {info.run_id: info for info in infos}
    if args.action == "inspect" and args.run_id is None:
        raise ValueError("inspect needs a run id")
    if args.action != "list" and args.run_id not in (None, *by_id):
        raise ValueError(f"unknown run id {args.run_id!r} in {root}")

    if args.action == "gc":
        report = gc_checkpoint_dir(root, run_id=args.run_id,
                                   all_runs=args.all_runs,
                                   max_bytes=args.max_bytes,
                                   dry_run=args.dry_run)
        if args.json:
            print(json.dumps(
                {"removed": report.removed, "kept": report.kept,
                 "bytes_freed": report.bytes_freed,
                 "dry_run": args.dry_run},
                indent=2, sort_keys=True,
            ))
            return 0
        if args.dry_run:
            print(f"would remove {len(report.removed)} run(s), "
                  f"freeing {report.bytes_freed} bytes")
            for run_id in report.removed:
                info = by_id.get(run_id)
                detail = ""
                if info is not None:
                    age = _time.time() - info.mtime
                    detail = f"  ({info.bytes_total} bytes, {age:.0f}s old)"
                print(f"  would remove {run_id}{detail}")
        else:
            print(f"removed {len(report.removed)} run(s), "
                  f"freed {report.bytes_freed} bytes")
            for run_id in report.removed:
                print(f"  removed {run_id}")
        for run_id in report.kept:
            print(f"  kept    {run_id}  (resumable; gc it by name or --all)")
        return 0

    if args.action == "inspect":
        info = by_id[args.run_id]
        if args.json:
            print(json.dumps(info.to_dict(), indent=2, sort_keys=True))
            return 0
        total = "?" if info.pairs_total is None else info.pairs_total
        print(f"run:         {info.run_id}")
        print(f"path:        {info.path}")
        print(f"state:       {info.state}")
        print(f"pairs:       {info.pairs_done}/{total} committed")
        print(f"artifacts:   {info.bytes_total} bytes on disk")
        print(f"age:         {_time.time() - info.mtime:.0f}s since last "
              "durable write")
        if info.error:
            print(f"error:       {info.error}")
        return 0

    # list
    if args.json:
        print(json.dumps([info.to_dict() for info in infos],
                         indent=2, sort_keys=True))
        return 0
    if not infos:
        print(f"no checkpointed runs under {root}")
        return 0
    for info in infos:
        total = "?" if info.pairs_total is None else info.pairs_total
        age = _time.time() - info.mtime
        note = f"  [{info.error}]" if info.error else ""
        print(f"{info.run_id}  {info.state:<12} "
              f"{info.pairs_done}/{total} pairs  "
              f"{info.bytes_total} bytes  {age:.0f}s old{note}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from pathlib import Path

    from .serve import JoinServer

    plan = None
    if args.faults:
        from .faults import load_plan

        plan = load_plan(
            args.faults, seed=args.fault_seed, num_pairs=args.fault_pairs,
            hang_s=args.fault_hang_s,
        )
    server = JoinServer(
        args.cache_dir,
        args.out,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_cache_bytes=args.max_cache_bytes,
        disk_budget_bytes=args.disk_budget,
        start_method=args.start_method,
        fault_plan=plan,
        kill_coordinator_after=args.kill_coordinator_after,
        breaker_threshold=args.breaker_threshold,
        breaker_window_s=args.breaker_window,
        breaker_cooldown_s=args.breaker_cooldown,
        scrub_interval_s=args.scrub_interval,
        telemetry_interval_s=args.telemetry_interval,
    )
    host, port = server.start()
    if args.port_file:
        port_path = Path(args.port_file)
        port_path.parent.mkdir(parents=True, exist_ok=True)
        port_path.write_text(f"{port}\n")
    print(f"serving on {host}:{port}  "
          f"(cache {server.cache.root}, journals {server.out_dir})",
          flush=True)

    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    # Wake periodically: either a signal landed or a client sent the
    # shutdown op (which stops the server from its own thread).
    while not stop.is_set() and not server.stopped.is_set():
        stop.wait(0.2)
    server.shutdown(drain=True)
    stats = server.stats()
    print(f"drained: {stats['completed']} completed, "
          f"{stats['rejected']} rejected, "
          f"{stats['outcomes']['deadline_exceeded']} deadline-exceeded, "
          f"{stats['outcomes']['storage_overload']} storage-overload, "
          f"{stats['outcomes']['degraded']} degraded, "
          f"{stats['hits']} cache hits / {stats['misses']} misses")
    return 0


def _server_port(args: argparse.Namespace) -> int:
    """Where `query` and `top` find the server: ``--port``, else the port
    file a ``repro serve --port-file`` wrote."""
    if args.port is not None:
        return args.port
    if not args.port_file:
        raise ValueError("need a port (--port) or a port file")
    from .serve import read_port_file

    return read_port_file(args.port_file)


_QUERY_TIMEOUT_GRACE_S = 30.0
"""Socket-timeout slack past the query deadline: enough for the server
to notice the deadline, abandon the pool, and write its typed reject."""


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    port = _server_port(args)
    # --timeout is the *query deadline*: the server enforces it through
    # deadline_s and answers a typed reject.  The socket timeout trails it
    # by a grace period so the server's answer (not a client-side timeout)
    # is what the user sees; past the grace, something is truly wedged.
    socket_timeout = (
        args.timeout + _QUERY_TIMEOUT_GRACE_S
        if args.timeout is not None
        else None
    )
    try:
        with ServeClient(args.host, port, timeout=socket_timeout) as client:
            if args.op != "join":
                # ping / stats / telemetry / metrics / shutdown: the client
                # method is named after the wire op.
                response = getattr(client, args.op)()
            else:
                response = client.join(
                    dataset=args.dataset,
                    scale=args.scale,
                    seed=args.seed,
                    predicate=args.predicate,
                    workers=args.workers,
                    include_pairs=args.pairs,
                    deadline_s=args.timeout,
                )
    except (OSError, TimeoutError) as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs.top import render_top
    from .serve import ServeClient

    port = _server_port(args)
    # Clear-and-redraw only on a real terminal; piped output appends
    # plain frames and dies quietly when the pipe closes (head, less).
    interactive = sys.stdout.isatty() and not args.once
    try:
        with ServeClient(args.host, port, timeout=10.0) as client:
            while True:
                response = client.telemetry(args.window)
                if not response.get("ok"):
                    print(
                        f"top: {response.get('message', 'telemetry failed')}",
                        file=sys.stderr,
                    )
                    return 1
                frame = render_top(response["telemetry"])
                try:
                    if interactive:
                        sys.stdout.write("\x1b[2J\x1b[H")
                    sys.stdout.write(frame)
                    sys.stdout.flush()
                except (OSError, ValueError):
                    return 0  # downstream pipe closed; nothing left to show
                if args.once:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, TimeoutError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


_RUNS_GATE_EXIT = 4
"""`repro runs compare` exit status when a regression gate fires —
distinct from usage errors (2) so CI can tell "regressed" from "broken"."""


def _cmd_runs(args: argparse.Namespace) -> int:
    from .obs import corpus

    if args.runs_op == "list":
        records = corpus.scan_corpus(args.root)
        _emit(args, [r.to_dict() for r in records],
              lambda: corpus.render_list(records))
        return 0

    if args.runs_op == "show":
        records = corpus.scan_corpus(args.root)
        record = corpus.find_record(records, args.run_id)
        if record is None:
            raise ValueError(
                f"no run {args.run_id!r} under {args.root} "
                f"({len(records)} runs indexed; try `repro runs list`)"
            )
        _emit(args, record.to_dict(), lambda: corpus.render_show(record))
        return 0

    # compare: two artifacts, or --trend over a corpus
    if args.trend:
        if len(args.paths) != 1 or not args.metric:
            raise ValueError(
                "compare --trend needs exactly one corpus root and --metric"
            )
        metric = args.metric[0]
        records = [
            r for r in corpus.scan_corpus(args.paths[0])
            if not args.kind or r.kind == args.kind
        ]
        points = [
            (r.run_id, r.metrics[metric])
            for r in records
            if metric in r.metrics
        ]
        if len(points) < 2:
            raise ValueError(
                f"metric {metric!r} present in {len(points)} run(s); "
                "a trend needs at least 2"
            )
        run_ids = [p[0] for p in points]
        values = [p[1] for p in points]
        trend = corpus.fit_trend(values)
        _emit(
            args,
            {"metric": metric, "runs": run_ids, "values": values,
             "trend": trend},
            lambda: corpus.render_trend(metric, run_ids, values, trend),
        )
        if trend["slope_frac"] > args.threshold:
            print(
                f"REGRESSION: {metric} trends "
                f"{trend['slope_frac'] * 100:+.2f}% per run "
                f"(threshold {args.threshold:.0%})"
            )
            return _RUNS_GATE_EXIT
        return 0

    if len(args.paths) != 2:
        raise ValueError("compare needs exactly two run artifacts")
    record_a = corpus.index_path(args.paths[0])
    record_b = corpus.index_path(args.paths[1])
    rows = corpus.compare_runs(record_a, record_b, metrics=args.metric or None)
    _emit(
        args,
        {"a": record_a.to_dict(), "b": record_b.to_dict(), "rows": rows},
        lambda: corpus.render_compare(record_a, record_b, rows),
    )
    failures = corpus.check_gates(
        record_a, record_b,
        gates=args.gate or (), exact=args.exact or (),
        threshold=args.threshold,
    )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return _RUNS_GATE_EXIT if failures else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.planner import choose_algorithm
    from .index import bulk_load_rstar

    db, road, hydro = _tiger_relations(args)
    idx_r = bulk_load_rstar(db.pool, road) if args.index_r else None
    idx_s = bulk_load_rstar(db.pool, hydro) if args.index_s else None
    plan = choose_algorithm(road, hydro, db.pool.capacity, idx_r, idx_s)
    print(f"scenario: index on road={args.index_r}, index on hydro={args.index_s}, "
          f"buffer={args.buffer_mb} MB")
    print(f"chosen algorithm: {plan.algorithm.upper()}")
    print(f"reason: {plan.reason}")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import __version__

    print(f"repro {__version__} — Partition Based Spatial-Merge Join "
          "(Patel & DeWitt, SIGMOD 1996)\n")
    print(build_parser().format_help())
    packages = sorted(Path(__file__).parent.glob("*/__init__.py"))
    print("subsystems: "
          + ", ".join(f"repro.{init.parent.name}" for init in packages))
    print("reproduce the paper: pytest benchmarks/ --benchmark-only")
    return 0


_SHARED_FLAGS = {
    "data": [
        ("--scale", dict(type=float, default=0.01,
                         help="dataset size; 1.0 is the paper's cardinalities")),
        ("--seed", dict(type=int, default=None,
                        help="base seed for the data generators")),
    ],
    "pool": [
        ("--workers", dict(type=int, default=2,
                           help="worker processes: the pool's size (virtual "
                                "nodes on the simulated backend)")),
        ("--start-method", dict(default=None,
                                choices=["fork", "spawn", "forkserver"],
                                help="multiprocessing start method")),
    ],
    "durable": [
        ("--checkpoint-dir", dict(default=None,
                                  help="make coordinator state durable under "
                                       "this directory (process backend only; "
                                       "required by coordinator-kill / "
                                       "torn-manifest faults)")),
        ("--resume", dict(action="store_true",
                          help="continue a checkpointed run instead of "
                               "starting over (a plan's checkpoint faults "
                               "are not re-armed)")),
    ],
    "endpoint": [
        ("--host", dict(default="127.0.0.1")),
        ("--port", dict(type=int, default=None, help="the server's TCP port")),
    ],
}
"""The flag groups several subcommands repeat, declared once."""


def _shared(group: str, **defaults) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag group, with this
    subcommand's ``defaults``.  Built fresh per use: argparse shares a
    parent's actions among its children, so a default set for one would
    leak into the rest."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, options in _SHARED_FLAGS[group]:
        parent.add_argument(flag, **options)
    parent.set_defaults(**defaults)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PBSM spatial join reproduction",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", parents=[_shared("data")],
                          help="run a small PBSM join")
    demo.add_argument("--buffer-mb", type=float, default=8.0)
    demo.add_argument("--json", action="store_true",
                      help="emit the cost report as JSON instead of a table")
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser(
        "trace", parents=[_shared("data")],
        help="run a traced PBSM join and dump trace/metrics files",
    )
    trace.add_argument("--buffer-mb", type=float, default=8.0)
    trace.add_argument("--out", default="trace_out",
                       help="directory for trace.jsonl / metrics.json / "
                            "chrome_trace.json")
    trace.set_defaults(func=_cmd_trace)

    parallel = sub.add_parser(
        "parallel",
        parents=[_shared("data"), _shared("pool", workers=4),
                 _shared("durable")],
        help="run the join on a parallel backend",
    )
    parallel.add_argument("--backend", default="process",
                          choices=["process", "simulated", "serial"])
    parallel.add_argument("--dataset", default="road_hydro",
                          choices=["road_hydro", "road_rail", "landuse_island"],
                          help="input pair: TIGER roads x hydrography "
                               "(default), roads x rail, or the SEQUOIA-style "
                               "polygon workload landuse x islands")
    parallel.add_argument("--predicate", default="intersects",
                          help="exact predicate, by the name a served query "
                               "gives it: intersects (default), "
                               "intersects_naive, or contains (the paper's "
                               "Sequoia query; needs --dataset "
                               "landuse_island)")
    parallel.add_argument("--scheme", default="replicate_objects",
                          choices=["replicate_objects", "replicate_mbrs"],
                          help="boundary-object declustering (simulated only)")
    parallel.add_argument("--verify", action="store_true",
                          help="cross-check the pair set against the serial "
                               "reference; non-zero exit on mismatch")
    parallel.add_argument("--disk-budget", type=int, default=None,
                          metavar="N",
                          help="hard ceiling on spill+checkpoint bytes "
                               "(process backend only); past it the engine "
                               "reclaims, then degrades pairs to the serial "
                               "no-spill path — the pair set stays "
                               "byte-identical")
    parallel.add_argument("--out", default=None, metavar="DIR",
                          help="record the run journal to DIR/journal.jsonl "
                               "for `repro report`")
    parallel.add_argument("--live", action="store_true",
                          help="stream in-flight progress (dispatches, "
                               "worker heartbeats, completions) as the "
                               "journal sees it")
    parallel.add_argument("--json", action="store_true",
                          help="emit the run summary as JSON")
    parallel.set_defaults(func=_cmd_join, plan=None)

    chaos = sub.add_parser(
        "chaos",
        parents=[_shared("pool"), _shared("durable")],
        help="run the join under a fault plan and verify it survives",
    )
    chaos.add_argument("--plan", default="combined",
                       help="named fault plan (none, disk_error, torn_frame, "
                            "worker_crash, hang, slow, combined) or a path to "
                            "a plan JSON file")
    chaos.add_argument("--seed", type=int, default=0, dest="plan_seed",
                       metavar="SEED",
                       help="fault-plan compilation seed (named plans only)")
    chaos.add_argument("--scale", type=float, default=0.002)
    chaos.add_argument("--partitions", type=int, default=8,
                       help="partition-pair count = the fault domain size")
    chaos.add_argument("--timeout", type=float, default=2.0,
                       help="per-task timeout in seconds")
    chaos.add_argument("--retries", type=int, default=3,
                       help="retry budget per partition pair")
    chaos.add_argument("--hang-s", type=float, default=6.0,
                       help="injected hang duration; must exceed --timeout")
    chaos.add_argument("--kill-coordinator-after", type=int, default=None,
                       metavar="N",
                       help="kill the coordinator after checkpoint ordinal N "
                            "(soft kill auto-resumes in this invocation)")
    chaos.add_argument("--kill-hard", action="store_true",
                       help="kill with real SIGKILL instead of the soft "
                            "in-process kill; the invocation dies and a "
                            "second one must --resume")
    chaos.add_argument("--bench-out", default=None,
                       help="also write a schema-valid BENCH_*.json with the "
                            "faults block to this path")
    chaos.add_argument("--out", default="run_out", metavar="DIR",
                       help="flight-recorder run directory (journal.jsonl, "
                            "trace.jsonl, chrome_trace.json, metrics.json); "
                            "'' disables recording")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos report as JSON")
    # What `parallel` offers and `chaos` fixes: the process backend, the
    # generators' own seeds, and a verdict against the serial reference.
    chaos.set_defaults(
        func=_cmd_join, backend="process", dataset="road_hydro",
        predicate="intersects", seed=None, verify=True, live=False,
        disk_budget=None,
    )

    report = sub.add_parser(
        "report",
        help="analyze a recorded run directory and render the run report",
    )
    report.add_argument("run_dir", nargs="?", default="run_out",
                        help="directory holding journal.jsonl (and optionally "
                             "trace.jsonl); chaos writes one by default")
    report.add_argument("--timings", action="store_true",
                        help="append the measured (non-deterministic) "
                             "sections: wall-clock stragglers, backoff, "
                             "phase cpu/io, event tallies")
    report.add_argument("--json", action="store_true",
                        help="emit the full analysis as JSON")
    report.set_defaults(func=_cmd_report)

    checkpoints = sub.add_parser(
        "checkpoints",
        help="list/inspect/gc durable join manifests in a checkpoint dir",
    )
    checkpoints.add_argument("action", choices=["list", "inspect", "gc"],
                             help="list all runs, inspect one run, or "
                                  "garbage-collect finished runs")
    checkpoints.add_argument("run_id", nargs="?", default=None,
                             help="run directory name (run-<fingerprint>); "
                                  "required for inspect, optional for gc")
    checkpoints.add_argument("--dir", required=True,
                             help="the checkpoint directory to operate on")
    checkpoints.add_argument("--all", action="store_true", dest="all_runs",
                             help="gc every run, including resumable ones")
    checkpoints.add_argument("--max-bytes", type=int, default=None,
                             metavar="N",
                             help="gc: prune least-recently-used runs until "
                                  "the directory fits N bytes (the serve "
                                  "cache's eviction policy)")
    checkpoints.add_argument("--dry-run", action="store_true",
                             help="gc: report what would be removed (same "
                                  "selection policy, nothing deleted)")
    checkpoints.add_argument("--json", action="store_true",
                             help="emit machine-readable output")
    checkpoints.set_defaults(func=_cmd_checkpoints)

    serve = sub.add_parser(
        "serve",
        parents=[_shared("endpoint", port=0), _shared("pool")],
        help="run the resident join service (local TCP, JSON lines; "
             "--port 0 picks a free port)",
    )
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    serve.add_argument("--cache-dir", required=True,
                       help="artifact cache root (a checkpoint directory; "
                            "one-shot --checkpoint-dir runs interoperate)")
    serve.add_argument("--out", default="serve_out",
                       help="journal root: serve.jsonl plus one query-NNNN/ "
                            "run dir per served query (for `repro report`)")
    serve.add_argument("--max-inflight", type=int, default=2,
                       help="queries executing at once")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="queries allowed to wait; beyond this, "
                            "reject with error=queue_full")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       metavar="N",
                       help="LRU-evict unpinned cache entries to fit N bytes")
    serve.add_argument("--disk-budget", type=int, default=None,
                       metavar="N",
                       help="hard ceiling on bytes this server writes "
                            "(spills + checkpoints = cache fills); "
                            "over-footprint queries get a typed "
                            "error=storage_overload reject with "
                            "estimated_bytes/available_bytes")
    serve.add_argument("--faults", default=None, metavar="PLAN",
                       help="named fault plan or plan JSON applied to every "
                            "executed (non-cached) query")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument("--fault-pairs", type=int, default=8,
                       help="pair count the named fault plan compiles against")
    serve.add_argument("--kill-coordinator-after", type=int, default=None,
                       metavar="N",
                       help="drill: soft-kill the next executed query after "
                            "checkpoint ordinal N, then recover it by "
                            "resuming the cache entry")
    serve.add_argument("--fault-hang-s", type=float, default=None,
                       metavar="S",
                       help="override the fault plan's hang duration "
                            "(the deadline-stall drill keeps it just past "
                            "the query deadline instead of 30s)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="pool deaths within the window that open the "
                            "circuit breaker")
    serve.add_argument("--breaker-window", type=float, default=30.0,
                       metavar="S", help="breaker failure-counting window")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       metavar="S",
                       help="open time before a half-open probe query")
    serve.add_argument("--scrub-interval", type=float, default=None,
                       metavar="S",
                       help="run the cache scrubber every S seconds "
                            "(default: scrubber off)")
    serve.add_argument("--telemetry-interval", type=float, default=None,
                       metavar="S",
                       help="sample live telemetry every S seconds (the "
                            "`telemetry` wire op and `repro top` read it; "
                            "default: sampler off)")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query",
        parents=[_shared("endpoint"), _shared("data", seed=0)],
        help="one-shot client for a running join server (--seed 0 keeps "
             "the generators' own seeds, like `parallel` without --seed)",
    )
    query.add_argument("--port-file", default=None,
                       help="read the port a `repro serve --port-file` wrote")
    query.add_argument("--op", default="join",
                       choices=["join", "ping", "stats", "telemetry",
                                "metrics", "shutdown"])
    query.add_argument("--dataset", default="road_hydro")
    query.add_argument("--predicate", default="intersects")
    query.add_argument("--workers", type=int, default=2)
    query.add_argument("--pairs", action="store_true",
                       help="include the full result pair list")
    query.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="query deadline in seconds: sent as deadline_s "
                            "(the server cancels the join past it and "
                            "answers error=deadline_exceeded); also bounds "
                            "the socket wait at S plus grace "
                            "(default: block forever)")
    query.set_defaults(func=_cmd_query)

    top = sub.add_parser(
        "top",
        parents=[_shared("endpoint")],
        help="live terminal dashboard for a running join server",
    )
    top.add_argument("port_file", nargs="?", default=None,
                     help="port file a `repro serve --port-file` wrote "
                          "(or connect directly with --port)")
    top.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="poll the telemetry op every S seconds")
    top.add_argument("--window", type=float, default=None, metavar="S",
                     help="restrict series stats to the last S seconds")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (for scripts and CI)")
    top.set_defaults(func=_cmd_top)

    runs = sub.add_parser(
        "runs",
        help="cross-run warehouse: index, diff, and trend run artifacts",
    )
    runs_sub = runs.add_subparsers(dest="runs_op", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="index every run dir / serve root / BENCH file under a tree"
    )
    runs_list.add_argument("root", help="directory tree to scan")
    runs_list.add_argument("--json", action="store_true")
    runs_show = runs_sub.add_parser(
        "show", help="one indexed run's identity and metrics"
    )
    runs_show.add_argument("root", help="directory tree to scan")
    runs_show.add_argument("run_id", help="run id from `repro runs list`")
    runs_show.add_argument("--json", action="store_true")
    runs_compare = runs_sub.add_parser(
        "compare",
        help="diff two runs metric-by-metric, or --trend a corpus; "
             f"exits {_RUNS_GATE_EXIT} past a regression threshold",
    )
    runs_compare.add_argument(
        "paths", nargs="*",
        help="two run artifacts (run dir, serve root, or BENCH_*.json) — "
             "or one corpus root with --trend",
    )
    runs_compare.add_argument("--metric", action="append", default=None,
                              help="restrict to this metric (repeatable); "
                                   "with --trend, the metric to fit")
    runs_compare.add_argument("--gate", action="append", default=None,
                              metavar="PATTERN",
                              help="fail (exit 4) if a metric matching this "
                                   "fnmatch pattern grew past --threshold "
                                   "(repeatable)")
    runs_compare.add_argument("--exact", action="append", default=None,
                              metavar="PATTERN",
                              help="fail (exit 4) if a metric matching this "
                                   "fnmatch pattern differs at all — for "
                                   "deterministic counters (repeatable)")
    runs_compare.add_argument("--threshold", type=float, default=0.10,
                              help="regression threshold as a fraction "
                                   "(default 0.10 = 10%%)")
    runs_compare.add_argument("--trend", action="store_true",
                              help="fit a least-squares trend per metric "
                                   "over every matching run under the root")
    runs_compare.add_argument("--kind", default=None,
                              choices=["engine", "serve", "bench"],
                              help="with --trend, only index runs of this kind")
    runs_compare.add_argument("--json", action="store_true")
    runs.set_defaults(func=_cmd_runs)

    plan = sub.add_parser("plan", help="apply the paper's algorithm-choice rules")
    plan.add_argument("--scale", type=float, default=0.005)
    plan.add_argument("--buffer-mb", type=float, default=0.5)
    plan.add_argument("--index-r", action="store_true", help="road index pre-exists")
    plan.add_argument("--index-s", action="store_true", help="hydro index pre-exists")
    plan.set_defaults(func=_cmd_plan)

    info = sub.add_parser("info", help="package inventory")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        # A flag combination the code it acts on refuses (its message
        # names the flag), one of the shell's own refusals above, or a
        # file the command line names that is not there: usage errors.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
