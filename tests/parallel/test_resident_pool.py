"""The resident pool: a process that joins again reuses its workers.

Every case runs under ``fork`` and ``spawn``.  ``RESIDENT_POOL`` is the
process's own, so each test reads generations relative to where it found
them.
"""

import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import intersects
from repro.__main__ import main
from repro.faults import CoordinatorKilledError
from repro.faults.plan import FaultPlan, FaultSpec, WorkerFaults
from repro.obs import RunJournal, Tracer
from repro.obs.journal import EVENT_TASK_DISPATCHED
from repro.parallel import parallel_join
from repro.parallel.process import (
    RESIDENT_POOL,
    START_METHOD_ENV,
    ProcessPBSM,
    ResidentPoolProvider,
    mp_context,
)
from repro.parallel.tasks import InputSide
from repro.serve.query import QuerySpec, result_digest

METHODS = pytest.mark.parametrize("method", ["fork", "spawn"])
PARTITIONS = 16


def generate(seed, scale=0.002):
    sides = tuple(map(InputSide, QuerySpec(scale=scale, seed=seed).generate()))
    return sides, result_digest(parallel_join(*sides, intersects, backend="serial").pairs)


def engine(method, **extra):
    return ProcessPBSM(2, num_partitions=PARTITIONS, start_method=method, **extra)


def pids(result):
    return {task.worker_pid for task in result.tasks}


def one_pool(*results):
    """The results' workers are one pool's two (spawn starts them as the
    tasks need them)."""
    return len(set().union(*map(pids, results))) <= 2


def plan_for(result, **firing):
    """A plan that fires ``firing`` (:class:`WorkerFaults` fields) on the
    first pair ``result`` ran, so it fires whatever the sides."""
    faults = {result.tasks[0].index: WorkerFaults(**firing)}
    return FaultPlan(seed=0, num_pairs=PARTITIONS, spec=FaultSpec(), worker_faults=faults)


def refine_open_s(tracer):
    return sum(
        child.tags["open_s"]
        for task in tracer.find("worker.task")
        for child in task.children
        if child.name == "worker.refine"
    )


@METHODS
class TestLifecycle:
    def test_two_plain_runs_on_the_same_sides_share_their_workers(self, method):
        sides, digest = generate(11)
        first = engine(method).run(*sides, intersects)
        generation = RESIDENT_POOL.generation
        again = engine(method).run(*sides, intersects)
        assert RESIDENT_POOL.generation == generation
        assert one_pool(first, again)
        assert result_digest(first.pairs) == result_digest(again.pairs) == digest

    def test_new_sides(self, method):
        """A run on new sides reuses the generation: its workers open and
        check the new relation files themselves."""
        old, _ = generate(12)
        before = engine(method).run(*old, intersects)
        generation = RESIDENT_POOL.generation
        sides, digest = generate(13)
        tracer = Tracer()
        result = engine(method, tracer=tracer).run(*sides, intersects)
        assert result_digest(result.pairs) == digest and not result.fault_summary
        assert RESIDENT_POOL.generation == generation
        assert one_pool(result, before)
        assert refine_open_s(tracer) > 0

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps")
    def test_a_worker_unmaps_removed_relation_files(self, method):
        """A worker drops memo entries whose file is gone before it maps
        another: after four joins on sides dropped in turn, each worker
        maps only the last join's two files.  Re-joins on the same sides
        still open nothing after each worker's first task of them."""
        workers = set()
        for seed in range(31, 35):
            sides, _ = generate(seed)
            workers |= pids(engine(method).run(*sides, intersects))
            del sides
            gc.collect()
        assert len(workers) == 2
        for pid in workers:
            lines = Path(f"/proc/{pid}/maps").read_text().splitlines()
            deleted = {line.split()[-2] for line in lines if line.endswith("(deleted)")}
            assert len([path for path in deleted if "repro-relations" in path]) <= 2
        sides, _ = generate(35)
        seen = set()
        for _ in range(2):
            tracer = Tracer()
            engine(method, tracer=tracer).run(*sides, intersects)
            for task in tracer.find("worker.task"):
                refine = next(c.tags for c in task.children if c.name == "worker.refine")
                assert (refine["open_s"] > 0) == (task.tags["pid"] not in seen)
                seen.add(task.tags["pid"])

    def test_a_worker_killed_between_runs_retires_its_generation(self, method):
        sides, digest = generate(14)
        first = engine(method).run(*sides, intersects)
        generation = RESIDENT_POOL.generation
        victim = min(pids(first))
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:  # the pool reaps it as it breaks
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        again = engine(method).run(*sides, intersects)
        assert RESIDENT_POOL.generation == generation + 1
        assert pids(again).isdisjoint(pids(first))
        assert result_digest(again.pairs) == digest and not again.fault_summary

    def test_journaled_and_fault_plan_runs_use_the_resident_pool(self, method):
        sides, digest = generate(15)
        plain = engine(method).run(*sides, intersects)
        generation = RESIDENT_POOL.generation
        runs = [
            engine(method, journal=RunJournal()).run(*sides, intersects),
            engine(method, fault_plan=plan_for(plain, slow_attempts=(0,))).run(*sides, intersects),
        ]
        assert RESIDENT_POOL.generation == generation
        assert one_pool(plain, *runs)
        assert [result_digest(run.pairs) for run in runs] == [digest, digest]

    def test_a_worker_killed_by_a_plan_retires_one_generation(self, method):
        sides, digest = generate(17)
        plain = engine(method).run(*sides, intersects)
        generation = RESIDENT_POOL.generation
        crashed = engine(method, fault_plan=plan_for(plain, crash_attempts=(0,))).run(
            *sides, intersects
        )
        assert result_digest(crashed.pairs) == digest
        assert crashed.fault_summary["pool_respawns"] == 1
        assert RESIDENT_POOL.generation == generation + 1
        again = engine(method).run(*sides, intersects)
        assert RESIDENT_POOL.generation == generation + 1
        assert result_digest(again.pairs) == digest and not again.fault_summary

    def test_a_hang_past_the_task_timeout_retires_its_generation(self, method):
        hang_s = 5.0
        sides, digest = generate(18)
        plain = engine(method).run(*sides, intersects)
        generation = RESIDENT_POOL.generation
        hung = engine(
            method, task_timeout_s=0.5,
            fault_plan=plan_for(plain, hang_attempts=(0,), hang_s=hang_s),
        ).run(*sides, intersects)
        assert result_digest(hung.pairs) == digest and hung.fault_summary["timeouts"] == 1
        assert RESIDENT_POOL.generation == generation + 1
        started = time.monotonic()
        again = engine(method).run(*sides, intersects)
        assert time.monotonic() - started < hang_s
        assert result_digest(again.pairs) == digest and not again.fault_summary

    def test_a_killed_run_leaves_nothing_queued(self, method, tmp_path, monkeypatch):
        """A coordinator killed mid-merge cancels the tasks it had queued
        (the pool never hands a cancelled one to a worker) and waits for
        the ones running, so all its futures are done when it raises, and
        the next run on the pool answers as a fresh one."""
        sides, digest = generate(16, scale=0.01)
        engine(method).run(*sides, intersects)  # the generation these runs use
        submitted = []
        submit = ProcessPoolExecutor.submit

        def recording(pool, *args, **kwargs):
            future = submit(pool, *args, **kwargs)
            submitted.append(future)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        killed = engine(
            method, checkpoint_dir=str(tmp_path / "ckpt"), kill_coordinator_after=5
        )
        with pytest.raises(CoordinatorKilledError):
            killed.run(*sides, intersects)
        assert len(submitted) == PARTITIONS
        assert all(future.done() for future in submitted)
        assert any(future.cancelled() for future in submitted)
        again = engine(method).run(*sides, intersects)
        assert result_digest(again.pairs) == digest and not again.fault_summary
        assert len(again.tasks) == PARTITIONS


JOIN_THEN_SERVE = """
import multiprocessing, tempfile
from repro import intersects
from repro.parallel import ProcessPBSM, process
from repro.serve import JoinServer, QuerySpec, ServeClient
ProcessPBSM(2).run(*QuerySpec(scale=0.002, seed=3).generate(), intersects)
with tempfile.TemporaryDirectory() as out:
    server = JoinServer(f"{out}/cache", f"{out}/out", workers=2)
    host, port = server.start()
    with ServeClient(host, port) as client:
        answers = [client.join(scale=0.002, seed=seed) for seed in (4, 5, 4)]
    live = len(multiprocessing.active_children())
    server.shutdown()
tenants = sum(held[0] for held in process.RESIDENT_POOL._held.values())
print(live, tenants, *(answer["source"] for answer in answers))
"""


def python(method, *args, timeout=300):
    """Run ``python *args`` under ``method``; its completed process."""
    env = dict(os.environ, REPRO_MP_START_METHOD=method)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


class CoTenantDiscards(RunJournal):
    """A run's journal that, once the run has dispatched every pair (most
    of them still queued), has another tenant of the pool discard it."""

    def __init__(self, pool, context):
        super().__init__()
        self.pool, self.context, self.dispatched = pool, context, 0

    def emit(self, event_type, **fields):
        super().emit(event_type, **fields)
        if event_type == EVENT_TASK_DISPATCHED:
            self.dispatched += 1
            if self.dispatched == PARTITIONS:
                held = self.pool.acquire(1, self.context)  # busy: the run's
                self.pool.discard(held)
                self.pool.release(held)


@METHODS
class TestOnePoolPerProcess:
    def test_a_process_that_joins_then_serves_holds_one_pool(self, method):
        """The server's queries and its S generator run on the pool the
        join left standing: ``workers`` processes, and no tenant left."""
        done = python(method, "-c", JOIN_THEN_SERVE)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "0", "miss", "miss", "hit"]

    def test_a_co_tenants_discard_charges_nothing(self, method, resident_pool):
        """Pairs a co-tenant's discard cancelled never reached a worker:
        they requeue free, with the rest of the run's, on the next
        generation."""
        sides, digest = generate(19, scale=0.01)
        context = mp_context(method)
        journal = CoTenantDiscards(resident_pool, context)
        result = ProcessPBSM(
            1, num_partitions=PARTITIONS, start_method=method, journal=journal
        ).run(*sides, intersects)
        assert result_digest(result.pairs) == digest
        assert result.fault_summary == {"pool_respawns": 1}
        assert (resident_pool.generation, resident_pool.retired) == (2, 1)
        assert len(result.tasks) == PARTITIONS

    def test_a_new_generations_start_is_not_a_tasks_time(self, method, resident_pool):
        """A task timeout shorter than a spawned worker's start: the run
        on a new generation times nothing out."""
        sides, digest = generate(20)
        result = engine(method, task_timeout_s=0.25).run(*sides, intersects)
        assert result_digest(result.pairs) == digest and not result.fault_summary
        assert resident_pool.generation == 1

    def test_a_pairs_timeout_counts_no_time_queued(self, method, resident_pool):
        """One worker; the first two pairs dispatched sleep 0.7 s each
        under a 1 s task timeout.  The second waits 0.7 s behind the
        first, yet runs no longer than it: nothing times out."""
        sides, digest = generate(21)
        plain = ProcessPBSM(1, num_partitions=8, start_method=method).run(*sides, intersects)
        lpt = sorted(plain.tasks, key=lambda task: (-task.cost_estimate, task.index))
        slow = {task.index: WorkerFaults(slow_attempts=(0,), slow_s=0.7) for task in lpt[:2]}
        plan = FaultPlan(seed=0, num_pairs=8, spec=FaultSpec(), worker_faults=slow)
        result = ProcessPBSM(
            1, num_partitions=8, start_method=method, task_timeout_s=1.0, fault_plan=plan
        ).run(*sides, intersects)
        assert result_digest(result.pairs) == digest
        assert result.fault_summary == {"injected_worker_faults": 2}

    def test_a_one_shot_cli_run_uses_one_generation(self, method, resident_pool, monkeypatch):
        """S's generator and the join share the generation the CLI starts."""
        monkeypatch.setenv(START_METHOD_ENV, method)
        assert main(["parallel", "--scale", "0.1", "--workers", "2", "--json"]) == 0
        assert (resident_pool.generation, resident_pool.retired) == (1, 0)

    def test_a_hang_past_its_timeout_does_not_hold_up_the_exit(self, method):
        hang_s = 20.0
        started = time.monotonic()
        done = python(
            method, "-m", "repro", "chaos", "--plan", "hang", "--scale", "0.002",
            "--timeout", "0.5", "--hang-s", str(hang_s), "--out", "",
        )
        assert done.returncode == 0, done.stderr
        assert time.monotonic() - started < hang_s / 2


class TestProvider:
    def test_a_generation_serves_what_it_fits_and_a_busy_one_serves_all(self):
        """No process starts here: a pool forks or spawns at its first
        submit."""
        context = multiprocessing.get_context()
        provider = ResidentPoolProvider()
        resident = provider.acquire(2, context)
        assert provider.acquire(1, context) is resident  # busy: shared
        provider.release(resident)
        provider.release(resident)
        assert provider.acquire(2, context) is resident
        provider.release(resident)
        fresh = provider.acquire(1, context)  # idle: retired for the next
        assert fresh is not resident and provider.generation == 2
        assert provider.retired == 0  # to fit, not for a fault
        with pytest.raises(RuntimeError):
            resident.submit(int)
        provider.discard(fresh)
        provider.discard(fresh)  # a late discard is a no-op
        provider.release(fresh)
        last = provider.acquire(1, context)
        assert last is not fresh
        assert (provider.generation, provider.retired) == (3, 1)
        provider.discard(last)
        provider.release(last)

    @METHODS
    def test_a_retired_generations_workers_go_with_its_last_tenant(self, method):
        """A discard leaves a co-tenant's running task to its worker; the
        last release terminates the worker, wedged or not."""
        provider = ResidentPoolProvider()
        pool = provider.acquire(1, multiprocessing.get_context(method))
        assert provider.acquire(1, multiprocessing.get_context(method)) is pool
        wedged = pool.submit(time.sleep, 600)
        while not wedged.running():
            time.sleep(0.01)
        (worker,) = pool._processes.values()
        provider.discard(pool)
        provider.release(pool)
        time.sleep(0.3)
        assert worker.is_alive() and not wedged.done()
        provider.release(pool)
        # The worker's end, not ``is_alive()``: the executor's own thread
        # may reap it first, and until that thread records the exit code
        # ``is_alive()`` still reads True for a process that is gone.
        assert multiprocessing.connection.wait([worker.sentinel], timeout=30)
