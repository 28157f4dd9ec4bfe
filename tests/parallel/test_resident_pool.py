"""The resident pool: a process that joins again reuses its workers.

Every case runs under ``fork`` and ``spawn``.  ``RESIDENT_POOL`` is the
process's own, so each test reads generations relative to where it found
them.
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import intersects
from repro.faults import CoordinatorKilledError
from repro.faults.plan import FaultPlan, FaultSpec, WorkerFaults
from repro.obs import RunJournal, Tracer
from repro.parallel import parallel_join
from repro.parallel.process import (
    RESIDENT_POOL,
    ProcessPBSM,
    ResidentPoolProvider,
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
        """Under fork a run on new sides forks a new generation, after its
        own check, so no worker opens a relation; under spawn the
        generation serves it."""
        old, _ = generate(12)
        before = engine(method).run(*old, intersects)
        generation = RESIDENT_POOL.generation
        sides, digest = generate(13)
        tracer = Tracer()
        result = engine(method, tracer=tracer).run(*sides, intersects)
        assert result_digest(result.pairs) == digest and not result.fault_summary
        if method == "fork":
            assert RESIDENT_POOL.generation == generation + 1
            assert pids(result).isdisjoint(pids(before))
            assert refine_open_s(tracer) == 0
        else:
            assert RESIDENT_POOL.generation == generation
            assert one_pool(result, before)

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


class TestProvider:
    def test_a_generation_serves_what_it_fits_and_a_busy_one_serves_all(self):
        """No process starts here: a pool forks or spawns at its first
        submit."""
        context = multiprocessing.get_context()
        provider = ResidentPoolProvider()
        try:
            resident = provider.acquire(2, context)
            assert provider.acquire(1, context) is resident  # busy: shared
            provider.release(resident)
            provider.release(resident)
            assert provider.acquire(2, context) is resident
            provider.release(resident)
            fresh = provider.acquire(1, context)  # idle: retired for the next
            assert fresh is not resident and provider.generation == 2
            with pytest.raises(RuntimeError):
                resident.submit(int)
            provider.discard(fresh)
            provider.discard(fresh)  # a late discard is a no-op
            assert provider.acquire(1, context) is not fresh
            assert provider.generation == 3
        finally:
            provider.close()
        with pytest.raises(RuntimeError):
            provider.acquire(1, context)
