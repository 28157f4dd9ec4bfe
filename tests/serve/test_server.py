"""JoinServer: cache dispositions, coalescing, admission control, drain
shutdown, fault survival, and the coordinator-kill drill — all against a
real TCP socket."""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import inspect_checkpoint_dir
from repro.data import generate_hydrography, generate_roads
from repro.faults import load_plan
from repro.parallel import parallel_join, process
from repro.parallel.tasks import InputSide
from repro.serve import (
    JoinServer,
    QuerySpec,
    ServeClient,
    read_port_file,
    result_digest,
    wait_for_server,
)
from repro.serve.query import DATASETS
from tests.conftest import race

SPEC = {"dataset": "road_hydro", "scale": 0.004, "workers": 2}


def start_server(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    server = JoinServer(tmp_path / "cache", tmp_path / "out", **kwargs)
    host, port = server.start()
    return server, host, port


def run_id_of(spec_fields):
    spec = QuerySpec(**spec_fields)
    tuples_r, tuples_s = spec.generate()
    return spec.fingerprint(tuples_r, tuples_s).run_id


def one_shot_digest(spec_fields):
    spec = QuerySpec(**spec_fields)
    tuples_r, tuples_s = spec.generate()
    result = parallel_join(
        tuples_r, tuples_s, spec.predicate_fn,
        backend="process", workers=spec.workers,
    )
    return result_digest(result.pairs)


class TestCachePaths:
    def test_miss_then_hit_byte_identical_to_one_shot(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                miss = client.join(**SPEC)
                hit = client.join(**SPEC)
        finally:
            server.shutdown()
        assert miss["ok"] and miss["source"] == "miss"
        assert hit["ok"] and hit["source"] == "hit"
        assert miss["result_sha256"] == hit["result_sha256"]
        assert miss["result_count"] == hit["result_count"] > 0
        assert miss["result_sha256"] == one_shot_digest(SPEC)
        # The hit skipped the engine entirely, so it must be far cheaper.
        assert hit["latency_s"] < miss["latency_s"]

    def test_warm_entry_resumes_instead_of_restarting(self, tmp_path):
        # Interrupt a one-shot checkpointed run by killing its
        # coordinator; the server then resumes the half-finished cache
        # entry and serves it as a resume, not a cold start.
        from repro.faults import CoordinatorKilledError
        from repro.parallel import ProcessPBSM

        spec = QuerySpec(**SPEC)
        tuples_r, tuples_s = spec.generate()
        engine = ProcessPBSM(
            spec.workers,
            checkpoint_dir=str(tmp_path / "cache"),
            kill_coordinator_after=4,
        )
        with pytest.raises(CoordinatorKilledError):
            engine.run(tuples_r, tuples_s, spec.predicate_fn)

        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                response = client.join(**SPEC)
        finally:
            server.shutdown()
        assert response["ok"] and response["source"] == "warm"
        assert response["result_sha256"] == one_shot_digest(SPEC)

    def test_warm_entry_with_a_torn_log_tail_fills_a_servable_hit(
        self, tmp_path
    ):
        # The interrupted run committed three pairs and the last append
        # tore.  The warm resume must cut that tail before appending
        # behind it — otherwise the entry it completes is corrupt
        # mid-file: never served, then quarantined by the scrubber.
        from repro.faults import CoordinatorKilledError, tear_tail
        from repro.parallel import ProcessPBSM

        spec = QuerySpec(**SPEC)
        tuples_r, tuples_s = spec.generate()
        engine = ProcessPBSM(
            spec.workers,
            checkpoint_dir=str(tmp_path / "cache"),
            kill_coordinator_after=5,
        )
        with pytest.raises(CoordinatorKilledError):
            engine.run(tuples_r, tuples_s, spec.predicate_fn)
        (log,) = (tmp_path / "cache").glob("run-*/results.log")
        assert tear_tail(log)

        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                warm = client.join(**SPEC)
                hit = client.join(**SPEC)
            scrubbed = server.scrubber.scrub_once()
            corrupt = server.metrics.counter("serve.cache.corrupt").value
        finally:
            server.shutdown()
        assert warm["ok"] and warm["source"] == "warm"
        assert warm["result_sha256"] == one_shot_digest(SPEC)
        assert hit["ok"] and hit["source"] == "hit"
        assert hit["result_sha256"] == warm["result_sha256"]
        assert corrupt == 0
        assert scrubbed == {
            "scanned": 1, "repaired": 0, "quarantined": 0, "evicted": 0,
        }

    def test_served_pairs_match_when_requested(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                response = client.join(include_pairs=True, **SPEC)
        finally:
            server.shutdown()
        pairs = [tuple(p) for p in response["pairs"]]
        assert result_digest(pairs) == response["result_sha256"]
        assert len(pairs) == response["result_count"]

    def test_bad_request_is_rejected_not_executed(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                unknown = client.join(dataset="mars_canals")
                typo = client.request({"op": "join", "scal": 0.01})
                wrong = client.join(dataset="road_hydro",
                                    predicate="contains")
        finally:
            server.shutdown()
        for response in (unknown, typo, wrong):
            assert not response["ok"] and response["error"] == "bad_request"
        assert server.stats()["admitted"] == 0


    def test_a_retired_field_is_named_in_the_reject(self, tmp_path):
        """``memory_bytes`` left the wire: a client still sending it is told
        which field, not served a join that ignores it."""
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                response = client.join(memory_bytes=8 << 20)
        finally:
            server.shutdown()
        assert response["error"] == "bad_request" and "memory_bytes" in response["message"]


class TestCoalescing:
    def test_simultaneous_identical_queries_coalesce(self, tmp_path):
        """The second identical query must wait on the first's result log
        rather than execute.  Determinism: the test itself holds the
        leadership slot for the fingerprint, so the client query is
        provably *blocked* behind a leader, then released."""
        server, host, port = start_server(tmp_path)
        try:
            # Fill the cache so the released follower replays.
            with ServeClient(host, port) as client:
                first = client.join(**SPEC)
            assert first["source"] == "miss"

            run_id = run_id_of(SPEC)
            gate = threading.Event()
            with server._lock:
                server._leaders[run_id] = gate  # pose as the leader

            response = {}

            def follower():
                with ServeClient(host, port) as client:
                    response.update(client.join(**SPEC))

            thread = threading.Thread(target=follower, daemon=True)
            thread.start()
            thread.join(timeout=1.0)
            assert thread.is_alive(), "query ran without waiting for leader"

            with server._lock:
                server._leaders.pop(run_id)
            gate.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            server.shutdown()
        assert response["ok"]
        assert response["source"] == "coalesced"
        assert response["result_sha256"] == first["result_sha256"]
        assert server.stats()["coalesced"] == 1

    def test_concurrent_identical_queries_execute_once(self, tmp_path):
        server, host, port = start_server(tmp_path, max_inflight=2)
        results = [None, None]

        def fire(i):
            with ServeClient(host, port) as client:
                results[i] = client.join(**SPEC)

        try:
            threads = [
                threading.Thread(target=fire, args=(i,), daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            server.shutdown()
        sources = sorted(r["source"] for r in results)
        assert sources == ["coalesced", "miss"]
        assert results[0]["result_sha256"] == results[1]["result_sha256"]
        assert server.stats()["misses"] == 1


class TestMaterialise:
    """The dataset memo: one generation and one serialisation per dataset,
    whoever asks and however many ask at once."""

    def test_four_cold_queries_generate_once_and_share_the_pair(
        self, tmp_path, monkeypatch, waiting
    ):
        server = JoinServer(tmp_path / "cache", tmp_path / "out")
        generate = QuerySpec.generate
        calls, entered, release = [], threading.Event(), threading.Event()

        def slow_generate(spec, *pool):
            calls.append(spec.dataset_key)
            entered.set()
            assert release.wait(timeout=30.0)
            return generate(spec, *pool)

        monkeypatch.setattr(QuerySpec, "generate", slow_generate)
        specs = [QuerySpec(num_partitions=p, **SPEC) for p in (0, 5, 6, 7)]
        got = [None] * len(specs)

        def materialise(i):
            got[i] = server._materialise(specs[i])

        threads = [
            threading.Thread(target=materialise, args=(i,), daemon=True)
            for i in range(len(specs))
        ]
        try:
            for thread in threads:
                thread.start()
            assert entered.wait(timeout=30.0)
            for _ in threads[1:]:  # three wait on the flight of the fourth
                assert waiting.acquire(timeout=30.0)
            assert len(calls) == 1 and got == [None] * 4
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            release.set()
            server.shutdown()
        assert len(calls) == 1
        assert all(isinstance(side, InputSide) for pair in got for side in pair)
        assert all(
            pair[0] is got[0][0] and pair[1] is got[0][1] for pair in got
        )

    def test_failed_generation_wakes_waiters_and_leaves_no_entry(
        self, tmp_path, monkeypatch, waiting
    ):
        server = JoinServer(tmp_path / "cache", tmp_path / "out")
        generate = QuerySpec.generate
        entered, release = threading.Event(), threading.Event()

        def failing(spec, *pool):
            entered.set()
            assert release.wait(timeout=30.0)
            raise OSError("generator fell over")

        monkeypatch.setattr(QuerySpec, "generate", failing)
        spec = QuerySpec(**SPEC)
        errors = []

        def materialise():
            try:
                server._materialise(spec)
            except OSError as exc:
                errors.append(str(exc))

        threads = [
            threading.Thread(target=materialise, daemon=True) for _ in range(3)
        ]
        try:
            for thread in threads:
                thread.start()
            assert entered.wait(timeout=30.0)
            for _ in threads[1:]:
                assert waiting.acquire(timeout=30.0)
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert errors == ["generator fell over"] * 3
            assert server._datasets == {}
            # Nothing poisoned: the next query generates afresh.
            monkeypatch.setattr(QuerySpec, "generate", generate)
            side_r, side_s = server._materialise(spec)
            assert len(side_r) > len(side_s) > 0
        finally:
            release.set()
            server.shutdown()

    def test_eviction_at_the_cap_leaves_the_pair_collectable(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import server as server_module

        tuples = list(QuerySpec(**SPEC).generate()[1])[:8]
        monkeypatch.setattr(
            QuerySpec, "generate",
            lambda spec, *pool: (InputSide(tuples), InputSide(tuples[:4])),
        )
        server = JoinServer(tmp_path / "cache", tmp_path / "out")
        try:
            first = server._materialise(QuerySpec(seed=1, **SPEC))
            # A tuple subclass cannot be weakly referenced; its columns can.
            columns = [
                weakref.ref(column)
                for side in first
                for column in (side.mbrs, side.offsets)
            ]
            del first
            for seed in range(2, server_module._DATASET_MEMO_CAP + 1):
                server._materialise(QuerySpec(seed=seed, **SPEC))
            gc.collect()
            assert all(ref() is not None for ref in columns)  # still memoised
            server._materialise(
                QuerySpec(seed=server_module._DATASET_MEMO_CAP + 1, **SPEC)
            )
            gc.collect()
            assert len(server._datasets) == server_module._DATASET_MEMO_CAP
            assert all(ref() is None for ref in columns)
        finally:
            server.shutdown()

    def test_a_generator_raising_in_the_child_leaves_no_entry(
        self, tmp_path, monkeypatch
    ):
        """``generate`` surfaces the child's own exception; the flight
        leaves no memo entry and the pool, which did not break, no
        breaker failure."""
        server = JoinServer(tmp_path / "cache", tmp_path / "out", start_method="fork")
        monkeypatch.setitem(DATASETS, "road_hydro", (generate_roads, _raising_in_child))
        try:
            with pytest.raises(LookupError, match="fell over in pid") as raised:
                server._materialise(QuerySpec(**SPEC))
            assert f"pid {os.getpid()}" not in str(raised.value)
            assert server._datasets == {}
            assert server.breaker.breaker_stats()["failures_in_window"] == 0
        finally:
            server.shutdown()

    def test_a_child_dying_mid_generation_falls_back_inline(
        self, tmp_path, monkeypatch
    ):
        """The pool breaks under S's generator: it is discarded (one breaker
        failure), S is generated in the server, and no worker of the dead
        pool outlives it."""
        before = set(multiprocessing.active_children())
        expected = QuerySpec(**SPEC).generate()
        server = JoinServer(tmp_path / "cache", tmp_path / "out", start_method="fork")
        monkeypatch.setitem(DATASETS, "road_hydro", (generate_roads, _dying_in_child))
        try:
            got = server._materialise(QuerySpec(**SPEC))
            assert server.breaker.breaker_stats()["failures_in_window"] == 1
            deadline = time.monotonic() + 30.0
            while set(multiprocessing.active_children()) - before:
                assert time.monotonic() < deadline, "a dead pool's worker lives on"
                time.sleep(0.05)
        finally:
            server.shutdown()
        assert [(side.payload, side.offsets.tolist()) for side in got] == [
            (side.payload, side.offsets.tolist()) for side in expected
        ]

    def test_memoised_miss_warm_resume_and_hit_serialise_nothing(
        self, tmp_path, serialised
    ):
        from repro.faults import CoordinatorKilledError
        from repro.parallel import ProcessPBSM

        spec = QuerySpec(**SPEC)
        tuples_r, tuples_s = spec.generate()
        with pytest.raises(CoordinatorKilledError):
            ProcessPBSM(
                spec.workers, num_partitions=24,
                checkpoint_dir=str(tmp_path / "cache"),
                kill_coordinator_after=4,
            ).run(tuples_r, tuples_s, spec.predicate_fn)
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                cold = client.join(**SPEC)
                assert cold["source"] == "miss"
                # The server's own pair is generated in its stored form.
                assert serialised == []
                miss = client.join(num_partitions=9, **SPEC)
                warm = client.join(num_partitions=24, **SPEC)
                hit = client.join(**SPEC)
        finally:
            server.shutdown()
        assert [r["source"] for r in (miss, warm, hit)] == ["miss", "warm", "hit"]
        assert {r["result_sha256"] for r in (cold, miss, warm, hit)} == {
            cold["result_sha256"]
        }
        assert serialised == []


def _raising_in_child(scale, **seed):
    if multiprocessing.parent_process() is not None:
        raise LookupError(f"generator fell over in pid {os.getpid()}")
    return generate_hydrography(scale=scale, **seed)


def _dying_in_child(scale, **seed):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return generate_hydrography(scale=scale, **seed)


class TestConcurrentGeneration:
    """``QuerySpec.generate(workers)``: S generated on the resident pool
    while R is generated here gives the bytes the sequential path gives."""

    @pytest.fixture(scope="class", params=["fork", "spawn"])
    def method(self, request):
        return request.param

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("seed", [0, 7, 1996])
    def test_same_stored_form_as_the_sequential_path(self, method, dataset, seed):
        spec = QuerySpec(dataset, scale=0.002, seed=seed)
        retired = process.RESIDENT_POOL.retired
        pooled = spec.generate(1, method)
        assert process.RESIDENT_POOL.retired == retired
        for got, expected in zip(pooled, spec.generate()):
            assert got.payload == expected.payload
            assert np.array_equal(got.offsets, expected.offsets)


class TestAdmission:
    def test_queue_full_reject_is_immediate_and_explicit(self, tmp_path):
        server, host, port = start_server(
            tmp_path, max_inflight=1, max_queue=0
        )
        try:
            run_id = run_id_of(SPEC)
            gate = threading.Event()
            with server._lock:
                server._leaders[run_id] = gate  # wedge the only slot

            blocked = {}

            def occupant():
                with ServeClient(host, port) as client:
                    blocked.update(client.join(**SPEC))

            thread = threading.Thread(target=occupant, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.stats()["inflight"] == 1:
                    break
                time.sleep(0.01)
            assert server.stats()["inflight"] == 1

            started = time.perf_counter()
            with ServeClient(host, port) as client:
                rejected = client.join(**SPEC)
            reject_latency = time.perf_counter() - started
            assert not rejected["ok"]
            assert rejected["error"] == "queue_full"
            assert reject_latency < 1.0  # rejected, not queued

            with server._lock:
                server._leaders.pop(run_id)
            gate.set()
            thread.join(timeout=60.0)
        finally:
            server.shutdown()
        assert blocked["ok"]
        stats = server.stats()
        assert stats["rejected"] == 1 and stats["admitted"] == 1


class TestShutdown:
    def test_drain_finishes_inflight_and_rejects_new(self, tmp_path):
        server, host, port = start_server(tmp_path)
        run_id = run_id_of(SPEC)
        gate = threading.Event()
        inflight_response = {}

        # Warm the cache, then hold a query in flight behind a posed
        # leader while shutdown drains.
        with ServeClient(host, port) as client:
            first = client.join(**SPEC)
        with server._lock:
            server._leaders[run_id] = gate

        def occupant():
            with ServeClient(host, port) as client:
                inflight_response.update(client.join(**SPEC))

        thread = threading.Thread(target=occupant, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and server.stats()["inflight"] != 1:
            time.sleep(0.01)

        late_client = ServeClient(host, port)  # connected pre-shutdown
        shutter = threading.Thread(target=server.shutdown, daemon=True)
        shutter.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not server.stats()["draining"]:
            time.sleep(0.01)

        late = late_client.join(**SPEC)
        assert not late["ok"] and late["error"] == "shutting_down"
        late_client.close()

        with server._lock:
            server._leaders.pop(run_id)
        gate.set()
        shutter.join(timeout=60.0)
        thread.join(timeout=10.0)
        assert server.stopped.is_set()

        # The drained query completed with the right answer...
        assert inflight_response["ok"]
        assert inflight_response["result_sha256"] == first["result_sha256"]
        # ...and the cache is consistent: every surviving manifest is
        # readable and the completed entry is intact.
        infos = inspect_checkpoint_dir(tmp_path / "cache")
        assert infos and all(not info.error for info in infos)
        assert any(info.complete for info in infos)


class TestFaults:
    def test_served_results_survive_a_fault_plan(self, tmp_path):
        plan = load_plan("worker_faults", seed=3, num_pairs=8)
        server, host, port = start_server(tmp_path, fault_plan=plan)
        try:
            with ServeClient(host, port) as client:
                miss = client.join(**SPEC)
                hit = client.join(**SPEC)
        finally:
            server.shutdown()
        assert miss["ok"] and hit["ok"]
        assert miss["source"] == "miss" and hit["source"] == "hit"
        # Identical to a clean, unserved, fault-free run: the recovery
        # machinery may retry and degrade, never change the answer.
        assert miss["result_sha256"] == one_shot_digest(SPEC)
        assert hit["result_sha256"] == miss["result_sha256"]

    def test_coordinator_kill_drill_resumes_and_stays_identical(self, tmp_path):
        server, host, port = start_server(tmp_path, kill_coordinator_after=4)
        try:
            with ServeClient(host, port) as client:
                drilled = client.join(**SPEC)
                hit = client.join(**SPEC)
        finally:
            server.shutdown()
        assert drilled["ok"]
        assert drilled["drill"] == {"killed_at_ordinal": 4, "resumed": True}
        assert drilled["result_sha256"] == one_shot_digest(SPEC)
        assert hit["ok"] and hit["source"] == "hit"
        assert hit["result_sha256"] == drilled["result_sha256"]
        assert "drill" not in hit


class TestDeadlines:
    def test_stalled_query_rejects_then_retry_recovers(self, tmp_path):
        # A seeded stall pins one pair's worker for longer than the
        # query's deadline: the server answers a *typed* reject, keeps
        # the committed prefix in the cache, and a retry without a
        # deadline waits out the stall and lands byte-identical.
        plan = load_plan("deadline_stall", seed=3, num_pairs=8, hang_s=3.0)
        server, host, port = start_server(tmp_path, fault_plan=plan)
        try:
            with ServeClient(host, port) as client:
                rejected = client.join(deadline_s=1.0, **SPEC)
                retried = client.join(**SPEC)
        finally:
            server.shutdown()
        assert not rejected["ok"]
        assert rejected["error"] == "deadline_exceeded"
        assert rejected["deadline_s"] == 1.0
        assert (
            rejected["completed_pairs"] + rejected["pending_pairs"] == 8
        )
        assert retried["ok"]
        assert retried["source"] in ("warm", "miss")
        assert retried["result_sha256"] == one_shot_digest(SPEC)
        stats = server.stats()
        assert stats["outcomes"]["deadline_exceeded"] == 1
        assert stats["outcomes"]["completed"] == 1
        assert stats["duplicates_dropped"] == 0

    def test_deadline_is_a_cost_knob_not_an_answer_knob(self, tmp_path):
        # deadline_s is excluded from the run fingerprint: a deadlined
        # repeat of an undeadlined query is a plain cache hit.
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                miss = client.join(**SPEC)
                hit = client.join(deadline_s=300.0, **SPEC)
        finally:
            server.shutdown()
        assert miss["ok"] and miss["source"] == "miss"
        assert hit["ok"] and hit["source"] == "hit"
        assert hit["result_sha256"] == miss["result_sha256"]


def retire_pool_generation():
    """Simulate a worker crash's pool retirement (one breaker failure)."""
    pool = process.RESIDENT_POOL.acquire(2, multiprocessing.get_context())
    process.RESIDENT_POOL.discard(pool)
    process.RESIDENT_POOL.release(pool)


class TestBreaker:
    OTHER = {"dataset": "road_hydro", "scale": 0.003, "workers": 2}

    def test_open_breaker_sheds_to_byte_identical_degraded(self, tmp_path):
        server, host, port = start_server(
            tmp_path, breaker_threshold=1, breaker_cooldown_s=60.0
        )
        try:
            with ServeClient(host, port) as client:
                baseline = client.join(**SPEC)
                retire_pool_generation()
                degraded = client.join(**self.OTHER)
                # Cache hits never consult the breaker: the cached spec
                # still serves from the log while the pool is shunned.
                hit = client.join(**SPEC)
            stats = server.stats()
        finally:
            server.shutdown()
        assert baseline["ok"] and baseline["source"] == "miss"
        assert degraded["ok"] and degraded["source"] == "degraded"
        assert degraded["result_sha256"] == one_shot_digest(self.OTHER)
        assert hit["ok"] and hit["source"] == "hit"
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["trips"] == 1
        assert stats["outcomes"]["degraded"] == 1
        assert stats["duplicates_dropped"] == 0
        # A degraded run must not shadow the real cache entry: the shed
        # path never writes a run directory for its fingerprint.
        assert not (tmp_path / "cache" / run_id_of(self.OTHER)).exists()

    def test_half_open_probe_closes_the_breaker(self, tmp_path, clock):
        server, host, port = start_server(
            tmp_path, breaker_threshold=1, breaker_cooldown_s=0.3
        )
        try:
            retire_pool_generation()
            assert server.breaker.breaker_stats()["state"] == "open"
            clock.advance(0.35)
            with ServeClient(host, port) as client:
                probe = client.join(**SPEC)
            stats = server.stats()
        finally:
            server.shutdown()
        # The probe ran pool-backed and its success closed the breaker.
        assert probe["ok"] and probe["source"] == "miss"
        assert probe["result_sha256"] == one_shot_digest(SPEC)
        assert stats["breaker"]["state"] == "closed"
        assert stats["breaker"]["trips"] == 1
        assert stats["outcomes"]["degraded"] == 0


class TestScrubberIntegration:
    def test_corrupted_entry_is_quarantined_and_requeried_clean(
        self, tmp_path
    ):
        server, host, port = start_server(tmp_path, scrub_interval_s=0.1)
        try:
            with ServeClient(host, port) as client:
                first = client.join(**SPEC)
                assert first["ok"] and first["source"] == "miss"
                log = (
                    tmp_path / "cache" / first["run_id"] / "results.log"
                )
                data = bytearray(log.read_bytes())
                data[10] ^= 0xFF
                log.write_bytes(bytes(data))

                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if server.stats()["scrub"]["quarantined"] >= 1:
                        break
                    time.sleep(0.05)
                assert server.stats()["scrub"]["quarantined"] == 1
                assert (
                    tmp_path / "cache" / "quarantine" / first["run_id"]
                ).is_dir()

                # The fingerprint is a cold miss now; the re-run answer
                # is byte-identical to the pre-corruption one.
                again = client.join(**SPEC)
            stats = server.stats()
        finally:
            server.shutdown()
        assert again["ok"] and again["source"] == "miss"
        assert again["result_sha256"] == first["result_sha256"]
        assert stats["duplicates_dropped"] == 0
        assert stats["scrub"]["errors"] == 0


class TestStatsOp:
    def test_stats_exposes_resilience_state(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                stats = client.stats()["stats"]
        finally:
            server.shutdown()
        assert stats["breaker"]["state"] == "closed"
        assert set(stats["outcomes"]) == {
            "completed", "deadline_exceeded", "degraded", "rejected",
            "failed", "storage_overload",
        }
        assert stats["scrub"]["running"] is False  # no --scrub-interval
        assert stats["disk"] is None  # no --disk-budget
        assert stats["duplicates_dropped"] == 0


    def test_payload_key_sets_are_golden(self, tmp_path):
        # The wire shapes are a contract (`repro top`, the drills, the
        # benchmark notes all read them): exactly these keys, no more.
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                response = client.stats()
                telemetry = client.telemetry()["telemetry"]
        finally:
            server.shutdown()
        assert set(response["stats"]) == {
            "admitted", "rejected", "completed", "failed", "outcomes",
            "queued", "inflight", "max_inflight", "max_queue", "hits",
            "misses", "coalesced", "latency", "cache", "disk", "breaker",
            "scrub", "duplicates_dropped", "pool_generation", "workers",
            "draining", "uptime_s",
        }
        assert set(response["summary"]) == {
            "outcomes", "breaker_state", "breaker_trips", "scrub_passes",
            "scrub_quarantined", "duplicates_dropped", "pool_generation",
        }
        assert set(telemetry) == {
            "sampling", "series", "slow_log", "outcomes", "stats",
        }
        assert set(telemetry["stats"]) == set(response["stats"])

    def test_concurrent_tallies_lose_no_update(self, tmp_path):
        # Each tally lives once, as a registry counter bumped under the
        # server lock: hammering the join path from more threads than
        # cores must leave stats and the metrics op in exact agreement.
        from repro.obs import parse_exposition

        threads_n, joins_n = 8, 25
        server = JoinServer(
            tmp_path / "cache", tmp_path / "out",
            max_inflight=4, max_queue=threads_n,
        )
        server._execute = lambda spec, query_id, started, phases: {
            "ok": True, "op": "join", "query": query_id,
        }

        def hammer():
            for _ in range(joins_n):
                assert server._op_join(dict(SPEC))["ok"]

        race(*[hammer] * threads_n)
        try:
            stats = server.stats()
            parsed = parse_exposition(
                server._dispatch({"op": "metrics"})["exposition"]
            )
        finally:
            server.shutdown()
        total = threads_n * joins_n
        assert stats["completed"] == stats["admitted"] == total
        assert parsed["repro_serve_completed"]["value"] == total
        assert parsed["repro_serve_admitted"]["value"] == total
        assert stats["rejected"] == stats["failed"] == 0
        assert stats["queued"] == stats["inflight"] == 0


class TestStoragePressure:
    def test_over_footprint_query_gets_typed_reject(self, tmp_path):
        # A budget far below the workload's estimated spill footprint:
        # admission must refuse with the typed storage_overload reject
        # before a single byte hits disk — never a crash or a partial
        # answer.
        server, host, port = start_server(tmp_path, disk_budget_bytes=10_000)
        try:
            with ServeClient(host, port) as client:
                response = client.join(**SPEC)
                stats = client.stats()["stats"]
        finally:
            server.shutdown()
        assert not response.get("ok"), response
        assert response["error"] == "storage_overload"
        assert response["estimated_bytes"] > response["available_bytes"]
        assert response["available_bytes"] <= 10_000
        assert stats["outcomes"]["storage_overload"] == 1
        assert stats["disk"]["used_bytes"] == 0
        assert stats["disk"]["max_bytes"] == 10_000

    def test_generous_budget_serves_identically_and_meters(self, tmp_path):
        server, host, port = start_server(
            tmp_path, disk_budget_bytes=64 * 1024 * 1024
        )
        try:
            with ServeClient(host, port) as client:
                miss = client.join(**SPEC)
                stats = client.stats()["stats"]
        finally:
            server.shutdown()
        assert miss["ok"] and miss["source"] == "miss"
        assert miss["result_sha256"] == one_shot_digest(SPEC)
        # The engine's spill + checkpoint bytes stay charged: they are
        # the cache entry the budget now governs.
        assert stats["disk"]["used_bytes"] > 0
        assert stats["outcomes"]["storage_overload"] == 0
        assert stats["duplicates_dropped"] == 0


class TestTelemetryOps:
    def test_telemetry_op_reports_series_and_slow_log(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                miss = client.join(**SPEC)
                hit = client.join(**SPEC)
                server.sampler.sample()  # deterministic manual tick
                response = client.telemetry()
        finally:
            server.shutdown()
        assert miss["ok"] and hit["ok"]
        assert response["ok"] and response["op"] == "telemetry"
        telemetry = response["telemetry"]
        assert telemetry["sampling"]["ticks"] == 1
        series = telemetry["series"]
        assert series["completed"]["last"] == 2.0
        assert series["cache_hits"]["last"] == 1.0
        assert series["breaker_state"]["last"] == 0.0  # closed
        # The slow log carries the full phase breakdown per query.
        entries = telemetry["slow_log"]
        assert len(entries) == 2
        assert {e["source"] for e in entries} == {"miss", "hit"}
        for entry in entries:
            assert set(entry["phases"]) == {
                "queue_s", "materialise_s", "execute_s",
            }
            assert entry["latency_s"] >= entry["phases"]["queue_s"]
        # The miss did engine work; it must rank above the hit.
        assert entries[0]["source"] == "miss"

    def test_outcome_block_shared_by_stats_and_telemetry(self, tmp_path):
        from repro.serve import outcome_block

        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                client.join(**SPEC)
                stats_response = client.stats()
                telemetry = client.telemetry()["telemetry"]
        finally:
            server.shutdown()
        # One formatter, three consumers: the stats op summary, the
        # telemetry op outcomes, and (via import) the benchmark notes.
        block = outcome_block(stats_response["stats"])
        assert stats_response["summary"] == block
        assert telemetry["outcomes"] == block
        assert block["outcomes"]["completed"] == 1
        assert block["breaker_state"] == "closed"

    def test_metrics_op_exposition_parses_and_matches_stats(self, tmp_path):
        from repro.obs import parse_exposition

        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                client.join(**SPEC)
                client.join(**SPEC)
                first = client.metrics()
                second = client.metrics()
                stats = client.stats()["stats"]
        finally:
            server.shutdown()
        assert first["ok"] and first["content_type"].startswith("text/plain")
        # Deterministic: an idle server scrapes byte-identical text.
        assert first["exposition"] == second["exposition"]
        parsed = parse_exposition(first["exposition"])
        assert parsed["repro_serve_completed"]["value"] == (
            stats["outcomes"]["completed"]
        )
        assert parsed["repro_serve_cache_hits"]["value"] == stats["hits"]
        assert parsed["repro_serve_cache_misses"]["value"] == stats["misses"]
        latency = parsed["repro_serve_latency_s"]
        assert latency["type"] == "histogram"
        assert latency["count"] == 2.0

    def test_window_s_must_be_numeric(self, tmp_path):
        server, host, port = start_server(tmp_path)
        try:
            with ServeClient(host, port) as client:
                bad = client.request({"op": "telemetry", "window_s": "soon"})
        finally:
            server.shutdown()
        assert not bad["ok"] and bad["error"] == "bad_request"

    def test_interval_sampler_ticks_and_journals(self, tmp_path):
        server, host, port = start_server(
            tmp_path, telemetry_interval_s=0.05
        )
        try:
            with ServeClient(host, port) as client:
                client.join(**SPEC)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if server.sampler.ticks >= 2:
                        break
                    time.sleep(0.02)
                assert server.sampler.ticks >= 2
        finally:
            server.shutdown()
        journal = (tmp_path / "out" / "serve.jsonl").read_text().splitlines()
        samples = [
            record for record in map(json.loads, journal)
            if record["type"] == "sample"
        ]
        assert samples and all(r["kind"] == "telemetry" for r in samples)
        assert {"queued", "inflight", "completed", "breaker_state"} <= set(
            samples[0]
        )


class TestSigterm:
    def test_sigterm_drains_and_exits_clean(self, tmp_path):
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "out"),
                "--port-file", str(port_file),
                "--workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = read_port_file(port_file, timeout_s=30.0)
            wait_for_server("127.0.0.1", port, timeout_s=30.0)
            with ServeClient("127.0.0.1", port) as client:
                response = client.join(**SPEC)
            assert response["ok"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained" in out
        # The cache survived shutdown consistent and replayable.
        infos = inspect_checkpoint_dir(tmp_path / "cache")
        assert len(infos) == 1 and infos[0].complete and not infos[0].error
        # The serve journal is valid JSONL with the typed serve events.
        journal = (tmp_path / "out" / "serve.jsonl").read_text().splitlines()
        kinds = {json.loads(line)["type"] for line in journal}
        assert {"query_received", "query_done"} <= kinds
