"""ArtifactCache: lookup classification, result-log replay, pinning, and
the one shared LRU-by-bytes eviction policy (cache + ``checkpoints gc``)."""

import dataclasses
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    STATE_MERGING,
    CheckpointInfo,
    CheckpointStore,
    JoinManifest,
    RunFingerprint,
    gc_checkpoint_dir,
    select_lru_victims,
)
from repro.parallel import PairTaskResult
from repro.serve import LOOKUP_HIT, LOOKUP_MISS, LOOKUP_WARM, ArtifactCache
from repro.__main__ import main

SEAL_R = {"type": "spills_sealed", "side": "r", "files": [], "placed": 0}
SEAL_S = {"type": "spills_sealed", "side": "s", "files": [], "placed": 0}


def make_fingerprint(salt=0):
    return RunFingerprint(
        count_r=10 + salt, count_s=20, crc_r=111, crc_s=222,
        predicate="intersects", num_partitions=4, config={"num_tiles": 64},
    )


def make_result(index, pairs):
    return PairTaskResult(
        index=index, worker_pid=1234, pairs=[tuple(p) for p in pairs],
        candidates=3, count_r=2, count_s=2, wall_s=0.01,
    )


def seed_complete_run(root, salt=0, pad_bytes=0, fingerprint=None):
    """A finished run whose disjoint pair logs merge to {(1,2),(3,4),(5,6)}."""
    store = CheckpointStore(root, fingerprint or make_fingerprint(salt))
    with store:
        store.begin(JoinManifest(store.fingerprint))
        store.append_event(SEAL_R)
        store.append_event(SEAL_S)
        store.append_event(
            {"type": "phase", "state": STATE_MERGING, "pairs_total": 2}
        )
        store.append_result(make_result(0, [(1, 2), (3, 4)]))
        store.append_result(make_result(1, [(5, 6)]))
        store.append_event({"type": "complete", "result_count": 3})
    if pad_bytes:
        (store.run_dir / "pad.bin").write_bytes(b"x" * pad_bytes)
    return store


def seed_partial_run(root, salt=0, fingerprint=None):
    store = CheckpointStore(root, fingerprint or make_fingerprint(salt))
    with store:
        store.begin(JoinManifest(store.fingerprint))
        store.append_event(SEAL_R)
        store.append_event(SEAL_S)
    return store


class TestLookup:
    def test_absent_run_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.lookup(make_fingerprint()) == LOOKUP_MISS

    def test_complete_run_is_a_hit(self, tmp_path):
        seed_complete_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.lookup(make_fingerprint()) == LOOKUP_HIT

    def test_partial_run_is_warm(self, tmp_path):
        seed_partial_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.lookup(make_fingerprint()) == LOOKUP_WARM

    def test_entries_of_the_per_record_spill_layout_are_misses(self, tmp_path):
        # two-layer-v1 artifacts hold one-frame-per-record spills the block
        # reader cannot adopt: the layout tag keeps them out of reach.
        for salt, seed in ((0, seed_complete_run), (1, seed_partial_run)):
            old = dataclasses.replace(
                make_fingerprint(salt), layout="two-layer-v1"
            )
            seed(tmp_path, fingerprint=old)
            cache = ArtifactCache(tmp_path)
            assert cache.lookup(old) != LOOKUP_MISS  # the entry is intact
            assert cache.lookup(make_fingerprint(salt)) == LOOKUP_MISS

    def test_corrupt_manifest_is_a_miss_not_an_error(self, tmp_path):
        store = seed_complete_run(tmp_path)
        store.manifest_path.write_bytes(b"garbage")
        cache = ArtifactCache(tmp_path)
        assert cache.lookup(make_fingerprint()) == LOOKUP_MISS

    def test_foreign_fingerprint_in_the_dir_is_a_miss(self, tmp_path):
        # A run directory whose manifest belongs to a different join must
        # never be served as this join's answer.
        ours, theirs = make_fingerprint(0), make_fingerprint(1)
        store = seed_complete_run(tmp_path, salt=1)
        (tmp_path / ours.run_id).mkdir()
        (tmp_path / ours.run_id / "manifest.bin").write_bytes(
            store.manifest_path.read_bytes()
        )
        cache = ArtifactCache(tmp_path)
        assert cache.lookup(ours) == LOOKUP_MISS
        assert cache.lookup(theirs) == LOOKUP_HIT


class TestReplay:
    def test_replays_the_committed_merge_sorted(self, tmp_path):
        seed_complete_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.replay(make_fingerprint()) == [(1, 2), (3, 4), (5, 6)]

    def test_a_hit_reads_each_file_once(self, tmp_path, opens):
        # lookup then replay under the query's pin, as the server calls
        # them: the manifest lookup loaded is the one replay verifies by.
        store = seed_complete_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        fingerprint = make_fingerprint()
        opens.clear()
        with cache.pinned(fingerprint.run_id):
            assert cache.lookup(fingerprint) == LOOKUP_HIT
            assert cache.replay(fingerprint) == [(1, 2), (3, 4), (5, 6)]
        assert opens == {
            str(store.manifest_path): 1, str(store.results_path): 1,
        }
        # Unpinned, nothing is remembered between the calls.
        assert cache.lookup(fingerprint) == LOOKUP_HIT
        assert cache._hits == {}

    def test_overlapping_pair_logs_refuse_to_serve(self, tmp_path):
        # Two-layer partitioning makes per-pair logs disjoint by
        # construction; a duplicate across logs means the artifacts were
        # not written by the current layout and must not be served.
        store = CheckpointStore(tmp_path, make_fingerprint(7))
        with store:
            store.begin(JoinManifest(store.fingerprint))
            store.append_event(SEAL_R)
            store.append_event(SEAL_S)
            store.append_event(
                {"type": "phase", "state": STATE_MERGING, "pairs_total": 2}
            )
            store.append_result(make_result(0, [(1, 2), (3, 4)]))
            store.append_result(make_result(1, [(3, 4), (5, 6)]))
            store.append_event({"type": "complete", "result_count": 3})
        cache = ArtifactCache(tmp_path)
        assert cache.replay(make_fingerprint(7)) is None

    def test_count_mismatch_refuses_to_serve(self, tmp_path):
        # The manifest promises 3 results; hand-truncate the log so the
        # union disagrees — the entry is lying and must not be served.
        store = seed_complete_run(tmp_path)
        store.results_path.unlink()
        cache = ArtifactCache(tmp_path)
        assert cache.replay(make_fingerprint()) is None

    def test_partial_run_refuses_to_replay(self, tmp_path):
        seed_partial_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.replay(make_fingerprint()) is None


class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, fields))


class TestCorruptReplay:
    """Regression: a corrupted result log must downgrade to a miss (with
    a ``cache_corrupt`` event), never crash the serving query."""

    def test_mid_log_damage_downgrades_to_miss(self, tmp_path):
        from repro.obs import MetricsRegistry

        store = seed_complete_run(tmp_path)
        data = bytearray(store.results_path.read_bytes())
        data[10] ^= 0xFF  # frame 0 payload byte: CRC check must fail
        store.results_path.write_bytes(bytes(data))

        journal = _Recorder()
        metrics = MetricsRegistry()
        cache = ArtifactCache(tmp_path, journal=journal, metrics=metrics)
        assert cache.replay(make_fingerprint()) is None
        assert metrics.snapshot()["serve.cache.corrupt"]["value"] == 1
        events = [e for e in journal.events if e[0] == "cache_corrupt"]
        assert len(events) == 1
        assert events[0][1]["run_id"] == store.fingerprint.run_id
        assert events[0][1]["reason"]

    def test_byte_truncated_log_downgrades_to_miss(self, tmp_path):
        # A torn tail replays clean but short: the committed union then
        # disagrees with the manifest's result_count — distrust, miss.
        store = seed_complete_run(tmp_path)
        data = store.results_path.read_bytes()
        store.results_path.write_bytes(data[: len(data) - 3])

        journal = _Recorder()
        cache = ArtifactCache(tmp_path, journal=journal)
        assert cache.replay(make_fingerprint()) is None
        events = [e for e in journal.events if e[0] == "cache_corrupt"]
        assert len(events) == 1


class TestPinning:
    def test_pin_is_refcounted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with cache.pinned("run-aa"):
            with cache.pinned("run-aa"):
                assert cache.pinned_ids() == {"run-aa"}
            assert cache.pinned_ids() == {"run-aa"}
        assert cache.pinned_ids() == set()

    def test_eviction_never_removes_a_pinned_entry(self, tmp_path):
        a = seed_complete_run(tmp_path, salt=0, pad_bytes=4096)
        b = seed_complete_run(tmp_path, salt=1, pad_bytes=4096)
        cache = ArtifactCache(tmp_path, max_bytes=0)
        with cache.pinned(a.fingerprint.run_id):
            evicted = cache.ensure_budget()
        assert evicted == [b.fingerprint.run_id]
        assert a.run_dir.is_dir() and not b.run_dir.exists()
        # Unpinned now; the budget still wants it gone.
        assert cache.ensure_budget() == [a.fingerprint.run_id]

    def test_touched_entries_outlive_untouched_ones(self, tmp_path):
        a = seed_complete_run(tmp_path, salt=0, pad_bytes=4096)
        b = seed_complete_run(tmp_path, salt=1, pad_bytes=4096)
        c = seed_complete_run(tmp_path, salt=2, pad_bytes=4096)
        # Make b the *oldest* by mtime, then touch it: the logical clock
        # must override mtime, so the untouched a and c evict first.
        old = os.path.getmtime(b.manifest_path) - 1000
        os.utime(b.manifest_path, (old, old))
        cache = ArtifactCache(tmp_path, max_bytes=5000)
        cache.touch(b.fingerprint.run_id)
        evicted = set(cache.ensure_budget())
        assert b.fingerprint.run_id not in evicted
        assert evicted == {a.fingerprint.run_id, c.fingerprint.run_id}


def info(run_id, nbytes, mtime):
    return CheckpointInfo(
        run_id=run_id, path=f"/nowhere/{run_id}", state="complete",
        pairs_done=1, pairs_total=1, result_count=1,
        bytes_total=nbytes, mtime=float(mtime),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lru_victim_selection_properties(data):
    """The policy invariants, property-checked:

    * pinned entries are never selected, whatever the budget;
    * if the survivors still exceed the budget, every unpinned entry was
      selected (only pins may hold the budget blown);
    * victims are strictly older (by the recency-overlaid age key) than
      every unpinned survivor — it really is least-recently-used-first.
    """
    n = data.draw(st.integers(min_value=0, max_value=8))
    infos = [
        info(
            f"run-{i:02d}",
            data.draw(st.integers(min_value=0, max_value=1000)),
            data.draw(st.integers(min_value=0, max_value=5)),
        )
        for i in range(n)
    ]
    pinned = {
        i.run_id for i in infos if data.draw(st.booleans())
    }
    touched = [i.run_id for i in infos if data.draw(st.booleans())]
    recency = {run_id: tick for tick, run_id in enumerate(touched)}
    total = sum(i.bytes_total for i in infos)
    max_bytes = data.draw(st.integers(min_value=0, max_value=max(total, 1)))

    victims = select_lru_victims(
        infos, max_bytes, pinned=pinned, recency=recency
    )
    victim_ids = {v.run_id for v in victims}

    assert not (victim_ids & pinned)
    survivors = [i for i in infos if i.run_id not in victim_ids]
    leftover = sum(i.bytes_total for i in survivors)
    if leftover > max_bytes:
        assert all(i.run_id in pinned for i in survivors)

    def age_key(i):
        if i.run_id in recency:
            return (1, recency[i.run_id], i.run_id)
        return (0, i.mtime, i.run_id)

    unpinned_survivors = [i for i in survivors if i.run_id not in pinned]
    if victims and unpinned_survivors:
        assert max(age_key(v) for v in victims) < min(
            age_key(s) for s in unpinned_survivors
        )


class TestGcMaxBytes:
    def test_cli_prunes_lru_to_budget(self, tmp_path, capsys):
        a = seed_complete_run(tmp_path, salt=0, pad_bytes=4096)
        b = seed_partial_run(tmp_path, salt=1)
        old = os.path.getmtime(a.manifest_path) - 1000
        os.utime(a.manifest_path, (old, old))
        rc = main([
            "checkpoints", "gc", "--dir", str(tmp_path),
            "--max-bytes", "600", "--json",
        ])
        assert rc == 0
        # Size-based pruning ignores completeness: the big old complete
        # run goes first even though default gc would have kept b's
        # resumable state only by policy, not by age.
        assert not a.run_dir.exists()
        assert b.run_dir.is_dir()

    def test_cli_refuses_max_bytes_plus_run_selector(self, tmp_path):
        seed_complete_run(tmp_path)
        rc = main([
            "checkpoints", "gc", "--dir", str(tmp_path),
            "--max-bytes", "0", "--all",
        ])
        assert rc == 2

    def test_library_refuses_mixed_policies(self, tmp_path):
        seed_complete_run(tmp_path)
        try:
            gc_checkpoint_dir(tmp_path, max_bytes=0, all_runs=True)
        except ValueError:
            pass
        else:
            raise AssertionError("mixed gc policies must be rejected")


class TestSizingReadsNoLog:
    def test_stats_and_eviction_stat_their_entries(self, tmp_path, opens):
        """How many bytes, how old: the questions ``stats`` (every ``repro
        top`` tick) and eviction (every query under ``--max-cache-bytes``)
        ask are answered from ``stat`` — no result log is opened, let
        alone parsed."""
        old = seed_complete_run(tmp_path, salt=0, pad_bytes=4096)
        new = seed_complete_run(tmp_path, salt=1)
        aged = os.path.getmtime(old.manifest_path) - 1000
        os.utime(old.manifest_path, (aged, aged))
        opens.clear()
        cache = ArtifactCache(tmp_path, max_bytes=4096)
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes_total"] > 4096
        assert cache.bytes_total() == stats["bytes_total"]
        assert cache.ensure_budget() == [old.run_dir.name]
        report = gc_checkpoint_dir(tmp_path, max_bytes=0, dry_run=True)
        assert report.removed == [new.run_dir.name]
        assert not any(path.endswith("results.log") for path in opens), opens


class TestDiskBudgetRelease:
    """Evictions and quarantines must return their bytes to an attached
    disk budget — the serve tier's admission headroom comes back when
    entries leave the governed cache directory."""

    def test_eviction_releases_charged_bytes(self, tmp_path):
        from repro.checkpoint import inspect_checkpoint_dir
        from repro.storage import DiskBudget

        seed_complete_run(tmp_path, salt=0, pad_bytes=4096)
        seed_complete_run(tmp_path, salt=1, pad_bytes=4096)
        total = sum(i.bytes_total for i in inspect_checkpoint_dir(tmp_path))
        budget = DiskBudget()
        budget.charge(total, "cache")
        cache = ArtifactCache(tmp_path, max_bytes=0, budget=budget)
        evicted = cache.ensure_budget()
        assert len(evicted) == 2
        assert budget.used == 0
        assert budget.high_watermark == total

    def test_quarantine_releases_charged_bytes(self, tmp_path):
        from repro.storage import DiskBudget

        store = seed_complete_run(tmp_path, salt=0, pad_bytes=1024)
        nbytes = sum(
            f.stat().st_size
            for f in store.run_dir.rglob("*") if f.is_file()
        )
        budget = DiskBudget()
        budget.charge(nbytes, "cache")
        cache = ArtifactCache(tmp_path, budget=budget)
        assert cache.quarantine(store.fingerprint.run_id, "test damage")
        assert budget.used == 0
        assert not store.run_dir.exists()
