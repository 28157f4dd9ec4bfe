"""CacheScrubber: CRC walks, warm-entry repair, quarantine, liveness."""

import time

import pytest

from repro.checkpoint import (
    STATE_MERGING,
    CheckpointStore,
    JoinManifest,
    inspect_checkpoint_dir,
    replay_result_log,
)
from repro.obs import MetricsRegistry
from repro.serve import (
    LOOKUP_MISS,
    LOOKUP_WARM,
    QUARANTINE_DIRNAME,
    ArtifactCache,
    CacheScrubber,
)
from tests.conftest import make_fingerprint, make_result


def seed_complete_run(root, salt=0, result_count=3):
    store = CheckpointStore(root, make_fingerprint(salt))
    with store:
        store.begin(JoinManifest(store.fingerprint))
        store.append_event(
            {"type": "phase", "state": STATE_MERGING, "pairs_total": 2}
        )
        store.append_result(make_result(0, [(1, 2), (3, 4)]))
        store.append_result(make_result(1, [(5, 6)]))
        store.append_event({"type": "complete", "result_count": result_count})
    return store


def seed_warm_run(root, salt=0):
    """A mid-merge run: two pairs committed, no ``complete`` event."""
    store = CheckpointStore(root, make_fingerprint(salt))
    with store:
        store.begin(JoinManifest(store.fingerprint))
        store.append_event(
            {"type": "phase", "state": STATE_MERGING, "pairs_total": 4}
        )
        store.append_result(make_result(0, [(1, 2)]))
        store.append_result(make_result(1, [(3, 4)]))
    return store


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def intact_prefix(path):
    """``(frames, bytes)`` of a result log's intact prefix, as the one
    walk in ``repro.checkpoint`` reports it."""
    committed, intact_bytes, _ended_by = replay_result_log(path)
    return len(committed), intact_bytes


def scrubber_for(tmp_path, **kwargs):
    metrics = kwargs.setdefault("metrics", MetricsRegistry())
    cache = ArtifactCache(tmp_path, metrics=metrics)
    return cache, CacheScrubber(cache, **kwargs)


class TestIntactPrefix:
    def test_missing_file_is_an_empty_intact_log(self, tmp_path):
        assert intact_prefix(tmp_path / "absent.log") == (0, 0)

    def test_healthy_log_is_intact_to_the_byte(self, tmp_path):
        store = seed_complete_run(tmp_path)
        frames, nbytes = intact_prefix(store.results_path)
        assert frames == 2
        assert nbytes == store.results_path.stat().st_size

    def test_damage_truncates_the_prefix_at_the_bad_frame(self, tmp_path):
        store = seed_complete_run(tmp_path)
        # Flip a payload byte of the *second* frame: the CRC walk keeps
        # frame 0 and stops at the damage.
        _, full = intact_prefix(store.results_path)
        first_frame_end = intact_prefix_first_frame_bytes(store)
        flip_byte(store.results_path, first_frame_end + 10)
        frames, nbytes = intact_prefix(store.results_path)
        assert frames == 1
        assert nbytes == first_frame_end < full

    def test_torn_tail_is_not_part_of_the_prefix(self, tmp_path):
        store = seed_complete_run(tmp_path)
        _, full = intact_prefix(store.results_path)
        with open(store.results_path, "ab") as fh:
            fh.write(b"\x03\x00")  # half a frame header
        frames, nbytes = intact_prefix(store.results_path)
        assert frames == 2
        assert nbytes == full


def intact_prefix_first_frame_bytes(store):
    """Byte length of frame 0 (header + payload), via a one-frame log."""
    import struct

    data = store.results_path.read_bytes()
    length, _crc = struct.unpack("<II", data[:8])
    return 8 + length


class TestScrubOnce:
    def test_clean_cache_scrubs_clean(self, tmp_path):
        seed_complete_run(tmp_path, salt=0)
        seed_warm_run(tmp_path, salt=1)
        cache, scrubber = scrubber_for(tmp_path)
        tallies = scrubber.scrub_once()
        assert tallies == {"scanned": 2, "repaired": 0, "quarantined": 0,
                           "evicted": 0}
        assert scrubber.stats()["passes"] == 1

    def test_a_pass_reads_each_file_of_an_entry_once(self, tmp_path, opens):
        stores = [seed_complete_run(tmp_path, salt=salt) for salt in range(3)]
        stores.append(seed_warm_run(tmp_path, salt=3))
        cache, scrubber = scrubber_for(tmp_path)
        opens.clear()
        assert scrubber.scrub_once()["scanned"] == 4
        assert opens == {
            str(path): 1
            for store in stores
            for path in (store.manifest_path, store.results_path)
        }

    def test_damaged_complete_entry_is_quarantined(self, tmp_path):
        store = seed_complete_run(tmp_path)
        run_id = store.fingerprint.run_id
        flip_byte(store.results_path, 10)
        cache, scrubber = scrubber_for(tmp_path)
        tallies = scrubber.scrub_once()
        assert tallies["quarantined"] == 1
        # The entry moved under quarantine/ — a cold miss for queries,
        # invisible to the checkpoint walker, bytes kept for post-mortem.
        assert not store.run_dir.exists()
        assert (tmp_path / QUARANTINE_DIRNAME / run_id).is_dir()
        assert cache.lookup(make_fingerprint()) == LOOKUP_MISS
        assert inspect_checkpoint_dir(tmp_path) == []

    def test_lying_result_count_is_quarantined(self, tmp_path):
        # Every frame is CRC-clean but the manifest promises 5 results
        # and the merge replays 3: the entry is lying, not repairable.
        store = seed_complete_run(tmp_path, result_count=5)
        cache, scrubber = scrubber_for(tmp_path)
        assert scrubber.scrub_once()["quarantined"] == 1
        assert (tmp_path / QUARANTINE_DIRNAME / store.fingerprint.run_id).is_dir()

    def test_corrupt_manifest_is_quarantined(self, tmp_path):
        store = seed_complete_run(tmp_path)
        store.manifest_path.write_bytes(b"garbage")
        cache, scrubber = scrubber_for(tmp_path)
        assert scrubber.scrub_once()["quarantined"] == 1

    def test_damaged_warm_entry_is_repaired_not_quarantined(self, tmp_path):
        # A warm entry's damaged tail is trimmed to the intact prefix:
        # the committed pair survives, the damaged one returns to
        # uncommitted, and the entry stays warm (resumable).
        store = seed_warm_run(tmp_path)
        first_frame = intact_prefix_first_frame_bytes(store)
        flip_byte(store.results_path, first_frame + 10)
        cache, scrubber = scrubber_for(tmp_path)
        tallies = scrubber.scrub_once()
        assert tallies == {"scanned": 1, "repaired": 1, "quarantined": 0,
                           "evicted": 0}
        assert store.results_path.stat().st_size == first_frame
        committed, _, ended_by = replay_result_log(store.results_path)
        assert sorted(committed) == [0] and ended_by is None
        assert cache.lookup(make_fingerprint()) == LOOKUP_WARM
        # The next pass finds nothing left to do.
        assert scrubber.scrub_once() == {
            "scanned": 1, "repaired": 0, "quarantined": 0, "evicted": 0,
        }

    def test_pinned_entries_are_never_touched(self, tmp_path):
        store = seed_complete_run(tmp_path)
        run_id = store.fingerprint.run_id
        flip_byte(store.results_path, 10)
        cache, scrubber = scrubber_for(tmp_path)
        with cache.pinned(run_id):
            tallies = scrubber.scrub_once()
            assert tallies == {"scanned": 0, "repaired": 0,
                               "quarantined": 0, "evicted": 0}
            assert store.run_dir.exists()
        # Unpinned, the damage is actionable again.
        assert scrubber.scrub_once()["quarantined"] == 1

    def test_quarantine_refuses_missing_and_pinned_runs(self, tmp_path):
        store = seed_complete_run(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert not cache.quarantine("run-nope", "test")
        with cache.pinned(store.fingerprint.run_id):
            assert not cache.quarantine(store.fingerprint.run_id, "test")
        assert cache.quarantine(store.fingerprint.run_id, "test")

    def test_metrics_and_validation(self, tmp_path):
        metrics = MetricsRegistry()
        store = seed_complete_run(tmp_path)
        flip_byte(store.results_path, 10)
        cache, scrubber = scrubber_for(tmp_path, metrics=metrics)
        scrubber.scrub_once()
        snapshot = metrics.snapshot()
        assert snapshot["serve.scrub.passes"]["value"] == 1
        assert snapshot["serve.scrub.quarantined"]["value"] == 1
        assert snapshot["serve.cache.quarantined"]["value"] == 1
        with pytest.raises(ValueError):
            CacheScrubber(cache, interval_s=0)


class TestBackgroundThread:
    def test_loop_scrubs_and_survives_stop_start(self, tmp_path):
        store = seed_complete_run(tmp_path)
        flip_byte(store.results_path, 10)
        cache, scrubber = scrubber_for(tmp_path, interval_s=0.05)
        scrubber.start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if scrubber.stats()["quarantined"] >= 1:
                    break
                time.sleep(0.02)
        finally:
            scrubber.stop()
        stats = scrubber.stats()
        assert stats["quarantined"] == 1
        assert stats["errors"] == 0
        assert not stats["running"]
        scrubber.start()  # restartable after a stop
        scrubber.stop()


class TestBudgetReEnforcement:
    """The scrubber's background pass is the only actor guaranteed to
    visit an idle cache, so it also re-enforces the byte budget."""

    def test_scrub_pass_evicts_over_budget_entries(self, tmp_path):
        seed_complete_run(tmp_path, salt=0)
        seed_complete_run(tmp_path, salt=1)
        metrics = MetricsRegistry()
        cache = ArtifactCache(tmp_path, max_bytes=0, metrics=metrics)
        scrubber = CacheScrubber(cache, metrics=metrics)
        tallies = scrubber.scrub_once()
        assert tallies["scanned"] == 2
        assert tallies["quarantined"] == 0
        assert tallies["evicted"] == 2
        assert scrubber.stats()["evicted"] == 2
        assert cache.lookup(make_fingerprint(0)) == LOOKUP_MISS
        assert cache.lookup(make_fingerprint(1)) == LOOKUP_MISS
        # The next pass finds an empty cache and nothing to evict.
        assert scrubber.scrub_once() == {
            "scanned": 0, "repaired": 0, "quarantined": 0, "evicted": 0,
        }

    def test_unconstrained_cache_never_evicts(self, tmp_path):
        seed_complete_run(tmp_path, salt=0)
        cache, scrubber = scrubber_for(tmp_path)
        assert scrubber.scrub_once()["evicted"] == 0
        assert cache.lookup(make_fingerprint(0)) != LOOKUP_MISS
