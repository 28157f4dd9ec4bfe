"""JoinManifest: round trips, the derived state machine, and the loader's
prefix-or-error contract."""

import pytest

from repro.checkpoint import (
    EVENT_TYPES,
    MANIFEST_VERSION,
    STATE_COMPLETE,
    STATE_CREATED,
    STATE_MERGING,
    JoinManifest,
    RunFingerprint,
)
from repro.checkpoint.manifest import _encode
from repro.faults import tear_frame, tear_tail
from repro.storage.errors import ManifestCorruptionError
from repro.storage.spill import pack_frame


def make_fingerprint(**overrides):
    base = dict(
        count_r=457, count_s=122, crc_r=0xDEADBEEF, crc_s=0xCAFEF00D,
        predicate="intersects", num_partitions=8,
        config={"num_tiles": 1024, "scheme": "hash"},
    )
    base.update(overrides)
    return RunFingerprint(**base)


MERGING = {"type": "phase", "state": STATE_MERGING, "pairs_total": 8}
COMPLETE = {"type": "complete", "result_count": 39}

EVENTS = [MERGING, COMPLETE]


class TestFingerprint:
    def test_run_id_is_stable_and_order_independent(self):
        a = make_fingerprint()
        b = RunFingerprint.from_dict(dict(reversed(list(a.to_dict().items()))))
        assert a == b
        assert a.run_id == b.run_id
        assert a.run_id.startswith("run-") and len(a.run_id) == 4 + 12

    def test_any_field_changes_the_run_id(self):
        base = make_fingerprint()
        for field, value in [
            ("count_r", 458), ("crc_s", 1), ("predicate", "within"),
            ("num_partitions", 16), ("config", {"num_tiles": 512}),
        ]:
            changed = make_fingerprint(**{field: value})
            assert changed != base, field
            assert changed.run_id != base.run_id, field


class TestStateMachine:
    def test_fresh_manifest_is_created(self):
        assert JoinManifest(make_fingerprint()).state == STATE_CREATED

    def test_phase_and_complete_events(self):
        m = JoinManifest(make_fingerprint())
        m.apply(MERGING)
        assert m.state == STATE_MERGING
        assert m.pairs_total == 8
        m.apply(COMPLETE)
        assert m.state == STATE_COMPLETE
        assert m.result_count == 39

    def test_unknown_event_type_is_rejected_at_apply(self):
        m = JoinManifest(make_fingerprint())
        with pytest.raises(ValueError):
            m.apply({"type": "time-travel"})


class TestRoundTrip:
    def test_bytes_round_trip(self):
        m = JoinManifest(make_fingerprint(), events=EVENTS)
        loaded = JoinManifest.from_bytes(m.to_bytes())
        assert loaded.fingerprint == m.fingerprint
        assert loaded.events == m.events
        assert loaded.state == STATE_COMPLETE
        assert not loaded.recovered_torn_tail

    def test_empty_event_log_round_trips(self):
        m = JoinManifest(make_fingerprint())
        loaded = JoinManifest.from_bytes(m.to_bytes())
        assert loaded.events == []
        assert loaded.state == STATE_CREATED


class TestLoaderContract:
    """An intact prefix, or a typed error — never wrong state."""

    def test_torn_tail_recovers_the_event_prefix(self, tmp_path):
        m = JoinManifest(make_fingerprint(), events=EVENTS)
        path = tmp_path / "manifest.bin"
        path.write_bytes(m.to_bytes())
        assert tear_tail(path)
        loaded = JoinManifest.from_bytes(path.read_bytes(), label=str(path))
        assert loaded.recovered_torn_tail
        assert loaded.events == EVENTS[:-1]
        assert loaded.state == STATE_MERGING  # the complete event was torn

    def test_mid_log_damage_is_a_typed_error(self, tmp_path):
        m = JoinManifest(make_fingerprint(), events=EVENTS)
        path = tmp_path / "manifest.bin"
        path.write_bytes(m.to_bytes())
        # Damage an early frame; later intact frames prove it is not a torn
        # tail, so the loader must refuse the whole file.
        tear_frame(path, 1)
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(path.read_bytes(), label=str(path))

    def test_empty_bytes_are_a_typed_error(self):
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(b"")

    def test_wrong_header_type_is_a_typed_error(self):
        bad = pack_frame(_encode({"type": "not-a-manifest", "version": 1,
                                  "fingerprint": {}}))
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(bad)

    def test_wrong_version_is_a_typed_error(self):
        fp = make_fingerprint()
        bad = pack_frame(_encode({
            "type": "pbsm-join-manifest",
            "version": MANIFEST_VERSION + 1,
            "fingerprint": fp.to_dict(),
        }))
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(bad)

    def test_crc_valid_garbage_event_is_a_typed_error(self):
        m = JoinManifest(make_fingerprint())
        data = m.to_bytes() + pack_frame(b"not json at all")
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(data)

    def test_crc_valid_unknown_event_type_is_a_typed_error(self):
        m = JoinManifest(make_fingerprint())
        data = m.to_bytes() + pack_frame(_encode({"type": "bogus"}))
        with pytest.raises(ManifestCorruptionError):
            JoinManifest.from_bytes(data)

    def test_error_carries_path_and_frame(self):
        m = JoinManifest(make_fingerprint())
        data = m.to_bytes() + pack_frame(_encode({"type": "bogus"}))
        with pytest.raises(ManifestCorruptionError) as exc_info:
            JoinManifest.from_bytes(data, label="somewhere/manifest.bin")
        assert exc_info.value.path == "somewhere/manifest.bin"
        assert exc_info.value.frame_index == 1

    def test_every_accepted_event_type_round_trips(self):
        assert set(EVENT_TYPES) == {"phase", "complete"}
        for event in EVENTS:
            assert event["type"] in EVENT_TYPES
