"""Spill-file integrity: the CRC32 framing catches every kind of damage."""

import pickle
import struct

import pytest

from repro.faults import tear_frame
from repro.storage import SpillCorruptionError, StorageError
from repro.storage.spill import (
    FRAME_HEADER_SIZE,
    MAX_RECORD_BYTES,
    SpillWriter,
    read_frames,
)
from tests.conftest import read_records, write_records

RECORDS = [b"alpha", b"", b"gamma" * 100, b"\x00\xff" * 7]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "part.spill"
        assert write_records(path, RECORDS) == len(RECORDS)
        assert read_records(path) == RECORDS

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.spill"
        assert write_records(path, []) == 0
        assert read_records(path) == []

    def test_writer_counts_and_is_reentrant_to_close(self, tmp_path):
        path = tmp_path / "w.spill"
        with SpillWriter(path) as writer:
            writer.append(b"one")
            writer.append(b"two")
            assert writer.count == 2
        writer.close()  # idempotent
        assert read_records(path) == [b"one", b"two"]

    def test_oversized_record_rejected_at_write(self, tmp_path):
        writer = SpillWriter(tmp_path / "big.spill")

        class HugeBytes(bytes):
            def __len__(self):
                return MAX_RECORD_BYTES + 1

        with pytest.raises(ValueError):
            writer.append(HugeBytes())
        writer.close()


class TestCorruptionDetection:
    def test_torn_payload_byte(self, tmp_path):
        path = tmp_path / "torn.spill"
        write_records(path, RECORDS)
        torn = tear_frame(path, 2)
        assert torn == 2
        reader = read_frames(path)
        assert next(reader).record == RECORDS[0]
        assert next(reader).record == RECORDS[1]
        with pytest.raises(SpillCorruptionError) as info:
            next(reader)
        err = info.value
        assert err.path == str(path)
        assert err.frame_index == 2
        # Frame 2 starts after two framed records.
        assert err.offset == sum(
            FRAME_HEADER_SIZE + len(r) for r in RECORDS[:2]
        )
        assert "checksum mismatch" in str(err)

    def test_torn_empty_payload_flips_the_crc(self, tmp_path):
        # RECORDS[1] is b"": there is no payload byte to flip, so the
        # injector flips the stored CRC instead — still caught.
        path = tmp_path / "empty_frame.spill"
        write_records(path, RECORDS)
        assert tear_frame(path, 1) == 1
        with pytest.raises(SpillCorruptionError) as info:
            read_records(path)
        assert info.value.frame_index == 1

    def test_frame_index_wraps_modulo_record_count(self, tmp_path):
        path = tmp_path / "wrap.spill"
        write_records(path, RECORDS)
        assert tear_frame(path, len(RECORDS) + 1) == 1

    def test_tearing_an_empty_file_is_a_noop(self, tmp_path):
        path = tmp_path / "none.spill"
        write_records(path, [])
        assert tear_frame(path, 0) == -1
        assert read_records(path) == []

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.spill"
        write_records(path, [b"0123456789"])
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(SpillCorruptionError, match="truncated record"):
            read_records(path)

    def test_torn_header(self, tmp_path):
        path = tmp_path / "header.spill"
        write_records(path, [b"full frame"])
        with path.open("ab") as fh:
            fh.write(b"\x07\x00\x00")  # 3 of 8 header bytes
        reader = read_frames(path)
        assert next(reader).record == b"full frame"
        with pytest.raises(SpillCorruptionError, match="torn frame header"):
            next(reader)

    def test_implausible_length_prefix(self, tmp_path):
        path = tmp_path / "len.spill"
        path.write_bytes(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
        with pytest.raises(SpillCorruptionError, match="corrupt frame length"):
            read_records(path)


class TestErrorType:
    def test_is_a_value_error_and_a_storage_error(self, tmp_path):
        path = tmp_path / "t.spill"
        write_records(path, [b"x"])
        tear_frame(path, 0)
        with pytest.raises(ValueError):
            read_records(path)
        with pytest.raises(StorageError):
            read_records(path)

    def test_pickles_with_location_intact(self):
        err = SpillCorruptionError(
            "boom", path="/tmp/p.spill", frame_index=7, offset=123
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SpillCorruptionError)
        assert (clone.path, clone.frame_index, clone.offset) == (
            "/tmp/p.spill", 7, 123
        )
        assert str(clone) == "boom"


class TestTornTailTruncate:
    """Resume-side read mode: damage at EOF ends the log, mid-log raises."""

    def test_torn_tail_yields_the_intact_prefix(self, tmp_path):
        from repro.faults import tear_tail
        from repro.storage.spill import TORN_TAIL_TRUNCATE

        path = tmp_path / "t.spill"
        write_records(path, RECORDS)
        assert tear_tail(path)
        seen = []
        records = read_records(
            path, torn_tail=TORN_TAIL_TRUNCATE, on_torn_tail=seen.append
        )
        assert records == RECORDS[:-1]
        assert len(seen) == 1 and isinstance(seen[0], SpillCorruptionError)

    def test_truncated_file_yields_the_intact_prefix(self, tmp_path):
        from repro.storage.spill import TORN_TAIL_TRUNCATE

        path = tmp_path / "t.spill"
        write_records(path, RECORDS)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        records = read_records(path, torn_tail=TORN_TAIL_TRUNCATE)
        assert records == RECORDS[:-1]

    def test_mid_log_damage_still_raises(self, tmp_path):
        from repro.storage.spill import TORN_TAIL_TRUNCATE

        path = tmp_path / "t.spill"
        write_records(path, RECORDS)
        tear_frame(path, 0)  # later intact frames: not a torn tail
        with pytest.raises(SpillCorruptionError):
            read_records(path, torn_tail=TORN_TAIL_TRUNCATE)

    def test_default_mode_raises_even_at_the_tail(self, tmp_path):
        from repro.faults import tear_tail

        path = tmp_path / "t.spill"
        write_records(path, RECORDS)
        tear_tail(path)
        with pytest.raises(SpillCorruptionError):
            read_records(path)

    def test_unknown_mode_is_rejected(self, tmp_path):
        path = tmp_path / "t.spill"
        write_records(path, RECORDS)
        with pytest.raises(ValueError):
            read_records(path, torn_tail="maybe")


class TestAtomicWriter:
    def test_atomic_writer_stages_then_renames(self, tmp_path):
        path = tmp_path / "part.spill"
        writer = SpillWriter(path, atomic=True)
        writer.append(b"alpha")
        assert not path.exists()
        assert path.with_name("part.spill.tmp").exists()
        writer.close()
        assert path.exists()
        assert not path.with_name("part.spill.tmp").exists()
        assert read_records(path) == [b"alpha"]

    def test_context_manager_exception_aborts(self, tmp_path):
        path = tmp_path / "part.spill"
        with pytest.raises(RuntimeError):
            with SpillWriter(path, atomic=True) as writer:
                writer.append(b"alpha")
                raise RuntimeError("partitioning failed")
        assert not path.exists()
        assert not path.with_name("part.spill.tmp").exists()

    def test_abort_removes_non_atomic_partial_too(self, tmp_path):
        path = tmp_path / "part.spill"
        writer = SpillWriter(path)
        writer.append(b"alpha")
        writer.abort()
        assert not path.exists()

    def test_sweep_orphan_spills(self, tmp_path):
        from repro.storage.spill import sweep_orphan_spills

        sealed = tmp_path / "spills" / "r_0.kp"
        write_records(sealed, [b"keep me"])
        orphan = tmp_path / "spills" / "r_1.kp.tmp"
        orphan.write_bytes(b"half")
        nested = tmp_path / "spills" / "deep" / "s_2.tup.tmp"
        nested.parent.mkdir()
        nested.write_bytes(b"half")
        removed = sweep_orphan_spills(tmp_path)
        assert set(removed) == {str(orphan), str(nested)}
        assert sealed.exists() and not orphan.exists() and not nested.exists()

    def test_sweep_of_missing_directory_is_empty(self, tmp_path):
        from repro.storage.spill import sweep_orphan_spills

        assert sweep_orphan_spills(tmp_path / "nope") == []
