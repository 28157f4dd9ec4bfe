"""Property test: one flipped byte anywhere in a serialized manifest.

The loader's whole contract in a single property — corrupt any byte of
the on-disk bytes and loading either (a) raises the typed
``ManifestCorruptionError``, or (b) returns a manifest whose fingerprint
is unchanged and whose events are a **strict prefix** of what was
written.  It never silently returns different events, a mutated
fingerprint, or reordered state: the CRC32 framing guarantees detection
of any single-byte error, so the only lossy-but-accepted outcome is a
torn tail truncated away.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import JoinManifest, RunFingerprint
from repro.storage.errors import ManifestCorruptionError

FINGERPRINT = RunFingerprint(
    count_r=457, count_s=122, crc_r=123456789, crc_s=987654321,
    predicate="intersects", num_partitions=8,
    config={"num_tiles": 1024, "scheme": "hash", "memory_bytes": None},
)

EVENTS = [
    {"type": "phase", "state": "merging", "pairs_total": 8},
    {"type": "phase", "state": "merging", "pairs_total": 12},
    {"type": "complete", "result_count": 39},
]

BASE = JoinManifest(FINGERPRINT, events=EVENTS).to_bytes()


def test_uncorrupted_baseline_loads_exactly():
    loaded = JoinManifest.from_bytes(BASE)
    assert loaded.fingerprint == FINGERPRINT
    assert loaded.events == EVENTS
    assert not loaded.recovered_torn_tail


@settings(max_examples=400, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=len(BASE) - 1),
    flip=st.integers(min_value=1, max_value=255),
)
def test_one_corrupt_byte_gives_prefix_or_typed_error(pos, flip):
    data = bytearray(BASE)
    data[pos] ^= flip
    try:
        loaded = JoinManifest.from_bytes(bytes(data))
    except ManifestCorruptionError:
        return  # refusing corrupt bytes is always correct
    # Accepted: then it must be the original run's intact event prefix.
    assert loaded.fingerprint == FINGERPRINT
    assert loaded.events == EVENTS[: len(loaded.events)]
    # A one-byte flip always damaged *something*; an accepted load can only
    # have survived by truncating the tail, never by reading through it.
    assert loaded.recovered_torn_tail
    assert len(loaded.events) < len(EVENTS)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(BASE) - 1))
def test_truncation_gives_prefix_or_typed_error(cut):
    # A crashed writer that bypassed the atomic protocol leaves a prefix of
    # the bytes; the loader must treat it exactly like a torn tail.
    try:
        loaded = JoinManifest.from_bytes(BASE[:cut])
    except ManifestCorruptionError:
        return  # e.g. the header itself did not survive
    assert loaded.fingerprint == FINGERPRINT
    assert loaded.events == EVENTS[: len(loaded.events)]
    assert len(loaded.events) < len(EVENTS)
