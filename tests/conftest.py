"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import Database
from repro.checkpoint import RunFingerprint
from repro.geometry import Rect
from repro.parallel import PairTaskResult
from repro.storage.spill import SpillWriter, read_frames

# --------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------- #

coords = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw, min_size: float = 0.0, max_size: float = 50.0):
    """A well-formed Rect with bounded extent."""
    x = draw(coords)
    y = draw(coords)
    w = draw(st.floats(min_value=min_size, max_value=max_size))
    h = draw(st.floats(min_value=min_size, max_value=max_size))
    return Rect(x, y, x + w, y + h)


@st.composite
def points(draw):
    return (draw(coords), draw(coords))


@st.composite
def polyline_points(draw, max_points: int = 12):
    n = draw(st.integers(min_value=2, max_value=max_points))
    return [draw(points()) for _ in range(n)]


# --------------------------------------------------------------------- #
# spill files, through the writer and the reader the engine uses
# --------------------------------------------------------------------- #


def write_records(path, records) -> int:
    """Write ``records`` to a spill file; returns the record count."""
    with SpillWriter(path) as writer:
        for record in records:
            writer.append(record)
    return writer.count


def read_records(path, **policy) -> list:
    """Every record of a spill file (``policy``: ``read_frames``'s
    torn-tail arguments)."""
    return [frame.record for frame in read_frames(path, **policy)]


@pytest.fixture
def spilled(monkeypatch) -> dict:
    """The bytes of every spill the process backend writes, by file name,
    kept as each is closed: a run removes its spill directory as it ends."""
    from repro.parallel import process

    written = {}

    class Recording(SpillWriter):
        def close(self):
            super().close()
            with open(self.path, "rb") as fh:
                written[os.path.basename(self.path)] = fh.read()

    monkeypatch.setattr(process, "SpillWriter", Recording)
    return written


# --------------------------------------------------------------------- #
# checkpoint state, made by hand
# --------------------------------------------------------------------- #

MERGING = {"type": "phase", "state": "merging", "pairs_total": 2}


def road_hydro(scale: float) -> tuple:
    """Roads × hydrography at ``scale``, as lists, and their serial
    ``intersects`` answer, which must not be empty."""
    from repro import intersects
    from repro.data import generate_hydrography, generate_roads
    from repro.parallel import serial_feature_pairs

    tuples_r, tuples_s = list(generate_roads(scale=scale)), list(generate_hydrography(scale=scale))
    expected, _ = serial_feature_pairs(tuples_r, tuples_s, intersects)
    assert expected, "the workload must not be trivial"
    return tuples_r, tuples_s, expected


def race(*targets, timeout: float = 60.0) -> None:
    """Run each of ``targets`` on a thread of its own, all at once, with
    the interpreter switching between threads as often as it can; fail if
    one is still running ``timeout`` seconds after it was joined."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=target) for target in targets]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def make_fingerprint(salt=0):
    return RunFingerprint(
        count_r=10 + salt, count_s=20, crc_r=111, crc_s=222,
        predicate="intersects", num_partitions=4, config={"num_tiles": 64},
    )


def make_result(index=0, pairs=((1, 2),)):
    """A committed pair result whose answer is ``pairs``."""
    return PairTaskResult(
        index=index, worker_pid=1234, pairs=np.array(pairs, np.int64).reshape(-1, 2),
        candidates=3, count_r=2, count_s=2, wall_s=0.01,
    )


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture
def serialised(monkeypatch):
    """Every ``serialize_tuple`` call made from now on through any module
    of the program (in this process), as the list of feature ids
    serialised: tests assert on its length or clear it with ``del [:]``."""
    from repro.storage.tuples import serialize_tuple

    calls = []

    def counting(t):
        calls.append(t.feature_id)
        return serialize_tuple(t)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and hasattr(module, "serialize_tuple"):
            monkeypatch.setattr(module, "serialize_tuple", counting)
    return calls


@pytest.fixture
def db() -> Database:
    return Database(buffer_mb=2.0)


@pytest.fixture
def big_db() -> Database:
    return Database(buffer_mb=16.0)


@pytest.fixture
def resident_pool(monkeypatch):
    """A resident pool of the test's own in place of the process's: what
    the test's runs start, the test's end shuts down."""
    from repro.parallel import process

    provider = process.ResidentPoolProvider()
    monkeypatch.setattr(process, "RESIDENT_POOL", provider)
    yield provider
    if provider._pool is not None:
        provider._pool.shutdown(wait=True)
