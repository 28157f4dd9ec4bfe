"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import sys

import pytest
from hypothesis import strategies as st

from repro import Database
from repro.geometry import Rect
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
