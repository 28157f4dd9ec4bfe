"""Fixtures shared by the serving-tier tests."""

from collections import Counter
from pathlib import Path

import pytest


@pytest.fixture
def opens(monkeypatch):
    """Counts every ``Path.open`` (``read_bytes`` goes through it) by the
    path opened — how the one-read-per-file tests see a second walker."""
    counts = Counter()
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        counts[str(self)] += 1
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return counts
