"""Every producer of a join's answer returns one ``SortedPairs``, so
``result_digest`` formats its array without a merge."""

import pytest

import repro.serve.query
from repro import intersects
from repro.checkpoint import RunFingerprint
from repro.core.pbsm import PBSMConfig
from repro.core.refine import SortedPairs
from repro.faults import CoordinatorKilledError
from repro.parallel import ProcessPBSM, parallel_join
from repro.parallel.tasks import InputSide
from repro.serve.cache import LOOKUP_HIT, ArtifactCache
from repro.serve.query import result_digest
from tests.conftest import road_hydro

PARTITIONS = 8


def test_every_producer_returns_the_answer_type(tmp_path, monkeypatch):
    tuples_r, tuples_s, expected = road_hydro(0.002)
    digest = result_digest(list(expected))
    answers = {
        backend: parallel_join(
            tuples_r, tuples_s, intersects, backend=backend, workers=2,
            num_partitions=PARTITIONS,
        ).pairs
        for backend in ("process", "serial", "simulated")
    }
    engine = ProcessPBSM(
        2, num_partitions=PARTITIONS, checkpoint_dir=str(tmp_path),
        kill_coordinator_after=6,
    )
    answers["run_serial"] = engine.run_serial(tuples_r, tuples_s, intersects).pairs
    with pytest.raises(CoordinatorKilledError):
        engine.run(tuples_r, tuples_s, intersects)
    resumed = ProcessPBSM(2, num_partitions=PARTITIONS, checkpoint_dir=str(tmp_path))
    answers["resumed"] = resumed.resume(tuples_r, tuples_s, intersects).pairs
    fingerprint = RunFingerprint.compute(
        InputSide(tuples_r), InputSide(tuples_s), intersects, PARTITIONS, PBSMConfig()
    )
    cache = ArtifactCache(tmp_path)
    assert cache.lookup(fingerprint) == LOOKUP_HIT
    answers["cache replay"] = cache.replay(fingerprint)

    def no_merge(runs):
        raise AssertionError("the digest merged an answer")

    monkeypatch.setattr(repro.serve.query, "merge_sorted_unique", no_merge)
    for name, pairs in answers.items():
        assert type(pairs) is SortedPairs, name
        assert pairs == expected and result_digest(pairs) == digest, name
