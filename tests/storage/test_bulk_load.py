"""``Relation.bulk_load`` appends records as they are stored.

It decodes nothing, yet a load must be indistinguishable from inserting
each tuple in turn: the same page bytes, the same catalog (cardinality,
universe, point count) and the same simulated I/O.  The serial reference
loads its sides this way, so it leaves them undecoded and answers as the
process backend does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Polygon, Polyline
from repro.parallel import parallel_join
from repro.parallel.tasks import InputSide
from repro.serve.query import QuerySpec, result_digest
from repro.storage import Database, SpatialTuple
from repro.storage.tuples import Records
from tests.conftest import points, polyline_points

rings = st.lists(points(), min_size=3, max_size=8, unique=True)
spatial_tuples = st.builds(
    SpatialTuple,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.one_of(st.text(max_size=12), st.sampled_from(["", "é", "土地 7", "x" * 300])),
    st.one_of(
        st.builds(Polyline, polyline_points(max_points=40)),
        st.builds(Polygon, rings, st.lists(rings, max_size=3)),
    ),
)


def loaded(load, tuples):
    """What ``load(relation, tuples)`` leaves: every page's bytes, the
    catalog, and the disk's and the buffer pool's counters — the pool
    small enough that a load of a few pages evicts."""
    db = Database(buffer_mb=0.02)
    relation = db.create_relation("r")
    load(relation, tuples)
    io = db.disk.stats.copy(), db.pool.counters()
    db.pool.flush_all()
    pages = [db.disk.read_page(relation.file_id, p) for p in range(relation.num_pages)]
    return pages, relation.catalog, io


def insert_each(relation, tuples):
    for t in tuples:
        relation.insert(t)


class TestBulkLoad:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(spatial_tuples, max_size=60), st.data())
    def test_a_load_of_records_is_a_load_of_inserts(self, tuples, data):
        """Also in two loads into one relation: the second widens the
        first's catalog."""
        cut = data.draw(st.integers(min_value=0, max_value=len(tuples)))

        def bulk(relation, tuples):
            for part in (tuples[:cut], tuples[cut:]):
                assert relation.bulk_load(Records.of(part)) == len(part)

        assert loaded(bulk, tuples) == loaded(insert_each, tuples)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(spatial_tuples, max_size=30))
    def test_tuples_are_serialised_and_loaded_as_records(self, tuples):
        assert loaded(lambda relation, t: relation.bulk_load(iter(t)), tuples) == loaded(
            lambda relation, t: relation.bulk_load(Records.of(t)), tuples
        )

    def test_an_empty_load_leaves_an_empty_relation(self):
        db = Database()
        relation = db.create_relation("r")
        assert relation.bulk_load(Records(b"", np.zeros(1, np.int64))) == 0
        assert relation.bulk_load([]) == 0
        assert relation.num_pages == 0 and len(relation) == 0
        assert relation.catalog.total_points == 0
        with pytest.raises(ValueError, match="empty"):
            relation.universe


@pytest.mark.parametrize(
    "dataset, predicate", [("road_hydro", "intersects"), ("landuse_island", "contains")]
)
def test_the_serial_reference_decodes_neither_side(dataset, predicate):
    """``_tuples`` is a slot, so its descriptor, not ``vars()``, says
    whether a side was ever decoded."""
    spec = QuerySpec(dataset, scale=0.01, seed=1996, predicate=predicate)
    sides = spec.generate()
    serial = parallel_join(*sides, spec.predicate_fn, backend="serial")
    for side in sides:
        with pytest.raises(AttributeError):
            InputSide._tuples.__get__(side)
    process = parallel_join(*sides, spec.predicate_fn, workers=2)
    assert result_digest(serial.pairs) == result_digest(process.pairs)
    assert len(serial) > 0 and process.duplicates_dropped == 0
