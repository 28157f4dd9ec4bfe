"""End-to-end tests of the PBSM join against the naive oracle."""

import pytest

from repro import Database, PBSMConfig, PBSMJoin, intersects
from repro.bench import fresh_tiger
from repro.core import SCHEME_HASH, SCHEME_ROUND_ROBIN
from repro.data import make_tiger_datasets
from repro.joins import NaiveNestedLoopsJoin


@pytest.fixture(scope="module")
def tiger_db():
    db = Database(buffer_mb=4.0)
    rels = make_tiger_datasets(db, scale=0.0015)
    oracle = NaiveNestedLoopsJoin(db.pool).run(
        rels["road"], rels["hydro"], intersects
    )
    return db, rels, oracle.pairs


class TestCorrectness:
    def test_matches_oracle_default_config(self, tiger_db):
        db, rels, expected = tiger_db
        res = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
        assert res.pairs == expected

    def test_matches_oracle_multi_partition(self, tiger_db):
        """Force several partitions by shrinking the Equation-1 memory."""
        db, rels, expected = tiger_db
        cfg = PBSMConfig(memory_bytes=4096)  # ~93 key-pointers per pair
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert res.report.notes["num_partitions"] > 4
        assert res.pairs == expected

    @pytest.mark.parametrize("scheme", [SCHEME_HASH, SCHEME_ROUND_ROBIN])
    def test_matches_oracle_both_schemes(self, tiger_db, scheme):
        db, rels, expected = tiger_db
        cfg = PBSMConfig(memory_bytes=8192, scheme=scheme)
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert res.pairs == expected

    @pytest.mark.parametrize("num_tiles", [16, 256, 4096])
    def test_matches_oracle_tile_counts(self, tiger_db, num_tiles):
        db, rels, expected = tiger_db
        cfg = PBSMConfig(memory_bytes=16384, num_tiles=num_tiles)
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert res.pairs == expected

    def test_matches_oracle_interval_tree_merge(self, tiger_db):
        db, rels, expected = tiger_db
        cfg = PBSMConfig(memory_bytes=16384, use_interval_tree=True)
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert res.pairs == expected

    def test_matches_oracle_with_skew_handling(self, tiger_db):
        db, rels, expected = tiger_db
        cfg = PBSMConfig(memory_bytes=8192, handle_partition_skew=True)
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert res.pairs == expected

    def test_join_is_symmetric_modulo_pair_order(self, tiger_db):
        db, rels, expected = tiger_db
        res = PBSMJoin(db.pool).run(rels["hydro"], rels["road"], intersects)
        flipped = sorted((b, a) for a, b in res.pairs)
        assert flipped == expected


class TestEdgeCases:
    def test_empty_left(self):
        db = Database(buffer_mb=2.0)
        empty = db.create_relation("empty")
        rels = make_tiger_datasets(db, scale=0.0002, include=("rail",))
        res = PBSMJoin(db.pool).run(empty, rels["rail"], intersects)
        assert res.pairs == []

    def test_empty_right(self):
        db = Database(buffer_mb=2.0)
        rels = make_tiger_datasets(db, scale=0.0002, include=("rail",))
        empty = db.create_relation("empty")
        res = PBSMJoin(db.pool).run(rels["rail"], empty, intersects)
        assert res.pairs == []

    def test_self_join(self):
        db = Database(buffer_mb=2.0)
        rels = make_tiger_datasets(db, scale=0.0005, include=("rail",))
        rail = rels["rail"]
        res = PBSMJoin(db.pool).run(rail, rail, intersects)
        oracle = NaiveNestedLoopsJoin(db.pool).run(rail, rail, intersects)
        assert res.pairs == oracle.pairs
        # Every tuple intersects itself.
        assert len(res.pairs) >= len(rail)


class TestReporting:
    def test_phases_present(self, tiger_db):
        db, rels, _ = tiger_db
        res = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
        names = [p.name for p in res.report.phases]
        assert names == [
            "Partition road",
            "Partition hydro",
            "Merge Partitions",
            "Refinement",
        ]

    def test_candidates_superset_of_results(self, tiger_db):
        db, rels, _ = tiger_db
        res = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
        assert res.report.candidates >= res.report.result_count
        assert res.report.result_count == len(res.pairs)

    def test_temp_files_cleaned_up(self, tiger_db):
        db, rels, _ = tiger_db
        files_before = set(db.disk.file_ids())
        cfg = PBSMConfig(memory_bytes=8192)
        PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        assert set(db.disk.file_ids()) == files_before

    @pytest.mark.parametrize(
        "scale,scheme,partitions,phases,candidates,results",
        [
            (0.02, SCHEME_HASH, 2,
             [(173, 52, 14), (101, 23, 9), (60, 9, 9), (583, 0, 9)], 3563, 1131),
            (0.03, SCHEME_HASH, 3,
             [(260, 90, 31), (151, 37, 18), (91, 22, 13), (1177, 0, 21)],
             5498, 1749),
            (0.02, SCHEME_ROUND_ROBIN, 2,
             [(173, 56, 15), (101, 20, 9), (60, 10, 8), (584, 0, 9)], 3563, 1131),
        ],
    )
    def test_partition_file_io_is_pinned(
        self, scale, scheme, partitions, phases, candidates, results
    ):
        """The exact simulated I/O of a join that writes partition files
        (P > 1; the fig-7 smoke gate runs P = 1): every page read, write
        and seek of each phase.  The interleaving of heap-page reads and
        key-pointer writes is part of what is pinned — routing the whole
        scan before writing any key-pointer leaves the reads alone and
        moves the writes."""
        db, rels = fresh_tiger(2.0, scale=scale, include=("road", "hydro"))
        res = PBSMJoin(db.pool, PBSMConfig(scheme=scheme)).run(
            rels["road"], rels["hydro"], intersects
        )
        report = res.report
        assert report.notes["num_partitions"] == partitions
        assert [
            (p.page_reads, p.page_writes, p.seeks) for p in report.phases
        ] == phases
        assert (report.candidates, report.result_count) == (candidates, results)

    def test_replication_produces_duplicate_candidates(self, tiger_db):
        db, rels, _ = tiger_db
        cfg = PBSMConfig(memory_bytes=4096)
        res = PBSMJoin(db.pool, cfg).run(rels["road"], rels["hydro"], intersects)
        base = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
        # Multi-partition run sees at least as many candidates (replication).
        assert res.report.candidates >= base.report.candidates
