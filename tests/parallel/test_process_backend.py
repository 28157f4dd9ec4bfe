"""The true multiprocess backend: equivalence, scheduling, observability.

The contract under test is the tentpole invariant: for any seed and scale,
the sorted feature-id pair set is byte-identical across the serial
reference, the simulated shared-nothing engine, and the real process pool
at any worker count.
"""

import pytest

from repro import intersects
from repro.core.pbsm import PBSMConfig
from repro.data import generate_hydrography, generate_roads
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    REPLICATE_MBRS,
    ParallelPBSM,
    ProcessPBSM,
    parallel_join,
)
from tests.conftest import road_hydro


def _workload(scale, seed=None):
    if seed is None:
        tuples_r = list(generate_roads(scale=scale))
        tuples_s = list(generate_hydrography(scale=scale))
    else:
        tuples_r = list(generate_roads(scale=scale, seed=seed))
        tuples_s = list(generate_hydrography(scale=scale, seed=seed + 1))
    return tuples_r, tuples_s


@pytest.fixture(scope="module")
def workload():
    return road_hydro(0.002)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("scale,seed", [
        (0.002, None),
        (0.002, 7),
        (0.003, 21),
        (0.001, 99),
    ])
    def test_all_backends_same_pairs(self, scale, seed):
        tuples_r, tuples_s = _workload(scale, seed)
        serial = parallel_join(tuples_r, tuples_s, intersects, backend="serial")
        assert serial.pairs, "workload must be non-trivial"
        simulated = parallel_join(
            tuples_r, tuples_s, intersects, backend="simulated", workers=3
        )
        process = parallel_join(
            tuples_r, tuples_s, intersects, backend="process", workers=2
        )
        assert simulated.pairs == serial.pairs
        assert process.pairs == serial.pairs
        assert serial.backend == "serial"
        assert simulated.backend == "simulated"
        assert process.backend == "process"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_pairs(self, workload, workers):
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(workers).run(tuples_r, tuples_s, intersects)
        assert result.pairs == expected

    def test_partition_count_never_changes_pairs(self, workload):
        tuples_r, tuples_s, expected = workload
        for num_partitions in (1, 3, 16):
            result = ProcessPBSM(2, num_partitions=num_partitions).run(
                tuples_r, tuples_s, intersects
            )
            assert result.pairs == expected, num_partitions

    def test_spawn_start_method(self, workload):
        # The strictest start method: workers must import everything fresh
        # and receive state only through pickled tasks.
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(2, start_method="spawn").run(
            tuples_r, tuples_s, intersects
        )
        assert result.pairs == expected

    @pytest.mark.parametrize("flags", [
        {"use_interval_tree": True},
        # A few hundred bytes of merge memory: every tile group of every
        # pair would overflow and repartition, if a worker had groups.
        {"handle_partition_skew": True, "memory_bytes": 256},
    ], ids=["interval_tree", "partition_skew"])
    def test_sweep_variant_flags_change_nothing_a_worker_emits(
        self, workload, flags
    ):
        """The footnote-1 and §3.5 variants are single-node PBSM's: a
        worker's filter step is one array join whatever the config says."""
        from repro.serve.query import result_digest

        tuples_r, tuples_s, expected = workload
        default = ProcessPBSM(2).run(tuples_r, tuples_s, intersects)
        flagged = ProcessPBSM(2, config=PBSMConfig(**flags)).run(
            tuples_r, tuples_s, intersects
        )
        assert result_digest(flagged.pairs) == result_digest(default.pairs)
        assert flagged.pairs == expected
        assert [t.candidates for t in flagged.tasks] == [
            t.candidates for t in default.tasks
        ]

    def test_empty_inputs(self):
        result = ProcessPBSM(2).run([], [], intersects)
        assert result.pairs == []
        assert result.backend == "process"


class TestScheduling:
    def test_task_reports(self, workload):
        tuples_r, tuples_s, expected = workload
        result = ProcessPBSM(2, num_partitions=8).run(
            tuples_r, tuples_s, intersects
        )
        assert result.tasks
        # Reports come back keyed by partition index, ascending.
        indices = [t.index for t in result.tasks]
        assert indices == sorted(indices)
        # The LPT seed is the spilled key-pointer count: positive, and at
        # least the input sizes summed across tasks (tile replication).
        assert all(t.cost_estimate > 0 for t in result.tasks)
        assert sum(t.cost_estimate for t in result.tasks) >= (
            len(tuples_r) + len(tuples_s)
        )
        # Per-task results union (with boundary duplicates) covers the
        # merged result.
        assert sum(t.results for t in result.tasks) >= len(result.pairs)
        # Every task executed on a worker that the per-node rollups know.
        node_work = sum(n.local_pairs for n in result.nodes)
        assert node_work == sum(t.results for t in result.tasks)

    def test_wall_clock_measured(self, workload):
        tuples_r, tuples_s, _ = workload
        result = ProcessPBSM(2).run(tuples_r, tuples_s, intersects)
        assert result.wall_s > 0
        assert result.critical_path_s <= result.total_work_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessPBSM(0)
        with pytest.raises(ValueError):
            ProcessPBSM(2, num_partitions=0)
        with pytest.raises(ValueError):
            parallel_join([], [], intersects, backend="quantum")


class TestWorkerObservability:
    def test_adoption_preserves_totals(self, workload):
        tuples_r, tuples_s, expected = workload
        tracer = Tracer()
        metrics = MetricsRegistry()
        result = ProcessPBSM(2, tracer=tracer, metrics=metrics).run(
            tuples_r, tuples_s, intersects
        )
        assert result.pairs == expected

        snapshot = metrics.snapshot()
        # Every worker's result counter was merged: the coordinator total
        # equals the per-node rollups, which equal the per-task reports.
        assert snapshot["parallel.worker.results"]["value"] == sum(
            n.local_pairs for n in result.nodes
        )
        assert snapshot["parallel.worker.candidates"]["value"] == sum(
            t.candidates for t in result.tasks
        )
        # One histogram observation per executed task, of the sweep too.
        for name in ("parallel.worker.task_keypointers", "pbsm.merge.inputs_per_pair"):
            assert snapshot[name]["count"] == len(result.tasks)
        assert snapshot["pbsm.merge.pairs_swept"]["value"] == len(result.tasks)
        assert snapshot["pbsm.merge.candidates_per_pair"]["sum"] == sum(
            t.candidates for t in result.tasks
        )

    def test_adopted_spans_form_one_timeline(self, workload):
        tuples_r, tuples_s, _ = workload
        tracer = Tracer()
        ProcessPBSM(2, tracer=tracer).run(tuples_r, tuples_s, intersects)

        task_spans = tracer.find("worker.task")
        assert task_spans, "worker spans must be adopted"
        for span in task_spans:
            # Re-anchored onto the coordinator clock: sane duration, tagged
            # with the worker that produced it, children intact.
            assert span.end >= span.start
            assert "worker" in span.tags
            child_names = {c.name for c in span.children}
            assert child_names == {"worker.merge", "worker.refine"}
            # The refine says which form it ran and what that decoded:
            # roads x hydrography under ``intersects`` is the columnar one.
            (refine,) = (c for c in span.children if c.name == "worker.refine")
            assert refine.tags["columnar"] is True
            assert refine.tags["records_decoded"] <= 2 * refine.tags["candidates"]
            # Every result is at least one segment pair that intersected.
            assert refine.tags["segment_pairs"] >= span.tags["results"]
            assert refine.tags["vertex_rows"] == 0
        # The relations get a root span of their own: on a side's first run
        # they are written there.
        assert tracer.find("process.partition") and tracer.find("process.relations")
        assert tracer.find("process.execute")

    @pytest.mark.parametrize("seed", [1996, 7, 3017])
    def test_polygon_tasks_are_columnar_and_the_digest_is_the_serial_one(
        self, seed
    ):
        """The paper's Sequoia query, on the seeds ARCHITECTURE.md counts
        the known deviation of ``Polygon.contains`` on: the workers decide
        it from ring columns and reproduce the loop's answer, deviation
        and all."""
        from repro.serve.query import QuerySpec, result_digest

        spec = QuerySpec(dataset="landuse_island", scale=0.05, seed=seed,
                         predicate="contains", workers=2)
        tuples_r, tuples_s = spec.generate()
        serial = parallel_join(
            tuples_r, tuples_s, spec.predicate_fn, backend="serial"
        )
        tracer = Tracer()
        process = ProcessPBSM(2, tracer=tracer).run(
            tuples_r, tuples_s, spec.predicate_fn
        )
        assert len(serial.pairs) > 500
        assert result_digest(process.pairs) == result_digest(serial.pairs)
        assert process.duplicates_dropped == 0
        refines = tracer.find("worker.refine")
        assert len(refines) == len(process.tasks)
        for refine in refines:
            assert refine.tags["columnar"] is True
            assert refine.tags["records_decoded"] <= 2 * refine.tags["candidates"]
        # Nearly every contained island lies in its land-use polygon's
        # clearance square; the exact tests decide the rest.
        assert sum(r.tags["square_hits"] for r in refines) > 0.9 * len(serial.pairs)
        assert sum(r.tags["vertex_rows"] for r in refines) > 0
        assert sum(r.tags["segment_pairs"] for r in refines) > 0


class TestCandidateFetchCharging:
    def test_charging_candidates_counts_at_least_result_fetches(self, workload):
        tuples_r, tuples_s, expected = workload

        default = ParallelPBSM(6, scheme=REPLICATE_MBRS).run(
            tuples_r, tuples_s, intersects
        )
        charged = ParallelPBSM(
            6, scheme=REPLICATE_MBRS, charge_candidate_fetches=True
        ).run(tuples_r, tuples_s, intersects)

        # Same answer either way — the flag only changes the accounting.
        assert default.pairs == expected
        assert charged.pairs == expected
        # False-positive candidates can only add fetches, never remove.
        assert charged.remote_fetches >= default.remote_fetches > 0
        for node_default, node_charged in zip(default.nodes, charged.nodes):
            assert node_charged.remote_fetches >= node_default.remote_fetches
