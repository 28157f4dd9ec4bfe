"""Figure 4 — quality of the spatial partitioning function (TIGER roads).

The paper plots the coefficient of variation of the per-partition tuple
counts as the number of tiles grows, for hash vs round-robin tile mapping
and 4 vs 16 partitions.  Expected shape:

* all curves improve (drop) as tiles increase;
* hashing with many tiles is a good partitioning function (cov near 0);
* for a fixed tile count, 4 partitions balance better than 16;
* round robin shows jumps where tiles-per-row align with partitions.
"""

from repro.bench import BENCH_SCALE, ResultTable, fresh_tiger
from repro.bench.harness import RESULTS_DIR
from repro.core import SCHEME_HASH, SCHEME_ROUND_ROBIN, profile_partitioning
from repro.obs.bench import wall_clock_record, write_bench_file

TILE_SWEEP = (25, 100, 400, 1000, 2000, 4000)

CURVES = {
    "h4": (SCHEME_HASH, 4),
    "h16": (SCHEME_HASH, 16),
    "r4": (SCHEME_ROUND_ROBIN, 4),
    "r16": (SCHEME_ROUND_ROBIN, 16),
}


def _skew_record(scheme: str, partitions: int, covs) -> dict:
    """One schema-valid record per Figure 4 curve.

    Partitioning quality has no join cost or I/O of its own, so the cost
    fields are structurally zero; the payload — the CoV trajectory the
    figure plots, and that ``repro report`` cross-checks — rides in
    ``notes``.
    """
    return wall_clock_record(
        f"partitioning-{scheme}/{partitions}",
        scale=BENCH_SCALE,
        buffer_mb=8.0,
        notes={
            "scheme": scheme,
            "partitions": partitions,
            "tiles": list(TILE_SWEEP),
            "cov": [round(c, 6) for c in covs],
        },
    )


def test_fig4_partition_balance(benchmark):
    def run():
        db, rels = fresh_tiger(8.0, include=("road",))
        road = rels["road"]
        mbrs = [t.mbr for _oid, t in road.scan()]
        universe = road.universe
        table = ResultTable(
            f"Figure 4: partition balance, TIGER roads (scale={BENCH_SCALE})",
            ["tiles", "hash/4", "hash/16", "rrobin/4", "rrobin/16"],
        )
        curves = {key: [] for key in ("h4", "h16", "r4", "r16")}
        for tiles in TILE_SWEEP:
            h4 = profile_partitioning(mbrs, universe, 4, tiles, SCHEME_HASH).cov
            h16 = profile_partitioning(mbrs, universe, 16, tiles, SCHEME_HASH).cov
            r4 = profile_partitioning(mbrs, universe, 4, tiles, SCHEME_ROUND_ROBIN).cov
            r16 = profile_partitioning(
                mbrs, universe, 16, tiles, SCHEME_ROUND_ROBIN
            ).cov
            curves["h4"].append(h4)
            curves["h16"].append(h16)
            curves["r4"].append(r4)
            curves["r16"].append(r16)
            table.add(tiles, h4, h16, r4, r16)
        table.emit("fig4_partition_balance.txt")
        write_bench_file(
            "fig4_partition_balance",
            [
                _skew_record(scheme, partitions, curves[key])
                for key, (scheme, partitions) in CURVES.items()
            ],
            RESULTS_DIR,
        )
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    # All partitioning functions improve as the number of tiles grows.
    for key in curves:
        assert curves[key][-1] < curves[key][0], key
    # With many hashed tiles, partitioning is good (paper: cov -> ~0.05).
    assert curves["h16"][-1] < 0.25
    # Fewer partitions balance better for a given tile count (coarse grids).
    assert curves["h4"][0] <= curves["h16"][0] + 0.05
