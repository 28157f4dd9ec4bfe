#!/usr/bin/env python3
"""Parallel PBSM — the paper's §5 future work, simulated.

The paper closes by observing that PBSM "will parallelize efficiently"
because its tiled spatial partitioning function doubles as a declustering
strategy for a shared-nothing machine [DNSS92-style virtual-processor
round robin].  This example runs that design on the simulated backend:

* both inputs are declustered across N virtual nodes with the same tiled
  partitioning function PBSM uses internally (objects spanning node
  boundaries are replicated, the "replicate the object entirely" choice of
  §5);
* each node runs single-node PBSM over its own fragments and keeps only
  the pairs whose reference tile it owns, so node outputs are disjoint;
* the merged node outputs must equal the serial PBSM result, and the
  simulated parallel time is max(node times).

Run:  python examples/parallel_pbsm.py
"""

from repro import intersects
from repro.data import generate_hydrography, generate_roads
from repro.parallel import parallel_join


def main() -> None:
    num_nodes = 8
    roads = list(generate_roads(scale=0.01))
    rivers = list(generate_hydrography(scale=0.01))

    serial = parallel_join(roads, rivers, intersects, backend="serial")
    print(f"serial PBSM: {len(serial)} pairs")

    result = parallel_join(
        roads, rivers, intersects, backend="simulated", workers=num_nodes
    )
    print(f"declustered over {num_nodes} nodes, storage factor "
          f"{result.storage_factor_r:.3f} (roads) / "
          f"{result.storage_factor_s:.3f} (rivers)")
    for node in result.nodes:
        print(f"  node {node.node_id}: {node.tuples_r:5d} roads, "
              f"{node.tuples_s:5d} rivers -> {node.local_pairs:4d} pairs "
              f"({node.sim_seconds:.2f} simulated s)")

    assert result.pairs == serial.pairs, "parallel result differs from serial!"
    assert result.duplicates_dropped == 0
    print(f"\nparallel result identical to serial ({len(result)} pairs)")
    print(f"sum of node work: {result.total_work_s:.2f} s; "
          f"critical path: {result.critical_path_s:.2f} s; "
          f"speedup at {num_nodes} nodes: {result.speedup:.1f}x")


if __name__ == "__main__":
    main()
