"""End-to-end smoke for the serving tier: real server process, real client.

Spawns ``python -m repro serve`` as a subprocess, fires ~20 mixed queries
at it through :class:`repro.serve.ServeClient`, and verifies the three
properties CI cares about:

* the cache works — the mix repeats queries, so the hit rate must be > 0;
* every served answer is **byte-identical** to a one-shot
  ``parallel_join`` of the same spec (and all responses for the same spec
  agree with each other, hit or miss);
* SIGTERM drains cleanly — exit status 0, the "drained" summary printed,
  and the journals in the out directory intact for artifact upload.

Run it locally with ``PYTHONPATH=src python benchmarks/serve_smoke.py``;
CI runs it in the ``serve-smoke`` job and uploads the out directory.
"""

import json
import random
import sys
from pathlib import Path

from common import drain, start_server
from repro.parallel import parallel_join
from repro.serve import QuerySpec, ServeClient, result_digest

N_QUERIES = 20
MIX_SEED = 96

QUERY_MIX = [
    {"dataset": "road_hydro", "scale": 0.006, "predicate": "intersects"},
    {"dataset": "road_rail", "scale": 0.006, "predicate": "intersects"},
    {"dataset": "landuse_island", "scale": 0.004, "predicate": "contains"},
    {"dataset": "road_hydro", "scale": 0.004, "predicate": "intersects"},
]


def main(out_dir: str = "serve-out") -> int:
    proc, port = start_server(
        Path(out_dir), "--max-inflight", "2", "--max-queue", "8"
    )
    try:
        rng = random.Random(MIX_SEED)
        responses = []
        with ServeClient("127.0.0.1", port, timeout=300.0) as client:
            for _ in range(N_QUERIES):
                fields = dict(rng.choice(QUERY_MIX), workers=2)
                response = client.join(**fields)
                assert response.get("ok"), response
                response["_spec"] = json.dumps(fields, sort_keys=True)
                responses.append(response)
            stats = client.stats()["stats"]

        hits = [r for r in responses if r["source"] in ("hit", "coalesced")]
        assert hits, "no cache hits across the mixed queries"

        by_spec = {}
        for r in responses:
            by_spec.setdefault(r["_spec"], set()).add(r["result_sha256"])
        for key, seen in sorted(by_spec.items()):
            assert len(seen) == 1, f"{key} served {len(seen)} digests"
            spec = QuerySpec(**json.loads(key))
            tuples_r, tuples_s = spec.generate()
            one_shot = parallel_join(
                tuples_r, tuples_s, spec.predicate_fn,
                backend="process", workers=spec.workers,
            )
            assert result_digest(one_shot.pairs) == next(iter(seen)), (
                f"served result for {key} != one-shot parallel run"
            )

        output = drain(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    print(output)
    print(
        f"serve smoke ok: {len(responses)} queries, {len(hits)} hits "
        f"({len(hits) / len(responses):.0%}), {len(by_spec)} distinct joins, "
        f"server stats: admitted={stats['admitted']} "
        f"completed={stats['completed']} rejected={stats['rejected']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
