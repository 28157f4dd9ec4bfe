"""The serving tier: a resident join service over the PBSM engine.

One long-lived coordinator (:mod:`repro.serve.server`) accepts join
queries over a local TCP socket, runs them on the process's one worker
pool (:data:`repro.parallel.process.RESIDENT_POOL`), and answers repeats from a
fingerprint-keyed artifact cache (:mod:`repro.serve.cache`) built on the
checkpoint store — a completed query's durable result log *is* its
cache entry, and a half-finished one resumes instead of restarting.
Admission control keeps the service honest under load: bounded
in-flight queries, a bounded queue, and explicit rejects past both.

Resilience rides on three mechanisms: per-query **deadlines**
(``deadline_s`` on the spec, cooperatively cancelled inside the engine,
typed ``deadline_exceeded`` rejects with adoptable checkpoint state), a
**circuit breaker** over the pool's retirement rate
(:mod:`repro.serve.breaker` — open breakers shed queries to a
byte-identical in-process serial path, reported as ``degraded``), and a
background **cache scrubber** (:mod:`repro.serve.scrub`) that CRC-walks
entries at rest, repairing warm ones and quarantining liars.

``python -m repro serve`` runs it; :mod:`repro.serve.client` talks to
it; ``benchmarks/bench_serve_throughput.py`` measures it.
"""

from .cache import (
    LOOKUP_HIT,
    LOOKUP_MISS,
    LOOKUP_WARM,
    QUARANTINE_DIRNAME,
    ArtifactCache,
)
from .client import ServeClient, read_port_file, wait_for_server
from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from .query import QuerySpec, result_digest
from .scrub import CacheScrubber
from .server import JoinServer, outcome_block

__all__ = [
    "ArtifactCache",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CacheScrubber",
    "CircuitBreaker",
    "JoinServer",
    "LOOKUP_HIT",
    "LOOKUP_MISS",
    "LOOKUP_WARM",
    "QUARANTINE_DIRNAME",
    "QuerySpec",
    "ServeClient",
    "outcome_block",
    "read_port_file",
    "result_digest",
    "wait_for_server",
]
