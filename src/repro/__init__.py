"""repro — Partition Based Spatial-Merge join (Patel & DeWitt, SIGMOD 1996).

A full reproduction of the PBSM spatial join and the system around it: a
computational-geometry kernel, a paged storage manager with a simulated
disk and LRU buffer pool, a page-based R*-tree with Paradise-style bulk
loading, the indexed-nested-loops and BKS93 R-tree join baselines, the LR96
spatial hash join, and synthetic TIGER/Sequoia workload generators.

Quickstart::

    from repro import Database, PBSMJoin, intersects
    from repro.data import make_tiger_datasets

    db = Database(buffer_mb=8.0)
    rels = make_tiger_datasets(db, scale=0.002)
    result = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
    print(len(result), "intersecting pairs")
    print(result.report.format_table())
"""

from .core import (
    JoinReport,
    JoinResult,
    PBSMConfig,
    PBSMJoin,
    contains,
    intersects,
)
from .geometry import Polygon, Polyline, Rect
from .index import RStarTree, bulk_load_rstar
from .joins import (
    IndexedNestedLoopsJoin,
    NaiveNestedLoopsJoin,
    RTreeJoin,
    SpatialHashJoin,
)
from .obs import MetricsRegistry, Tracer
from .storage import Database, Relation, SpatialTuple

__version__ = "1.0.0"

__all__ = [
    "Database",
    "IndexedNestedLoopsJoin",
    "JoinReport",
    "JoinResult",
    "MetricsRegistry",
    "NaiveNestedLoopsJoin",
    "PBSMConfig",
    "PBSMJoin",
    "Polygon",
    "Polyline",
    "RStarTree",
    "RTreeJoin",
    "Rect",
    "Relation",
    "SpatialHashJoin",
    "SpatialTuple",
    "Tracer",
    "bulk_load_rstar",
    "contains",
    "intersects",
    "__version__",
]
