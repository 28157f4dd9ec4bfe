"""Deterministic synthetic data: TIGER-style polylines, Sequoia-style polygons."""

from .distributions import Cluster, ClusteredDistribution
from .loader import load_relation, make_sequoia_datasets, make_tiger_datasets
from .sequoia import (
    CALIFORNIA,
    generate_islands,
    generate_landuse_polygons,
)
from .tiger import (
    WISCONSIN,
    generate_hydrography,
    generate_polylines,
    generate_rail,
    generate_roads,
    scaled_counts,
)

__all__ = [
    "CALIFORNIA",
    "WISCONSIN",
    "Cluster",
    "ClusteredDistribution",
    "generate_hydrography",
    "generate_islands",
    "generate_landuse_polygons",
    "generate_polylines",
    "generate_rail",
    "generate_roads",
    "load_relation",
    "make_sequoia_datasets",
    "make_tiger_datasets",
    "scaled_counts",
]
