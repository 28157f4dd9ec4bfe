"""Spatial indexing substrate: page-based R*-tree, bulk loading, tree join."""

from .bulkload import (
    build_from_sorted,
    bulk_load_rstar,
    extract_keypointers,
    spatial_sort,
)
from .node import NODE_CAPACITY, Node
from .rstar import RStarTree, rstar_split
from .treejoin import rtree_join_pairs

__all__ = [
    "NODE_CAPACITY",
    "Node",
    "RStarTree",
    "build_from_sorted",
    "bulk_load_rstar",
    "extract_keypointers",
    "rstar_split",
    "rtree_join_pairs",
    "spatial_sort",
]
