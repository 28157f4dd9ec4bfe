"""Spatial join algorithms: PBSM's competitors and baselines."""

from .inl import IndexedNestedLoopsJoin
from .joinindex import SpatialJoinIndex
from .naive import NaiveNestedLoopsJoin
from .rtree import RTreeJoin
from .spatial_hash import SpatialHashJoin
from .zorder import ZOrderConfig, ZOrderIndex, ZOrderJoin, zorder_join_indexed

__all__ = [
    "IndexedNestedLoopsJoin",
    "NaiveNestedLoopsJoin",
    "RTreeJoin",
    "SpatialJoinIndex",
    "SpatialHashJoin",
    "ZOrderConfig",
    "ZOrderIndex",
    "ZOrderJoin",
    "zorder_join_indexed",
]
