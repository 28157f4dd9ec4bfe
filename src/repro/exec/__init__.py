"""Volcano-style executor: spatial joins over intermediate results."""

from .operators import (
    Filter,
    Limit,
    Materialize,
    RelationScan,
    SpatialJoin,
    WindowFilter,
)

__all__ = [
    "Filter",
    "Limit",
    "Materialize",
    "RelationScan",
    "SpatialJoin",
    "WindowFilter",
]
