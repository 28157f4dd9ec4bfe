"""The paper's contribution: the PBSM join and its building blocks."""

from .keypointer import (
    KEYPTR_SIZE,
    CandidateFile,
    KeyPointerFile,
    pack_keypointer,
    unpack_keypointer,
)
from .partition import (
    SCHEME_HASH,
    SCHEME_ROUND_ROBIN,
    SpatialPartitioner,
    TileGrid,
    coefficient_of_variation,
    estimate_num_partitions,
    profile_partitioning,
)
from .pbsm import PBSMConfig, PBSMJoin
from .predicates import (
    ContainsWithFilters,
    contains,
    intersects,
    intersects_naive,
)
from .refine import dedup_sorted_pairs, merge_sorted_unique
from .stats import JoinReport, JoinResult, PhaseCost, PhaseMeter

__all__ = [
    "KEYPTR_SIZE",
    "SCHEME_HASH",
    "SCHEME_ROUND_ROBIN",
    "CandidateFile",
    "ContainsWithFilters",
    "JoinReport",
    "JoinResult",
    "KeyPointerFile",
    "PBSMConfig",
    "PBSMJoin",
    "PhaseCost",
    "PhaseMeter",
    "SpatialPartitioner",
    "TileGrid",
    "coefficient_of_variation",
    "contains",
    "dedup_sorted_pairs",
    "estimate_num_partitions",
    "intersects",
    "intersects_naive",
    "pack_keypointer",
    "merge_sorted_unique",
    "profile_partitioning",
    "unpack_keypointer",
]
