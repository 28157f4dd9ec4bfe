"""Storage substrate: simulated disk, buffer pool, heap files, relations."""

from .buffer import BufferPool, BufferPoolError, pages_for_megabytes
from .database import Database
from .disk import PAGE_SIZE, DiskStats, IOCostModel, SimulatedDisk
from .errors import (
    DiskFullError,
    PageSizeError,
    SpillCorruptionError,
    StorageError,
    UnallocatedPageError,
    UnknownFileError,
)
from .pressure import CATEGORIES, DiskBudget
from .heapfile import MAX_RECORD_SIZE, RID, HeapFile, HeapFileError
from .relation import OID, Relation
from .tuples import (
    SpatialTuple,
    deserialize_tuple,
    serialize_tuple,
    tuple_size_bytes,
)

__all__ = [
    "CATEGORIES",
    "PAGE_SIZE",
    "MAX_RECORD_SIZE",
    "OID",
    "RID",
    "BufferPool",
    "BufferPoolError",
    "Database",
    "DiskBudget",
    "DiskFullError",
    "DiskStats",
    "HeapFile",
    "HeapFileError",
    "IOCostModel",
    "PageSizeError",
    "Relation",
    "SimulatedDisk",
    "SpatialTuple",
    "SpillCorruptionError",
    "StorageError",
    "UnallocatedPageError",
    "UnknownFileError",
    "deserialize_tuple",
    "pages_for_megabytes",
    "serialize_tuple",
    "tuple_size_bytes",
]
