"""Relations: named collections of spatial tuples with catalog statistics.

The catalog keeps exactly what PBSM's filter step needs (§3.1): the
cardinality and the *universe* — the minimum cover of the join attribute of
all tuples — which is maintained incrementally on insert, the way a real
system would keep it in its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional

from ..geometry import Rect
from .buffer import BufferPool
from .heapfile import RID, HeapFile
from .tuples import SpatialTuple, deserialize_tuple, serialize_tuple


class OID(NamedTuple):
    """System-wide tuple identifier: file + record id.

    OIDs order lexicographically by (file, page, slot); sorting candidate
    pairs on OIDs therefore sorts them into physical disk order, which is
    what the refinement step's sequential-access strategy relies on.
    """

    file_id: int
    page_no: int
    slot: int

    @property
    def rid(self) -> RID:
        return RID(self.page_no, self.slot)


@dataclass
class CatalogEntry:
    """Per-relation statistics kept by the (toy) system catalog."""

    name: str
    cardinality: int = 0
    universe: Optional[Rect] = None
    total_points: int = 0

    def observe(self, t: SpatialTuple) -> None:
        self.cardinality += 1
        self.total_points += t.num_points
        mbr = t.mbr
        self.universe = mbr if self.universe is None else self.universe.union(mbr)

    @property
    def avg_points(self) -> float:
        return self.total_points / self.cardinality if self.cardinality else 0.0


class Relation:
    """A heap file of spatial tuples plus catalog statistics."""

    def __init__(self, pool: BufferPool, name: str):
        self.heap = HeapFile(pool)
        self.catalog = CatalogEntry(name)

    @property
    def name(self) -> str:
        return self.catalog.name

    @property
    def file_id(self) -> int:
        return self.heap.file_id

    def __len__(self) -> int:
        return self.catalog.cardinality

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def insert(self, t: SpatialTuple) -> OID:
        rid = self.heap.append(serialize_tuple(t))
        self.catalog.observe(t)
        return OID(self.heap.file_id, rid.page_no, rid.slot)

    def bulk_load(self, tuples: Iterable[SpatialTuple]) -> int:
        """Append many tuples; returns the number loaded."""
        n = 0
        for t in tuples:
            self.insert(t)
            n += 1
        return n

    # ------------------------------------------------------------------ #
    # access paths
    # ------------------------------------------------------------------ #

    def scan(self) -> Iterator[tuple[OID, SpatialTuple]]:
        """Sequential scan in physical order."""
        for page in self.scan_pages():
            yield from page

    def scan_pages(self) -> Iterator[List[tuple[OID, SpatialTuple]]]:
        """Sequential scan in physical order, one heap page's live tuples
        at a time (each page is read once, before its list is built)."""
        fid = self.heap.file_id
        for page_no in range(self.heap.num_pages):
            yield [
                (OID(fid, rid.page_no, rid.slot), deserialize_tuple(record))
                for rid, record in self.heap.scan_page(page_no)
            ]

    def fetch(self, oid: OID) -> SpatialTuple:
        """Fetch one tuple by OID (a random access unless buffered)."""
        if oid.file_id != self.heap.file_id:
            raise ValueError(
                f"OID {oid} does not belong to relation {self.name!r}"
            )
        return deserialize_tuple(self.heap.get(oid.rid))

    # ------------------------------------------------------------------ #
    # catalog accessors
    # ------------------------------------------------------------------ #

    @property
    def universe(self) -> Rect:
        if self.catalog.universe is None:
            raise ValueError(f"relation {self.name!r} is empty")
        return self.catalog.universe

    def size_bytes(self) -> int:
        return self.heap.size_bytes()

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages
