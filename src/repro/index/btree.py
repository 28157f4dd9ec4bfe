"""A disk-based B+-tree over 64-bit keys with fixed-width payloads.

[OM84]'s point: once spatial objects are transformed to 1-D z-values, "the
transformed values ... can be stored in traditional indexing structures
like a B-tree", and the spatial join becomes a merge of two sorted
sequences read off the B-trees' leaf chains.  This module supplies that
traditional structure: a page-based B+-tree with insertion, point and
range search, a linked leaf level for ordered scans, and sorted bulk
loading — all through the buffer pool, so scans and probes cost simulated
I/O like every other access path here.

``repro.joins.zorder.ZOrderIndex`` builds on it to give the transform-based
join a persistent, reusable index form.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..storage.buffer import BufferPool
from ..storage.disk import PAGE_SIZE

_META = struct.Struct("<IIIQ")  # magic, root page, height, entry count
_HEADER = struct.Struct("<BBHI")  # is_leaf, pad, count, next_leaf (leaves)
_KEY = struct.Struct("<Q")
_CHILD = struct.Struct("<I")

META_MAGIC = 0x42545231  # "BTR1"
META_PAGE = 0
_NO_LEAF = 0xFFFFFFFF


def leaf_capacity(payload_size: int) -> int:
    return (PAGE_SIZE - _HEADER.size) // (_KEY.size + payload_size)


def branch_capacity() -> int:
    # n keys + n children (first child stored with a dummy key slot).
    return (PAGE_SIZE - _HEADER.size) // (_KEY.size + _CHILD.size) - 1


@dataclass
class _Node:
    page_no: int
    is_leaf: bool
    keys: List[int] = field(default_factory=list)
    # leaves: payloads parallel to keys; branches: children (len = keys+1)
    payloads: List[bytes] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    next_leaf: Optional[int] = None


class BPlusTree:
    """B+-tree with u64 keys and fixed-width byte payloads."""

    def __init__(self, pool: BufferPool, payload_size: int, file_id: Optional[int] = None):
        if payload_size < 1 or payload_size > 256:
            raise ValueError("payload size must be in [1, 256]")
        self.pool = pool
        self.payload_size = payload_size
        self.leaf_cap = leaf_capacity(payload_size)
        self.branch_cap = branch_capacity()
        self._cache: Dict[int, _Node] = {}
        if file_id is None:
            self.file_id = pool.disk.create_file()
            meta_no = pool.new_page(self.file_id)
            assert meta_no == META_PAGE
            root = _Node(self._alloc(), is_leaf=True)
            self._write(root)
            self.root_page = root.page_no
            self.height = 1
            self.count = 0
            self._write_meta()
        else:
            self.file_id = file_id
            page = pool.get_page(file_id, META_PAGE)
            magic, self.root_page, self.height, self.count = _META.unpack_from(page, 0)
            if magic != META_MAGIC:
                raise ValueError("not a B+-tree file (bad magic)")

    # ------------------------------------------------------------------ #
    # page plumbing
    # ------------------------------------------------------------------ #

    def _alloc(self) -> int:
        return self.pool.new_page(self.file_id)

    def _write_meta(self) -> None:
        page = self.pool.get_page(self.file_id, META_PAGE)
        _META.pack_into(page, 0, META_MAGIC, self.root_page, self.height, self.count)
        self.pool.mark_dirty(self.file_id, META_PAGE)

    def _read(self, page_no: int) -> _Node:
        page = self.pool.get_page(self.file_id, page_no)
        node = self._cache.get(page_no)
        if node is not None:
            return node
        is_leaf, _pad, count, next_leaf = _HEADER.unpack_from(page, 0)
        node = _Node(page_no, bool(is_leaf))
        pos = _HEADER.size
        if node.is_leaf:
            node.next_leaf = None if next_leaf == _NO_LEAF else next_leaf
            for _ in range(count):
                (key,) = _KEY.unpack_from(page, pos)
                pos += _KEY.size
                node.keys.append(key)
                node.payloads.append(bytes(page[pos : pos + self.payload_size]))
                pos += self.payload_size
        else:
            (first_child,) = _CHILD.unpack_from(page, pos)
            pos += _CHILD.size
            node.children.append(first_child)
            for _ in range(count):
                (key,) = _KEY.unpack_from(page, pos)
                pos += _KEY.size
                (child,) = _CHILD.unpack_from(page, pos)
                pos += _CHILD.size
                node.keys.append(key)
                node.children.append(child)
        self._cache[page_no] = node
        return node

    def _write(self, node: _Node) -> None:
        page = self.pool.get_page(self.file_id, node.page_no)
        next_leaf = node.next_leaf if node.next_leaf is not None else _NO_LEAF
        _HEADER.pack_into(
            page, 0, 1 if node.is_leaf else 0, 0, len(node.keys),
            next_leaf if node.is_leaf else 0,
        )
        pos = _HEADER.size
        if node.is_leaf:
            if len(node.keys) > self.leaf_cap:
                raise ValueError("overfull leaf")
            for key, payload in zip(node.keys, node.payloads):
                _KEY.pack_into(page, pos, key)
                pos += _KEY.size
                page[pos : pos + self.payload_size] = payload
                pos += self.payload_size
        else:
            if len(node.keys) > self.branch_cap:
                raise ValueError("overfull branch")
            _CHILD.pack_into(page, pos, node.children[0])
            pos += _CHILD.size
            for key, child in zip(node.keys, node.children[1:]):
                _KEY.pack_into(page, pos, key)
                pos += _KEY.size
                _CHILD.pack_into(page, pos, child)
                pos += _CHILD.size
        self.pool.mark_dirty(self.file_id, node.page_no)
        self._cache[node.page_no] = node

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.count

    @property
    def num_pages(self) -> int:
        return self.pool.disk.file_length(self.file_id)

    def _descend_left(self, key: int) -> _Node:
        """Descend to the first leaf that may hold ``key``.

        Uses *lower* bounds at branches: a leaf split can leave keys equal
        to the separator in the left sibling, so a range scan must start
        left of an equal separator to see every duplicate.
        """
        node = self._read(self.root_page)
        while not node.is_leaf:
            idx = _lower_bound(node.keys, key)
            node = self._read(node.children[idx])
        return node

    def search(self, key: int) -> List[bytes]:
        """All payloads stored under ``key`` (duplicates allowed)."""
        return [payload for _k, payload in self.range_scan(key, key)]

    def range_scan(self, lo: int, hi: int) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(key, payload)`` with lo <= key <= hi, in key order."""
        if lo > hi:
            raise ValueError(f"malformed range [{lo}, {hi}]")
        node = self._descend_left(lo)
        while node is not None:
            for key, payload in zip(node.keys, node.payloads):
                if key > hi:
                    return
                if key >= lo:
                    yield key, payload
            node = self._read(node.next_leaf) if node.next_leaf is not None else None

    def scan_all(self) -> Iterator[Tuple[int, bytes]]:
        """Sequential scan of the whole leaf chain in key order."""
        node = self._read(self.root_page)
        while not node.is_leaf:
            node = self._read(node.children[0])
        while node is not None:
            yield from zip(node.keys, node.payloads)
            node = self._read(node.next_leaf) if node.next_leaf is not None else None

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    def insert(self, key: int, payload: bytes) -> None:
        if len(payload) != self.payload_size:
            raise ValueError(
                f"payload must be exactly {self.payload_size} bytes"
            )
        split = self._insert_into(self.root_page, key, payload)
        if split is not None:
            sep_key, new_page = split
            new_root = _Node(self._alloc(), is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self.root_page, new_page]
            self._write(new_root)
            self.root_page = new_root.page_no
            self.height += 1
        self.count += 1
        self._write_meta()

    def _insert_into(
        self, page_no: int, key: int, payload: bytes
    ) -> Optional[Tuple[int, int]]:
        """Insert below ``page_no``; returns (separator, new page) on split."""
        node = self._read(page_no)
        if node.is_leaf:
            idx = _upper_bound(node.keys, key)
            node.keys.insert(idx, key)
            node.payloads.insert(idx, payload)
            if len(node.keys) <= self.leaf_cap:
                self._write(node)
                return None
            return self._split_leaf(node)
        idx = _upper_bound(node.keys, key)
        split = self._insert_into(node.children[idx], key, payload)
        if split is None:
            return None
        sep_key, new_page = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, new_page)
        if len(node.keys) <= self.branch_cap:
            self._write(node)
            return None
        return self._split_branch(node)

    def _split_leaf(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        sibling = _Node(self._alloc(), is_leaf=True)
        sibling.keys = node.keys[mid:]
        sibling.payloads = node.payloads[mid:]
        sibling.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.payloads = node.payloads[:mid]
        node.next_leaf = sibling.page_no
        self._write(node)
        self._write(sibling)
        return sibling.keys[0], sibling.page_no

    def _split_branch(self, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        sibling = _Node(self._alloc(), is_leaf=False)
        sibling.keys = node.keys[mid + 1 :]
        sibling.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._write(node)
        self._write(sibling)
        return sep, sibling.page_no

    # ------------------------------------------------------------------ #
    # invariants (test support)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        total, depth_set, _keys = self._check(self.root_page, 0, None, None)
        assert total == self.count, f"{total} != {self.count}"
        assert len(depth_set) == 1, f"leaves at depths {depth_set}"
        chain = [k for k, _p in self.scan_all()]
        assert chain == sorted(chain), "leaf chain out of order"
        assert len(chain) == self.count

    def _check(self, page_no, depth, lo, hi):
        node = self._read(page_no)
        for key in node.keys:
            assert lo is None or key >= lo, f"key {key} < lower bound {lo}"
            assert hi is None or key <= hi, f"key {key} > upper bound {hi}"
        assert node.keys == sorted(node.keys)
        if node.is_leaf:
            return len(node.keys), {depth}, node.keys
        total = 0
        depths = set()
        bounds = [lo, *node.keys, hi]
        for i, child in enumerate(node.children):
            t, d, _ = self._check(child, depth + 1, bounds[i], bounds[i + 1])
            total += t
            depths |= d
        return total, depths, node.keys


def bulk_load_btree(
    pool: BufferPool,
    sorted_items: List[Tuple[int, bytes]],
    payload_size: int,
    fill: float = 0.9,
) -> BPlusTree:
    """Pack a key-sorted item list bottom-up into a fresh B+-tree."""
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill factor outside (0, 1]")
    for i in range(1, len(sorted_items)):
        if sorted_items[i - 1][0] > sorted_items[i][0]:
            raise ValueError("items not sorted by key")

    tree = BPlusTree(pool, payload_size)
    if not sorted_items:
        return tree

    per_leaf = max(2, int(tree.leaf_cap * fill))
    leaves: List[_Node] = []
    for start in range(0, len(sorted_items), per_leaf):
        chunk = sorted_items[start : start + per_leaf]
        leaf = _Node(tree._alloc(), is_leaf=True)
        leaf.keys = [k for k, _p in chunk]
        leaf.payloads = [p for _k, p in chunk]
        leaves.append(leaf)
    for a, b in zip(leaves, leaves[1:]):
        a.next_leaf = b.page_no
    for leaf in leaves:
        tree._write(leaf)

    per_branch = max(2, int(tree.branch_cap * fill))
    level: List[Tuple[int, int]] = [(leaf.keys[0], leaf.page_no) for leaf in leaves]
    height = 1
    while len(level) > 1:
        next_level: List[Tuple[int, int]] = []
        for start in range(0, len(level), per_branch):
            chunk = level[start : start + per_branch]
            branch = _Node(tree._alloc(), is_leaf=False)
            branch.children = [page for _k, page in chunk]
            branch.keys = [k for k, _page in chunk[1:]]
            tree._write(branch)
            next_level.append((chunk[0][0], branch.page_no))
        level = next_level
        height += 1
    tree.root_page = level[0][1]
    tree.height = height
    tree.count = len(sorted_items)
    tree._write_meta()
    return tree


def _upper_bound(keys: List[int], key: int) -> int:
    """First index whose key is strictly greater (inserts go right of equals)."""
    return bisect.bisect_right(keys, key)


def _lower_bound(keys: List[int], key: int) -> int:
    """First index whose key is >= ``key`` (scans start left of equals)."""
    return bisect.bisect_left(keys, key)
