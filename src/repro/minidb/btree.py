"""B-tree index: integer key → RID.

Each node occupies one buffer-pool page (stored as the page's single
record, so the pool's dirty-tracking and write-back apply unchanged).
Leaves are chained for range scans.  Deletion is lazy — keys are removed
from leaves without rebalancing, the standard simplification for
insert-mostly workloads like TPC-C order entry.

Each tree keeps its decoded nodes, keyed by page id, because the tree owns
its node pages and every change to one goes through :meth:`BTree._write_node`
or :meth:`BTree._new_node_page`.  A read still fetches the page from the
buffer pool, so the pool's LRU order and every byte written back are the
same as if each read decoded the page afresh.  Cached nodes are shared, so
code that changes a node works on a :meth:`_Node.copy` and writes it back.

A leaf keeps its entries packed beside its lists, and every change to them
splices both, so writing a leaf back packs only the entry that changed.

Node wire format::

    uint8   is_leaf
    uint16  entry count
    int64   next-leaf page id (-1 if none / internal node)
    leaf:      count × (int64 key, uint32 page_id, uint16 slot)
    internal:  count × int64 key, then (count + 1) × uint32 child page id
"""

from __future__ import annotations

import bisect
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.common.errors import StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.heap import Rid

_HEADER = struct.Struct("<BHq")
_LEAF_ENTRY = struct.Struct("<qIH")
_KEY = struct.Struct("<q")


@dataclass
class _Node:
    """In-memory form of one B-tree node.

    A leaf also carries ``packed``, its entries already in wire form, so
    :meth:`to_bytes` is the header plus that body.  Change a leaf's entries
    only through :meth:`insert_entry`, :meth:`set_rid`, :meth:`pop_entry`
    and :meth:`split_off`, which splice ``keys``, ``rids`` and ``packed``
    alike.
    """

    is_leaf: bool
    next_leaf: int = -1
    keys: list[int] = field(default_factory=list)
    rids: list[Rid] = field(default_factory=list)  # leaves only
    children: list[int] = field(default_factory=list)  # internal only
    packed: bytearray = field(default_factory=bytearray)  # leaves only

    def copy(self) -> "_Node":
        """A node whose lists can change without touching this one."""
        return _Node(
            self.is_leaf,
            self.next_leaf,
            self.keys.copy(),
            self.rids.copy(),
            self.children.copy(),
            self.packed.copy(),
        )

    def insert_entry(self, index: int, key: int, rid: Rid) -> None:
        """Insert leaf entry ``key → rid`` at ``index``."""
        self.keys.insert(index, key)
        self.rids.insert(index, rid)
        at = index * _LEAF_ENTRY.size
        self.packed[at:at] = _LEAF_ENTRY.pack(key, rid.page_id, rid.slot)

    def set_rid(self, index: int, rid: Rid) -> None:
        """Point leaf entry ``index`` at ``rid``."""
        self.rids[index] = rid
        _LEAF_ENTRY.pack_into(
            self.packed,
            index * _LEAF_ENTRY.size,
            self.keys[index],
            rid.page_id,
            rid.slot,
        )

    def pop_entry(self, index: int) -> None:
        """Remove leaf entry ``index``."""
        del self.keys[index], self.rids[index]
        at = index * _LEAF_ENTRY.size
        del self.packed[at : at + _LEAF_ENTRY.size]

    def split_off(self, middle: int) -> "_Node":
        """Move leaf entries from ``middle`` on into a new right sibling."""
        at = middle * _LEAF_ENTRY.size
        right = _Node(
            is_leaf=True,
            next_leaf=self.next_leaf,
            keys=self.keys[middle:],
            rids=self.rids[middle:],
            packed=self.packed[at:],
        )
        del self.keys[middle:], self.rids[middle:], self.packed[at:]
        return right

    def to_bytes(self) -> bytes:
        count = len(self.keys)
        if self.is_leaf:
            return _HEADER.pack(1, count, self.next_leaf) + self.packed
        return (
            _HEADER.pack(0, count, self.next_leaf)
            + struct.pack(f"<{count}q", *self.keys)
            + struct.pack(f"<{count + 1}I", *self.children)
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "_Node":
        is_leaf, count, next_leaf = _HEADER.unpack_from(raw, 0)
        pos = _HEADER.size
        if is_leaf:
            packed = bytearray(raw[pos : pos + count * _LEAF_ENTRY.size])
            entries = list(_LEAF_ENTRY.iter_unpack(packed))
            return cls(
                is_leaf=True,
                next_leaf=next_leaf,
                keys=[key for key, _, _ in entries],
                rids=[Rid(page_id, slot) for _, page_id, slot in entries],
                packed=packed,
            )
        keys = struct.unpack_from(f"<{count}q", raw, pos)
        pos += count * _KEY.size
        children = struct.unpack_from(f"<{count + 1}I", raw, pos)
        return cls(
            is_leaf=False,
            next_leaf=next_leaf,
            keys=list(keys),
            children=list(children),
        )


class BTree:
    """A B-tree over ``(int key → Rid)`` pairs stored in pool pages."""

    def __init__(
        self,
        pool: BufferPool,
        allocate_page: Callable[[], int],
        max_entries: int | None = None,
    ) -> None:
        self._pool = pool
        self._allocate_page = allocate_page
        usable = pool.page_size - 64  # page + node headers, slot entry
        derived = usable // _LEAF_ENTRY.size
        self._max_entries = max_entries if max_entries is not None else derived
        if self._max_entries < 4:
            raise StorageError(
                f"page size {pool.page_size} too small for a B-tree node"
            )
        self._nodes: dict[int, _Node] = {}
        self._root_id = self._new_node_page(_Node(is_leaf=True))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def root_page_id(self) -> int:
        """Page id of the current root node."""
        return self._root_id

    # -- node I/O ------------------------------------------------------------

    def _new_node_page(self, node: _Node) -> int:
        page_id = self._allocate_page()
        page = self._pool.new_page(page_id)
        page.insert(node.to_bytes())
        self._pool.mark_dirty(page_id)
        self._nodes[page_id] = node
        return page_id

    def _read_node(self, page_id: int) -> _Node:
        """The node in ``page_id``; shared with the cache, so never mutate it."""
        page = self._pool.fetch(page_id)  # keeps the pool's LRU order exact
        node = self._nodes.get(page_id)
        if node is None:
            node = _Node.from_bytes(page.read(0))
            self._nodes[page_id] = node
        return node

    def _write_node(self, page_id: int, node: _Node) -> None:
        page = self._pool.fetch(page_id)
        self._pool.pin(page_id)
        try:
            blob = node.to_bytes()
            if not page.update(0, blob):
                page.delete(0)
                page.compact()
                slot = page.insert(blob)
                assert slot == 0
            self._pool.mark_dirty(page_id)
        finally:
            self._pool.unpin(page_id)
        self._nodes[page_id] = node

    # -- search ------------------------------------------------------------------

    def search(self, key: int) -> Rid | None:
        """Return the RID stored under ``key``, or None."""
        node = self._read_node(self._find_leaf(key))
        index = _lower_bound(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.rids[index]
        return None

    def _find_leaf(self, key: int | None) -> int:
        """Page id of the leaf for ``key``; the leftmost leaf when None."""
        page_id = self._root_id
        node = self._read_node(page_id)
        while not node.is_leaf:
            index = 0 if key is None else _upper_bound(node.keys, key)
            page_id = node.children[index]
            node = self._read_node(page_id)
        return page_id

    def range_scan(
        self, low: int | None = None, high: int | None = None
    ) -> Iterator[tuple[int, Rid]]:
        """Yield ``(key, rid)`` pairs with ``low <= key <= high``, in order."""
        page_id = self._find_leaf(low)
        while page_id != -1:
            node = self._read_node(page_id)
            for key, rid in zip(node.keys, node.rids):
                if low is not None and key < low:
                    continue
                if high is not None and key > high:
                    return
                yield key, rid
            page_id = node.next_leaf

    # -- insert ---------------------------------------------------------------------

    def insert(self, key: int, rid: Rid) -> None:
        """Insert or overwrite the mapping ``key → rid``."""
        split = self._insert_into(self._root_id, key, rid)
        if split is not None:
            middle_key, new_page_id = split
            new_root = _Node(
                is_leaf=False,
                keys=[middle_key],
                children=[self._root_id, new_page_id],
            )
            self._root_id = self._new_node_page(new_root)

    def _insert_into(
        self, page_id: int, key: int, rid: Rid
    ) -> tuple[int, int] | None:
        """Insert under ``page_id``; returns ``(separator, new_page)`` on split."""
        node = self._read_node(page_id)
        if node.is_leaf:
            node = node.copy()
            index = _lower_bound(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.set_rid(index, rid)  # overwrite existing mapping
                self._write_node(page_id, node)
                return None
            node.insert_entry(index, key, rid)
            self._size += 1
        else:
            child_index = _upper_bound(node.keys, key)
            split = self._insert_into(node.children[child_index], key, rid)
            if split is None:
                return None
            separator, new_child = split
            node = node.copy()
            node.keys.insert(child_index, separator)
            node.children.insert(child_index + 1, new_child)
        if len(node.keys) <= self._max_entries:
            self._write_node(page_id, node)
            return None
        return self._split(page_id, node)

    def _split(self, page_id: int, node: _Node) -> tuple[int, int]:
        """Split ``node``, a private copy that is not yet in the cache."""
        middle = len(node.keys) // 2
        if node.is_leaf:
            right = node.split_off(middle)
            separator = right.keys[0]
            right_id = self._new_node_page(right)
            node.next_leaf = right_id
        else:
            separator = node.keys[middle]
            right = _Node(
                is_leaf=False,
                keys=node.keys[middle + 1 :],
                children=node.children[middle + 1 :],
            )
            right_id = self._new_node_page(right)
            node.keys = node.keys[:middle]
            node.children = node.children[: middle + 1]
        self._write_node(page_id, node)
        return separator, right_id

    # -- delete -----------------------------------------------------------------------

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns True if it was present (lazy, no merge)."""
        page_id = self._find_leaf(key)
        node = self._read_node(page_id)
        index = _lower_bound(node.keys, key)
        if index >= len(node.keys) or node.keys[index] != key:
            return False
        node = node.copy()
        node.pop_entry(index)
        self._write_node(page_id, node)
        self._size -= 1
        return True

    def items(self) -> Iterator[tuple[int, Rid]]:
        """All mappings in key order."""
        return self.range_scan()


def _lower_bound(keys: list[int], key: int) -> int:
    """First index whose key is >= ``key``."""
    return bisect.bisect_left(keys, key)


def _upper_bound(keys: list[int], key: int) -> int:
    """First index whose key is > ``key``."""
    return bisect.bisect_right(keys, key)
