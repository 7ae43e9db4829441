"""Tests for buffer pool, heap files, and the B-tree."""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.common.errors import StorageError
from repro.minidb import BTree, BufferPool, HeapFile
from repro.minidb.btree import _Node
from repro.minidb.heap import Rid
from repro.minidb.page import SlottedPage
from tests.test_engine_hotpath import CountingDevice

BS = 512


def make_pool(capacity=8, blocks=128, counting=False):
    device = (CountingDevice if counting else MemoryBlockDevice)(BS, blocks)
    pool = BufferPool(device, capacity=capacity)
    counter = iter(range(blocks))
    return pool, device, lambda: next(counter)


class TestBufferPool:
    def test_fetch_uninitialized_block_fails(self):
        pool, _, _ = make_pool()
        with pytest.raises(StorageError):
            pool.fetch(0)

    def test_new_page_then_fetch_hits_cache(self):
        pool, _, alloc = make_pool()
        page_id = alloc()
        pool.new_page(page_id)
        pool.fetch(page_id)
        assert pool.hits == 1

    def test_flush_writes_dirty_pages(self):
        pool, device, alloc = make_pool(counting=True)
        page_id = alloc()
        page = pool.new_page(page_id)
        page.insert(b"data")
        pool.mark_dirty(page_id)
        writes_before = device.writes
        assert pool.flush() == 1
        assert device.writes == writes_before + 1
        assert pool.dirty_count == 0

    def test_flush_idempotent(self):
        pool, _, alloc = make_pool()
        pool.new_page(alloc())
        pool.flush()
        assert pool.flush() == 0

    def test_eviction_writes_back_dirty_page(self):
        pool, device, alloc = make_pool(capacity=2)
        first = alloc()
        page = pool.new_page(first)
        page.insert(b"persisted")
        pool.mark_dirty(first)
        for _ in range(3):  # force eviction of `first`
            pool.new_page(alloc())
        assert pool.evictions >= 1
        # refetch: contents must have survived via write-back
        fetched = pool.fetch(first)
        assert fetched.read(0) == b"persisted"

    def test_pinned_page_not_evicted(self):
        pool, _, alloc = make_pool(capacity=2)
        pinned_id = alloc()
        pinned_page = pool.new_page(pinned_id)
        pool.pin(pinned_id)
        for _ in range(4):
            pool.new_page(alloc())
        # mutate through the original reference and verify it is still live
        pinned_page.insert(b"still-here")
        pool.mark_dirty(pinned_id)  # must not raise: page is resident
        pool.unpin(pinned_id)
        assert pool.fetch(pinned_id).read(0) == b"still-here"

    def test_mark_dirty_nonresident_rejected(self):
        pool, _, alloc = make_pool(capacity=1)
        a, b = alloc(), alloc()
        pool.new_page(a)
        pool.new_page(b)  # evicts a
        with pytest.raises(StorageError):
            pool.mark_dirty(a)

    def test_pin_nonresident_rejected(self):
        pool, _, _ = make_pool()
        with pytest.raises(StorageError):
            pool.pin(42)


class TestHeapFile:
    def _heap(self, **kwargs):
        pool, device, alloc = make_pool(**kwargs)
        return HeapFile(pool, alloc), pool

    def test_insert_read(self):
        heap, _ = self._heap()
        rid = heap.insert(b"record-1")
        assert heap.read(rid) == b"record-1"

    def test_grows_across_pages(self):
        heap, _ = self._heap()
        rids = [heap.insert(bytes([i % 250 + 1]) * 100) for i in range(30)]
        pages = {rid.page_id for rid in rids}
        assert len(pages) > 1
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i % 250 + 1]) * 100

    def test_update_in_place_keeps_rid(self):
        heap, _ = self._heap()
        rid = heap.insert(b"a" * 50)
        assert heap.update(rid, b"b" * 50) == rid
        assert heap.read(rid) == b"b" * 50

    def test_update_grow_moves_record(self):
        heap, _ = self._heap()
        rid = heap.insert(b"small")
        new_rid = heap.update(rid, b"much bigger record" * 3)
        assert heap.read(new_rid) == b"much bigger record" * 3

    def test_delete(self):
        heap, _ = self._heap()
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_scan_returns_live_records(self):
        heap, _ = self._heap()
        keep = heap.insert(b"keep")
        victim = heap.insert(b"remove")
        heap.delete(victim)
        scanned = dict(heap.scan())
        assert scanned == {keep: b"keep"}
        assert len(heap) == 1

    def test_oversized_record_rejected(self):
        heap, _ = self._heap()
        with pytest.raises(StorageError):
            heap.insert(b"x" * BS)

    def test_survives_flush_cycle(self):
        heap, pool = self._heap(capacity=2)
        rids = [heap.insert(bytes([i + 1]) * 80) for i in range(20)]
        pool.flush()
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i + 1]) * 80


class TestBTree:
    def _tree(self, max_entries=None, blocks=512):
        pool, _, alloc = make_pool(capacity=32, blocks=blocks)
        return BTree(pool, alloc, max_entries=max_entries)

    def test_insert_search(self):
        tree = self._tree()
        tree.insert(5, Rid(1, 2))
        assert tree.search(5) == Rid(1, 2)
        assert tree.search(6) is None

    def test_overwrite(self):
        tree = self._tree()
        tree.insert(5, Rid(1, 2))
        tree.insert(5, Rid(3, 4))
        assert tree.search(5) == Rid(3, 4)
        assert len(tree) == 1

    def test_splits_with_sequential_keys(self):
        tree = self._tree(max_entries=8)
        for key in range(200):
            tree.insert(key, Rid(key, 0))
        for key in range(200):
            assert tree.search(key) == Rid(key, 0)
        assert len(tree) == 200

    def test_splits_with_reverse_keys(self):
        tree = self._tree(max_entries=8)
        for key in reversed(range(150)):
            tree.insert(key, Rid(key, 1))
        for key in range(150):
            assert tree.search(key) == Rid(key, 1)

    def test_range_scan_sorted(self):
        tree = self._tree(max_entries=6)
        import random

        keys = list(range(0, 300, 3))
        random.Random(4).shuffle(keys)
        for key in keys:
            tree.insert(key, Rid(key, 0))
        result = [k for k, _ in tree.range_scan(30, 90)]
        assert result == list(range(30, 91, 3))

    def test_range_scan_open_ended(self):
        tree = self._tree(max_entries=6)
        for key in range(20):
            tree.insert(key, Rid(key, 0))
        assert [k for k, _ in tree.range_scan()] == list(range(20))

    def test_open_ended_scan_reaches_keys_below_minus_2_62(self):
        tree = self._tree(max_entries=4)
        keys = [-(2**63) + i for i in range(20)] + [5, 6]
        for key in keys:
            tree.insert(key, Rid(0, 0))
        assert [k for k, _ in tree.items()] == sorted(keys)
        assert [k for k, _ in tree.range_scan(None, 0)] == sorted(keys)[:20]
        assert [k for k, _ in tree.range_scan(-(2**63) + 18, None)] == [
            -(2**63) + 18,
            -(2**63) + 19,
            5,
            6,
        ]

    def test_delete(self):
        tree = self._tree(max_entries=8)
        for key in range(50):
            tree.insert(key, Rid(key, 0))
        assert tree.delete(25)
        assert tree.search(25) is None
        assert not tree.delete(25)
        assert len(tree) == 49

    def test_negative_keys(self):
        tree = self._tree()
        tree.insert(-100, Rid(0, 0))
        tree.insert(100, Rid(1, 1))
        assert tree.search(-100) == Rid(0, 0)
        assert [k for k, _ in tree.range_scan()] == [-100, 100]

    @settings(max_examples=20, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["put", "del"]), st.integers(0, 400)),
            max_size=120,
        )
    )
    def test_model_based_property(self, operations):
        """B-tree agrees with a dict under arbitrary insert/delete mixes."""
        tree = self._tree(max_entries=6, blocks=2048)
        model: dict[int, Rid] = {}
        for op, key in operations:
            if op == "put":
                rid = Rid(key, key % 7)
                tree.insert(key, rid)
                model[key] = rid
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        assert len(tree) == len(model)
        for key, rid in model.items():
            assert tree.search(key) == rid
        assert [k for k, _ in tree.items()] == sorted(model)


class _DecodingBTree(BTree):
    """Reference tree: decode every node from its page, with no node cache."""

    def _read_node(self, page_id: int) -> _Node:
        return _Node.from_bytes(self._pool.fetch(page_id).read(0))


def _assert_cache_matches_pages(tree: BTree, pool: BufferPool, device) -> None:
    """Every cached node equals the decode of its page, resident or not.

    Reads the page without going through ``pool.fetch`` so the check does
    not disturb the pool's LRU order.
    """
    for page_id, node in tree._nodes.items():
        page = pool._pages.get(page_id)
        raw = page.to_bytes() if page is not None else device.read_block(page_id)
        assert node == _Node.from_bytes(SlottedPage(BS, raw).read(0)), page_id


def _pool_counters(pool: BufferPool) -> tuple[int, int, int, int]:
    return pool.fetches, pool.hits, pool.evictions, pool.writebacks


_SCAN_BOUND = st.one_of(st.none(), st.integers(-60, 360))


class TestBTreeNodeCache:
    @settings(max_examples=40, deadline=None)
    @given(
        max_entries=st.integers(4, 8),
        capacity=st.integers(1, 4),
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(-50, 350), st.integers(0, 99)),
                st.tuples(st.just("del"), st.integers(-50, 350)),
                st.tuples(st.just("get"), st.integers(-50, 350)),
                st.tuples(st.just("scan"), _SCAN_BOUND, _SCAN_BOUND),
            ),
            max_size=100,
        ),
    )
    def test_cache_is_exact(self, max_entries, capacity, operations):
        """Cached tree == dict model == a tree that decodes every read.

        The pool is small enough to evict, so the device images and pool
        counters also check that the cache never skips a ``pool.fetch``.
        """
        pool, device, alloc = make_pool(capacity=capacity, blocks=2048)
        ref_pool, ref_device, ref_alloc = make_pool(capacity=capacity, blocks=2048)
        tree = BTree(pool, alloc, max_entries=max_entries)
        reference = _DecodingBTree(ref_pool, ref_alloc, max_entries=max_entries)
        model: dict[int, Rid] = {}
        for op, *args in operations:
            if op == "put":
                key, page_id = args
                tree.insert(key, Rid(page_id, key % 7))
                reference.insert(key, Rid(page_id, key % 7))
                model[key] = Rid(page_id, key % 7)
            elif op == "del":
                (key,) = args
                present = key in model
                assert tree.delete(key) == present
                assert reference.delete(key) == present
                model.pop(key, None)
            elif op == "get":
                (key,) = args
                assert tree.search(key) == model.get(key)
                assert reference.search(key) == model.get(key)
            else:
                low, high = args
                expected = [
                    (k, model[k])
                    for k in sorted(model)
                    if (low is None or k >= low) and (high is None or k <= high)
                ]
                assert list(tree.range_scan(low, high)) == expected
                assert list(reference.range_scan(low, high)) == expected
            _assert_cache_matches_pages(tree, pool, device)
            assert device.snapshot() == ref_device.snapshot()
            assert _pool_counters(pool) == _pool_counters(ref_pool)
        assert list(tree.items()) == sorted(model.items())
        assert len(tree) == len(model)
        pool.flush()
        ref_pool.flush()
        assert device.snapshot() == ref_device.snapshot()

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_failed_split_leaves_cache_in_step_with_pages(self, budget):
        """A split that dies on ``allocate_page`` leaves no node ahead of its page."""
        pool, device, alloc = make_pool(capacity=2, blocks=512)
        remaining = [budget]

        def limited_alloc() -> int:
            if remaining[0] == 0:
                raise StorageError("out of pages")
            remaining[0] -= 1
            return alloc()

        tree = BTree(pool, limited_alloc, max_entries=4)
        keys = list(range(0, 400, 7))
        with pytest.raises(StorageError):
            for key in keys:
                tree.insert(key, Rid(key, 0))
        _assert_cache_matches_pages(tree, pool, device)
        cached = ([tree.search(key) for key in keys], list(tree.items()))
        tree._nodes.clear()  # every read now decodes the page bytes
        decoded = ([tree.search(key) for key in keys], list(tree.items()))
        assert cached == decoded


def _reference_node_bytes(node: _Node) -> bytes:
    """The node wire format packed one field at a time, as in its docstring."""
    out = bytearray(struct.pack("<BHq", node.is_leaf, len(node.keys), node.next_leaf))
    if node.is_leaf:
        for key, rid in zip(node.keys, node.rids):
            out += struct.pack("<qIH", key, rid.page_id, rid.slot)
    else:
        for key in node.keys:
            out += struct.pack("<q", key)
        for child in node.children:
            out += struct.pack("<I", child)
    return bytes(out)


class TestNodeWireImage:
    @settings(max_examples=40, deadline=None)
    @given(
        max_entries=st.integers(4, 6),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "del"]),
                st.integers(-40, 120),
                st.integers(0, 2**32 - 1),
            ),
            max_size=150,
        ),
    )
    @example(max_entries=4, operations=[("put", k, k) for k in range(60)])
    def test_every_node_packs_like_the_reference(self, max_entries, operations):
        """After each insert, overwrite or delete, every node's packed image
        is the field-by-field packing of its lists, and decodes to itself."""
        pool, _, alloc = make_pool(capacity=32, blocks=2048)
        tree = BTree(pool, alloc, max_entries=max_entries)
        for op, key, page_id in operations:
            if op == "put":
                tree.insert(key, Rid(page_id, key % 7))
            else:
                tree.delete(key)
            for page_id, node in tree._nodes.items():
                raw = node.to_bytes()
                assert raw == _reference_node_bytes(node), page_id
                assert _Node.from_bytes(raw) == node, page_id
