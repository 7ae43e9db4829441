"""Tests for slotted pages."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.minidb.page import PageFullError, SlottedPage

SIZE = 512
_DELETED = 0xFFFF


def _per_slot_free_slot(page: SlottedPage) -> int | None:
    """The per-slot search ``insert`` used before its one-pass scan."""
    return next(
        (s for s in range(page.slot_count) if page._slot(s)[0] == _DELETED),
        None,
    )


class TestSlottedPageBasics:
    def test_fresh_page_empty(self):
        page = SlottedPage(SIZE)
        assert page.slot_count == 0
        assert page.live_slots() == []

    def test_insert_read(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self):
        page = SlottedPage(SIZE)
        slots = [page.insert(bytes([i]) * (i + 1)) for i in range(10)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i]) * (i + 1)

    def test_serialization_roundtrip(self):
        page = SlottedPage(SIZE)
        page.insert(b"aaa")
        page.insert(b"bbbb")
        reloaded = SlottedPage(SIZE, page.to_bytes())
        assert reloaded.read(0) == b"aaa"
        assert reloaded.read(1) == b"bbbb"

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            SlottedPage(SIZE, bytes(SIZE))

    def test_page_full(self):
        page = SlottedPage(64)
        page.insert(b"x" * 40)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 40)

    def test_free_space_decreases(self):
        page = SlottedPage(SIZE)
        before = page.free_space
        page.insert(b"z" * 50)
        assert page.free_space == before - 50 - 4  # record + slot entry


class TestUpdateDelete:
    def test_update_in_place_same_size(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"aaaa")
        assert page.update(slot, b"bbbb")
        assert page.read(slot) == b"bbbb"

    def test_update_smaller_shrinks(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"aaaaaaaa")
        assert page.update(slot, b"cc")
        assert page.read(slot) == b"cc"

    def test_update_larger_refused(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"aa")
        assert not page.update(slot, b"ccc")
        assert page.read(slot) == b"aa"  # unchanged

    def test_update_only_touches_record_bytes(self):
        """The PRINS-critical property: in-place update = local change."""
        page = SlottedPage(SIZE)
        slots = [page.insert(bytes([i + 1]) * 20) for i in range(5)]
        before = page.to_bytes()
        page.update(slots[2], b"\xff" * 20)
        after = page.to_bytes()
        diff = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert len(diff) == 20  # exactly the record bytes changed
        assert max(diff) - min(diff) == 19  # and they are contiguous

    def test_delete_then_read_fails(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"dead")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)
        assert not page.is_live(slot)

    def test_double_delete_rejected(self):
        page = SlottedPage(SIZE)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.delete(slot)

    def test_deleted_slot_reused(self):
        page = SlottedPage(SIZE)
        a = page.insert(b"one")
        page.insert(b"two")
        page.delete(a)
        c = page.insert(b"three")
        assert c == a  # slot entry recycled

    def test_compact_reclaims_space(self):
        page = SlottedPage(256)
        slots = [page.insert(b"f" * 40) for _ in range(5)]
        for slot in slots[:4]:
            page.delete(slot)
        free_before = page.free_space
        page.compact()
        assert page.free_space > free_before
        assert page.read(slots[4]) == b"f" * 40

    def test_slot_out_of_range(self):
        page = SlottedPage(SIZE)
        with pytest.raises(StorageError):
            page.read(0)


class TestPageProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        records=st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=12)
    )
    def test_model_based_insert_delete(self, records):
        """Page behaves like a dict under interleaved insert/delete."""
        page = SlottedPage(1024)
        model = {}
        for i, record in enumerate(records):
            slot = page.insert(record)
            model[slot] = record
            if i % 3 == 2:  # periodically delete one
                victim = sorted(model)[0]
                page.delete(victim)
                del model[victim]
        for slot, record in model.items():
            assert page.read(slot) == record
        assert sorted(page.live_slots()) == sorted(model)
        # survives serialization
        reloaded = SlottedPage(1024, page.to_bytes())
        for slot, record in model.items():
            assert reloaded.read(slot) == record


class TestFreeSlotChoice:
    """``insert`` picks the slot the old per-slot search picked."""

    def _assert_same_choice(self, page: SlottedPage) -> None:
        expected = _per_slot_free_slot(page)
        slots = page.slot_count
        assert page._first_deleted_slot(slots) == expected
        slot = page.insert(b"new")
        assert slot == (expected if expected is not None else slots)
        assert page.read(slot) == b"new"

    def _page_with_deletes(self, deleted: list[int]) -> SlottedPage:
        page = SlottedPage(SIZE)
        for i in range(12):
            page.insert(bytes([i + 1]) * 6)
        for slot in deleted:
            page.delete(slot)
        return page

    def test_no_deleted_slot(self):
        self._assert_same_choice(self._page_with_deletes([]))

    def test_empty_page(self):
        self._assert_same_choice(SlottedPage(SIZE))

    def test_lowest_deleted_slot_wins(self):
        page = self._page_with_deletes([9, 3, 7, 11])
        assert _per_slot_free_slot(page) == 3
        self._assert_same_choice(page)
        self._assert_same_choice(page)  # then 7

    def test_slot_zero_and_last_slot(self):
        self._assert_same_choice(self._page_with_deletes([11]))
        self._assert_same_choice(self._page_with_deletes([11, 0]))

    def test_rebuilt_page(self):
        page = self._page_with_deletes([8, 5])
        self._assert_same_choice(SlottedPage(SIZE, page.to_bytes()))

    def test_after_compact(self):
        page = self._page_with_deletes([10, 2, 6])
        page.compact()
        self._assert_same_choice(page)

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.binary(min_size=1, max_size=12),
                st.integers(0, 30),  # delete the n-th live slot, if any
                st.just("compact"),
                st.just("reload"),
            ),
            max_size=40,
        )
    )
    def test_choice_matches_per_slot_search(self, steps):
        page = SlottedPage(SIZE)
        for step in steps:
            if isinstance(step, bytes):
                expected = _per_slot_free_slot(page)
                slots = page.slot_count
                try:
                    slot = page.insert(step)
                except PageFullError:
                    continue
                assert slot == (expected if expected is not None else slots)
            elif isinstance(step, int):
                live = page.live_slots()
                if live:
                    page.delete(live[step % len(live)])
            elif step == "compact":
                page.compact()
            else:
                page = SlottedPage(SIZE, page.to_bytes())
            assert page._first_deleted_slot(page.slot_count) == (
                _per_slot_free_slot(page)
            )
