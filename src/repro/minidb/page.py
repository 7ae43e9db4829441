"""Slotted pages.

The classic DBMS page layout: a fixed header, records growing from the
front, and a slot directory growing from the back.  Record updates that fit
in place overwrite the record bytes only — which is precisely why a row
update dirties 5–20 % of a page and why PRINS wins (Sec. 1).

Layout::

    offset  size  field
    0       2     magic (0xDB01)
    2       2     slot count
    4       2     free-space offset (start of unused gap)
    6       2     flags
    8       ...   record heap (grows up)
    ...     4*n   slot directory at page end (grows down), one entry per
                  slot: uint16 record offset, uint16 record length
                  (offset 0xFFFF marks a deleted slot)
"""

from __future__ import annotations

import struct

from repro.common.errors import StorageError

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")
_MAGIC = 0xDB01
_DELETED = 0xFFFF

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


class PageFullError(StorageError):
    """Raised when a record does not fit in the page's free space."""


class SlottedPage:
    """A mutable slotted page over a bytearray of fixed size."""

    def __init__(self, size: int, raw: bytes | None = None) -> None:
        if size < HEADER_SIZE + SLOT_SIZE:
            raise ValueError(f"page size {size} too small")
        if raw is not None:
            if len(raw) != size:
                raise ValueError(f"raw is {len(raw)} bytes, page size is {size}")
            self._buf = bytearray(raw)
            magic, _, _, _ = _HEADER.unpack_from(self._buf, 0)
            if magic != _MAGIC:
                raise StorageError(f"bad page magic {magic:#06x}")
        else:
            self._buf = bytearray(size)
            _HEADER.pack_into(self._buf, 0, _MAGIC, 0, HEADER_SIZE, 0)

    # -- header accessors ----------------------------------------------------

    @property
    def size(self) -> int:
        """Total page size in bytes."""
        return len(self._buf)

    @property
    def slot_count(self) -> int:
        """Number of slot directory entries (including deleted ones)."""
        return _HEADER.unpack_from(self._buf, 0)[1]

    @property
    def _free_offset(self) -> int:
        return _HEADER.unpack_from(self._buf, 0)[2]

    def _set_header(self, slots: int, free_offset: int) -> None:
        _HEADER.pack_into(self._buf, 0, _MAGIC, slots, free_offset, 0)

    @property
    def free_space(self) -> int:
        """Bytes available for one more record plus its slot entry."""
        directory_start = self.size - self.slot_count * SLOT_SIZE
        gap = directory_start - self._free_offset
        return max(0, gap - SLOT_SIZE)

    # -- slot directory ---------------------------------------------------------

    def _slot(self, slot_id: int) -> tuple[int, int]:
        if not 0 <= slot_id < self.slot_count:
            raise StorageError(f"slot {slot_id} out of range ({self.slot_count})")
        position = self.size - (slot_id + 1) * SLOT_SIZE
        return _SLOT.unpack_from(self._buf, position)

    def _set_slot(self, slot_id: int, offset: int, length: int) -> None:
        position = self.size - (slot_id + 1) * SLOT_SIZE
        _SLOT.pack_into(self._buf, position, offset, length)

    def _first_deleted_slot(self, slots: int) -> int | None:
        """Lowest deleted slot id in a ``slots``-entry directory, or None."""
        directory = self._buf[self.size - slots * SLOT_SIZE :]
        offsets = [offset for offset, _ in _SLOT.iter_unpack(directory)]
        offsets.reverse()  # the directory grows down: slot 0 is the last entry
        try:
            return offsets.index(_DELETED)
        except ValueError:
            return None

    # -- record operations --------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store ``record``; return its slot id.

        Reuses a deleted slot entry when one exists (record bytes are always
        appended to the heap; space from deletions is reclaimed only by
        :meth:`compact`).
        """
        _, slots, free_offset, _ = _HEADER.unpack_from(self._buf, 0)
        reuse = self._first_deleted_slot(slots)
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        directory_start = self.size - slots * SLOT_SIZE
        if directory_start - free_offset < needed:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space} free)"
            )
        offset = free_offset
        self._buf[offset : offset + len(record)] = record
        if reuse is not None:
            slot_id = reuse
            self._set_header(slots, offset + len(record))
        else:
            slot_id = slots
            self._set_header(slots + 1, offset + len(record))
        self._set_slot(slot_id, offset, len(record))
        return slot_id

    def read(self, slot_id: int) -> bytes:
        """Return the record stored in ``slot_id``."""
        offset, length = self._slot(slot_id)
        if offset == _DELETED:
            raise StorageError(f"slot {slot_id} is deleted")
        return bytes(self._buf[offset : offset + length])

    def update(self, slot_id: int, record: bytes) -> bool:
        """Overwrite ``slot_id`` in place if the new record fits.

        Returns True on success; False means the caller must delete and
        re-insert (possibly on another page).  An in-place update touches
        only the record's own bytes — the PRINS-friendly common case.
        """
        offset, length = self._slot(slot_id)
        if offset == _DELETED:
            raise StorageError(f"slot {slot_id} is deleted")
        if len(record) > length:
            return False
        self._buf[offset : offset + len(record)] = record
        if len(record) != length:
            self._set_slot(slot_id, offset, len(record))
        return True

    def delete(self, slot_id: int) -> None:
        """Mark ``slot_id`` deleted (space reclaimed by :meth:`compact`)."""
        offset, _ = self._slot(slot_id)
        if offset == _DELETED:
            raise StorageError(f"slot {slot_id} already deleted")
        self._set_slot(slot_id, _DELETED, 0)

    def is_live(self, slot_id: int) -> bool:
        """True if ``slot_id`` holds a record."""
        return self._slot(slot_id)[0] != _DELETED

    def live_slots(self) -> list[int]:
        """Slot ids currently holding records."""
        return [s for s in range(self.slot_count) if self.is_live(s)]

    def compact(self) -> None:
        """Rewrite the record heap densely, dropping deleted-record space."""
        records = [(s, self.read(s)) for s in self.live_slots()]
        slots = self.slot_count
        self._buf[HEADER_SIZE : self.size - slots * SLOT_SIZE] = bytes(
            self.size - slots * SLOT_SIZE - HEADER_SIZE
        )
        offset = HEADER_SIZE
        for slot_id, record in records:
            self._buf[offset : offset + len(record)] = record
            self._set_slot(slot_id, offset, len(record))
            offset += len(record)
        self._set_header(slots, offset)

    def to_bytes(self) -> bytes:
        """Serialize the page (exactly ``size`` bytes)."""
        return bytes(self._buf)
