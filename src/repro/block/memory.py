"""In-memory block device backed by one contiguous bytearray."""

from __future__ import annotations

import threading
import zlib
from typing import Callable

from repro.block.device import BlockDevice
from repro.common.errors import BlockSizeError


class MemoryBlockDevice(BlockDevice):
    """A block device whose entire contents live in a single bytearray.

    This is the default substrate for tests and traffic experiments: reads
    and writes are exact and instantaneous, and the full image can be
    snapshotted with :meth:`snapshot` for consistency checks.

    It also keeps a lazily filled per-LBA CRC table for :meth:`block_crc`.
    Every mutator clears the entries it overwrites, or sets them to the
    CRC it has just verified (:meth:`xor_in_place`), so a cached CRC is
    always that of the bytes last written through the device.  One lock
    orders a mutator against a miss's hash-and-store and against reads:
    a replica apply thread may change a block while a heal hashes it.
    """

    def __init__(self, block_size: int, num_blocks: int) -> None:
        super().__init__(block_size, num_blocks)
        self._data = bytearray(block_size * num_blocks)
        self._view = memoryview(self._data)
        self._crcs: list[int | None] = [None] * num_blocks
        self._crc_lock = threading.Lock()

    def _read(self, lba: int) -> bytes:
        offset = lba * self._block_size
        with self._crc_lock:
            return self._view[offset : offset + self._block_size].tobytes()

    def read_block_into(self, lba: int, out) -> None:
        """Copy block ``lba`` straight from the backing bytearray into ``out``.

        Overrides the base implementation to skip the intermediate
        ``bytes`` object — one slice-assign from the contiguous image.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        view = out if isinstance(out, memoryview) else memoryview(out)
        if view.nbytes != self._block_size:
            raise BlockSizeError(self._block_size, view.nbytes)
        offset = lba * self._block_size
        with self._crc_lock:
            view[:] = self._view[offset : offset + self._block_size]

    def _write(self, lba: int, data: bytes) -> None:
        offset = lba * self._block_size
        with self._crc_lock:
            self._data[offset : offset + self._block_size] = data
            self._crcs[lba] = None

    def write_block_from(self, lba: int, buf) -> None:
        """Copy a scratch buffer straight into the backing bytearray.

        Overrides the base implementation to skip the intermediate
        ``bytes`` snapshot — the contiguous image copies from any buffer
        in one slice-assign, and nothing retains a reference to ``buf``.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.nbytes != self._block_size:
            raise BlockSizeError(self._block_size, view.nbytes)
        offset = lba * self._block_size
        with self._crc_lock:
            self._data[offset : offset + self._block_size] = view
            self._crcs[lba] = None

    def xor_in_place(
        self,
        lba: int,
        apply: Callable[[bytes, memoryview], None],
        frame,
        crc: int,
    ) -> int:
        """Apply ``frame`` to block ``lba`` where it lies; keep it iff its CRC is ``crc``.

        ``apply(frame, view)`` XORs a decoded delta into the block's own
        bytes, so neither a scratch copy of the block nor a copy back is
        made.  It must be its own inverse: a second call with the same
        frame restores the block (Eq. 2 twice is the identity), and a
        frame it rejects part-way is rejected at the same point again,
        after re-applying the same prefix.  That makes the undo exact.
        Returns the CRC the applied block had:

        * equal to ``crc``: the change stays and the table entry becomes
          ``crc``, with no rehash;
        * anything else: ``frame`` is applied again, undoing it;
        * ``apply`` raises: ``frame`` is applied again and the error is
          re-raised.

        On either failure the block and its table entry are as before.
        The apply, the check and any undo hold the CRC lock, so neither
        a reader nor a hash sees a half-applied block.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        offset = lba * self._block_size
        view = self._view[offset : offset + self._block_size]
        with self._crc_lock:
            try:
                apply(frame, view)
            except Exception:
                try:
                    apply(frame, view)  # re-applies exactly the same prefix
                except Exception:  # noqa: BLE001 - the first error is raised
                    pass
                raise
            applied = zlib.crc32(view)
            if applied != crc:
                apply(frame, view)
                return applied
            self._crcs[lba] = crc
        return crc

    def block_crc(self, lba: int) -> int:
        """CRC-32 of block ``lba``, hashed at most once per write.

        The first call after a write hashes the block straight from the
        backing bytearray; later calls return the cached value.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        crc = self._crcs[lba]
        if crc is not None:
            return crc
        offset = lba * self._block_size
        with self._crc_lock:  # crc32 releases the GIL on a large block
            crc = self._crcs[lba] = zlib.crc32(
                self._view[offset : offset + self._block_size]
            )
        return crc

    def snapshot(self) -> bytes:
        """Return an immutable copy of the whole device image."""
        return bytes(self._data)

    def load(self, image: bytes) -> None:
        """Replace the whole device image (must match capacity exactly)."""
        if len(image) != self.capacity_bytes:
            raise ValueError(
                f"image is {len(image)} bytes, device holds {self.capacity_bytes}"
            )
        with self._crc_lock:
            self._data[:] = image
            self._crcs = [None] * self._num_blocks
