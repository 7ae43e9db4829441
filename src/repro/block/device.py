"""The block-device interface.

A block device is an array of ``num_blocks`` fixed-size blocks addressed by
logical block address (LBA), exactly the abstraction the paper's PRINS-engine
sits on: "PRINS-engine sits below the file system or database system as a
block device" (Sec. 2).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterator

from repro.common.errors import BlockRangeError, BlockSizeError, DeviceClosedError


class BlockDevice(ABC):
    """Abstract fixed-block-size random-access device.

    Subclasses implement :meth:`_read` and :meth:`_write`; this base class
    owns argument validation, the closed-state check, and convenience
    multi-block helpers so every device validates identically.
    """

    def __init__(self, block_size: int, num_blocks: int) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        self._block_size = block_size
        self._num_blocks = num_blocks
        self._closed = False

    # -- geometry ---------------------------------------------------------

    @property
    def block_size(self) -> int:
        """Size of one block in bytes."""
        return self._block_size

    @property
    def num_blocks(self) -> int:
        """Number of addressable blocks."""
        return self._num_blocks

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity in bytes."""
        return self._block_size * self._num_blocks

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    # -- core I/O ---------------------------------------------------------

    def read_block(self, lba: int) -> bytes:
        """Return the contents of block ``lba`` (always ``block_size`` bytes)."""
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        data = self._read(lba)
        assert len(data) == self._block_size
        return data

    def read_block_into(self, lba: int, out) -> None:
        """Read block ``lba`` directly into the writable buffer ``out``.

        ``out`` (a ``bytearray`` or writable ``memoryview``) must be exactly
        ``block_size`` bytes.  The default copies through :meth:`_read`;
        contiguous devices override to copy straight from their backing
        store without materializing an intermediate ``bytes``.  This is the
        replica-side Eq. 2 fast path's way of loading ``A_old`` into the
        scratch block it will XOR in place.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        view = out if isinstance(out, memoryview) else memoryview(out)
        if view.nbytes != self._block_size:
            raise BlockSizeError(self._block_size, view.nbytes)
        view[:] = self._read(lba)

    def write_block(self, lba: int, data: bytes) -> None:
        """Overwrite block ``lba`` with ``data`` (must be ``block_size`` bytes).

        ``data`` may be any buffer-protocol object; it is snapshotted to
        immutable ``bytes`` before reaching :meth:`_write` (a no-op when it
        already is ``bytes``), so devices that retain references — caches,
        sparse stores — never alias a caller-owned mutable buffer.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        if len(data) != self._block_size:
            raise BlockSizeError(self._block_size, len(data))
        self._write(lba, bytes(data))

    def write_block_from(self, lba: int, buf) -> None:
        """Write block ``lba`` from a caller-owned scratch buffer.

        Like :meth:`write_block` but documented for reuse of a mutable
        scratch buffer (``bytearray`` / ``memoryview``): the device must
        copy the contents during the call and must NOT retain a reference.
        The default snapshots to ``bytes`` exactly like :meth:`write_block`;
        contiguous devices override it to copy straight from the buffer,
        skipping the intermediate snapshot — the replica-side apply loop
        uses this to write its scratch block without a second 64 KB copy.
        """
        if self._closed or not 0 <= lba < self._num_blocks:
            self._check_lba(lba)
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.nbytes != self._block_size:
            raise BlockSizeError(self._block_size, view.nbytes)
        self._write(lba, view.tobytes())

    def block_crc(self, lba: int) -> int:
        """Return ``zlib.crc32`` of block ``lba``'s current contents.

        The default reads the block and hashes it, so a wrapper or a
        media-backed device re-reads what is stored every time.  A device
        that sees every change to its own bytes may cache the value, as
        long as the result always equals ``crc32(read_block(lba))``.
        """
        return zlib.crc32(self.read_block(lba))

    def read_blocks(self, lba: int, count: int) -> bytes:
        """Read ``count`` consecutive blocks starting at ``lba``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return b"".join(self.read_block(lba + i) for i in range(count))

    def write_blocks(self, lba: int, data: bytes) -> None:
        """Write ``data`` (a whole number of blocks) starting at ``lba``."""
        if len(data) % self._block_size:
            raise BlockSizeError(self._block_size, len(data))
        for i in range(len(data) // self._block_size):
            offset = i * self._block_size
            self.write_block(lba + i, data[offset : offset + self._block_size])

    def iter_blocks(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(lba, contents)`` for every block, in LBA order."""
        for lba in range(self._num_blocks):
            yield lba, self.read_block(lba)

    def zero_block(self) -> bytes:
        """Return an all-zero buffer of exactly one block."""
        return bytes(self._block_size)

    def close(self) -> None:
        """Release underlying resources; subsequent I/O raises."""
        self._closed = True

    def __enter__(self) -> "BlockDevice":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(block_size={self._block_size}, "
            f"num_blocks={self._num_blocks})"
        )

    # -- subclass contract --------------------------------------------------

    @abstractmethod
    def _read(self, lba: int) -> bytes:
        """Return the raw contents of block ``lba``; lba is pre-validated."""

    @abstractmethod
    def _write(self, lba: int, data: bytes) -> None:
        """Store ``data`` at block ``lba``; arguments are pre-validated."""

    # -- internals ----------------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        """Raise unless the device is open and ``lba`` is in range.

        The block methods test the same condition inline and call this
        only to raise, so a valid access costs no extra call.
        """
        if self._closed:
            raise DeviceClosedError(f"{type(self).__name__} is closed")
        if not 0 <= lba < self._num_blocks:
            raise BlockRangeError(lba, self._num_blocks)
