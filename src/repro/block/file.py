"""File-backed block device."""

from __future__ import annotations

import os
from pathlib import Path

from repro.block.device import BlockDevice


class FileBlockDevice(BlockDevice):
    """A block device stored in a regular file.

    The file is created (sparse, where the OS supports it) at full capacity
    on open.  Use it where an image should survive the process; the
    examples, experiments and bench run on :class:`MemoryBlockDevice`.
    """

    def __init__(self, path: str | Path, block_size: int, num_blocks: int) -> None:
        super().__init__(block_size, num_blocks)
        self._path = Path(path)
        exists = self._path.exists()
        self._file = open(self._path, "r+b" if exists else "w+b")
        if not exists or os.fstat(self._file.fileno()).st_size != self.capacity_bytes:
            self._file.truncate(self.capacity_bytes)

    @property
    def path(self) -> Path:
        """Path of the backing file."""
        return self._path

    def _read(self, lba: int) -> bytes:
        self._file.seek(lba * self._block_size)
        data = self._file.read(self._block_size)
        if len(data) < self._block_size:  # hole past EOF on some platforms
            data += bytes(self._block_size - len(data))
        return data

    def _write(self, lba: int, data: bytes) -> None:
        self._file.seek(lba * self._block_size)
        self._file.write(data)

    def flush(self) -> None:
        """Flush buffered writes to the OS."""
        self._file.flush()

    def close(self) -> None:
        if not self.closed:
            self._file.flush()
            self._file.close()
        super().close()
