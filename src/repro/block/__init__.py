"""Virtual block devices.

This package is the storage substrate underneath everything else: the RAID
arrays, the iSCSI targets, the PRINS engines, the mini-DBMS, and the mini
filesystem all read and write fixed-size blocks through the
:class:`~repro.block.device.BlockDevice` interface.

Concrete devices:

* :class:`~repro.block.memory.MemoryBlockDevice` — one contiguous bytearray.
* :class:`~repro.block.sparse.SparseBlockDevice` — dict-backed, unwritten
  blocks read as zeros; cheap for huge address spaces.
* :class:`~repro.block.file.FileBlockDevice` — backed by a file on disk.

Wrappers (each is itself a :class:`BlockDevice`):

* :class:`~repro.block.stats.CountingDevice` — I/O accounting.
* :class:`~repro.block.verify.ChecksumDevice` — end-to-end CRC verification.
"""

from repro.block.device import BlockDevice
from repro.block.faulty import FaultyDevice, InjectedIoError
from repro.block.file import FileBlockDevice
from repro.block.memory import MemoryBlockDevice
from repro.block.sparse import SparseBlockDevice
from repro.block.stats import CountingDevice, IoCounters
from repro.block.verify import ChecksumDevice

__all__ = [
    "BlockDevice",
    "ChecksumDevice",
    "CountingDevice",
    "FaultyDevice",
    "FileBlockDevice",
    "InjectedIoError",
    "IoCounters",
    "MemoryBlockDevice",
    "SparseBlockDevice",
]
