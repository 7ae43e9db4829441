"""Virtual block devices.

This package is the storage substrate underneath everything else: the RAID
arrays, the iSCSI targets, the PRINS engines, the mini-DBMS, and the mini
filesystem all read and write fixed-size blocks through the
:class:`~repro.block.device.BlockDevice` interface.

Concrete devices:

* :class:`~repro.block.memory.MemoryBlockDevice` — one contiguous bytearray.
* :class:`~repro.block.file.FileBlockDevice` — backed by a file on disk.

Wrappers (each is itself a :class:`BlockDevice`):

* :class:`~repro.block.verify.ChecksumDevice` — end-to-end CRC verification.
* :class:`~repro.block.faulty.FaultyDevice` — injected I/O errors.
"""

from repro.block.device import BlockDevice
from repro.block.faulty import FaultyDevice, InjectedIoError
from repro.block.file import FileBlockDevice
from repro.block.memory import MemoryBlockDevice
from repro.block.verify import ChecksumDevice

__all__ = [
    "BlockDevice",
    "ChecksumDevice",
    "FaultyDevice",
    "FileBlockDevice",
    "InjectedIoError",
    "MemoryBlockDevice",
]
