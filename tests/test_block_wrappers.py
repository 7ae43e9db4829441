"""Tests for the checksum device wrapper."""

from __future__ import annotations

import pytest

from repro.block import ChecksumDevice, MemoryBlockDevice
from repro.block.verify import ChecksumMismatchError


class TestChecksumDevice:
    def test_clean_read_passes(self):
        dev = ChecksumDevice(MemoryBlockDevice(512, 8))
        dev.write_block(0, b"ok" * 256)
        assert dev.read_block(0) == b"ok" * 256

    def test_detects_underlying_corruption(self):
        inner = MemoryBlockDevice(512, 8)
        dev = ChecksumDevice(inner)
        dev.write_block(0, b"g" * 512)
        inner.write_block(0, b"h" * 512)  # corrupt behind the wrapper's back
        with pytest.raises(ChecksumMismatchError):
            dev.read_block(0)

    def test_untracked_blocks_not_checked(self):
        inner = MemoryBlockDevice(512, 8)
        inner.write_block(5, b"pre" * 170 + b"xx")
        dev = ChecksumDevice(inner)
        dev.read_block(5)  # never written through wrapper: no check

    def test_verify_all(self):
        dev = ChecksumDevice(MemoryBlockDevice(512, 8))
        for lba in range(4):
            dev.write_block(lba, bytes([lba]) * 512)
        assert dev.verify_all() == 4
