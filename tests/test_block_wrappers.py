"""Tests for the device wrappers: counting, checksum."""

from __future__ import annotations

import pytest

from repro.block import (
    ChecksumDevice,
    CountingDevice,
    MemoryBlockDevice,
)
from repro.block.verify import ChecksumMismatchError


class TestCountingDevice:
    def test_counts_reads_and_writes(self):
        dev = CountingDevice(MemoryBlockDevice(512, 8))
        dev.write_block(0, b"a" * 512)
        dev.write_block(0, b"b" * 512)
        dev.read_block(0)
        c = dev.counters
        assert c.writes == 2
        assert c.reads == 1
        assert c.bytes_written == 1024
        assert c.bytes_read == 512
        assert c.total_ops == 3

    def test_unique_lbas(self):
        dev = CountingDevice(MemoryBlockDevice(512, 8))
        for lba in (0, 1, 0, 2):
            dev.write_block(lba, bytes(512))
        assert dev.counters.unique_lbas_written == {0, 1, 2}

    def test_reset(self):
        dev = CountingDevice(MemoryBlockDevice(512, 8))
        dev.write_block(0, bytes(512))
        dev.counters.reset()
        assert dev.counters.writes == 0
        assert dev.counters.unique_lbas_written == set()

    def test_passthrough_contents(self):
        inner = MemoryBlockDevice(512, 8)
        dev = CountingDevice(inner)
        dev.write_block(3, b"z" * 512)
        assert inner.read_block(3) == b"z" * 512


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
