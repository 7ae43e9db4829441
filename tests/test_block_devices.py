"""Tests for the concrete block devices: memory and file."""

from __future__ import annotations

import random
import sys
import tempfile
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import (
    FaultyDevice,
    FileBlockDevice,
    MemoryBlockDevice,
)
from repro.common.errors import (
    BlockRangeError,
    BlockSizeError,
)
from repro.common.errors import DeviceClosedError


DEVICE_FACTORIES = {
    "memory": lambda path, bs, n: MemoryBlockDevice(bs, n),
    "file": lambda path, bs, n: FileBlockDevice(path / "disk.img", bs, n),
}


@pytest.fixture(params=sorted(DEVICE_FACTORIES))
def any_device(request, tmp_path):
    device = DEVICE_FACTORIES[request.param](tmp_path, 512, 32)
    yield device
    device.close()


class TestBlockDeviceContract:
    """Behaviour every device must share (validation lives in the base)."""

    def test_initial_reads_are_zero(self, any_device):
        assert any_device.read_block(0) == bytes(512)
        assert any_device.read_block(31) == bytes(512)

    def test_write_then_read(self, any_device):
        data = bytes(range(256)) * 2
        any_device.write_block(5, data)
        assert any_device.read_block(5) == data

    def test_overwrite(self, any_device):
        any_device.write_block(3, b"a" * 512)
        any_device.write_block(3, b"b" * 512)
        assert any_device.read_block(3) == b"b" * 512

    def test_lba_out_of_range(self, any_device):
        with pytest.raises(BlockRangeError):
            any_device.read_block(32)
        with pytest.raises(BlockRangeError):
            any_device.write_block(-1, bytes(512))

    def test_wrong_block_size(self, any_device):
        with pytest.raises(BlockSizeError):
            any_device.write_block(0, bytes(511))

    def test_multi_block_io(self, any_device):
        payload = bytes(range(64)) * 8 * 3  # 3 blocks
        any_device.write_blocks(4, payload)
        assert any_device.read_blocks(4, 3) == payload

    def test_write_blocks_partial_rejected(self, any_device):
        with pytest.raises(BlockSizeError):
            any_device.write_blocks(0, bytes(700))

    def test_capacity(self, any_device):
        assert any_device.capacity_bytes == 512 * 32

    def test_closed_device_rejects_io(self, any_device):
        any_device.close()
        with pytest.raises(DeviceClosedError):
            any_device.read_block(0)

    def test_context_manager(self):
        with MemoryBlockDevice(512, 4) as dev:
            dev.write_block(0, b"x" * 512)
        assert dev.closed

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MemoryBlockDevice(0, 10)
        with pytest.raises(ValueError):
            MemoryBlockDevice(512, 0)

    def test_iter_blocks(self, any_device):
        any_device.write_block(2, b"z" * 512)
        blocks = dict(any_device.iter_blocks())
        assert len(blocks) == 32
        assert blocks[2] == b"z" * 512
        assert blocks[0] == bytes(512)


class TestMemoryDevice:
    def test_snapshot_and_load(self):
        dev = MemoryBlockDevice(128, 8)
        dev.write_block(1, b"q" * 128)
        image = dev.snapshot()
        dev.write_block(1, b"r" * 128)
        dev.load(image)
        assert dev.read_block(1) == b"q" * 128

    def test_load_wrong_size(self):
        dev = MemoryBlockDevice(128, 8)
        with pytest.raises(ValueError):
            dev.load(bytes(5))


class TestFileDevice:
    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "disk.img"
        with FileBlockDevice(path, 256, 16) as dev:
            dev.write_block(7, b"p" * 256)
        with FileBlockDevice(path, 256, 16) as dev:
            assert dev.read_block(7) == b"p" * 256
            assert dev.read_block(0) == bytes(256)

    def test_file_created_at_capacity(self, tmp_path):
        path = tmp_path / "disk.img"
        with FileBlockDevice(path, 256, 16):
            pass
        assert path.stat().st_size == 256 * 16

    def test_flush(self, tmp_path):
        dev = FileBlockDevice(tmp_path / "d.img", 256, 4)
        dev.write_block(0, b"f" * 256)
        dev.flush()
        dev.close()


class TestPropertyRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 15), st.binary(min_size=64, max_size=64)),
            max_size=30,
        )
    )
    def test_devices_agree(self, writes):
        """Memory and file devices behave identically under any write set."""
        mem = MemoryBlockDevice(64, 16)
        with tempfile.TemporaryDirectory() as tmp:
            with FileBlockDevice(f"{tmp}/disk.img", 64, 16) as disk:
                for lba, data in writes:
                    mem.write_block(lba, data)
                    disk.write_block(lba, data)
                for lba in range(16):
                    assert mem.read_block(lba) == disk.read_block(lba)


CRC_BS = 64
CRC_BLOCKS = 8
_lba = st.integers(0, CRC_BLOCKS - 1)
_block = st.binary(min_size=CRC_BS, max_size=CRC_BS)
crc_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write_block"), _lba, _block),
        st.tuples(st.just("write_block_from"), _lba, _block, st.booleans()),
        st.tuples(
            st.just("write_blocks"),
            st.integers(0, CRC_BLOCKS - 3),
            st.binary(min_size=3 * CRC_BS, max_size=3 * CRC_BS),
        ),
        st.tuples(
            st.just("load"),
            st.binary(min_size=CRC_BS, max_size=CRC_BS),
        ),
        st.tuples(st.just("read_block_into"), _lba),
        st.tuples(st.just("block_crc"), _lba),
        st.tuples(st.just("faulty_write"), _lba, _block, st.booleans()),
        st.tuples(st.just("corrupt_block"), _lba),
    ),
    max_size=25,
)


class TestBlockCrcTable:
    """``block_crc`` equals the CRC of what ``read_block`` returns, however
    the block got there: the memory device's table is cleared by every
    mutator, including writes made through a wrapper over it."""

    @staticmethod
    def _assert_exact(device):
        for lba in range(device.num_blocks):
            assert device.block_crc(lba) == zlib.crc32(device.read_block(lba))

    @settings(max_examples=60, deadline=None)
    @given(ops=crc_table_ops)
    def test_crc_tracks_every_mutator(self, ops):
        device = MemoryBlockDevice(CRC_BS, CRC_BLOCKS)
        faulty = FaultyDevice(device)
        scratch = bytearray(CRC_BS)
        self._assert_exact(device)  # every entry cached before any write
        for op in ops:
            kind = op[0]
            if kind == "write_block":
                device.write_block(op[1], op[2])
            elif kind == "write_block_from":
                buf = bytearray(op[2])
                device.write_block_from(op[1], memoryview(buf) if op[3] else buf)
                buf[:] = bytes(CRC_BS)  # the device kept no reference
            elif kind == "write_blocks":
                device.write_blocks(op[1], op[2])
            elif kind == "load":
                device.load(op[1] * CRC_BLOCKS)
            elif kind == "read_block_into":
                device.read_block_into(op[1], scratch)
                assert zlib.crc32(scratch) == device.block_crc(op[1])
            elif kind == "block_crc":
                device.block_crc(op[1])
            elif kind == "faulty_write":
                if op[3]:
                    faulty.corrupt_next_write(op[1])
                faulty.write_block(op[1], op[2])
            else:
                faulty.corrupt_block(op[1])  # bit rot through the device
            self._assert_exact(device)
        device.close()
        with pytest.raises(DeviceClosedError):
            device.block_crc(0)
        with pytest.raises(DeviceClosedError):
            faulty.block_crc(0)

    def test_default_matches_on_devices_without_a_table(self, tmp_path):
        device = FileBlockDevice(tmp_path / "d.img", CRC_BS, CRC_BLOCKS)
        device.write_block(3, b"c" * CRC_BS)
        self._assert_exact(device)
        device.close()
        with pytest.raises(DeviceClosedError):
            device.block_crc(3)


class TestBlockCrcRaces:
    def test_table_stays_exact_under_racing_writers(self):
        """Writers on three threads race a CRC reader (an apply thread
        writing a replica while a heal sketches it).  ``zlib.crc32``
        drops the interpreter lock on an 8 KiB block, so a write can land
        between hashing and caching; the table must still end exact."""
        device = MemoryBlockDevice(8192, 4)
        contents = [bytes([i]) * 8192 for i in range(16)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for burst in range(40):
                stop = threading.Event()

                def write(seed):
                    pick = random.Random(seed)
                    while not stop.is_set():
                        device.write_block(
                            pick.randrange(4), contents[pick.randrange(16)]
                        )

                def hash_all():
                    while not stop.is_set():
                        for lba in range(4):
                            device.block_crc(lba)

                threads = [
                    threading.Thread(target=write, args=(burst * 3 + i,))
                    for i in range(3)
                ] + [threading.Thread(target=hash_all)]
                for thread in threads:
                    thread.start()
                time.sleep(0.005)
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                for lba in range(4):
                    assert device.block_crc(lba) == zlib.crc32(
                        device.read_block(lba)
                    )
        finally:
            sys.setswitchinterval(old_interval)
