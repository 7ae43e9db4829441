"""The replica applies a PRINS record in place, and undoes a bad one exactly.

A delta record is XORed straight into the memory device's block; a wrong
CRC or a frame that breaks off mid-literal is undone by XORing the same
frame again (Eq. 2 twice is the identity), so the block *and* its cached
CRC are as before and the typed error is raised.  A good record seeds the
device's CRC table with the record's CRC, so the next ``block_crc`` does
not hash the block again.
"""

from __future__ import annotations

import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.block.memory as memory_module
from repro.block import MemoryBlockDevice
from repro.common.errors import CodecError, ReplicationError
from repro.engine import ReplicaEngine, make_strategy
from repro.engine.messages import ReplicationRecord
from repro.parity.frame import FRAME_OVERHEAD
from repro.parity.zero_rle import ZeroRleCodec, _read_varint

BS = 2048
LBA = 3


@st.composite
def old_and_delta(draw) -> tuple[bytes, bytes]:
    """A random ``A_old`` and a nonzero delta: a few spans, or dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    old = rng.integers(0, 256, BS, dtype=np.uint8).tobytes()
    delta = np.zeros(BS, dtype=np.uint8)
    if draw(st.booleans()):
        delta[:] = rng.integers(1, 256, BS, dtype=np.uint8)
    else:
        for _ in range(draw(st.integers(1, 12))):
            start = int(rng.integers(0, BS - 1))
            length = int(rng.integers(1, 200))
            chunk = delta[start : start + length]
            chunk[:] = rng.integers(1, 256, chunk.size, dtype=np.uint8)
    return old, delta.tobytes()


def _last_literal(frame: bytes) -> tuple[int, int]:
    """``(start, end)`` in ``frame`` of its last literal segment."""
    payload = frame[FRAME_OVERHEAD:]
    if frame[0] != ZeroRleCodec.codec_id:  # stored raw: one literal
        return FRAME_OVERHEAD, len(frame)
    pos = start = end = 0
    while pos < len(payload):
        _, pos = _read_varint(payload, pos)
        length, pos = _read_varint(payload, pos)
        start, end = pos, pos + length
        pos = end
    return FRAME_OVERHEAD + start, FRAME_OVERHEAD + end


def _replica(old: bytes, cache_crc: bool):
    device = MemoryBlockDevice(BS, 8)
    device.write_block(LBA, old)
    if cache_crc:
        device.block_crc(LBA)
    strategy = make_strategy("prins")
    return device, strategy, ReplicaEngine(device, strategy)


def _record(seq: int, crc: int, frame: bytes) -> bytes:
    return ReplicationRecord(seq, crc, frame).pack()


@settings(max_examples=60, deadline=None)
@given(case=old_and_delta(), cache_crc=st.booleans(), cut=st.floats(0, 1))
def test_bad_records_leave_block_and_crc_as_before(case, cache_crc, cut):
    old, delta = case
    new = bytes(a ^ b for a, b in zip(old, delta))
    device, strategy, replica = _replica(old, cache_crc)
    frame = strategy.encode_payload(strategy.make_update(new, old))
    crc = zlib.crc32(new)

    with pytest.raises(ReplicationError, match="CRC"):
        replica.receive(LBA, _record(1, crc ^ 0x5A5A5A5A, frame))
    assert device.read_block(LBA) == old
    assert device.block_crc(LBA) == zlib.crc32(old)

    start, end = _last_literal(frame)
    truncated = frame[: start + int(cut * (end - start - 1))]
    with pytest.raises(CodecError):
        replica.receive(LBA, _record(1, crc, truncated))
    assert device.read_block(LBA) == old
    assert device.block_crc(LBA) == zlib.crc32(old)
    assert replica.records_applied == 0

    # the same sequence number still applies once a good record arrives
    replica.receive(LBA, _record(1, crc, frame))
    assert device.read_block(LBA) == new
    assert replica.records_applied == 1


def test_good_record_seeds_the_crc_table(monkeypatch):
    old = bytes(range(256)) * (BS // 256)
    new = bytearray(old)
    new[100:140] = b"\xee" * 40
    device, strategy, replica = _replica(old, cache_crc=True)
    frame = strategy.encode_payload(strategy.make_update(bytes(new), old))
    replica.receive(LBA, _record(1, zlib.crc32(new), frame))

    class NoHashing:
        @staticmethod
        def crc32(*args):
            raise AssertionError("block_crc hashed the block again")

    monkeypatch.setattr(memory_module, "zlib", NoHashing)
    assert device.block_crc(LBA) == zlib.crc32(new)
    assert device.read_block(LBA) == new


def test_overwrite_strategies_keep_the_scratch_path():
    """A full-block strategy overwrites through ``write_block_from``,
    which clears the table entry instead of seeding it."""
    device = MemoryBlockDevice(BS, 8)
    device.block_crc(LBA)
    strategy = make_strategy("traditional")
    replica = ReplicaEngine(device, strategy)
    new = b"\x42" * BS
    frame = strategy.encode_payload(strategy.make_update(new, b""))
    replica.receive(LBA, _record(1, zlib.crc32(new), frame))
    assert device.read_block(LBA) == new
    assert device._crcs[LBA] is None
    assert device.block_crc(LBA) == zlib.crc32(new)


def test_readers_never_see_a_half_applied_block():
    """An apply thread flips a block between two contents with many-span
    records while a reader takes ``read_block`` and ``block_crc`` with the
    interpreter switching every microsecond: every read is one whole
    version, and every CRC is one of theirs."""
    rng = np.random.default_rng(11)
    first = rng.integers(0, 256, BS, dtype=np.uint8).tobytes()
    delta = np.zeros(BS, dtype=np.uint8)
    delta[::16] = rng.integers(1, 256, BS // 16, dtype=np.uint8)  # 128 spans
    second = bytes(a ^ b for a, b in zip(first, delta.tobytes()))
    versions = {first: zlib.crc32(first), second: zlib.crc32(second)}
    device, strategy, replica = _replica(first, cache_crc=False)
    frame = strategy.encode_payload(strategy.make_update(second, first))
    stop = threading.Event()
    seen: list[str] = []

    def apply():
        seq, current = 1, first
        while not stop.is_set():
            target = second if current == first else first
            replica.receive(LBA, _record(seq, versions[target], frame))
            seq, current = seq + 1, target

    def read():
        while not stop.is_set():
            block = device.read_block(LBA)
            if block not in versions:
                seen.append("torn block")
            if device.block_crc(LBA) not in versions.values():
                seen.append("foreign crc")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=apply), threading.Thread(target=read)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.3)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert replica.records_applied > 10
    assert not seen, seen[:3]
