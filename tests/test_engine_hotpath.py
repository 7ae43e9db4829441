"""Tests for the zero-copy hot path: A_old reads, write_many, batch apply.

Covers the engine's read-before-write (one device read per delta write),
the vectorized ``write_many`` window (which must be observationally
identical to sequential ``write_block`` calls), the replica's
scatter/XOR apply, and the ``write_block_from`` device contract the
replica writes through.
"""

from __future__ import annotations

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import BlockSizeError
from repro.engine import DirectLink, PrimaryEngine, ReplicaEngine, make_strategy
from repro.engine.batch import BatchConfig

BLOCK_SIZE = 512


class CountingDevice(MemoryBlockDevice):
    """Memory device that counts block reads (both read paths)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0

    def _read(self, lba):
        self.reads += 1
        return super()._read(lba)

    def read_block_into(self, lba, out):
        self.reads += 1
        super().read_block_into(lba, out)


def _engine(
    primary,
    replica_dev,
    *,
    batch=None,
    strategy_name="prins",
):
    strategy = make_strategy(strategy_name)
    return PrimaryEngine(
        primary,
        strategy,
        [DirectLink(ReplicaEngine(replica_dev, strategy))],
        batch=batch,
    )


def _patterns(n, seed=1):
    return [bytes([(seed * 37 + i * 11 + j) % 256 for j in range(BLOCK_SIZE)]) for i in range(n)]


class TestOldDataReads:
    def test_engine_reads_a_old_every_write(self):
        primary = CountingDevice(BLOCK_SIZE, 8)
        replica = MemoryBlockDevice(BLOCK_SIZE, 8)
        engine = _engine(primary, replica)
        for data in _patterns(4):
            engine.write_block(3, data)
        assert primary.reads == 4

    def test_strategies_without_old_reads_never_read(self):
        primary = CountingDevice(BLOCK_SIZE, 8)
        replica = MemoryBlockDevice(BLOCK_SIZE, 8)
        engine = _engine(primary, replica, strategy_name="traditional")
        for data in _patterns(2):
            engine.write_block(0, data)
        assert primary.reads == 0


class TestWriteMany:
    @pytest.mark.parametrize("batched", [False, True], ids=["direct", "batched"])
    def test_equivalent_to_sequential_writes(self, batched):
        blocks = _patterns(6)
        writes = [(i % 4, blocks[i]) for i in range(6)]  # includes repeats
        images = []
        payloads = []
        for use_many in (False, True):
            primary = MemoryBlockDevice(BLOCK_SIZE, 8)
            replica = MemoryBlockDevice(BLOCK_SIZE, 8)
            batch = (
                BatchConfig(max_records=16, max_bytes=1 << 20) if batched else None
            )
            engine = _engine(primary, replica, batch=batch)
            if use_many:
                engine.write_many(writes)
            else:
                for lba, data in writes:
                    engine.write_block(lba, data)
            if batched:
                engine.flush_batch()
            images.append((primary.snapshot(), replica.snapshot()))
            payloads.append(engine.accountant.snapshot()["payload_bytes"])
        assert images[0] == images[1]
        assert payloads[0] == payloads[1]
        assert images[0][0] == images[0][1]  # replica converged

    def test_same_lba_twice_in_one_window(self):
        primary = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica = MemoryBlockDevice(BLOCK_SIZE, 4)
        engine = _engine(
            primary,
            replica,
            batch=BatchConfig(max_records=16, max_bytes=1 << 20),
        )
        first, second = _patterns(2)
        engine.write_many([(1, first), (1, second)])
        engine.flush_batch()
        assert primary.read_block(1) == second
        assert replica.read_block(1) == second

    def test_unchanged_write_in_window_is_skipped(self):
        primary = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica = MemoryBlockDevice(BLOCK_SIZE, 4)
        engine = _engine(primary, replica)
        data = _patterns(1)[0]
        engine.write_block(2, data)
        before = engine.accountant.snapshot()["payload_bytes"]
        engine.write_many([(2, data)])  # rewrite same contents: zero delta
        after = engine.accountant.snapshot()["payload_bytes"]
        assert after == before
        assert engine.accountant.snapshot()["writes_total"] == 2

    def test_empty_window_is_noop(self):
        primary = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica = MemoryBlockDevice(BLOCK_SIZE, 4)
        engine = _engine(primary, replica)
        engine.write_many([])
        assert engine.accountant.snapshot()["writes_total"] == 0

    def test_validates_block_size(self):
        primary = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica = MemoryBlockDevice(BLOCK_SIZE, 4)
        engine = _engine(primary, replica)
        with pytest.raises(BlockSizeError):
            engine.write_many([(0, b"short")])


class TestReplicaBatchApply:
    def test_redelivered_batch_acks_duplicates(self):
        strategy = make_strategy("prins")
        primary = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica_dev = MemoryBlockDevice(BLOCK_SIZE, 4)
        replica = ReplicaEngine(replica_dev, strategy)
        engine = PrimaryEngine(
            primary,
            strategy,
            [DirectLink(replica)],
            batch=BatchConfig(max_records=16, max_bytes=1 << 20),
        )
        blocks = _patterns(3)
        engine.write_many(list(enumerate(blocks)))
        result = engine.flush_batch()
        assert result is not None
        applied_once = replica.records_applied
        # redeliver the same wire batch: every record acks as duplicate
        from repro.engine.batch import unpack_batch_ack

        ack = replica.receive_batch(result.batch.pack())
        _, applied, duplicates = unpack_batch_ack(ack)
        assert applied == 0
        assert duplicates == len(blocks)
        assert replica.records_applied == applied_once
        assert replica_dev.snapshot() == primary.snapshot()


class TestWriteBlockFrom:
    def test_copies_and_does_not_alias(self):
        dev = MemoryBlockDevice(BLOCK_SIZE, 2)
        scratch = bytearray(_patterns(1)[0])
        dev.write_block_from(1, scratch)
        assert dev.read_block(1) == bytes(scratch)
        scratch[0] ^= 0xFF  # mutating the scratch must not change the device
        assert dev.read_block(1) != bytes(scratch)

    def test_accepts_memoryview(self):
        dev = MemoryBlockDevice(BLOCK_SIZE, 2)
        data = _patterns(1)[0]
        dev.write_block_from(0, memoryview(bytearray(data)))
        assert dev.read_block(0) == data

    def test_size_validated(self):
        dev = MemoryBlockDevice(BLOCK_SIZE, 2)
        with pytest.raises(BlockSizeError):
            dev.write_block_from(0, bytearray(BLOCK_SIZE - 1))

    def test_base_class_default_path(self):
        from repro.block.device import BlockDevice

        class MinimalDevice(BlockDevice):
            def __init__(self):
                super().__init__(16, 2)
                self.store = {}

            def _read(self, lba):
                return self.store.get(lba, bytes(16))

            def _write(self, lba, data):
                self.store[lba] = data

        dev = MinimalDevice()
        scratch = bytearray(b"\x42" * 16)
        dev.write_block_from(0, scratch)
        scratch[0] = 0
        assert dev.read_block(0) == b"\x42" * 16  # default path snapshots
