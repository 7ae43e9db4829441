"""Tests for the PRINS engine: strategies, records, primary/replica flow."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, ReplicationError
from repro.engine import (
    CompressedBlockStrategy,
    DirectLink,
    FullBlockStrategy,
    PrimaryEngine,
    PrinsStrategy,
    ReplicaEngine,
    ReplicationRecord,
    digest_sync,
    full_sync,
    make_strategy,
    verify_consistency,
)
from repro.engine.accounting import (
    ConservationError,
    Flow,
    TrafficAccountant,
    ethernet_wire_bytes,
)
from repro.engine.strategy import strategy_names
from repro.raid import Raid5Array

BS = 512
N = 32


def partial_change(data, start=100, span=40, fill=0x5A):
    buf = bytearray(data)
    buf[start : start + span] = bytes([fill]) * span
    return bytes(buf)


class TestStrategies:
    def test_factory_names(self):
        assert strategy_names() == ["traditional", "compressed", "prins"]
        for name in strategy_names():
            assert make_strategy(name).name == name

    def test_factory_unknown(self):
        with pytest.raises(ConfigurationError):
            make_strategy("rsync")

    def test_traditional_ships_full_block(self):
        strategy = FullBlockStrategy()
        frame = strategy.encode_update(b"n" * BS, b"o" * BS)
        assert frame is not None and len(frame) >= BS
        assert strategy.apply_update(frame, None) == b"n" * BS

    def test_compressed_roundtrip(self):
        strategy = CompressedBlockStrategy()
        data = b"abc" * 200
        frame = strategy.encode_update(data, b"")
        assert len(frame) < len(data)  # compressible content
        assert strategy.apply_update(frame, None) == data

    def test_prins_ships_small_delta(self):
        strategy = PrinsStrategy()
        old = bytes(BS)
        new = partial_change(old)
        frame = strategy.encode_update(new, old)
        assert len(frame) < BS / 4
        assert strategy.apply_update(frame, old) == new

    def test_prins_uses_raid_delta_when_given(self):
        strategy = PrinsStrategy()
        old = b"\x01" * BS
        new = b"\x03" * BS
        delta = bytes([0x02]) * BS
        frame = strategy.encode_update(new, b"IGNORED" * 73 + b"X", raid_delta=delta)
        assert strategy.apply_update(frame, old) == new

    def test_prins_skips_unchanged(self):
        strategy = PrinsStrategy(skip_unchanged=True)
        data = b"same" * 128
        assert strategy.encode_update(data, data) is None

    def test_prins_no_skip_option(self):
        strategy = PrinsStrategy(skip_unchanged=False)
        data = b"same" * 128
        assert strategy.encode_update(data, data) is not None

    def test_prins_apply_requires_old_data(self):
        strategy = PrinsStrategy()
        frame = strategy.encode_update(b"a" * BS, bytes(BS))
        with pytest.raises(ConfigurationError):
            strategy.apply_update(frame, None)

    @settings(max_examples=30, deadline=None)
    @given(old=st.binary(min_size=BS, max_size=BS), new=st.binary(min_size=BS, max_size=BS))
    def test_all_strategies_roundtrip_property(self, old, new):
        for name in strategy_names():
            strategy = make_strategy(name)
            frame = strategy.encode_update(new, old)
            if frame is None:  # prins skip of identical blocks
                assert old == new
                continue
            assert strategy.apply_update(frame, old) == new


class TestReplicationRecord:
    def test_pack_unpack(self):
        record = ReplicationRecord.for_block(7, b"block", b"frame-bytes")
        parsed = ReplicationRecord.unpack(record.pack())
        assert parsed == record

    def test_verify_accepts_matching_block(self):
        record = ReplicationRecord.for_block(1, b"data", b"f")
        record.verify(b"data")

    def test_verify_rejects_corruption(self):
        record = ReplicationRecord.for_block(1, b"data", b"f")
        with pytest.raises(ReplicationError):
            record.verify(b"daTa")

    def test_truncated_rejected(self):
        with pytest.raises(ReplicationError):
            ReplicationRecord.unpack(b"\x00\x01")


class TestReplicaEngine:
    def _pair(self, name="prins"):
        strategy = make_strategy(name)
        device = MemoryBlockDevice(BS, N)
        return ReplicaEngine(device, strategy), strategy, device

    def test_applies_and_acks(self):
        replica, strategy, device = self._pair("traditional")
        frame = strategy.encode_update(b"w" * BS, bytes(BS))
        record = ReplicationRecord.for_block(1, b"w" * BS, frame)
        ack = replica.receive(4, record.pack())
        seq, status = ReplicaEngine.parse_ack(ack)
        assert (seq, status) == (1, 0)
        assert device.read_block(4) == b"w" * BS

    def test_duplicate_delivery_is_idempotent(self):
        """Re-XORing a parity delta would corrupt; dedupe must prevent it."""
        replica, strategy, device = self._pair("prins")
        old = bytes(BS)
        new = partial_change(old)
        frame = strategy.encode_update(new, old)
        record = ReplicationRecord.for_block(1, new, frame).pack()
        replica.receive(0, record)
        ack = replica.receive(0, record)  # redelivery
        _, status = ReplicaEngine.parse_ack(ack)
        assert status == 1  # duplicate
        assert device.read_block(0) == new
        assert replica.records_duplicate == 1

    def test_crc_mismatch_detected(self):
        replica, strategy, _ = self._pair("prins")
        old = bytes(BS)
        frame = strategy.encode_update(partial_change(old), old)
        bad = ReplicationRecord(seq=1, block_crc=0xDEAD, frame=frame)
        with pytest.raises(ReplicationError):
            replica.receive(0, bad.pack())


class TestPrimaryEngine:
    def test_every_strategy_keeps_replica_identical(self, engine_stack, rng):
        for name in strategy_names():
            engine, primary, replica_dev, _ = engine_stack(name)
            for _ in range(100):
                lba = int(rng.integers(0, N))
                old = engine.read_block(lba)
                engine.write_block(lba, partial_change(old, fill=int(rng.integers(1, 255))))
            assert verify_consistency(primary, replica_dev) == []

    def test_prins_traffic_much_smaller(self, engine_stack, rng):
        totals = {}
        for name in strategy_names():
            engine, *_ = engine_stack(name)
            write_rng = __import__("numpy").random.default_rng(5)
            for _ in range(50):
                lba = int(write_rng.integers(0, N))
                old = engine.read_block(lba)
                engine.write_block(lba, partial_change(old, fill=int(write_rng.integers(1, 255))))
            totals[name] = engine.accountant.payload_bytes
        assert totals["prins"] * 4 < totals["traditional"]

    def test_multiple_replicas_all_consistent(self):
        strategy = make_strategy("prins")
        primary = MemoryBlockDevice(BS, N)
        replicas = [MemoryBlockDevice(BS, N) for _ in range(3)]
        links = [DirectLink(ReplicaEngine(r, strategy)) for r in replicas]
        engine = PrimaryEngine(primary, strategy, links)
        for lba in range(N):
            engine.write_block(lba, bytes([lba + 1]) * BS)
        for replica in replicas:
            assert verify_consistency(primary, replica) == []

    def test_traffic_scales_with_replica_count(self):
        strategy = make_strategy("traditional")
        primary = MemoryBlockDevice(BS, N)
        links = [
            DirectLink(ReplicaEngine(MemoryBlockDevice(BS, N), strategy))
            for _ in range(3)
        ]
        engine = PrimaryEngine(primary, strategy, links)
        engine.write_block(0, b"x" * BS)
        assert engine.accountant.writes_replicated == 3

    def test_raid_backed_primary_replicates_correctly(self):
        strategy = make_strategy("prins")
        array = Raid5Array([MemoryBlockDevice(BS, 16) for _ in range(4)])
        replica_dev = MemoryBlockDevice(BS, array.num_blocks)
        engine = PrimaryEngine(
            array, strategy, [DirectLink(ReplicaEngine(replica_dev, strategy))]
        )
        for lba in range(array.num_blocks):
            engine.write_block(lba, bytes([lba + 1]) * BS)
        assert verify_consistency(array, replica_dev) == []
        assert array.scrub() == []

    def test_skipped_writes_counted(self, engine_stack):
        engine, *_ = engine_stack("prins")
        engine.write_block(0, bytes(BS))  # identical to initial zeros
        assert engine.accountant.writes_skipped == 1
        assert engine.accountant.payload_bytes == 0

    def test_reads_pass_through(self, engine_stack):
        engine, primary, _, _ = engine_stack("traditional")
        primary.write_block(9, b"r" * BS)
        assert engine.read_block(9) == b"r" * BS


class TestSync:
    def test_full_sync_copies_everything(self):
        src = MemoryBlockDevice(BS, 8)
        dst = MemoryBlockDevice(BS, 8)
        for lba in range(8):
            src.write_block(lba, bytes([lba + 1]) * BS)
        report = full_sync(src, dst)
        assert report.blocks_copied == 8
        assert verify_consistency(src, dst) == []

    def test_digest_sync_copies_only_differences(self):
        src = MemoryBlockDevice(BS, 8)
        dst = MemoryBlockDevice(BS, 8)
        for lba in range(8):
            data = bytes([lba + 1]) * BS
            src.write_block(lba, data)
            dst.write_block(lba, data)
        src.write_block(3, b"diff" * 128)
        report = digest_sync(src, dst)
        assert report.blocks_copied == 1
        assert report.bytes_copied == BS
        assert report.digest_bytes == 8 * 8
        assert verify_consistency(src, dst) == []

    def test_geometry_mismatch(self):
        from repro.common.errors import SyncError

        with pytest.raises(SyncError):
            full_sync(MemoryBlockDevice(BS, 8), MemoryBlockDevice(BS, 9))


class TestAccounting:
    def test_counters(self):
        accountant = TrafficAccountant()
        accountant.charge_write(8192, 400)
        accountant.charge_write(8192, None)
        assert accountant.writes_total == 2
        assert accountant.writes_replicated == 1
        assert accountant.writes_skipped == 1
        assert accountant.payload_bytes == 400
        assert accountant.pdu_bytes == 448
        assert accountant.mean_payload == 400
        assert accountant.reduction_vs_data == pytest.approx(16384 / 400)

    def test_ethernet_model_continuous(self):
        # the paper's formula: Sd + Sd/1.5 * 0.112 (KB)
        assert ethernet_wire_bytes(1500) == pytest.approx(1500 + 112)
        assert ethernet_wire_bytes(3000) == pytest.approx(3000 + 224)

    def test_ethernet_model_exact_packets(self):
        assert ethernet_wire_bytes(1, exact_packets=True) == 1 + 112
        assert ethernet_wire_bytes(1501, exact_packets=True) == 1501 + 2 * 112

    def test_ethernet_zero(self):
        assert ethernet_wire_bytes(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ethernet_wire_bytes(-1)

    def test_reset(self):
        accountant = TrafficAccountant()
        accountant.charge_write(100, 50)
        accountant.post(0, Flow.RETRY, 64)
        accountant.reset()
        assert accountant.writes_total == 0
        assert accountant.retry_bytes == 0
        assert accountant.per_write_payloads == []

    def test_conservation_live_backlog_mismatch(self):
        accountant = TrafficAccountant()
        accountant.post(0, Flow.JOURNAL, 100)
        assert accountant.verify_conservation({0: 100}) == {0: 100}
        with pytest.raises(ConservationError, match="live backlog 40"):
            accountant.verify_conservation({0: 40})
        # a live backlog on a replica the ledger never journaled to
        with pytest.raises(ConservationError, match="replica 1"):
            accountant.verify_conservation({0: 100, 1: 8})

    def test_conservation_replayed_plus_dropped_exceeds_journaled(self):
        accountant = TrafficAccountant()
        accountant.post(2, Flow.JOURNAL, 100, count=2)
        accountant.post(2, Flow.REPLAY, 70)
        accountant.post(2, Flow.DROP, 30)
        assert accountant.verify_conservation() == {2: 0}
        accountant.post(2, Flow.DROP, 1)
        with pytest.raises(ConservationError, match="outstanding -1"):
            accountant.verify_conservation()
