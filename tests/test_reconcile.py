"""Unit tests for the set-reconciliation resync tier (engine/reconcile.py).

Covers the three layers in isolation from the heal ladder: sketch
identification exactness (including the false-negative → re-sketch round
path and the stall fallback signal), content shipping through the
ShipWork protocol (large blocks included), and the resumable per-group state machine (invalidate, resume-after-fault).
Integration with GuardedLink.heal() lives in test_resilience.py.
"""

from __future__ import annotations

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, SyncError
from repro.common.rng import make_rng
from repro.engine import (
    DirectLink,
    FaultyLink,
    ReplicaEngine,
    digest_sync,
    make_strategy,
    verify_consistency,
)
from repro.engine.messages import ReplicationRecord
from repro.engine.reconcile import (
    ReconcileConfig,
    ReconcileSession,
    ReconcileStalledError,
    ResyncShipper,
)

BS = 512
N = 256


def _devices(num_blocks: int = N, block_size: int = BS, seed: int = 7):
    """A (src, dst) pair initialised to the same random image."""
    rng = make_rng(seed, "reconcile-image")
    src = MemoryBlockDevice(block_size, num_blocks)
    dst = MemoryBlockDevice(block_size, num_blocks)
    for lba in range(num_blocks):
        data = rng.integers(0, 256, block_size, dtype="u1").tobytes()
        src.write_block(lba, data)
        dst.write_block(lba, data)
    return src, dst


def _dirty(device, lbas, seed: int = 11):
    rng = make_rng(seed, "reconcile-dirty")
    for lba in lbas:
        device.write_block(
            lba, rng.integers(0, 256, device.block_size, dtype="u1").tobytes()
        )


def _shipper(dst, report, strategy_name="prins", link_wrap=None):
    """A ResyncShipper wired to a real replica engine over dst."""
    strategy = make_strategy(strategy_name)
    replica = ReplicaEngine(dst, strategy)
    link = DirectLink(replica)
    if link_wrap is not None:
        link = link_wrap(link)
    seq = [1 << 20]

    def builder(lba, new, old):
        frame = strategy.encode_update(new, old)
        if frame is None:
            return None
        seq[0] += 1
        return ReplicationRecord.for_block(seq[0], new, frame)

    return ResyncShipper(link, builder, report), link


class TestReconcileConfig:
    def test_defaults_valid(self):
        config = ReconcileConfig()
        assert config.group_size == 64
        assert config.max_rounds >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 0},
            {"sketch_bits_per_lba": 0},
            {"max_rounds": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReconcileConfig(**kwargs)


class TestIdentification:
    def test_clean_pair_verifies_without_shipping(self):
        src, dst = _devices()
        session = ReconcileSession(N, BS)
        shipper, _ = _shipper(dst, session.report)
        report = session.run(src, dst, shipper)
        assert session.complete
        assert report.rounds == 1
        assert report.dirty_lbas_found == 0
        assert report.records_shipped == 0
        assert report.diff_bytes == 0
        assert report.sketch_bytes > 0  # identification is never free

    def test_finds_exactly_the_dirty_set(self):
        src, dst = _devices()
        dirty = sorted(make_rng(3, "pick").choice(N, 9, replace=False))
        _dirty(src, dirty)
        session = ReconcileSession(N, BS)
        shipper, _ = _shipper(dst, session.report)
        report = session.run(src, dst, shipper)
        assert session.complete
        assert report.dirty_lbas_found == len(dirty)
        assert report.records_shipped == len(dirty)
        assert verify_consistency(src, dst) == []

    def test_repairs_divergence_on_the_replica_side(self):
        # bit rot on the replica: the key appears only in dst's sketch
        src, dst = _devices()
        _dirty(dst, [5, 77, 200])
        session = ReconcileSession(N, BS)
        shipper, _ = _shipper(dst, session.report)
        session.run(src, dst, shipper)
        assert session.complete
        assert verify_consistency(src, dst) == []

    def test_wire_cost_is_sublinear_in_volume(self):
        """1% dirty with partial-block edits (the OLTP shape PRINS
        targets): reconcile must move far less than the full sweep."""
        src, dst = _devices(num_blocks=1024)
        rng = make_rng(13, "edits")
        for lba in range(0, 1024, 100):  # ~1% dirty, ~40-byte edits
            data = bytearray(src.read_block(lba))
            off = int(rng.integers(0, BS - 40))
            data[off : off + 40] = rng.integers(
                0, 256, 40, dtype="u1"
            ).tobytes()
            src.write_block(lba, bytes(data))
        baseline_src = MemoryBlockDevice(BS, 1024)
        baseline_dst = MemoryBlockDevice(BS, 1024)
        for lba in range(1024):
            baseline_src.write_block(lba, src.read_block(lba))
            baseline_dst.write_block(lba, dst.read_block(lba))
        session = ReconcileSession(1024, BS)
        shipper, _ = _shipper(dst, session.report)
        report = session.run(src, dst, shipper)
        digest_report = digest_sync(baseline_src, baseline_dst)
        assert verify_consistency(src, dst) == []
        assert verify_consistency(baseline_src, baseline_dst) == []
        assert report.wire_bytes < digest_report.wire_bytes / 2

    def test_geometry_mismatch_rejected(self):
        src, _ = _devices(num_blocks=16)
        other = MemoryBlockDevice(BS, 32)
        session = ReconcileSession(16, BS)
        shipper, _ = _shipper(other, session.report)
        with pytest.raises(SyncError, match="geometry"):
            session.run(src, other, shipper)

    def test_session_device_mismatch_rejected(self):
        src, dst = _devices(num_blocks=16)
        session = ReconcileSession(64, BS)  # built for a bigger volume
        shipper, _ = _shipper(dst, session.report)
        with pytest.raises(SyncError, match="geometry"):
            session.run(src, dst, shipper)


class TestVerificationRounds:
    def test_false_negative_is_caught_by_group_digest(self, monkeypatch):
        """Force every sketch to read clean: the strong group digest must
        still catch the divergence and send groups back for re-sketch
        until the rounds budget trips the deterministic stall signal."""
        import repro.engine.reconcile as reconcile_mod

        monkeypatch.setattr(
            reconcile_mod, "_bit_of", lambda lba, crc, nbits, salt: 0
        )
        src, dst = _devices(num_blocks=64)
        _dirty(src, [3])
        session = ReconcileSession(
            64, BS, ReconcileConfig(group_size=64, max_rounds=3)
        )
        shipper, _ = _shipper(dst, session.report)
        with pytest.raises(ReconcileStalledError, match="stalled"):
            session.run(src, dst, shipper)
        assert not session.complete
        assert session.report.groups_resketched >= 1
        assert session.rounds_used == 3
        # exactness was never compromised: nothing claimed verified
        assert session.report.groups_verified == 0

    def test_resalting_changes_the_sketch(self):
        """Round salts must decorrelate: the same dirty pair that collides
        under one salt is separated under another (statistical smoke:
        across many salts the sketch is not constant)."""
        from repro.engine.reconcile import _bit_of

        bits = {_bit_of(7, 0xDEADBEEF, 512, salt) for salt in range(32)}
        assert len(bits) > 1


class TestResumability:
    def test_invalidate_repends_verified_groups(self):
        src, dst = _devices()
        session = ReconcileSession(N, BS)
        shipper, _ = _shipper(dst, session.report)
        session.run(src, dst, shipper)
        assert session.complete
        verified_before = session.report.groups_verified
        assert session.invalidate([0, 1]) == 1  # same group: one re-pend
        assert not session.complete
        assert session.report.groups_verified == verified_before - 1
        # out-of-range LBAs are ignored, not an error
        assert session.invalidate([-1, 10**9]) == 0
        _dirty(src, [1])
        session.run(src, dst, shipper)
        assert session.complete
        assert verify_consistency(src, dst) == []

    def test_transient_fault_resumes_from_verified_groups(self):
        """A link fault mid-ship propagates; a second run() resumes with
        per-group progress intact and converges byte-identical."""
        src, dst = _devices()
        dirty = [10, 130, 250]  # three distinct groups (group_size=64)
        _dirty(src, dirty)
        session = ReconcileSession(N, BS)
        holder = {}

        def wrap(link):
            holder["flaky"] = FaultyLink(link)
            return holder["flaky"]

        shipper, _ = _shipper(dst, session.report, link_wrap=wrap)
        holder["flaky"].fail_next(1, "drop")
        from repro.engine import InjectedLinkError

        with pytest.raises(InjectedLinkError):
            session.run(src, dst, shipper)
        assert not session.complete
        shipped_first = session.report.records_shipped
        session.run(src, dst, shipper)  # resume: no new faults
        assert session.complete
        assert verify_consistency(src, dst) == []
        # the resumed run shipped only what the fault interrupted
        assert session.report.records_shipped >= shipped_first
        assert session.report.dirty_lbas_found >= len(dirty)


class TestLargeBlocks:
    def test_large_block_costs_the_digests_of_a_small_one(self):
        """A 64 KiB block heals as one record, and identifying it costs the
        same candidate and group digests as a 512 B block."""
        big = 64 * 1024
        src, dst = _devices(num_blocks=4, block_size=big)
        data = bytearray(src.read_block(2))
        data[1000:1050] = b"\x11" * 50
        src.write_block(2, bytes(data))
        session = ReconcileSession(4, big)
        shipper, _ = _shipper(dst, session.report)
        report = session.run(src, dst, shipper)
        assert session.complete
        assert report.records_shipped == 1
        assert verify_consistency(src, dst) == []

        small_src, small_dst = _devices(num_blocks=4)
        _dirty(small_src, [2])
        small = ReconcileSession(4, BS)
        small_shipper, _ = _shipper(small_dst, small.report)
        small.run(small_src, small_dst, small_shipper)
        assert report.digest_bytes == small.report.digest_bytes


class TestReport:
    def test_snapshot_round_trips_the_ledger(self):
        src, dst = _devices(num_blocks=64)
        _dirty(src, [1, 40])
        session = ReconcileSession(64, BS)
        shipper, _ = _shipper(dst, session.report)
        report = session.run(src, dst, shipper)
        snap = report.snapshot()
        assert snap["wire_bytes"] == report.wire_bytes
        assert snap["wire_bytes"] == (
            snap["sketch_bytes"] + snap["digest_bytes"] + snap["diff_bytes"]
        )
        assert snap["records_shipped"] == 2
        assert snap["groups_verified"] == snap["groups_total"] == 1
