"""Tests for the catch-up journal a guarded link keeps for its replica."""

from __future__ import annotations

import pytest

from repro import ReplicationConfig, open_primary
from repro.engine import (
    DirectLink,
    ReplicationJournal,
    ReplicationRecord,
    verify_consistency,
)
from repro.engine.journal import JournalOverflowError

BS = 512
N = 16


class TestReplicationJournal:
    def test_append_and_counters(self):
        journal = ReplicationJournal(capacity_bytes=10_000)
        journal.append(0, ReplicationRecord(1, 0, b"frame"))
        assert journal.entry_count == 1
        assert journal.stored_bytes == len(b"frame") + 24
        assert not journal.overflowed

    def test_overflow_evicts_oldest_and_flags(self):
        journal = ReplicationJournal(capacity_bytes=80)
        for seq in range(5):
            journal.append(0, ReplicationRecord(seq, 0, b"x" * 40))
        assert journal.overflowed
        assert journal.stored_bytes <= 80

    def test_replay_refused_after_overflow(self):
        journal = ReplicationJournal(capacity_bytes=60)
        for seq in range(3):
            journal.append(0, ReplicationRecord(seq, 0, b"y" * 40))
        with pytest.raises(JournalOverflowError):
            journal.replay(DirectLink(None))  # link never reached

    def test_clear_resets_overflow(self):
        journal = ReplicationJournal(capacity_bytes=60)
        for seq in range(3):
            journal.append(0, ReplicationRecord(seq, 0, b"y" * 40))
        journal.clear()
        assert not journal.overflowed
        assert journal.entry_count == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplicationJournal(capacity_bytes=0)


class TestGuardedBacklog:
    def test_journal_stores_deltas_not_blocks(self, rng):
        """The PRINS advantage extends to the catch-up buffer."""
        config = ReplicationConfig(
            block_size=BS, num_blocks=N, resilient=True,
            backlog_capacity_bytes=10**9,
        )
        with open_primary(config) as stack:
            engine = stack.engine
            for lba in range(N):
                engine.write_block(
                    lba, rng.integers(0, 256, BS, dtype="u1").tobytes()
                )
            replica = stack.replica_devices[0]
            assert verify_consistency(stack.device, replica) == []
            engine.fail_link(0)
            for lba in range(N):  # small edits while away
                block = bytearray(engine.read_block(lba))
                block[10:20] = b"\x42" * 10
                engine.write_block(lba, bytes(block))
            backlog = engine.guards[0].backlog
            assert backlog.entry_count == N
            assert backlog.stored_bytes < N * BS / 4
            outcome = engine.heal_link(0)
            assert outcome.mode == "replay"
            assert verify_consistency(stack.device, replica) == []
