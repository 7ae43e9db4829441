"""Catch-up journaling for temporarily unreachable replicas.

Over a WAN, replica nodes disconnect.  A primary that keeps shipping must
either buffer what the replica missed or re-run a full/digest sync when it
returns.  :class:`ReplicationJournal` implements the cheap middle path the
PRINS design makes natural: buffer the *encoded records* (tiny parity
deltas, not blocks) per replica, bounded by bytes; replay them in order on
reconnect.  If the journal overflowed while the replica was away, replay
is refused and the caller falls back to
:func:`repro.engine.sync.digest_sync` — the escalation ladder real
mirroring products (and the paper's remote-mirroring references [11, 12])
use.

Replay is safe under partial failure because replicas apply records
idempotently by sequence number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ReplicationError
from repro.engine.links import ReplicaLink
from repro.engine.messages import ReplicationRecord
from repro.engine.work import ShipWork


class JournalOverflowError(ReplicationError):
    """Raised when replay is requested after the journal dropped records."""


@dataclass(frozen=True)
class _Entry:
    lba: int
    record: ReplicationRecord

    @property
    def size(self) -> int:
        """Wire bytes this entry occupies (record + PDU header)."""
        return len(self.record.frame) + 24


class ReplicationJournal:
    """Byte-bounded FIFO of records a disconnected replica has missed."""

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self._capacity = capacity_bytes
        self._entries: deque[_Entry] = deque()
        self._bytes = 0
        self._overflowed = False
        #: lifetime counters used by the resilience layer for wire accounting
        self.records_replayed_total = 0
        self.bytes_replayed_total = 0
        #: payload (record wire) bytes currently buffered — the accountant's
        #: conservation law balances journaled == replayed + dropped + this
        self.payload_bytes_pending = 0
        #: payload bytes that left the journal unreplayable (evicted on
        #: overflow, or cleared wholesale before a digest resync)
        self.payload_bytes_dropped_total = 0

    @property
    def entry_count(self) -> int:
        """Records currently buffered."""
        return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._bytes

    @property
    def overflowed(self) -> bool:
        """True once any record has been dropped; cleared by :meth:`clear`."""
        return self._overflowed

    def append(self, lba: int, record: ReplicationRecord) -> None:
        """Buffer one missed record, evicting oldest entries if over budget.

        Eviction marks the journal overflowed: the evicted record can never
        be replayed, so only a digest/full sync can restore the replica.
        """
        entry = _Entry(lba, record)
        self._entries.append(entry)
        self._bytes += entry.size
        self.payload_bytes_pending += record.wire_size
        while self._bytes > self._capacity and self._entries:
            victim = self._entries.popleft()
            self._bytes -= victim.size
            self.payload_bytes_pending -= victim.record.wire_size
            self.payload_bytes_dropped_total += victim.record.wire_size
            self._overflowed = True

    def replay(self, link: ReplicaLink) -> int:
        """Ship every buffered record through ``link`` in order.

        Returns the number of records replayed and clears the journal.
        Raises :class:`JournalOverflowError` if records were dropped — the
        caller must escalate to a digest or full sync instead.

        Replay is *ship-then-pop*: an entry only leaves the journal once the
        link accepted it, so a link failure mid-replay leaves the failing
        entry (and everything behind it) buffered in order.  The caller can
        simply retry :meth:`replay` later without losing records.
        """
        if self._overflowed:
            raise JournalOverflowError(
                "journal dropped records while the replica was away; "
                "run digest_sync/full_sync instead"
            )
        replayed = 0
        while self._entries:
            entry = self._entries[0]
            # may raise: entry retained
            link.submit(ShipWork.for_record(entry.lba, entry.record))
            self._entries.popleft()
            self._bytes -= entry.size
            self.payload_bytes_pending -= entry.record.wire_size
            replayed += 1
            self.records_replayed_total += 1
            self.bytes_replayed_total += len(entry.record.pack())
        return replayed

    def clear(self) -> None:
        """Drop all buffered records and reset the overflow flag.

        The buffered payload bytes count as *dropped*: they will never be
        replayed, so the caller must cover them out-of-band (digest/full
        sync) — exactly what the conservation law tracks.
        """
        self.payload_bytes_dropped_total += self.payload_bytes_pending
        self.payload_bytes_pending = 0
        self._entries.clear()
        self._bytes = 0
        self._overflowed = False


class JournalingLink(ReplicaLink):
    """A link wrapper that journals instead of failing while disconnected.

    While :attr:`connected` is True, records pass straight through to the
    inner link.  While False, they are journaled.  On :meth:`reconnect`,
    the journal is replayed before new traffic resumes.
    """

    def __init__(
        self, inner: ReplicaLink, journal: ReplicationJournal | None = None
    ) -> None:
        self._inner = inner
        self.journal = journal if journal is not None else ReplicationJournal()
        self._connected = True

    @property
    def connected(self) -> bool:
        """Whether records currently flow to the replica."""
        return self._connected

    def disconnect(self) -> None:
        """Simulate (or record) loss of the replica."""
        self._connected = False

    def reconnect(self) -> int:
        """Replay the journal and resume passing traffic through.

        Returns the number of records replayed; raises
        :class:`JournalOverflowError` if a sync is required instead.
        """
        replayed = self.journal.replay(self._inner)
        self._connected = True
        return replayed

    def _submit_record(self, lba: int, record: ReplicationRecord) -> bytes:
        """Journal while disconnected, else ship through the inner link."""
        if not self._connected:
            self.journal.append(lba, record)
            # A journaled record is acknowledged locally; the real ack
            # arrives at replay time (idempotency makes this safe).
            from repro.engine.replica import _ACK, ACK_APPLIED

            return _ACK.pack(record.seq, ACK_APPLIED)
        return self._inner.submit(ShipWork.for_record(lba, record))

    def sync_device(self):
        """Expose the inner link's replica device (for resync)."""
        return self._inner.sync_device()

    def close(self) -> None:
        """Close the inner link."""
        self._inner.close()
