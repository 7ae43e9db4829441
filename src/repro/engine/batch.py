"""Batched delta shipping: coalesce many writes into one multi-segment PDU.

PRINS already shrinks *what* each write ships (a sparse parity delta,
Eqs. 1–2); batching shrinks *how often* it ships.  A
:class:`ShipBatcher` buffers the mergeable payloads of consecutive
writes inside a configurable window (record count, byte budget, or an
explicit commit boundary) and drains them as one :class:`ShipBatch` —
a single PDU whose body concatenates per-write segments under one
batch header with an integrity digest.

Two independent savings stack:

* **PDU amortization** — N records share one 48-byte basic header
  segment instead of paying it N times (the paper's own iSCSI framing
  amortizes headers across commands the same way).
* **Merge elision** — consecutive same-LBA parity deltas XOR-compose
  (``P'₁ ⊕ P'₂`` is a valid delta against the replica's original
  block, because Eqs. 1–2 compose), so N overwrites of a hot block
  ship exactly once.  Full-block strategies merge by last-writer-wins.

Wire layout (little-endian)::

    batch header   uint16  record count
                   uint16  merged (elided) logical writes, informational
                   uint32  CRC32 digest over all segment bytes
    per segment    uint64  LBA
                   uint32  record length
                   bytes   packed ReplicationRecord (seq, crc, frame)

The batch ack (:func:`pack_batch_ack`) carries the last sequence
number plus applied/duplicate counts so the shipping side can verify
delivery without per-record acks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.common.errors import ConfigurationError, ReplicationError
from repro.engine.messages import ReplicationRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.strategy import ReplicationStrategy

_BATCH_HEADER = struct.Struct("<HHI")
_SEGMENT_HEADER = struct.Struct("<QI")
_BATCH_ACK = struct.Struct("<QII")

#: bytes of batch-level overhead on top of the segments
BATCH_OVERHEAD = _BATCH_HEADER.size
#: bytes of per-segment overhead on top of the packed record
SEGMENT_OVERHEAD = _SEGMENT_HEADER.size
#: hard wire-format ceiling on records per batch (uint16 count field)
MAX_RECORDS_PER_BATCH = 0xFFFF


@dataclass(frozen=True)
class BatchConfig:
    """Window policy for :class:`ShipBatcher`.

    A batch drains when it holds ``max_records`` records, when its
    estimated payload bytes reach ``max_bytes``, or when the caller
    forces a flush (commit boundary, :meth:`ShipBatcher.drain`).
    """

    #: flush after this many distinct-LBA records are pending
    max_records: int = 32
    #: flush once pending pre-encoding payload bytes reach this budget
    max_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        """Validate the window bounds."""
        if self.max_records < 1:
            raise ConfigurationError(
                f"batch max_records must be >= 1, got {self.max_records}"
            )
        if self.max_records > MAX_RECORDS_PER_BATCH:
            raise ConfigurationError(
                f"batch max_records must fit uint16, got {self.max_records}"
            )
        if self.max_bytes < 1:
            raise ConfigurationError(
                f"batch max_bytes must be >= 1, got {self.max_bytes}"
            )


@dataclass(frozen=True)
class BatchEntry:
    """One segment of a batch: an LBA and its (possibly merged) record."""

    lba: int
    record: ReplicationRecord


@dataclass(frozen=True)
class ShipBatch:
    """An immutable, wire-ready group of replication records.

    ``merged_writes`` counts the logical writes elided by same-LBA
    merging (informational; carried on the wire for replica-side
    accounting symmetry).
    """

    entries: tuple[BatchEntry, ...]
    merged_writes: int = 0
    _packed: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def record_count(self) -> int:
        """Number of segments (post-merge records) in the batch."""
        return len(self.entries)

    @property
    def last_seq(self) -> int:
        """Highest sequence number carried by any segment."""
        if not self.entries:
            raise ReplicationError("empty batch has no sequence numbers")
        return max(entry.record.seq for entry in self.entries)

    def __iter__(self) -> Iterator[BatchEntry]:
        """Iterate over the batch's segments in insertion order."""
        return iter(self.entries)

    def pack(self) -> bytes:
        """Serialize to wire bytes: batch header + segments, with digest."""
        packed = object.__getattribute__(self, "_packed")
        if packed is not None:
            return packed
        if not self.entries:
            raise ReplicationError("cannot pack an empty batch")
        if len(self.entries) > MAX_RECORDS_PER_BATCH:
            raise ReplicationError(
                f"batch of {len(self.entries)} records exceeds wire limit"
            )
        # Writev-style assembly: per-record (header, frame) segment lists
        # are joined exactly once — no per-record concatenation.
        parts = []
        for entry in self.entries:
            record = entry.record
            parts.append(_SEGMENT_HEADER.pack(entry.lba, record.wire_size))
            parts.extend(record.parts())
        body = b"".join(parts)
        merged = min(self.merged_writes, 0xFFFF)
        raw_batch = (
            _BATCH_HEADER.pack(len(self.entries), merged, zlib.crc32(body))
            + body
        )
        object.__setattr__(self, "_packed", raw_batch)
        return raw_batch

    @classmethod
    def unpack(cls, raw: bytes) -> "ShipBatch":
        """Parse wire bytes back into a batch, verifying the digest."""
        if len(raw) < _BATCH_HEADER.size:
            raise ReplicationError(f"batch too short ({len(raw)} bytes)")
        count, merged, digest = _BATCH_HEADER.unpack_from(raw, 0)
        body = raw[_BATCH_HEADER.size :]
        actual = zlib.crc32(body)
        if actual != digest:
            raise ReplicationError(
                f"batch digest mismatch: computed {actual:#010x}, "
                f"header says {digest:#010x}"
            )
        entries: list[BatchEntry] = []
        offset = 0
        for i in range(count):
            if offset + _SEGMENT_HEADER.size > len(body):
                raise ReplicationError(
                    f"batch truncated at segment {i} of {count}"
                )
            lba, rec_len = _SEGMENT_HEADER.unpack_from(body, offset)
            offset += _SEGMENT_HEADER.size
            if offset + rec_len > len(body):
                raise ReplicationError(
                    f"batch segment {i} overruns body "
                    f"({offset + rec_len} > {len(body)})"
                )
            record = ReplicationRecord.unpack(body[offset : offset + rec_len])
            offset += rec_len
            entries.append(BatchEntry(lba=lba, record=record))
        if offset != len(body):
            raise ReplicationError(
                f"batch has {len(body) - offset} trailing bytes "
                f"after {count} segments"
            )
        return cls(entries=tuple(entries), merged_writes=merged)


@dataclass(frozen=True)
class FlushResult:
    """What one :meth:`ShipBatcher.drain` produced.

    ``batch`` is None when every pending write merged away to a no-op
    (e.g. two overwrites that restored the original bytes) — the
    logical writes still happened and must be accounted, but nothing
    ships.
    """

    #: the wire-ready batch, or None if everything elided to no-ops
    batch: ShipBatch | None
    #: logical writes the caller handed to :meth:`ShipBatcher.add`
    logical_writes: int
    #: block bytes those logical writes covered (for accounting)
    data_bytes: int
    #: logical writes elided by same-LBA merging
    merged_writes: int
    #: post-merge records dropped entirely because they were no-ops
    elided_records: int


@dataclass
class _PendingLba:
    """Per-LBA accumulation inside the window."""

    payloads: list[bytes] = field(default_factory=list)
    seq: int = 0
    block_crc: int = 0


class ShipBatcher:
    """Coalesce write payloads inside a window, merging same-LBA deltas.

    The batcher works on *pre-encoding* payloads
    (:meth:`~repro.engine.strategy.ReplicationStrategy.make_update`
    output): merging before encoding means N overwrites of a hot block
    pay the codec exactly once.  Pure state machine — no I/O, no
    telemetry; the engine wraps :meth:`drain` in spans and charges the
    accountant from the :class:`FlushResult`.
    """

    def __init__(self, config: BatchConfig, strategy: "ReplicationStrategy") -> None:
        """Bind a window policy to the strategy whose payloads we merge."""
        self.config = config
        self.strategy = strategy
        # insertion-ordered: first write to an LBA fixes its segment slot
        self._pending: dict[int, _PendingLba] = {}
        self._pending_bytes = 0
        self._logical_writes = 0
        self._data_bytes = 0

    def __len__(self) -> int:
        """Number of distinct LBAs (→ post-merge segments) pending."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Sum of pre-encoding payload bytes currently buffered."""
        return self._pending_bytes

    @property
    def pending_lbas(self) -> frozenset[int]:
        """The distinct LBAs buffered in the current window."""
        return frozenset(self._pending)

    def is_pending(self, lba: int) -> bool:
        """True when ``lba`` has a buffered (not yet shipped) payload.

        The read router's batch-window conflict check: a buffered write
        has reached no replica yet, so every replica is stale for that
        LBA until the window flushes.
        """
        return lba in self._pending

    def add(
        self, lba: int, seq: int, block_crc: int, payload: bytes, data_len: int
    ) -> bool:
        """Buffer one write's payload; return True when the window is full.

        ``seq`` and ``block_crc`` describe the *latest* write to the
        LBA — after merging, the shipped record carries the newest
        sequence number and the CRC of the newest block image, so the
        replica's end-to-end verification checks the final state.
        """
        slot = self._pending.get(lba)
        if slot is None:
            slot = self._pending[lba] = _PendingLba()
        slot.payloads.append(payload)
        slot.seq = seq
        slot.block_crc = block_crc
        self._pending_bytes += len(payload)
        self._logical_writes += 1
        self._data_bytes += data_len
        return (
            len(self._pending) >= self.config.max_records
            or self._pending_bytes >= self.config.max_bytes
        )

    def drain(self) -> FlushResult:
        """Merge, encode, and clear the window; return what to ship.

        Same-LBA payloads merge via
        :meth:`~repro.engine.strategy.ReplicationStrategy.merge_updates`
        (XOR composition for PRINS, last-writer-wins for full-block
        strategies); merged payloads that are no-ops
        (:meth:`~repro.engine.strategy.ReplicationStrategy.update_is_noop`)
        are dropped before paying the codec.
        """
        logical = self._logical_writes
        data_bytes = self._data_bytes
        merged_writes = 0
        elided_records = 0
        survivors: list[tuple[int, _PendingLba]] = []
        payloads: list[bytes] = []
        for lba, slot in self._pending.items():
            if len(slot.payloads) > 1:
                merged_writes += len(slot.payloads) - 1
                payload = self.strategy.merge_updates(slot.payloads)
                # Only a *merged* payload can newly become a no-op (two
                # deltas XOR-cancelling); single payloads were already
                # noop-checked before they entered the window, so don't
                # pay a second full-block zero scan per record here.
                if self.strategy.update_is_noop(payload):
                    elided_records += 1
                    continue
            else:
                payload = slot.payloads[0]
            survivors.append((lba, slot))
            payloads.append(payload)
        # One encode_payloads call for the surviving payloads: one encode
        # span per window, and a bound worker pool fans the window out.
        frames = self.strategy.encode_payloads(payloads) if payloads else []
        entries = [
            BatchEntry(
                lba=lba,
                record=ReplicationRecord(
                    seq=slot.seq, block_crc=slot.block_crc, frame=frame
                ),
            )
            for (lba, slot), frame in zip(survivors, frames)
        ]
        self._pending.clear()
        self._pending_bytes = 0
        self._logical_writes = 0
        self._data_bytes = 0
        batch = (
            ShipBatch(entries=tuple(entries), merged_writes=merged_writes)
            if entries
            else None
        )
        return FlushResult(
            batch=batch,
            logical_writes=logical,
            data_bytes=data_bytes,
            merged_writes=merged_writes,
            elided_records=elided_records,
        )


def pack_batch_ack(last_seq: int, applied: int, duplicates: int) -> bytes:
    """Serialize a batch acknowledgement (last seq, applied, duplicates)."""
    return _BATCH_ACK.pack(last_seq, applied, duplicates)


def unpack_batch_ack(raw: bytes) -> tuple[int, int, int]:
    """Parse a batch ack into ``(last_seq, applied, duplicates)``."""
    if len(raw) != _BATCH_ACK.size:
        raise ReplicationError(
            f"batch ack must be {_BATCH_ACK.size} bytes, got {len(raw)}"
        )
    seq, applied, duplicates = _BATCH_ACK.unpack(raw)
    return seq, applied, duplicates


def batch_wire_size(records: Sequence[ReplicationRecord]) -> int:
    """Bytes a batch of these records occupies on the wire (sans PDU header)."""
    return BATCH_OVERHEAD + sum(
        SEGMENT_OVERHEAD + r.wire_size for r in records
    )
