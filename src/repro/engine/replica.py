"""The replica-side PRINS engine.

"The counter part PRINS-engine at the replica node will listen on the
network to receive replicated parity.  Upon receiving such parity, the
PRINS-engine at the replica node will perform the reverse computation …
[and] store the data in its local storage using the same LBA" (Sec. 2).

:class:`ReplicaEngine` is that counterpart: it decodes each record, applies
the strategy's inverse (backward parity for PRINS, plain decode for the
baselines), verifies the end-to-end CRC, and writes the block in place.  It
is idempotent under redelivery: a record whose sequence number was already
applied for that LBA is acknowledged without being re-applied, which keeps
retries safe — re-XORing a parity delta would corrupt the block.
"""

from __future__ import annotations

import struct

from repro.block.device import BlockDevice
from repro.engine.batch import ShipBatch, pack_batch_ack
from repro.engine.messages import (
    ReplicationRecord,
    crc_mismatch,
    split_record,
    verify_block_crc,
)
from repro.engine.strategy import ReplicationStrategy
from repro.obs.telemetry import get_telemetry

_ACK = struct.Struct("<QB")

ACK_APPLIED = 0
ACK_DUPLICATE = 1


class ReplicaEngine:
    """Applies replication records to a local block device."""

    #: links may pass a carried TraceContext to :meth:`receive`/:meth:`receive_batch`
    supports_ctx = True

    def __init__(
        self,
        device: BlockDevice,
        strategy: ReplicationStrategy,
        telemetry=None,
    ) -> None:
        self._device = device
        self._strategy = strategy
        self._applied_seq: dict[int, int] = {}  # lba -> highest applied seq
        # a device that lends its own bytes takes delta records in place
        self._in_place = getattr(device, "xor_in_place", None)
        # scratch blocks between applies; pop/append are atomic, so applies
        # racing on several session threads each hold a block of their own
        self._scratch: list[bytearray] = []
        self.records_applied = 0
        self.records_duplicate = 0
        self.bind_telemetry(telemetry if telemetry is not None else get_telemetry())

    def bind_telemetry(self, telemetry) -> None:
        """Adopt the primary's telemetry so apply spans nest under sends.

        Whether applies open spans (and ``replica.decode`` fine spans) is
        decided here, once per binding.
        """
        self.telemetry = telemetry
        self._live = telemetry.enabled
        self._fine = self._live and telemetry.tracer.detail

    @property
    def device(self) -> BlockDevice:
        """The replica's local storage."""
        return self._device

    @property
    def strategy(self) -> ReplicationStrategy:
        """The strategy this replica inverts."""
        return self._strategy

    def receive(self, lba: int, raw_record: bytes, ctx=None) -> bytes:
        """Apply one wire record; returns the packed ack payload.

        This is the entry point registered as the iSCSI target's
        replication handler (and called directly by
        :class:`~repro.engine.links.DirectLink`).  ``ctx`` is the causal
        :class:`~repro.obs.dist.TraceContext` the wire (or link) carried,
        if any: it parents the apply span when this engine's telemetry
        has no local span open, stitching the replica's work into the
        originating write's trace.
        """
        seq, block_crc, frame = split_record(raw_record)
        return self._apply(lba, seq, block_crc, frame, ctx)

    def apply_record(self, lba: int, record: ReplicationRecord, ctx=None) -> bytes:
        """Apply one parsed record idempotently; returns the packed ack.

        The batch path's entry: it applies the records
        :class:`~repro.engine.batch.ShipBatch.unpack` already parsed
        without a per-record pack/unpack round trip.
        """
        return self._apply(lba, record.seq, record.block_crc, record.frame, ctx)

    def _apply(self, lba: int, seq: int, block_crc: int, frame, ctx=None) -> bytes:
        """The idempotent apply behind :meth:`receive` and :meth:`apply_record`.

        ``frame`` may be a view of the received bytes; it is never
        retained.  A delta record (the strategy needs ``A_old``) on a
        device that lends its bytes is XORed straight into the stored
        block, verified there, and undone by XORing it again when the
        CRC or the frame is bad (:meth:`MemoryBlockDevice.xor_in_place
        <repro.block.memory.MemoryBlockDevice.xor_in_place>`); the
        verified CRC then seeds the device's CRC table.  Every other
        apply decodes into a scratch block, verifies it and writes it
        back.  With live telemetry the apply runs in a ``replica.apply``
        span (``ctx`` parents it when no local span is open), started
        here and ended in the ``finally``.
        """
        span = (
            self.telemetry.span_in("replica.apply", ctx, lba=lba)
            if self._live
            else None
        )
        try:
            if self._applied_seq.get(lba, -1) >= seq:
                self.records_duplicate += 1
                if span is not None:
                    span.attrs["duplicate"] = True
                return _ACK.pack(seq, ACK_DUPLICATE)
            strategy = self._strategy
            decode = (
                self._decode_traced if self._fine else strategy.apply_update_into
            )
            if strategy.needs_old_data and self._in_place is not None:
                applied_crc = self._in_place(lba, decode, frame, block_crc)
                if applied_crc != block_crc:
                    raise crc_mismatch(applied_crc, block_crc, seq)
            else:
                # The block is reused between applies: every path
                # overwrites it in full, so it is never zeroed.
                try:
                    block = self._scratch.pop()
                except IndexError:
                    block = bytearray(self._device.block_size)
                try:
                    if strategy.needs_old_data:
                        self._device.read_block_into(lba, block)
                    decode(frame, block)
                    verify_block_crc(block, block_crc, seq)
                    self._device.write_block_from(lba, block)
                finally:
                    self._scratch.append(block)
            self._applied_seq[lba] = seq
            self.records_applied += 1
            return _ACK.pack(seq, ACK_APPLIED)
        except BaseException as exc:
            if span is not None:
                span.attrs["error"] = type(exc).__name__
            raise
        finally:
            if span is not None:
                span.end()

    def _decode_traced(self, frame, block) -> None:
        """The strategy's apply inside a ``replica.decode`` fine span."""
        with self.telemetry.fine_span("replica.decode"):
            self._strategy.apply_update_into(frame, block)

    def receive_batch(self, raw_batch: bytes, ctx=None) -> bytes:
        """Unbatch and apply a multi-segment batch; returns the batch ack.

        Verifies the batch digest, then applies each segment through the
        same idempotent per-record path as :meth:`receive` (so a
        redelivered batch acks its duplicates instead of re-XORing them).
        Registered as the iSCSI target's batch handler; ``ctx`` parents
        the batch-apply span as in :meth:`receive`.
        """
        if not self._live:
            return self._apply_batch(raw_batch, None)
        with self.telemetry.span_in("replica.apply_batch", ctx) as span:
            return self._apply_batch(raw_batch, span)

    def _apply_batch(self, raw_batch: bytes, span) -> bytes:
        """:meth:`receive_batch`'s body; ``span`` is the live batch span."""
        batch = ShipBatch.unpack(raw_batch)
        if span is not None:
            span.set("records", batch.record_count)
        applied = 0
        duplicates = 0
        for entry in batch:
            ack = self.apply_record(entry.lba, entry.record)
            _, status = _ACK.unpack(ack)
            if status == ACK_DUPLICATE:
                duplicates += 1
            else:
                applied += 1
        return pack_batch_ack(batch.last_seq, applied, duplicates)

    #: parse an ack payload into ``(seq, status)`` (the struct's own
    #: ``unpack``: one C call per ack)
    parse_ack = staticmethod(_ACK.unpack)
