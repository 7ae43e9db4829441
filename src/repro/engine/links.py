"""Replica links: how a primary reaches each replica.

Two implementations behind one interface:

* :class:`InitiatorLink` — ships records through a real
  :class:`~repro.iscsi.initiator.Initiator` session (in-process queues or
  TCP), exercising the full protocol path;
* :class:`DirectLink` — calls a local
  :class:`~repro.engine.replica.ReplicaEngine` synchronously.  Used by the
  traffic experiments, where tens of thousands of writes through real
  threads would only add noise; byte accounting is identical because the
  record is still fully serialized.

**Submission surface.**  Every link is driven through one method —
:meth:`ReplicaLink.submit`, taking a :class:`~repro.engine.work.ShipWork`
(a single record or a multi-segment batch).  Subclasses implement
:meth:`ReplicaLink._submit_record` (and optionally
:meth:`ReplicaLink._submit_batch`), or override ``submit`` whole, as
:class:`InitiatorLink` does to keep its round trip one call shorter.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING

from repro.engine.batch import ShipBatch, pack_batch_ack
from repro.engine.messages import ReplicationRecord
from repro.engine.replica import ACK_DUPLICATE, ReplicaEngine
from repro.iscsi.initiator import Initiator
from repro.iscsi.pdu import BHS_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.work import ShipWork


class ReplicaLink(ABC):
    """One primary→replica channel.

    The single submission surface is :meth:`submit`.
    """

    #: PDU header bytes charged per shipped record
    pdu_overhead: int = BHS_SIZE

    #: causal context of the submission currently being delivered.  Set by
    #: :meth:`submit` before dispatching to the hooks, so their
    #: ``(lba, record)`` signatures propagate tracing unchanged.
    _ship_ctx = None

    # -- unified submission --------------------------------------------------

    def submit(self, work: "ShipWork") -> bytes:
        """Deliver one unit of work (record or batch); return the ack payload.

        This is the only entry point the engine, the resilience layer,
        and the fan-out scheduler use.  Decorating links override it
        wholesale; transport links implement the
        :meth:`_submit_record` / :meth:`_submit_batch` hooks instead.
        """
        self._ship_ctx = work.ctx
        if work.batch is not None:
            return self._submit_batch(work.batch)
        assert work.record is not None
        return self._submit_record(work.lba, work.record)

    def _submit_record(self, lba: int, record: ReplicationRecord) -> bytes:
        """Deliver a single record; return the replica's ack payload."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _submit_record"
        )

    def _submit_batch(self, batch: ShipBatch) -> bytes:
        """Deliver a multi-segment batch; return the replica's batch ack.

        The default degrades gracefully: each segment ships individually
        through the record path and the batch ack is synthesized, so links
        that implement only :meth:`_submit_record` keep working (they just
        forfeit the PDU amortization).
        """
        applied = 0
        duplicates = 0
        for entry in batch:
            ack = self._submit_record(entry.lba, entry.record)
            _, status = ReplicaEngine.parse_ack(ack)
            if status == ACK_DUPLICATE:
                duplicates += 1
            else:
                applied += 1
        return pack_batch_ack(batch.last_seq, applied, duplicates)

    # -- channel plumbing ----------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Propagate a telemetry handle down the channel (default: no-op).

        Decorating links forward to their inner link; transport-backed
        links bind their transport so PDU-level counters and the
        ``replica.apply`` spans share the engine's telemetry.
        """

    def sync_device(self):
        """The replica's block device, if locally reachable (else ``None``).

        Resync escalation (:func:`repro.engine.sync.digest_sync` after a
        backlog overflow) needs direct access to the replica's storage.
        Links that merely decorate another link delegate; links that cross a
        real network return ``None`` — their owner must resync out-of-band.
        """
        return None

    def close(self) -> None:
        """Release the channel (default: nothing to do)."""


class InitiatorLink(ReplicaLink):
    """Ship records over an iSCSI session to a remote target.

    The target must have a :class:`~repro.engine.replica.ReplicaEngine`
    installed as its replication handler.
    """

    def __init__(self, initiator: Initiator) -> None:
        self._initiator = initiator
        if not initiator.logged_in:
            initiator.login()

    @property
    def initiator(self) -> Initiator:
        """The underlying session (exposes transport byte counters)."""
        return self._initiator

    def submit(self, work: "ShipWork") -> bytes:
        """Ship a record as one REPL_DATA_OUT PDU, a batch as one
        REPL_BATCH_OUT PDU; return the ack payload."""
        record = work.record
        if record is not None:
            return self._initiator.send_replication_frame(
                work.lba, record.pack(), ctx=work.ctx
            )
        assert work.batch is not None
        return self._initiator.send_replication_batch(
            work.batch.pack(), work.batch.record_count, ctx=work.ctx
        )

    def bind_telemetry(self, telemetry) -> None:
        """Bind the session transport so PDU counters share the telemetry."""
        self._initiator.transport.bind_telemetry(telemetry)

    def close(self) -> None:
        """Log the session out."""
        self._initiator.logout()


class DirectLink(ReplicaLink):
    """Synchronous in-process delivery to a local replica engine."""

    def __init__(self, replica: "ReplicaEngineLike") -> None:
        self._replica = replica

    def _submit_record(self, lba: int, record: ReplicationRecord) -> bytes:
        """Serialize, deliver in-process, and return the replica's ack.

        Serialize and re-parse so the wire format is exercised and byte
        counts match the socket path exactly.
        """
        if self._ship_ctx is not None and getattr(
            self._replica, "supports_ctx", False
        ):
            return self._replica.receive(lba, record.pack(), ctx=self._ship_ctx)
        return self._replica.receive(lba, record.pack())

    def _submit_batch(self, batch: ShipBatch) -> bytes:
        """Deliver a packed batch to the replica's unbatch path in-process."""
        receive_batch = getattr(self._replica, "receive_batch", None)
        if receive_batch is None:
            return super()._submit_batch(batch)
        if self._ship_ctx is not None and getattr(
            self._replica, "supports_ctx", False
        ):
            return receive_batch(batch.pack(), ctx=self._ship_ctx)
        return receive_batch(batch.pack())

    def bind_telemetry(self, telemetry) -> None:
        """Share the engine telemetry with the replica's apply spans."""
        bind = getattr(self._replica, "bind_telemetry", None)
        if bind is not None:
            bind(telemetry)

    def sync_device(self):
        """Expose the replica's device for local resync escalation."""
        return getattr(self._replica, "device", None)


class ReplicaEngineLike:
    """Structural interface DirectLink expects (avoids a circular import)."""

    def receive(self, lba: int, raw_record: bytes) -> bytes:
        """Apply one wire record and return the ack payload."""
        raise NotImplementedError
