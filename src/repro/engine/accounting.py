"""Traffic accounting.

Records, for every replicated write, the bytes that actually went on the
wire.  Three views are kept because the paper reports different ones in
different places:

* **payload bytes** — the encoded frame+record (what Figs. 4–7 plot);
* **pdu bytes** — payload plus the 48-byte PDU header;
* **ethernet bytes** — payload inflated by the paper's packet model
  (Sec. 3.3): 1.5 KB Ethernet payloads, 0.112 KB of Ethernet+IP+TCP
  headers per packet, i.e. ``Sd + Sd/1.5 * 0.112`` with Sd in KB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ReplicationError
from repro.obs.registry import Histogram

#: Ethernet payload per packet, bytes (paper Sec. 3.3: "1.5Kbytes payload")
PACKET_PAYLOAD = 1500
#: Ethernet + IP + TCP header bytes per packet (paper: "0.112KB")
PACKET_HEADERS = 112


def ethernet_wire_bytes(payload_bytes: int, exact_packets: bool = False) -> float:
    """Inflate a payload to on-the-wire bytes per the paper's packet model.

    With ``exact_packets`` the per-packet header cost uses
    ``ceil(Sd / 1500)`` packets; otherwise the paper's continuous
    approximation ``Sd + Sd/1.5 * 0.112`` is used (Sec. 3.3).
    """
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
    if payload_bytes == 0:
        return 0.0
    if exact_packets:
        packets = math.ceil(payload_bytes / PACKET_PAYLOAD)
        return float(payload_bytes + packets * PACKET_HEADERS)
    return payload_bytes * (1 + PACKET_HEADERS / PACKET_PAYLOAD)


#: replica key used when a recovery charge arrives without attribution
UNATTRIBUTED_REPLICA = -1


class ConservationError(ReplicationError):
    """A traffic conservation law does not balance.

    Raised by :meth:`TrafficAccountant.verify_conservation` when the
    per-replica itemization disagrees with the global counters or a
    replica's journaled bytes cannot be accounted for as replayed +
    dropped + still-pending.  This is always a bookkeeping bug, never a
    network condition.
    """


@dataclass
class ReplicaTraffic:
    """Per-replica itemization of shipped and recovery traffic.

    Every byte the global :class:`TrafficAccountant` counters aggregate
    is also attributed to the replica channel that caused it, so the
    conservation law stays checkable when replicas recover *out of
    order* — previously recovery bytes were only attributed globally at
    journal-replay time, and an overflowed-then-resynced replica leaked
    its journaled bytes forever.
    """

    shipped_payload_bytes: int = 0  # payload bytes acked by this replica
    ships: int = 0  # submissions (records or batches) this replica acked
    journaled_records: int = 0
    journaled_bytes: int = 0  # payload bytes deferred to this replica's backlog
    replayed_records: int = 0
    replayed_bytes: int = 0  # payload bytes drained from the backlog
    dropped_bytes: int = 0  # payload bytes evicted/cleared, covered by resync
    retries: int = 0
    retry_bytes: int = 0
    resyncs: int = 0
    resync_bytes: int = 0
    reconciles: int = 0
    reconcile_sketch_bytes: int = 0
    reconcile_digest_bytes: int = 0
    reconcile_diff_bytes: int = 0
    fragment_ships: int = 0  # erasure fragments this channel acked
    fragment_payload_bytes: int = 0  # wire bytes of those fragment ships
    repair_read_bytes: int = 0  # survivor bytes read to rebuild this fragment
    repair_write_bytes: int = 0  # rebuilt bytes written to this holder

    @property
    def reconcile_bytes(self) -> int:
        """Total reconcile-tier wire bytes (sketches + digests + diffs)."""
        return (
            self.reconcile_sketch_bytes
            + self.reconcile_digest_bytes
            + self.reconcile_diff_bytes
        )

    def outstanding_bytes(self) -> int:
        """Journaled payload bytes not yet replayed or dropped.

        Must equal the live backlog's ``payload_bytes_pending`` — the
        per-replica conservation law.
        """
        return self.journaled_bytes - self.replayed_bytes - self.dropped_bytes

    def snapshot(self) -> dict:
        """JSON-safe view of this replica's itemized counters."""
        return {
            "shipped_payload_bytes": self.shipped_payload_bytes,
            "ships": self.ships,
            "journaled_records": self.journaled_records,
            "journaled_bytes": self.journaled_bytes,
            "replayed_records": self.replayed_records,
            "replayed_bytes": self.replayed_bytes,
            "dropped_bytes": self.dropped_bytes,
            "outstanding_bytes": self.outstanding_bytes(),
            "retries": self.retries,
            "retry_bytes": self.retry_bytes,
            "resyncs": self.resyncs,
            "resync_bytes": self.resync_bytes,
            "reconciles": self.reconciles,
            "reconcile_sketch_bytes": self.reconcile_sketch_bytes,
            "reconcile_digest_bytes": self.reconcile_digest_bytes,
            "reconcile_diff_bytes": self.reconcile_diff_bytes,
            "reconcile_bytes": self.reconcile_bytes,
            "fragment_ships": self.fragment_ships,
            "fragment_payload_bytes": self.fragment_payload_bytes,
            "repair_read_bytes": self.repair_read_bytes,
            "repair_write_bytes": self.repair_write_bytes,
        }


@dataclass
class TrafficAccountant:
    """Accumulates per-primary replication traffic.

    The per-write payload *distribution* is kept in a bounded log2-bucket
    :class:`~repro.obs.registry.Histogram` (``payload_histogram``), so a
    long-running engine's memory stays O(buckets) no matter how many
    writes flow through.  The paper-figure benchmarks that need the exact
    per-write sample (tail-latency simulation, empirical-distribution
    queueing) opt back into the raw list with ``keep_raw=True``.
    """

    writes_total: int = 0
    writes_replicated: int = 0
    writes_skipped: int = 0
    payload_bytes: int = 0
    pdu_bytes: int = 0
    data_bytes: int = 0  # logical (pre-encoding) block bytes written
    pdus_shipped: int = 0  # wire PDUs carrying replication traffic
    #: exact per-write payload sample; only populated when ``keep_raw``
    per_write_payloads: list[int] = field(default_factory=list)
    #: bounded distribution of per-write payload bytes (always maintained)
    payload_histogram: Histogram = field(
        default_factory=lambda: Histogram("per_write_payload_bytes")
    )
    #: keep the unbounded raw sample (paper-figure benchmarks only)
    keep_raw: bool = False
    # -- fault-tolerance counters (engine/resilience.py) --------------------
    writes_failed: int = 0  # strict fan-outs aborted by a link exception
    writes_journaled: int = 0  # fan-outs where >=1 copy went to backlog
    journaled_records: int = 0  # per-link copies deferred to backlog
    journaled_bytes: int = 0  # payload bytes deferred (charged at replay)
    retries: int = 0  # re-ship attempts by resilient links
    retry_bytes: int = 0  # wire bytes those re-ships cost
    backlog_records_replayed: int = 0  # records drained from backlogs
    backlog_replay_bytes: int = 0  # wire bytes of backlog replay
    resyncs: int = 0  # digest/full resync escalations
    resync_bytes: int = 0  # wire bytes (digests + copied blocks) of resyncs
    reconciles: int = 0  # set-reconciliation resync runs (incl. resumes)
    reconcile_sketch_bytes: int = 0  # parity-bitmap sketch exchange bytes
    reconcile_digest_bytes: int = 0  # candidate/group/piece digest bytes
    reconcile_diff_bytes: int = 0  # encoded divergent-block payload bytes
    # -- batching counters (engine/batch.py) --------------------------------
    batches_shipped: int = 0  # batch PDUs put on the wire (per copy)
    batched_records: int = 0  # post-merge records framed into batches
    batched_payload_bytes: int = 0  # batch payload bytes (subset of payload_bytes)
    batched_pdu_bytes: int = 0  # batch payload + PDU headers (subset of pdu_bytes)
    writes_merged: int = 0  # logical writes elided by same-LBA XOR merging
    records_elided: int = 0  # post-merge records dropped as no-ops
    # -- erasure-tier counters (engine/stripe.py) ----------------------------
    erasure_writes: int = 0  # striped fan-outs completed (any outcome)
    fragments_shipped: int = 0  # fragment submissions acked across channels
    fragment_payload_bytes: int = 0  # wire bytes of those fragment ships
    fragments_elided: int = 0  # all-zero fragment deltas skipped (XOR no-op)
    repairs: int = 0  # survivor-driven fragment rebuilds
    repair_read_bytes: int = 0  # fragment bytes read from survivors
    repair_write_bytes: int = 0  # rebuilt bytes shipped to replacements
    # -- per-replica itemization (conservation under OOO recovery) ----------
    per_replica: dict[int, ReplicaTraffic] = field(default_factory=dict)
    dropped_bytes: int = 0  # journaled payload bytes evicted/cleared unreplayed

    def replica(self, index: int | None) -> ReplicaTraffic:
        """The itemized ledger for replica ``index`` (created on demand).

        ``None`` maps to :data:`UNATTRIBUTED_REPLICA`, keeping the
        itemized sums equal to the global counters even for callers that
        predate attribution.
        """
        key = UNATTRIBUTED_REPLICA if index is None else index
        ledger = self.per_replica.get(key)
        if ledger is None:
            ledger = self.per_replica[key] = ReplicaTraffic()
        return ledger

    def record_write(
        self, data_len: int, payload_len: int | None, pdu_overhead: int = 48
    ) -> None:
        """Record one local write and its (possibly skipped) replication."""
        self.writes_total += 1
        self.data_bytes += data_len
        if payload_len is None:
            self.writes_skipped += 1
            return
        self.writes_replicated += 1
        self.payload_bytes += payload_len
        self.pdu_bytes += payload_len + pdu_overhead
        self.pdus_shipped += 1
        self.payload_histogram.record(payload_len)
        if self.keep_raw:
            self.per_write_payloads.append(payload_len)

    def record_batch(
        self,
        logical_writes: int,
        data_len: int,
        records: int,
        payload_len: int,
        merged: int = 0,
        elided: int = 0,
        copies: int = 1,
        journaled: bool = False,
        pdu_overhead: int = 48,
    ) -> None:
        """Record one drained batch window: its logical writes and wire cost.

        ``payload_len`` is the packed batch (header + segments);
        ``copies`` is how many replica links it shipped to (``0`` when
        the fan-out failed — or, with ``journaled``, when every copy was
        deferred to a backlog).  ``records == 0`` means the whole window
        merged away to no-ops: the logical writes count as skipped,
        mirroring the unbatched all-zero-delta skip.  Batched traffic
        also accrues into the global ``payload_bytes``/``pdu_bytes``
        totals so the paper's traffic views stay comparable; the
        per-write payload histogram is *not* fed (there is no per-write
        wire cost once writes merge — use ``batched_*`` instead).
        """
        self.writes_total += logical_writes
        self.data_bytes += data_len
        self.writes_merged += merged
        self.records_elided += elided
        if records == 0:
            self.writes_skipped += logical_writes
            return
        if copies == 0:
            if journaled:
                self.writes_journaled += logical_writes
            else:
                self.writes_failed += logical_writes
            return
        self.writes_replicated += logical_writes
        self.batched_records += records
        wire = payload_len * copies
        self.batches_shipped += copies
        self.pdus_shipped += copies
        self.batched_payload_bytes += wire
        self.batched_pdu_bytes += wire + pdu_overhead * copies
        self.payload_bytes += wire
        self.pdu_bytes += wire + pdu_overhead * copies

    # -- fault-tolerance accounting ----------------------------------------

    def record_failed_write(self, data_len: int) -> None:
        """Record a local write whose fan-out aborted before any link acked."""
        self.writes_total += 1
        self.data_bytes += data_len
        self.writes_failed += 1

    def record_journaled_write(self, data_len: int) -> None:
        """Record a local write whose every copy was deferred to backlog."""
        self.writes_total += 1
        self.data_bytes += data_len
        self.writes_journaled += 1

    def record_replica_ship(
        self, payload_len: int, replica: int | None = None
    ) -> None:
        """Attribute one acked submission's payload bytes to ``replica``.

        Itemization only — the global ``payload_bytes`` totals are charged
        separately by ``record_write``/``record_batch``; this keeps the
        hot-path charging unchanged while making per-replica byte flows
        auditable (and conservation checkable under pipelined fan-out).
        """
        ledger = self.replica(replica)
        ledger.ships += 1
        ledger.shipped_payload_bytes += payload_len

    def record_journaled_copy(
        self, payload_len: int, replica: int | None = None
    ) -> None:
        """One replica copy deferred to backlog (wire cost paid at replay)."""
        self.journaled_records += 1
        self.journaled_bytes += payload_len
        ledger = self.replica(replica)
        ledger.journaled_records += 1
        ledger.journaled_bytes += payload_len

    def record_retry(self, wire_len: int, replica: int | None = None) -> None:
        """One re-ship attempt of ``wire_len`` bytes by a resilient link."""
        self.retries += 1
        self.retry_bytes += wire_len
        ledger = self.replica(replica)
        ledger.retries += 1
        ledger.retry_bytes += wire_len

    def record_backlog_replay(
        self, records: int, wire_bytes: int, replica: int | None = None
    ) -> None:
        """A backlog drain shipped ``records`` records / ``wire_bytes``."""
        self.backlog_records_replayed += records
        self.backlog_replay_bytes += wire_bytes
        ledger = self.replica(replica)
        ledger.replayed_records += records
        ledger.replayed_bytes += wire_bytes

    def record_backlog_drop(
        self, payload_bytes: int, replica: int | None = None
    ) -> None:
        """Journaled payload bytes left the backlog unreplayable.

        Charged at eviction (overflow) or wholesale clear (pre-resync)
        time — *not* at replay time — which is what lets the conservation
        law balance when replicas complete out of order: a replica whose
        backlog overflowed and was digest-resynced closes its journaled
        ledger with dropped bytes instead of leaking them.
        """
        self.dropped_bytes += payload_bytes
        self.replica(replica).dropped_bytes += payload_bytes

    def record_resync(self, wire_bytes: int, replica: int | None = None) -> None:
        """A digest/full resync escalation moved ``wire_bytes`` on the wire."""
        self.resyncs += 1
        self.resync_bytes += wire_bytes
        ledger = self.replica(replica)
        ledger.resyncs += 1
        ledger.resync_bytes += wire_bytes

    def record_reconcile(self, replica: int | None = None) -> None:
        """One set-reconciliation run started (resumed runs count again)."""
        self.reconciles += 1
        self.replica(replica).reconciles += 1

    def record_reconcile_traffic(
        self,
        sketch_bytes: int = 0,
        digest_bytes: int = 0,
        diff_bytes: int = 0,
        replica: int | None = None,
    ) -> None:
        """Charge one reconcile run's wire bytes, itemized by kind.

        Called with the *delta* since the previous charge, so a session
        suspended by a transient fault still has everything it spent on
        the books — the conservation law must balance even for a heal
        that raised halfway through.
        """
        self.reconcile_sketch_bytes += sketch_bytes
        self.reconcile_digest_bytes += digest_bytes
        self.reconcile_diff_bytes += diff_bytes
        ledger = self.replica(replica)
        ledger.reconcile_sketch_bytes += sketch_bytes
        ledger.reconcile_digest_bytes += digest_bytes
        ledger.reconcile_diff_bytes += diff_bytes

    # -- erasure-tier accounting --------------------------------------------

    def record_erasure_write(
        self,
        data_len: int,
        payload_len: int,
        delivered: int,
        journaled: int,
        fragments: int,
        elided: int = 0,
        pdu_overhead: int = 48,
    ) -> None:
        """Record one striped write once its whole fragment fan-out resolved.

        ``payload_len`` is the *delivered* fragment wire bytes summed over
        the fan-out (journaled fragments are charged at replay, like any
        backlogged copy); ``fragments`` is how many fragments actually
        shipped or journaled after eliding ``elided`` all-zero fragment
        deltas.  The write counts as skipped when every fragment elided,
        journaled when nothing delivered but something reached a backlog,
        and failed when nothing delivered at all — exactly the mirror
        tier's outcome taxonomy, applied to the stripe group as a unit.
        """
        self.writes_total += 1
        self.data_bytes += data_len
        self.erasure_writes += 1
        self.fragments_elided += elided
        if fragments == 0:
            self.writes_skipped += 1
            return
        if delivered == 0:
            if journaled:
                self.writes_journaled += 1
            else:
                self.writes_failed += 1
            return
        self.writes_replicated += 1
        self.payload_bytes += payload_len
        self.pdu_bytes += payload_len + pdu_overhead * delivered
        self.pdus_shipped += delivered
        self.payload_histogram.record(payload_len)
        if self.keep_raw:
            self.per_write_payloads.append(payload_len)

    def record_fragment_ship(
        self, payload_len: int, replica: int | None = None
    ) -> None:
        """Attribute one acked fragment's wire bytes to its channel.

        The erasure tier's analogue of :meth:`record_replica_ship`:
        itemization only (globals are charged once per stripe group by
        :meth:`record_erasure_write`), making the per-fragment byte flow
        auditable as its own conservation law.
        """
        self.fragments_shipped += 1
        self.fragment_payload_bytes += payload_len
        ledger = self.replica(replica)
        ledger.fragment_ships += 1
        ledger.fragment_payload_bytes += payload_len

    def record_repair(
        self, read_bytes: int, written_bytes: int, replica: int | None = None
    ) -> None:
        """One survivor-driven fragment rebuild: its read and write bytes.

        ``written_bytes`` is what actually shipped to the replacement
        holder (``volume / k``) — the number the repair-bandwidth gate in
        ``BENCH_erasure.json`` compares against a full re-mirror.
        """
        self.repairs += 1
        self.repair_read_bytes += read_bytes
        self.repair_write_bytes += written_bytes
        ledger = self.replica(replica)
        ledger.repair_read_bytes += read_bytes
        ledger.repair_write_bytes += written_bytes

    def verify_conservation(
        self,
        pending_by_replica: dict[int, int] | None = None,
        expect_full_attribution: bool = False,
    ) -> dict[int, int]:
        """Assert the per-replica ledgers balance; return outstanding bytes.

        Checks, raising :class:`ConservationError` on the first violation:

        1. every itemized counter sums to its global twin (journaled,
           replayed, dropped, retry, resync bytes and record counts);
        2. per replica, ``journaled == replayed + dropped + outstanding``
           with ``outstanding >= 0``;
        3. when ``pending_by_replica`` is supplied (live backlog byte
           counts, e.g. from the engine's guards), each replica's
           outstanding bytes equal its live backlog exactly;
        4. with ``expect_full_attribution``, no recovery byte may sit in
           the unattributed ledger.

        Returns ``{replica: outstanding_bytes}`` for every known replica.
        """

        def _sum(attr: str) -> int:
            return sum(getattr(r, attr) for r in self.per_replica.values())

        pairs = [
            ("journaled_bytes", self.journaled_bytes, _sum("journaled_bytes")),
            (
                "journaled_records",
                self.journaled_records,
                _sum("journaled_records"),
            ),
            (
                "backlog_replay_bytes",
                self.backlog_replay_bytes,
                _sum("replayed_bytes"),
            ),
            (
                "backlog_records_replayed",
                self.backlog_records_replayed,
                _sum("replayed_records"),
            ),
            ("dropped_bytes", self.dropped_bytes, _sum("dropped_bytes")),
            ("retry_bytes", self.retry_bytes, _sum("retry_bytes")),
            ("resync_bytes", self.resync_bytes, _sum("resync_bytes")),
            ("resyncs", self.resyncs, _sum("resyncs")),
            ("reconciles", self.reconciles, _sum("reconciles")),
            (
                "reconcile_sketch_bytes",
                self.reconcile_sketch_bytes,
                _sum("reconcile_sketch_bytes"),
            ),
            (
                "reconcile_digest_bytes",
                self.reconcile_digest_bytes,
                _sum("reconcile_digest_bytes"),
            ),
            (
                "reconcile_diff_bytes",
                self.reconcile_diff_bytes,
                _sum("reconcile_diff_bytes"),
            ),
            (
                "fragments_shipped",
                self.fragments_shipped,
                _sum("fragment_ships"),
            ),
            (
                "fragment_payload_bytes",
                self.fragment_payload_bytes,
                _sum("fragment_payload_bytes"),
            ),
            (
                "repair_read_bytes",
                self.repair_read_bytes,
                _sum("repair_read_bytes"),
            ),
            (
                "repair_write_bytes",
                self.repair_write_bytes,
                _sum("repair_write_bytes"),
            ),
        ]
        for name, total, itemized in pairs:
            if total != itemized:
                raise ConservationError(
                    f"{name} itemization does not balance: "
                    f"global {total} != per-replica sum {itemized}"
                )
        if expect_full_attribution:
            stray = self.per_replica.get(UNATTRIBUTED_REPLICA)
            if stray is not None and (
                stray.journaled_bytes
                or stray.replayed_bytes
                or stray.retry_bytes
                or stray.resync_bytes
                or stray.reconcile_bytes
                or stray.dropped_bytes
                or stray.fragment_payload_bytes
                or stray.repair_read_bytes
                or stray.repair_write_bytes
            ):
                raise ConservationError(
                    "recovery bytes recorded without replica attribution: "
                    f"{stray.snapshot()}"
                )
        outstanding: dict[int, int] = {}
        for index, ledger in self.per_replica.items():
            balance = ledger.outstanding_bytes()
            if balance < 0:
                raise ConservationError(
                    f"replica {index} replayed/dropped more than it "
                    f"journaled (outstanding {balance})"
                )
            outstanding[index] = balance
            if pending_by_replica is not None and index != UNATTRIBUTED_REPLICA:
                live = pending_by_replica.get(index, 0)
                if balance != live:
                    raise ConservationError(
                        f"replica {index} outstanding bytes {balance} != "
                        f"live backlog {live}"
                    )
        return outstanding

    @property
    def reconcile_bytes(self) -> int:
        """Total reconcile-tier wire bytes (sketches + digests + diffs)."""
        return (
            self.reconcile_sketch_bytes
            + self.reconcile_digest_bytes
            + self.reconcile_diff_bytes
        )

    @property
    def recovery_bytes(self) -> int:
        """Total wire bytes spent recovering from faults (all four paths)."""
        return (
            self.retry_bytes
            + self.backlog_replay_bytes
            + self.resync_bytes
            + self.reconcile_bytes
        )

    @property
    def ethernet_bytes(self) -> float:
        """Total wire bytes under the paper's Ethernet packet model.

        The continuous model (Sec. 3.3) is linear in the payload, so the
        per-write sum equals the model applied to the total — no raw
        per-write sample needed.
        """
        return ethernet_wire_bytes(self.payload_bytes)

    @property
    def mean_payload(self) -> float:
        """Mean replicated payload per non-skipped write (0.0 if none)."""
        if not self.writes_replicated:
            return 0.0
        return self.payload_bytes / self.writes_replicated

    @property
    def reduction_vs_data(self) -> float:
        """Data bytes / payload bytes — the paper's "traffic savings" factor."""
        if not self.payload_bytes:
            return math.inf if self.data_bytes else 1.0
        return self.data_bytes / self.payload_bytes

    def snapshot(self) -> dict:
        """JSON-safe view of every counter plus the payload distribution.

        This is what the engine registers as its telemetry *source*
        (:meth:`repro.obs.telemetry.Telemetry.register_source`), so all
        replication and fault-recovery accounting surfaces through one
        ``Telemetry.snapshot()`` call.
        """
        return {
            "writes_total": self.writes_total,
            "writes_replicated": self.writes_replicated,
            "writes_skipped": self.writes_skipped,
            "writes_failed": self.writes_failed,
            "writes_journaled": self.writes_journaled,
            "payload_bytes": self.payload_bytes,
            "pdu_bytes": self.pdu_bytes,
            "data_bytes": self.data_bytes,
            "pdus_shipped": self.pdus_shipped,
            "ethernet_bytes": self.ethernet_bytes,
            "mean_payload": self.mean_payload,
            "reduction_vs_data": (
                -1.0
                if self.reduction_vs_data == math.inf
                else self.reduction_vs_data
            ),
            "per_write_payload_bytes": self.payload_histogram.snapshot(),
            "batching": {
                "batches_shipped": self.batches_shipped,
                "batched_records": self.batched_records,
                "batched_payload_bytes": self.batched_payload_bytes,
                "batched_pdu_bytes": self.batched_pdu_bytes,
                "writes_merged": self.writes_merged,
                "records_elided": self.records_elided,
            },
            "resilience": {
                "journaled_records": self.journaled_records,
                "journaled_bytes": self.journaled_bytes,
                "dropped_bytes": self.dropped_bytes,
                "retries": self.retries,
                "retry_bytes": self.retry_bytes,
                "backlog_records_replayed": self.backlog_records_replayed,
                "backlog_replay_bytes": self.backlog_replay_bytes,
                "resyncs": self.resyncs,
                "resync_bytes": self.resync_bytes,
                "reconciles": self.reconciles,
                "reconcile_sketch_bytes": self.reconcile_sketch_bytes,
                "reconcile_digest_bytes": self.reconcile_digest_bytes,
                "reconcile_diff_bytes": self.reconcile_diff_bytes,
                "reconcile_bytes": self.reconcile_bytes,
                "recovery_bytes": self.recovery_bytes,
            },
            "erasure": {
                "erasure_writes": self.erasure_writes,
                "fragments_shipped": self.fragments_shipped,
                "fragment_payload_bytes": self.fragment_payload_bytes,
                "fragments_elided": self.fragments_elided,
                "repairs": self.repairs,
                "repair_read_bytes": self.repair_read_bytes,
                "repair_write_bytes": self.repair_write_bytes,
            },
            "per_replica": {
                str(index): ledger.snapshot()
                for index, ledger in sorted(self.per_replica.items())
            },
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.writes_total = 0
        self.writes_replicated = 0
        self.writes_skipped = 0
        self.payload_bytes = 0
        self.pdu_bytes = 0
        self.data_bytes = 0
        self.per_write_payloads.clear()
        self.payload_histogram.reset()
        self.writes_failed = 0
        self.writes_journaled = 0
        self.journaled_records = 0
        self.journaled_bytes = 0
        self.retries = 0
        self.retry_bytes = 0
        self.backlog_records_replayed = 0
        self.backlog_replay_bytes = 0
        self.resyncs = 0
        self.resync_bytes = 0
        self.reconciles = 0
        self.reconcile_sketch_bytes = 0
        self.reconcile_digest_bytes = 0
        self.reconcile_diff_bytes = 0
        self.pdus_shipped = 0
        self.batches_shipped = 0
        self.batched_records = 0
        self.batched_payload_bytes = 0
        self.batched_pdu_bytes = 0
        self.writes_merged = 0
        self.records_elided = 0
        self.erasure_writes = 0
        self.fragments_shipped = 0
        self.fragment_payload_bytes = 0
        self.fragments_elided = 0
        self.repairs = 0
        self.repair_read_bytes = 0
        self.repair_write_bytes = 0
        self.per_replica.clear()
        self.dropped_bytes = 0

