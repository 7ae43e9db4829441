"""Traffic accounting.

Records, for every replicated write, the bytes that actually went on the
wire.  Three views are kept because the paper reports different ones in
different places:

* **payload bytes** — the encoded frame+record (what Figs. 4–7 plot);
* **pdu bytes** — payload plus the 48-byte iSCSI basic header segment;
* **ethernet bytes** — payload inflated by the paper's packet model
  (Sec. 3.3): 1.5 KB Ethernet payloads, 0.112 KB of Ethernet+IP+TCP
  headers per packet, i.e. ``Sd + Sd/1.5 * 0.112`` with Sd in KB.
"""

from __future__ import annotations

import math
from enum import IntEnum
from operator import itemgetter
from typing import Callable

from repro.common.errors import ReplicationError
from repro.iscsi.pdu import BHS_SIZE
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


class ConservationError(ReplicationError):
    """A replica's journal ledger does not balance.

    Raised by :meth:`TrafficAccountant.verify_conservation` when a
    replica's journaled bytes cannot be accounted for as replayed +
    dropped + still-pending, or the still-pending bytes disagree with its
    live backlog.  This is always a bookkeeping bug, never a network
    condition.
    """


class Flow(IntEnum):
    """One kind of per-replica traffic, posted with :meth:`TrafficAccountant.post`."""

    SHIP = 0  # a submission (record or batch) the replica acked
    FRAGMENT = 1  # an erasure fragment the replica acked
    JOURNAL = 2  # a copy deferred to the replica's backlog
    REPLAY = 3  # backlog bytes drained to the replica
    DROP = 4  # journaled bytes evicted or cleared, covered by a resync
    RETRY = 5  # a re-ship attempt by a resilient link
    RESYNC = 6  # a digest resync sweep
    RECONCILE = 7  # a set-reconciliation run started (no bytes)
    SKETCH = 8  # reconcile parity-bitmap sketch exchange
    DIGEST = 9  # reconcile candidate/group/piece digests
    DIFF = 10  # reconcile divergent-block payloads
    REPAIR_READ = 11  # survivor bytes read to rebuild this fragment
    REPAIR_WRITE = 12  # rebuilt bytes written to this holder


#: a replica row holds each flow's bytes at ``[flow]`` and its count at
#: ``[_COUNTS + flow]``
_COUNTS = len(Flow)


def _bytes(flow: Flow) -> itemgetter:
    return itemgetter(flow)


def _count(flow: Flow) -> itemgetter:
    return itemgetter(_COUNTS + flow)


def _outstanding(row: list[int]) -> int:
    """Journaled bytes not yet replayed or dropped: the live backlog."""
    return row[Flow.JOURNAL] - row[Flow.REPLAY] - row[Flow.DROP]


def _reconcile(row: list[int]) -> int:
    return row[Flow.SKETCH] + row[Flow.DIGEST] + row[Flow.DIFF]


#: one replica's ``snapshot()["per_replica"]`` entry, in output order
_ROW_SNAPSHOT = (
    ("shipped_payload_bytes", _bytes(Flow.SHIP)),
    ("ships", _count(Flow.SHIP)),
    ("journaled_records", _count(Flow.JOURNAL)),
    ("journaled_bytes", _bytes(Flow.JOURNAL)),
    ("replayed_records", _count(Flow.REPLAY)),
    ("replayed_bytes", _bytes(Flow.REPLAY)),
    ("dropped_bytes", _bytes(Flow.DROP)),
    ("outstanding_bytes", _outstanding),
    ("retries", _count(Flow.RETRY)),
    ("retry_bytes", _bytes(Flow.RETRY)),
    ("resyncs", _count(Flow.RESYNC)),
    ("resync_bytes", _bytes(Flow.RESYNC)),
    ("reconciles", _count(Flow.RECONCILE)),
    ("reconcile_sketch_bytes", _bytes(Flow.SKETCH)),
    ("reconcile_digest_bytes", _bytes(Flow.DIGEST)),
    ("reconcile_diff_bytes", _bytes(Flow.DIFF)),
    ("reconcile_bytes", _reconcile),
    ("fragment_ships", _count(Flow.FRAGMENT)),
    ("fragment_payload_bytes", _bytes(Flow.FRAGMENT)),
    ("repair_read_bytes", _bytes(Flow.REPAIR_READ)),
    ("repair_write_bytes", _bytes(Flow.REPAIR_WRITE)),
)


def _total(column: Callable[[list[int]], int]) -> property:
    """A read-only sum of one row column over every replica."""
    return property(lambda self: sum(map(column, self.rows.values())))


class TrafficAccountant:
    """Accumulates per-primary replication traffic.

    Two calls book everything: :meth:`charge_write` for each local
    write, batch window or stripe group with all of its copies, and
    :meth:`post` for each per-replica flow (:class:`Flow`).  A flow is
    stored once, in its replica's row; the engine-wide recovery totals
    (``retry_bytes``, ``journaled_bytes``, …) are sums over the rows.

    The per-write payload *distribution* is kept in a bounded log2-bucket
    :class:`~repro.obs.registry.Histogram` (``payload_histogram``), so a
    long-running engine's memory stays O(buckets) no matter how many
    writes flow through.  The paper-figure benchmarks that need the exact
    per-write sample (tail-latency simulation, empirical-distribution
    queueing) opt back into the raw list with ``keep_raw=True``.
    """

    def __init__(self, keep_raw: bool = False) -> None:
        #: keep the unbounded raw sample (paper-figure benchmarks only)
        self.keep_raw = keep_raw
        #: exact per-write payload sample; only populated when ``keep_raw``
        self.per_write_payloads: list[int] = []
        #: bounded distribution of per-write payload bytes (always maintained)
        self.payload_histogram = Histogram("per_write_payload_bytes")
        #: replica index -> its flow row (see :class:`Flow`)
        self.rows: dict[int, list[int]] = {}
        self.reset()

    # engine-wide sums of the per-replica rows
    journaled_records = _total(_count(Flow.JOURNAL))
    journaled_bytes = _total(_bytes(Flow.JOURNAL))
    dropped_bytes = _total(_bytes(Flow.DROP))
    retries = _total(_count(Flow.RETRY))
    retry_bytes = _total(_bytes(Flow.RETRY))
    backlog_records_replayed = _total(_count(Flow.REPLAY))
    backlog_replay_bytes = _total(_bytes(Flow.REPLAY))
    resyncs = _total(_count(Flow.RESYNC))
    resync_bytes = _total(_bytes(Flow.RESYNC))
    reconciles = _total(_count(Flow.RECONCILE))
    reconcile_sketch_bytes = _total(_bytes(Flow.SKETCH))
    reconcile_digest_bytes = _total(_bytes(Flow.DIGEST))
    reconcile_diff_bytes = _total(_bytes(Flow.DIFF))
    reconcile_bytes = _total(_reconcile)
    fragments_shipped = _total(_count(Flow.FRAGMENT))
    fragment_payload_bytes = _total(_bytes(Flow.FRAGMENT))
    repairs = _total(_count(Flow.REPAIR_WRITE))
    repair_read_bytes = _total(_bytes(Flow.REPAIR_READ))
    repair_write_bytes = _total(_bytes(Flow.REPAIR_WRITE))

    def charge_write(
        self,
        data_len: int,
        wire: int | None,
        copies: int = 1,
        journaled: bool = False,
        *,
        writes: int = 1,
        records: int | None = None,
        merged: int = 0,
        elided: int = 0,
        striped: bool = False,
    ) -> None:
        """Book ``writes`` local writes of ``data_len`` bytes and their copies.

        ``wire`` is the payload bytes the ``copies`` delivered PDUs put on
        the wire in total, or ``None`` when nothing needed shipping (a
        zero delta, a window merged away, every fragment elided): the
        writes count as skipped.  With ``copies == 0`` they count as
        journaled when ``journaled`` (some backlog holds them; their wire
        cost is charged at replay), failed otherwise.

        Three shapes share the outcome taxonomy:

        * a record: every delivered copy is one per-write payload sample;
        * a batch window (``records`` post-merge records framed, after
          ``merged`` same-LBA writes and ``elided`` no-op records were
          dropped): its bytes also accrue into the ``batched_*``
          counters and feed no per-write sample — once writes merge
          there is no per-write wire cost;
        * a stripe group (``striped``, after ``elided`` all-zero
          fragment deltas): its delivered fragments form one sample.
        """
        self.writes_total += writes
        self.data_bytes += data_len
        if striped:
            self.erasure_writes += 1
            self.fragments_elided += elided
        elif records is not None:
            self.writes_merged += merged
            self.records_elided += elided
        if wire is None:
            self.writes_skipped += writes
            return
        if not copies:
            if journaled:
                self.writes_journaled += writes
            else:
                self.writes_failed += writes
            return
        self.writes_replicated += writes
        self.payload_bytes += wire
        self.pdu_bytes += wire + BHS_SIZE * copies
        self.pdus_shipped += copies
        if records is not None:
            self.batches_shipped += copies
            self.batched_records += records
            self.batched_payload_bytes += wire
            self.batched_pdu_bytes += wire + BHS_SIZE * copies
            return
        samples = 1 if striped else copies
        sample = wire // samples
        for _ in range(samples):
            self.payload_histogram.record(sample)
        if self.keep_raw:
            self.per_write_payloads.extend([sample] * samples)

    def post(self, replica: int, flow: Flow, nbytes: int, count: int = 1) -> None:
        """Book ``count`` events of ``flow`` moving ``nbytes`` for ``replica``."""
        row = self.rows.get(replica)
        if row is None:
            row = self.rows[replica] = [0] * (2 * _COUNTS)
        row[flow] += nbytes
        row[_COUNTS + flow] += count

    def verify_conservation(
        self, pending_by_replica: dict[int, int] | None = None
    ) -> dict[int, int]:
        """Check every replica's journal ledger; return its outstanding bytes.

        Per replica, raising :class:`ConservationError` on the first
        violation:

        1. ``journaled == replayed + dropped + outstanding`` with
           ``outstanding >= 0``;
        2. when ``pending_by_replica`` is supplied (live backlog byte
           counts, e.g. from the engine's guards), ``outstanding`` equals
           the replica's live backlog exactly.

        Returns ``{replica: outstanding_bytes}`` for every replica with a
        row.
        """
        outstanding: dict[int, int] = {}
        for index, row in sorted(self.rows.items()):
            balance = _outstanding(row)
            if balance < 0:
                raise ConservationError(
                    f"replica {index} replayed/dropped more than it "
                    f"journaled (outstanding {balance})"
                )
            outstanding[index] = balance
        if pending_by_replica is not None:
            for index in sorted(outstanding.keys() | pending_by_replica.keys()):
                balance = outstanding.get(index, 0)
                live = pending_by_replica.get(index, 0)
                if balance != live:
                    raise ConservationError(
                        f"replica {index} outstanding bytes {balance} != "
                        f"live backlog {live}"
                    )
        return outstanding

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
        out = {name: getattr(self, name) for name in _SNAPSHOT[None]}
        if out["reduction_vs_data"] == math.inf:
            out["reduction_vs_data"] = -1.0
        out["per_write_payload_bytes"] = self.payload_histogram.snapshot()
        for section in ("batching", "resilience", "erasure"):
            out[section] = {name: getattr(self, name) for name in _SNAPSHOT[section]}
        out["per_replica"] = {
            str(index): {name: column(row) for name, column in _ROW_SNAPSHOT}
            for index, row in sorted(self.rows.items())
        }
        return out

    def reset(self) -> None:
        """Zero every counter."""
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.per_write_payloads.clear()
        self.payload_histogram.reset()
        self.rows.clear()


#: ``snapshot()`` layout: section (``None`` = top level) -> names, in order
_SNAPSHOT: dict[str | None, tuple[str, ...]] = {
    None: (
        "writes_total",
        "writes_replicated",
        "writes_skipped",
        "writes_failed",
        "writes_journaled",
        "payload_bytes",
        "pdu_bytes",
        "data_bytes",
        "pdus_shipped",
        "ethernet_bytes",
        "mean_payload",
        "reduction_vs_data",
    ),
    "batching": (
        "batches_shipped",
        "batched_records",
        "batched_payload_bytes",
        "batched_pdu_bytes",
        "writes_merged",
        "records_elided",
    ),
    "resilience": (
        "journaled_records",
        "journaled_bytes",
        "dropped_bytes",
        "retries",
        "retry_bytes",
        "backlog_records_replayed",
        "backlog_replay_bytes",
        "resyncs",
        "resync_bytes",
        "reconciles",
        "reconcile_sketch_bytes",
        "reconcile_digest_bytes",
        "reconcile_diff_bytes",
        "reconcile_bytes",
        "recovery_bytes",
    ),
    "erasure": (
        "erasure_writes",
        "fragments_shipped",
        "fragment_payload_bytes",
        "fragments_elided",
        "repairs",
        "repair_read_bytes",
        "repair_write_bytes",
    ),
}

#: the counters :meth:`TrafficAccountant.charge_write` books: every
#: snapshot name that is not a derived property
_COUNTERS = tuple(
    name
    for names in _SNAPSHOT.values()
    for name in names
    if not isinstance(getattr(TrafficAccountant, name, None), property)
)
