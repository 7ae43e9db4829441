"""The primary-side PRINS engine.

"Upon receiving a write request, PRINS-engine performs normal write into
the local block storage and at the same time performs parity computation …
to obtain P'.  The results … are then sent together with meta-data such as
LBA to replica nodes" (Sec. 2).

:class:`PrimaryEngine` is itself a :class:`~repro.block.device.BlockDevice`,
so a file system or mini-DBMS mounts it exactly like a disk — replication
is transparent to everything above, which is the paper's architectural
point ("our implementation is file system and application independent").

The engine has one sender, its
:class:`~repro.engine.scheduler.FanoutScheduler` (sequential fan-out is
its ``window=1``): every record, batch and erasure fragment leaves
through the scheduler — its ``send`` for lock-step sequential fan-out
(window 1, nothing to meter), its ``submit`` otherwise — and the
scheduler charges the accountant once per submission.  What a link
failure does is one of two completion policies of that sender:

* **strict** (default, ``resilience=None``) — every target link is
  tried, then the write fails with a typed
  :class:`~repro.common.errors.PartialReplicationError` carrying exactly
  which links succeeded; the local write and the successful shipments
  are charged to the accountant before raising, so partial progress is
  never invisible;
* **fault-tolerant** (``resilience=ResilienceConfig(...)``) — each link is
  guarded by retry + circuit breaker + parity-delta backlog
  (:mod:`repro.engine.resilience`); transient link faults degrade into
  backlog instead of raising, and :meth:`heal_link` catches replicas up by
  in-order replay or digest resync.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Sequence

from repro.block.device import BlockDevice
from repro.common.buffers import is_zero
from repro.common.errors import (
    BlockSizeError,
    ConfigurationError,
    ReplicationError,
    StaleReplicaError,
    SyncError,
    run_all,
)
from repro.engine.accounting import Flow, TrafficAccountant
from repro.engine.batch import BatchConfig, FlushResult, ShipBatcher
from repro.engine.links import ReplicaLink
from repro.engine.messages import RECORD_OVERHEAD, ReplicationRecord
from repro.engine.resilience import (
    GuardedLink,
    LinkHealth,
    ResilienceConfig,
    ResyncOutcome,
)
from repro.engine.router import ReadRouter
from repro.engine.scheduler import (
    FanoutScheduler,
    SchedulerConfig,
    fanout_config,
)
from repro.engine.strategy import ReplicationStrategy
from repro.engine.stripe import (
    FragmentView,
    ParityCrcTracker,
    RepairReport,
    StripeCodec,
    StripeConfig,
    repair_from_survivors,
)
from repro.engine.work import ShipWork
from repro.obs.telemetry import get_telemetry
from repro.raid.parity_base import ParityArrayBase

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workers import CodecWorkerPool


class _StripeCharge:
    """Deferred accounting for one striped write's whole fragment fan-out.

    Each fragment dispatches as an independent single-channel submission
    whose ``charge`` callback resolves here; when all non-elided
    fragments have resolved (at send, or at ack time when acks are
    metered or threaded) the stripe group is charged to the accountant
    *once* — the erasure analogue of the mirror tier's one
    ``charge(delivered, journaled)`` per write.
    """

    def __init__(
        self,
        accountant: TrafficAccountant,
        data_len: int,
        expected: int,
        elided: int,
    ) -> None:
        self._accountant = accountant
        self._data_len = data_len
        self._expected = expected
        self._elided = elided
        self._resolved = 0
        self._delivered = 0
        self._journaled = 0
        self._payload = 0
        self._done = False

    def charge_cb(self, fragment: int, wire_len: int):
        """The ``charge(delivered, journaled)`` callback for ``fragment``."""

        def charge(delivered: int, journaled: int) -> None:
            """Itemize one delivered fragment and resolve it in the group."""
            if delivered:
                self._delivered += 1
                self._payload += wire_len
                self._accountant.post(fragment, Flow.FRAGMENT, wire_len)
            elif journaled:
                # journaled bytes are posted by the guard itself
                self._journaled += 1
            self._resolve()

        return charge

    def _resolve(self) -> None:
        self._resolved += 1
        if self._resolved == self._expected:
            self._finish()

    def abort(self) -> None:
        """Force-resolve fragments that never dispatched (strict failure).

        A strict-mode link fault raises mid-stripe; the local write and
        every delivered fragment are already real, so the group must
        still reach the books — undispatched fragments count as neither
        delivered nor journaled.
        """
        if not self._done and self._resolved < self._expected:
            self._resolved = self._expected
            self._finish()

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        self._accountant.charge_write(
            self._data_len,
            self._payload,
            self._delivered,
            bool(self._journaled),
            elided=self._elided,
            striped=True,
        )


class PrimaryEngine(BlockDevice):
    """Block device that replicates every write through a strategy.

    ``telemetry`` (default: the process-wide handle, normally the no-op
    null telemetry) instruments the full write path with nested spans —
    ``write`` → ``write.local`` / ``write.delta`` / ``write.encode`` /
    ``write.send`` — and registers the engine's accountant and per-link
    health as a snapshot source named ``engine.<strategy>`` (or
    ``telemetry_name``), so one ``Telemetry.snapshot()`` covers wire
    traffic, recovery costs, and stage timings together.
    """

    def __init__(
        self,
        device: BlockDevice,
        strategy: ReplicationStrategy,
        links: list[ReplicaLink] | None = None,
        verify_acks: bool = True,
        resilience: ResilienceConfig | None = None,
        accountant: TrafficAccountant | None = None,
        telemetry=None,
        telemetry_name: str | None = None,
        batch: BatchConfig | None = None,
        fanout: str = "sequential",
        scheduler: "SchedulerConfig | None" = None,
        stripe: StripeConfig | None = None,
        read_policy: str = "primary",
        codec_pool: "CodecWorkerPool | None" = None,
    ) -> None:
        super().__init__(device.block_size, device.num_blocks)
        self._device = device
        self._strategy = strategy
        # Sequential fan-out is the scheduler at window 1: one sender.
        sched_config = fanout_config(fanout, scheduler)
        # Process codec workers: an explicit pool is borrowed (the caller
        # owns its lifecycle); a scheduler asking for workers="process"
        # with no pool supplied gets one built here and closed with the
        # engine.  Either way the pool binds to the strategy so windowed
        # encodes scatter across worker processes.
        self._codec_pool = codec_pool
        self._owns_pool = False
        if codec_pool is None and sched_config.workers == "process":
            from repro.engine.workers import CodecWorkerPool

            self._codec_pool = CodecWorkerPool(
                worker_count=sched_config.worker_count,
                ring_slots=sched_config.ring_slots,
                block_size=device.block_size,
            )
            self._owns_pool = True
        if self._codec_pool is not None:
            strategy.bind_codec_pool(self._codec_pool)
        self._seq = 0
        if stripe is not None and batch is not None:
            raise ConfigurationError(
                "erasure striping and batching cannot be combined: "
                "fragments ship per-write, one per stripe position"
            )
        self._batcher = ShipBatcher(batch, strategy) if batch is not None else None
        # Erasure tier: split every write into k-of-n coded fragments, one
        # per link.  The parity-CRC tracker is only needed when the
        # strategy ships deltas (the primary holds no parity copy to CRC).
        self._stripe_codec = (
            StripeCodec(stripe, device.block_size) if stripe is not None else None
        )
        self._parity_crcs = (
            ParityCrcTracker(self._stripe_codec, device)
            if self._stripe_codec is not None and strategy.needs_old_data
            else None
        )
        self.accountant = accountant if accountant is not None else TrafficAccountant()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self._strategy.bind_telemetry(self.telemetry)
        if self._codec_pool is not None:
            self._codec_pool.bind_telemetry(self.telemetry)
        if self.telemetry.enabled:
            self.telemetry.register_source(
                telemetry_name or f"engine.{strategy.name}",
                self.telemetry_snapshot,
            )
        self._resilience = resilience
        self._links: list[ReplicaLink] = []
        self._guards: list[GuardedLink] | None = (
            [] if resilience is not None else None
        )
        self._scheduler = FanoutScheduler(
            sched_config,
            verify_acks=verify_acks,
            telemetry=self.telemetry,
            accountant=self.accountant,
        )
        # sequential with nothing to meter: nothing is ever in flight
        self._lock_step = (
            sched_config.window == 1 and self._scheduler.acks_at_send
        )
        self._router: ReadRouter | None = None
        for link in links or []:
            self.add_link(link)
        # RAID parity arrays hand back P' for free on each write.
        self._raid = device if isinstance(device, ParityArrayBase) else None
        # Conflict-aware read routing: "primary" (default) keeps the
        # historical read path bit-for-bit; any other policy installs a
        # ReadRouter that serves conflict-free reads from replicas.
        if read_policy != "primary":
            self._router = ReadRouter(self, read_policy)

    @property
    def device(self) -> BlockDevice:
        """The primary's local storage."""
        return self._device

    @property
    def strategy(self) -> ReplicationStrategy:
        """The replication strategy in force."""
        return self._strategy

    @property
    def links(self) -> list[ReplicaLink]:
        """The replica channels (one per replica node)."""
        return list(self._links)

    @property
    def resilience(self) -> ResilienceConfig | None:
        """The fault-tolerance policy, or ``None`` for strict fan-out."""
        return self._resilience

    @property
    def batching(self) -> BatchConfig | None:
        """The batch window policy, or ``None`` for per-write shipping."""
        return self._batcher.config if self._batcher is not None else None

    @property
    def fanout(self) -> str:
        """The fan-out discipline: ``"sequential"`` (window 1) or ``"pipelined"``."""
        return self._scheduler.config.fanout

    @property
    def scheduler(self) -> FanoutScheduler:
        """The fan-out scheduler every replication ships through."""
        return self._scheduler

    @property
    def stripe(self) -> StripeConfig | None:
        """The erasure-tier code shape, or ``None`` for mirror fan-out."""
        codec = self._stripe_codec
        return codec.config if codec is not None else None

    @property
    def stripe_codec(self) -> StripeCodec | None:
        """The erasure codec (``None`` for mirror fan-out)."""
        return self._stripe_codec

    @property
    def pending_batch_writes(self) -> int:
        """Records buffered but not yet flushed (0 when unbatched)."""
        return len(self._batcher) if self._batcher is not None else 0

    @property
    def router(self) -> ReadRouter | None:
        """The conflict-aware read router (``None`` under primary serving)."""
        return self._router

    @property
    def codec_pool(self) -> "CodecWorkerPool | None":
        """The process codec worker pool (``None`` for in-process encode)."""
        return self._codec_pool

    @property
    def read_policy(self) -> str:
        """The read-routing policy in force."""
        return self._router.policy if self._router is not None else "primary"

    def clean_replicas(self, lba: int, indices: list[int]) -> list[int]:
        """Those of ``indices`` with no unshipped/unacked replication of ``lba``.

        The read router's per-read question, answered under one
        acquisition of the scheduler's lock.  Covers both conflict
        sources: a payload still buffered in the batch window (shipped to
        *no* replica yet) and a scheduler submission a channel has not
        yet acked.  When acks resolve at send nothing is ever in flight
        between calls, so only the batch window can conflict.
        """
        if self._batcher is not None and self._batcher.is_pending(lba):
            return []
        return self._scheduler.clean_channels(lba, indices)

    def add_link(self, link: ReplicaLink) -> None:
        """Attach another replica channel, before the first replicated write.

        Raises :class:`~repro.common.errors.ConfigurationError` (from
        :meth:`~repro.engine.scheduler.FanoutScheduler.add_channel`) once
        a write has shipped: the new replica would miss every record
        already sent, sequential fan-out included.
        """
        link.bind_telemetry(self.telemetry)
        guard: GuardedLink | None = None
        if self._guards is not None:
            assert self._resilience is not None
            guard = GuardedLink(
                link,
                self._resilience,
                self.accountant,
                index=len(self._guards),
                telemetry=self.telemetry,
            )
            self._scheduler.add_channel(guard=guard)
            self._guards.append(guard)
        else:
            self._scheduler.add_channel(link=link)
        self._links.append(link)
        if self._router is not None:
            self._router.add_link(link, guard)

    # -- health & recovery (fault-tolerant engines) ---------------------------

    def _guard(self, index: int) -> GuardedLink:
        if self._guards is None:
            raise ConfigurationError(
                "engine was built without a ResilienceConfig; "
                "health tracking is not available"
            )
        return self._guards[index]

    @property
    def guards(self) -> tuple[GuardedLink, ...]:
        """The per-link guards (empty for strict engines)."""
        return tuple(self._guards or ())

    def link_health(self) -> list[LinkHealth]:
        """Health of every link (strict engines report all HEALTHY)."""
        if self._guards is None:
            return [LinkHealth.HEALTHY] * len(self._links)
        return [guard.health for guard in self._guards]

    def fresh_replicas(self) -> list[int]:
        """Indices of the replicas that hold every record shipped to them.

        The one "fresh holder" predicate (:attr:`GuardedLink.fresh`)
        shared by routed reads, striped reads, survivor repair and
        cluster failover reads.  Strict engines report every replica:
        a strict fan-out raises instead of leaving one behind.
        """
        if self._guards is None:
            return list(range(len(self._links)))
        return [guard.index for guard in self._guards if guard.fresh]

    def backlog_depth(self, index: int) -> int:
        """Records backlogged for link ``index``."""
        return self._guard(index).backlog_depth

    def fail_link(self, index: int) -> None:
        """Mark link ``index`` down: journal its traffic until healed."""
        self._guard(index).fail()

    def heal_link(self, index: int) -> ResyncOutcome:
        """Reconnect link ``index`` and catch its replica up.

        Hands the guard this engine's strategy-aware record factory so
        the reconcile tier can ship divergent blocks as ordinary
        replication records (fresh sequence numbers, same idempotent
        replica apply path as foreground writes).

        On the erasure tier the sync source is a
        :class:`~repro.engine.stripe.FragmentView` of the primary volume
        at this link's stripe position, so journal replay, PBS reconcile,
        and the digest sweep all operate on fragment-sized blocks — the
        whole heal ladder applies per-fragment with no stripe-specific
        recovery code.
        """
        source: BlockDevice = self._device
        if self._stripe_codec is not None:
            source = FragmentView(self._device, self._stripe_codec, index)
        return self._guard(index).heal(
            source, record_builder=self._resync_record
        )

    def repair_fragment(
        self, index: int, replacement: BlockDevice | None = None
    ) -> RepairReport:
        """Rebuild fragment holder ``index`` from ``k`` survivors.

        The regenerating-style repair path: instead of re-mirroring the
        volume, pull fragment-sized reads from ``k`` fresh holders
        (:meth:`fresh_replicas`) and write only the rebuilt fragment
        (``volume / k`` bytes) to ``replacement`` (default: the failed
        holder's own sync device, assumed replaced or zeroed).
        Read/write bytes are charged to the accountant's repair
        counters, attributed to fragment ``index``.  Raises
        :class:`~repro.common.errors.StaleReplicaError`, writing
        nothing, when fewer than ``k`` survivors are fresh.
        """
        codec = self._stripe_codec
        if codec is None:
            raise ConfigurationError(
                "repair_fragment requires an erasure-striped engine"
            )
        holders: list[BlockDevice] = []
        for link_index, link in enumerate(self._links):
            dev = link.sync_device()
            if dev is None and link_index != index:
                raise SyncError(
                    f"link {link_index} exposes no sync device; cannot "
                    "read survivor fragments"
                )
            holders.append(dev)  # type: ignore[arg-type]
        return repair_from_survivors(
            codec,
            holders,
            index,
            replacement=replacement,
            accountant=self.accountant,
            fresh=self.fresh_replicas(),
        )

    def read_striped(self, lba: int, exclude: Sequence[int] = ()) -> bytes:
        """Reassemble block ``lba`` from any ``k`` fresh fragment holders.

        Skips holders listed in ``exclude`` and holders that are not
        fresh (:meth:`fresh_replicas`): a DEGRADED holder that lost a
        delta would tear the stripe as surely as a DOWN one.  A holder
        whose read raises is skipped too.  Raises
        :class:`~repro.common.errors.StaleReplicaError` when stale
        holders leave fewer than ``k`` fragments, and
        :class:`~repro.common.errors.ReplicationError` when fewer than
        ``k`` are reachable for any other reason.
        """
        codec = self._stripe_codec
        if codec is None:
            raise ConfigurationError(
                "read_striped requires an erasure-striped engine"
            )
        fresh = self.fresh_replicas()
        stale = [
            j
            for j in range(len(self._links))
            if j not in fresh and j not in exclude
        ]
        fragments: dict[int, bytes] = {}
        for j in fresh:
            if j in exclude:
                continue
            dev = self._links[j].sync_device()
            if dev is None:
                continue
            try:
                fragments[j] = dev.read_block(lba)
            except Exception:
                continue
            if len(fragments) == codec.k:
                break
        if len(fragments) < codec.k:
            message = (
                f"only {len(fragments)} of the {codec.k} fragments needed "
                f"for LBA {lba} are reachable"
            )
            if stale:
                raise StaleReplicaError(
                    f"{message}; holders {stale} missed writes"
                )
            raise ReplicationError(message)
        return codec.reassemble(fragments)

    def _resync_record(
        self, lba: int, new_data: bytes, old_data: bytes
    ) -> ReplicationRecord | None:
        """Encode one resync block exactly like a foreground write.

        ``old_data`` is the *replica's* current block (read through the
        link's sync device), so a PRINS delta XORs the replica from its
        stale image straight to the primary's; full-block strategies
        ignore it.  Returns None when the strategy elides an all-zero
        delta.  ``lba`` is part of the builder signature for symmetry
        with the ship path; the record itself is LBA-agnostic.
        """
        del lba
        frame = self._strategy.encode_update(new_data, old_data)
        if frame is None:
            return None
        self._seq += 1
        return ReplicationRecord.for_block(self._seq, new_data, frame)

    def heal_all(self) -> list[ResyncOutcome]:
        """Heal every link; returns one outcome per link."""
        if self._guards is None:
            raise ConfigurationError(
                "engine was built without a ResilienceConfig; nothing to heal"
            )
        return [self.heal_link(i) for i in range(len(self._guards))]

    # -- BlockDevice interface ------------------------------------------------

    def _read(self, lba: int) -> bytes:
        if self._router is not None:
            return self._router.read(lba)
        return self._device.read_block(lba)

    def _write(self, lba: int, data: bytes) -> None:
        """Local write + replication: the paper's full write path."""
        tel = self.telemetry
        with tel.span("write", lba=lba) as span:
            old_data: bytes | None = None
            raid_delta: bytes | None = None
            with tel.fine_span("write.local"):
                if self._raid is not None:
                    # The array's small-write path computes P' anyway (Eq. 1).
                    raid_delta = self._raid.write_block_with_delta(lba, data)
                else:
                    if self._strategy.needs_old_data:
                        old_data = self._device.read_block(lba)
                    self._device.write_block(lba, data)
            if self._stripe_codec is not None:
                payload = self._strategy.make_update(
                    data,
                    old_data if old_data is not None else b"",
                    raid_delta=raid_delta,
                )
                if payload is None:
                    span.set("skipped", True)
                    self.accountant.charge_write(len(data), None)
                    return
                self._dispatch_striped(lba, data, payload, span)
                return
            if self._batcher is not None:
                payload = self._strategy.make_update(
                    data,
                    old_data if old_data is not None else b"",
                    raid_delta=raid_delta,
                )
                if payload is None:
                    span.set("skipped", True)
                    self.accountant.charge_write(len(data), None)
                    return
                self._seq += 1
                with tel.span("write.batch", lba=lba):
                    window_full = self._batcher.add(
                        lba, self._seq, zlib.crc32(data), payload, len(data)
                    )
                if window_full:
                    self.flush_batch()
                return
            frame = self._strategy.encode_update(
                data,
                old_data if old_data is not None else b"",
                raid_delta=raid_delta,
            )
            if frame is None:
                span.set("skipped", True)
                self.accountant.charge_write(len(data), None)
                return
            self._seq += 1
            record = ReplicationRecord.for_block(self._seq, data, frame)
            payload_len = record.wire_size
            span.set("payload_bytes", payload_len)
            self._dispatch_record(lba, record, len(data), payload_len, span.context)

    def write_many(self, writes: Sequence[tuple[int, bytes]]) -> None:
        """Write a window of ``(lba, data)`` pairs through one batched pass.

        Semantically identical to calling :meth:`write_block` in order
        (same replica bytes, same accounting, same sequence numbers), but
        the per-write compute is vectorized: all ``A_old`` reads resolve
        up front (with same-window staging so the second write to an LBA
        sees the first as its old data), every Eq. 1 XOR collapses into one
        :meth:`~repro.engine.strategy.ReplicationStrategy.make_updates`
        kernel call, and — on batched engines — the payloads land in the
        :class:`~repro.engine.batch.ShipBatcher` whose drain encodes the
        whole window in one codec pass.  RAID-backed engines fall back to
        the sequential path (their per-write small-write already yields
        ``P'`` for free).
        """
        if not writes:
            return
        if self._raid is not None or self._stripe_codec is not None:
            # RAID gets P' free per write; the erasure tier fans out per
            # write anyway (one fragment group per block) — both take the
            # sequential path.
            for lba, data in writes:
                self.write_block(lba, data)
            return
        tel = self.telemetry
        strategy = self._strategy
        with tel.span(
            "write.many", count=len(writes), strategy=strategy.name
        ) as many_span:
            datas: list[bytes] = []
            lbas: list[int] = []
            for lba, data in writes:
                self._check_lba(lba)
                if len(data) != self._block_size:
                    raise BlockSizeError(self._block_size, len(data))
                lbas.append(lba)
                datas.append(data if isinstance(data, bytes) else bytes(data))
            olds: list[bytes] = []
            if strategy.needs_old_data:
                with tel.span("write.local", batch=len(writes)):
                    staged: dict[int, bytes] = {}
                    for lba, data in zip(lbas, datas):
                        prev = staged.get(lba)
                        if prev is not None:
                            olds.append(prev)
                        else:
                            olds.append(self._device.read_block(lba))
                        staged[lba] = data
                        self._device.write_block(lba, data)
            else:
                with tel.span("write.local", batch=len(writes)):
                    for lba, data in zip(lbas, datas):
                        self._device.write_block(lba, data)
                olds = [b""] * len(datas)
            payloads = strategy.make_updates(datas, olds)
            ctx = many_span.context
            if self._batcher is not None:
                for lba, data, payload in zip(lbas, datas, payloads):
                    if payload is None:
                        self.accountant.charge_write(len(data), None)
                        continue
                    self._seq += 1
                    if self._batcher.add(
                        lba, self._seq, zlib.crc32(data), payload, len(data)
                    ):
                        self.flush_batch()
                return
            # Unbatched: assign sequence tickets in write order, then push
            # the surviving payloads through one encode_payloads pass — one
            # encode span (and, with a bound worker pool, a scatter across
            # codec worker processes) while frames, seqs, and accounting
            # stay identical to the per-write path.
            pending: list[tuple[int, bytes, bytes, int]] = []
            for lba, data, payload in zip(lbas, datas, payloads):
                if payload is None:
                    self.accountant.charge_write(len(data), None)
                    continue
                self._seq += 1
                pending.append((lba, data, payload, self._seq))
            if not pending:
                return
            frames = strategy.encode_payloads([p[2] for p in pending])
            for (lba, data, _payload, seq), frame in zip(pending, frames):
                record = ReplicationRecord.for_block(seq, data, frame)
                self._dispatch_record(
                    lba, record, len(data), record.wire_size, ctx
                )

    def _dispatch_record(
        self,
        lba: int,
        record: ReplicationRecord,
        data_len: int,
        payload_len: int,
        ctx=None,
    ) -> None:
        """Fan one record out, with charging bound to this record's sizes.

        ``ctx`` is the enclosing write span's trace coordinates — callers
        pass ``span.context`` directly rather than paying a per-record
        ``current_context()`` stack lookup.
        """
        self._ship(
            ShipWork.for_record(lba, record, ctx=ctx),
            partial(self._charge_fanout, data_len, payload_len),
        )

    def _ship(self, work: ShipWork, charge, only: int | None = None) -> None:
        """Hand one submission to the scheduler: the engine's only send.

        Lock-step engines call ``send`` (settled on return; a strict
        failure raises here), the rest ``submit``, which runs that same
        loop when acks resolve at send.  The split only keeps sequential
        fan-out out of the ``engine.scheduler`` layer of ``bench/``, whose
        tracer wraps ``submit`` and ``drain``.
        """
        if self._lock_step:
            self._scheduler.send(work, charge, only)
        else:
            self._scheduler.submit(work, charge, only)

    def _dispatch_striped(self, lba: int, data: bytes, payload, span) -> None:
        """Split one write's payload into fragments and fan each out.

        ``payload`` is what the strategy would have shipped whole: the
        parity delta for delta strategies (PRINS Eq. 1), the full new
        block otherwise.  Linearity makes the split commute with the
        semantics — fragment ``j`` of the delta, XOR-applied at holder
        ``j``, lands exactly on fragment ``j`` of ``A_new``.  Each
        fragment rides an ordinary :class:`~repro.engine.work.ShipWork`
        targeted at its own channel (``only=j``); all-zero fragment
        deltas are elided as XOR no-ops (the wire win for sparse deltas).
        End-to-end CRCs cover the *post-apply* fragment: a slice of
        ``A_new`` for data fragments, the incrementally tracked parity
        CRC for parity fragments under delta strategies.
        """
        codec = self._stripe_codec
        assert codec is not None
        if len(self._links) != codec.n:
            raise ConfigurationError(
                f"erasure tier k={codec.k}/n={codec.n} needs exactly "
                f"{codec.n} links, have {len(self._links)}"
            )
        is_delta = self._strategy.needs_old_data
        with self.telemetry.fine_span("write.stripe"):
            fragments = codec.encode(payload)
        to_ship: list[tuple[int, bytes]] = []
        elided = 0
        for j, frag_payload in enumerate(fragments):
            if is_delta and is_zero(frag_payload):
                elided += 1  # XOR no-op: holder j's fragment is unchanged
                continue
            to_ship.append((j, frag_payload))
        if not to_ship:
            span.set("skipped", True)
            self.accountant.charge_write(
                len(data), None, elided=elided, striped=True
            )
            return
        self._seq += 1
        seq = self._seq  # one sequence number per stripe group
        span.set("fragments", len(to_ship))
        agg = _StripeCharge(
            self.accountant, len(data), expected=len(to_ship), elided=elided
        )
        ctx = span.context
        try:
            for j, frag_payload in to_ship:
                frame = self._strategy.encode_payload(frag_payload)
                if not is_delta:
                    # overwrite apply: the holder ends up with the
                    # decoded frame itself
                    crc = zlib.crc32(frag_payload)
                elif j < codec.k:
                    crc = zlib.crc32(codec.slice_of(data, j))
                else:
                    assert self._parity_crcs is not None
                    crc = self._parity_crcs.advance(
                        lba, j - codec.k, frag_payload
                    )
                record = ReplicationRecord(seq=seq, block_crc=crc, frame=frame)
                work = ShipWork.for_record(lba, record, ctx=ctx, fragment=j)
                self._ship(work, agg.charge_cb(j, record.wire_size), only=j)
        except Exception:
            agg.abort()
            raise

    # -- batched shipping -----------------------------------------------------

    def flush_batch(self) -> FlushResult | None:
        """Drain the pending window and ship it as one multi-segment PDU.

        Safe to call at any commit boundary: a no-op (returning ``None``)
        when the engine is unbatched or the window is empty.  Same-LBA
        payloads merge before encoding (XOR composition for PRINS); a
        window that merges away entirely ships nothing but is still
        accounted.  Failed batches follow the engine's fan-out
        discipline — strict raises
        :class:`~repro.common.errors.PartialReplicationError`, guarded
        re-journals the batch's constituent records individually.
        """
        if self._batcher is None or len(self._batcher) == 0:
            return None
        tel = self.telemetry
        with tel.span("batch.flush", strategy=self._strategy.name) as span:
            result = self._batcher.drain()
            records = result.batch.record_count if result.batch else 0
            span.set("records", records)
            span.set("merged_writes", result.merged_writes)
            if tel.enabled:
                tel.counter("batch.flushes").inc()
                tel.counter("batch.records").inc(records)
                tel.counter("batch.merged_writes").inc(result.merged_writes)
                tel.histogram("batch.records_per_flush").record(records)
                tel.histogram("batch.merged_per_flush").record(
                    result.merged_writes
                )
            if result.batch is None:
                # every record merged to a no-op: nothing on the wire
                self.accountant.charge_write(
                    result.data_bytes,
                    None,
                    writes=result.logical_writes,
                    records=0,
                    merged=result.merged_writes,
                    elided=result.elided_records,
                )
                return result
            payload_len = len(result.batch.pack())
            span.set("payload_bytes", payload_len)
            self._ship(
                ShipWork.for_batch(result.batch, ctx=tel.current_context()),
                partial(self._charge_batch, result, payload_len),
            )
        return result

    def _charge_batch(
        self,
        result: FlushResult,
        payload_len: int,
        delivered: int,
        journaled: int,
    ) -> None:
        """Charge one drained window plus ``delivered`` wire copies.

        Mirrors :meth:`_charge_fanout`: an engine with no links still
        charges one copy; a window every link journaled is charged as
        journaled; a fan-out with zero deliveries otherwise records the
        window's logical writes as failed.
        """
        batch = result.batch
        assert batch is not None
        copies = delivered if self._links else 1
        self.accountant.charge_write(
            result.data_bytes,
            payload_len * copies,
            copies,
            bool(journaled),
            writes=result.logical_writes,
            records=batch.record_count,
            merged=result.merged_writes,
            elided=result.elided_records,
        )

    def _charge_fanout(
        self, data_len: int, payload_len: int, delivered: int, journaled: int
    ) -> None:
        """Charge one local write plus ``delivered`` wire copies.

        Traffic is charged once per replica copy (the paper's measurements
        replicate to one node; more links multiply the wire bytes).  An
        engine with no links still charges one copy, matching the paper's
        single-node traffic accounting.  A write no link delivered is
        journaled when some guard backlogged it, failed otherwise.  A
        delivered write counts once per copy in ``writes_total`` and
        ``writes_replicated``.
        """
        copies = delivered if self._links else 1
        self.accountant.charge_write(
            data_len,
            payload_len * copies,
            copies,
            bool(journaled),
            writes=copies or 1,
        )

    def verify_traffic_conservation(self) -> dict[int, int]:
        """Check the accountant's per-replica ledgers against live backlogs.

        Raises :class:`~repro.engine.accounting.ConservationError` when a
        ledger fails to balance; returns ``{replica: outstanding_bytes}``
        on success.  For guarded engines each replica's outstanding
        journaled bytes must equal its backlog's pending payload exactly.
        """
        if self._guards is None:
            return self.accountant.verify_conservation()
        return self.accountant.verify_conservation(
            {
                guard.index: guard.backlog.payload_bytes_pending
                for guard in self._guards
            }
        )

    def drain(self) -> None:
        """Resolve all outstanding replication before a consistency point.

        Flushes any pending batch window into the fan-out path, then runs
        the scheduler until every in-flight submission has resolved,
        surfacing any stashed strict-mode failure.  A lock-step engine
        never has anything in flight, so there the flush is all there is.
        """
        self.flush_batch()
        if not self._lock_step:
            self._scheduler.drain()

    def close(self) -> None:
        """Drain outstanding replication, then close links and the device.

        Every step runs even when the final flush fails, so the engine
        ends closed with nothing leaked; the first error is re-raised.
        """
        if self.closed:
            return
        steps = [
            self.flush_batch,
            self._scheduler.close,
            *(link.close for link in self._links),
        ]
        if self._owns_pool and self._codec_pool is not None:
            steps.append(self._codec_pool.close)
        run_all([*steps, self._device.close, super().close])

    # -- reporting ----------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """JSON-safe engine state: accountant + per-link health/backlog.

        Registered as this engine's telemetry source; everything the
        accountant and the resilience layer count is readable through one
        ``Telemetry.snapshot()``.
        """
        snapshot = {
            "strategy": self._strategy.name,
            "accountant": self.accountant.snapshot(),
            "links": {
                "count": len(self._links),
                "health": [health.value for health in self.link_health()],
            },
        }
        if self._batcher is not None:
            snapshot["batch"] = {
                "max_records": self._batcher.config.max_records,
                "max_bytes": self._batcher.config.max_bytes,
                "pending_records": len(self._batcher),
                "pending_bytes": self._batcher.pending_bytes,
            }
        if self._codec_pool is not None:
            snapshot["codec_pool"] = self._codec_pool.snapshot()
        if self._stripe_codec is not None:
            codec = self._stripe_codec
            snapshot["stripe"] = {
                "k": codec.k,
                "n": codec.n,
                "fragment_size": codec.fragment_size,
                "storage_overhead": codec.config.storage_overhead,
            }
        snapshot["scheduler"] = self._scheduler.snapshot()
        if self._router is not None:
            snapshot["router"] = self._router.snapshot()
        if self._guards:
            snapshot["links"]["backlog_depths"] = [
                guard.backlog_depth for guard in self._guards
            ]
            snapshot["links"]["needs_resync"] = [
                guard.needs_resync for guard in self._guards
            ]
        return snapshot

    @property
    def frame_overhead(self) -> int:
        """Fixed per-record overhead bytes (record header)."""
        return RECORD_OVERHEAD
