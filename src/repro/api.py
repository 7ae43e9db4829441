"""The front door: one config object, two factories, zero wiring.

Everything the PRINS engine can do — strategy choice, delta codecs,
batched shipping, fault tolerance, pipelined fan-out, telemetry — is
reachable from a single frozen :class:`ReplicationConfig`.  Hand it to
:func:`open_primary` for a one-primary/N-replica mirror stack, or to
:func:`open_cluster` for the paper's Fig. 1 multi-node pool, and the
factory does all the wiring the examples used to do by hand.

Quick start::

    from repro.api import ReplicationConfig, open_primary

    config = ReplicationConfig(strategy="prins", replicas=2)
    with open_primary(config) as stack:
        stack.engine.write_block(0, b"x" * config.block_size)
        print(stack.engine.accountant.payload_bytes)

Configs round-trip losslessly through plain dicts
(:meth:`ReplicationConfig.to_dict` / :meth:`ReplicationConfig.from_dict`),
so an experiment can be pinned in a JSON file and rebuilt bit-identically.

The lower-level constructor :class:`~repro.engine.primary.PrimaryEngine`
remains public and stable; this module is sugar over it, not a
replacement.  A :class:`~repro.engine.cluster.StorageCluster` is only
built here: one :func:`open_primary`-shaped stack per node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.block.memory import MemoryBlockDevice
from repro.common.errors import ConfigurationError, run_all
from repro.engine.batch import BatchConfig
from repro.engine.cluster import StorageCluster
from repro.engine.links import DirectLink, InitiatorLink, ReplicaLink
from repro.engine.primary import PrimaryEngine
from repro.engine.replica import ReplicaEngine
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.engine.router import READ_POLICIES
from repro.engine.scheduler import (
    FANOUT_MODES,
    WORKER_BACKENDS,
    SchedulerConfig,
)
from repro.engine.workers import CodecWorkerPool
from repro.engine.strategy import ReplicationStrategy, make_strategy
from repro.engine.stripe import (
    RepairReport,
    StripeConfig,
    stripe_full_sync,
    verify_fragments,
)
from repro.engine.sync import full_sync, verify_consistency
from repro.iscsi.initiator import Initiator
from repro.iscsi.target import TargetServer
from repro.iscsi.transport import TcpTransport
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, get_telemetry

__all__ = [
    "ObservabilityConfig",
    "PrimaryStack",
    "ReplicationConfig",
    "open_cluster",
    "open_primary",
]

#: transport tiers accepted by :attr:`ReplicationConfig.transport`
_TRANSPORT_MODES = ("inline", "tcp")

#: resync escalation modes accepted by :attr:`ReplicationConfig.resync`
_RESYNC_MODES = ("reconcile", "digest")

#: redundancy tiers accepted by :attr:`ReplicationConfig.redundancy`
_REDUNDANCY_MODES = ("mirror", "erasure")


@dataclass(frozen=True)
class ObservabilityConfig:
    """The causal-tracing and flight-recorder knobs, one frozen group.

    ``enabled`` turns the whole pipeline on: a live
    :class:`~repro.obs.telemetry.Telemetry` registry whose tracer stamps
    every write with a causal trace id (propagated through the scheduler
    and onto the iSCSI BHS) and whose
    :class:`~repro.obs.flightrec.FlightRecorder` keeps the last
    ``flightrec_capacity`` structured events for post-mortem dumps.
    ``node`` labels this process's spans so multi-node traces stitch
    unambiguously; ``trace_capacity`` bounds the span ring (evictions are
    counted, aggregates stay exact); ``flightrec_dump`` is an optional
    path the recorder auto-writes on faults (partial replication, a link
    dropping to DOWN, a stalled reconciliation).  ``detail`` additionally
    records sub-stage spans (``write.local`` / ``write.delta`` /
    ``replica.decode``) — prettier trees for roughly double the tracing
    cost per write, like a DEBUG log level.

    Everything defaults to off/empty: a default config changes no wire
    byte and no paper figure.
    """

    enabled: bool = False
    trace_capacity: int = 2048
    node: str = ""
    flightrec_capacity: int = 1024
    flightrec_dump: str | None = None
    detail: bool = False

    def __post_init__(self) -> None:
        """Validate the ring capacities."""
        if self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.flightrec_capacity < 1:
            raise ConfigurationError(
                f"flightrec_capacity must be >= 1, "
                f"got {self.flightrec_capacity}"
            )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ObservabilityConfig":
        """Rebuild from :meth:`dataclasses.asdict` output; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ObservabilityConfig keys: {sorted(unknown)}"
            )
        return cls(**raw)


@dataclass(frozen=True)
class ReplicationConfig:
    """Every replication knob, in one frozen, dict-round-trippable place.

    The defaults reproduce the paper's baseline: PRINS strategy with the
    zero-RLE delta codec, strict sequential fan-out, per-write shipping,
    no fault tolerance, telemetry off.  Groups of fields:

    * **strategy** — ``strategy`` (traditional / compressed / prins) and
      ``codec`` (``None`` = the strategy's default codec);
    * **geometry** — ``block_size`` / ``num_blocks`` (per device) and
      ``replicas`` (mirror width); clusters add ``nodes``, and each node
      mirrors to ``replicas`` of its peers;
    * **redundancy** — ``redundancy="mirror"`` (default: full copies) or
      ``redundancy="erasure"`` with the ``k`` / ``n`` code shape: each
      write splits into ``n`` coded fragments of ``block_size / k``
      bytes, any ``k`` of which reassemble the block — ``n - k`` failures
      tolerated at ``n/k`` storage overhead instead of ``f + 1`` full
      mirrors (see :mod:`repro.engine.stripe`);
    * **write path** — ``batch_records`` / ``batch_bytes`` (the
      :class:`~repro.engine.batch.ShipBatcher` window; ``batch_records=None``
      ships per-write);
    * **fan-out** — ``fanout`` (``sequential``, the scheduler at window 1,
      or ``pipelined`` at ``window``) plus the latency policy every window
      meters: ``link_latency_s``, ``per_link_latency_s``,
      ``latency_jitter``;
    * **concurrency** — ``transport`` picks how records reach replicas
      (``inline`` = in-process calls, ``tcp`` = one thread-per-session
      iSCSI target per replica — both byte-identical on the wire) and
      ``workers`` picks where codecs run (``inline`` = the caller,
      ``threads`` = the fan-out scheduler's thread pool, ``process`` = a
      :class:`~repro.engine.workers.CodecWorkerPool` of ``worker_count``
      processes fed through ``ring_slots``-deep shared-memory rings — the
      GIL escape, scoped to encode-bound batch windows);
    * **scale-out** — ``read_policy`` (``primary`` = every read served
      locally, ``replica``/``least_loaded`` = conflict-free reads routed
      across healthy replicas, :mod:`repro.engine.router`; in-process
      links only).  The default (``"primary"``) keeps the wire and
      replica images bit-identical to the primary-serving engine;
    * **fault policy** — ``resilient`` switches the engine to guarded
      links; ``max_attempts`` and ``backlog_capacity_bytes`` tune it;
      ``resync`` picks how an overflowed backlog is healed
      (``reconcile`` = set-reconciliation tier with digest fallback,
      ``digest`` = straight to the full digest sweep);
    * **observability** — ``telemetry`` installs a live
      :class:`~repro.obs.telemetry.Telemetry` registry; ``verify_acks``
      keeps end-to-end CRC checks on;
    * **determinism** — ``seed`` feeds every jitter draw.
    """

    # -- strategy --------------------------------------------------------------
    strategy: str = "prins"
    codec: str | None = None
    # -- geometry --------------------------------------------------------------
    block_size: int = 8192
    num_blocks: int = 256
    replicas: int = 1
    nodes: int = 4
    # -- redundancy ------------------------------------------------------------
    redundancy: str = "mirror"
    k: int = 4
    n: int = 6
    # -- write path ------------------------------------------------------------
    batch_records: int | None = None
    batch_bytes: int = 256 * 1024
    # -- fan-out ---------------------------------------------------------------
    fanout: str = "sequential"
    window: int = 8
    link_latency_s: float = 0.0
    per_link_latency_s: tuple[float, ...] = field(default=())
    latency_jitter: float = 0.0
    # -- concurrency -----------------------------------------------------------
    transport: str = "inline"
    workers: str = "inline"
    worker_count: int = 0
    ring_slots: int = 8
    # -- scale-out -------------------------------------------------------------
    read_policy: str = "primary"
    # -- fault policy ----------------------------------------------------------
    resilient: bool = False
    max_attempts: int = 4
    backlog_capacity_bytes: int = 1 << 20
    resync: str = "reconcile"
    # -- observability / determinism -------------------------------------------
    verify_acks: bool = True
    telemetry: bool = False
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the cheap invariants; deeper ones live in the builders."""
        if self.fanout not in FANOUT_MODES:
            raise ConfigurationError(
                f"fanout must be one of {FANOUT_MODES}, got {self.fanout!r}"
            )
        if self.transport not in _TRANSPORT_MODES:
            raise ConfigurationError(
                f"transport must be one of {_TRANSPORT_MODES}, "
                f"got {self.transport!r}"
            )
        if self.workers not in WORKER_BACKENDS:
            raise ConfigurationError(
                f"workers must be one of {WORKER_BACKENDS}, "
                f"got {self.workers!r}"
            )
        if self.worker_count < 0:
            raise ConfigurationError(
                f"worker_count must be >= 0 (0 = auto), "
                f"got {self.worker_count}"
            )
        if self.ring_slots < 2:
            raise ConfigurationError(
                f"ring_slots must be >= 2, got {self.ring_slots}"
            )
        if self.workers != "process" and (
            self.worker_count or self.ring_slots != 8
        ):
            raise ConfigurationError(
                "worker_count/ring_slots tune the process codec pool; "
                'set workers="process" to use them'
            )
        if self.transport != "inline":
            if self.resilient:
                raise ConfigurationError(
                    "networked replica links cannot be resynced in-process; "
                    'transport != "inline" requires resilient=False'
                )
            if self.redundancy != "mirror":
                raise ConfigurationError(
                    "the erasure tier ships fragments over inline links; "
                    'transport != "inline" requires redundancy="mirror"'
                )
            if self.read_policy != "primary":
                raise ConfigurationError(
                    "routed reads need an in-process replica device; "
                    'transport != "inline" requires read_policy="primary"'
                )
        if self.resync not in _RESYNC_MODES:
            raise ConfigurationError(
                f"resync must be one of {_RESYNC_MODES}, got {self.resync!r}"
            )
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.read_policy not in READ_POLICIES:
            raise ConfigurationError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {self.read_policy!r}"
            )
        if self.block_size < 1 or self.num_blocks < 1:
            raise ConfigurationError(
                "block_size and num_blocks must be positive"
            )
        if self.codec is not None and self.strategy == "traditional":
            raise ConfigurationError(
                "the traditional strategy ships raw blocks and takes no codec"
            )
        if self.redundancy not in _REDUNDANCY_MODES:
            raise ConfigurationError(
                f"redundancy must be one of {_REDUNDANCY_MODES}, "
                f"got {self.redundancy!r}"
            )
        if self.redundancy == "erasure":
            StripeConfig(self.k, self.n)  # validates k >= 2, n > k
            if self.block_size % self.k:
                raise ConfigurationError(
                    f"erasure redundancy needs block_size divisible by "
                    f"k={self.k}, got block_size={self.block_size}"
                )
            if self.batch_records is not None:
                raise ConfigurationError(
                    "erasure redundancy and batching cannot be combined: "
                    "fragments ship per-write, one per stripe position"
                )
        # normalise list → tuple so from_dict round-trips frozen-hashable
        if isinstance(self.per_link_latency_s, list):
            object.__setattr__(
                self, "per_link_latency_s", tuple(self.per_link_latency_s)
            )
        # coerce dict → ObservabilityConfig so from_dict round-trips nested
        if isinstance(self.observability, dict):
            object.__setattr__(
                self,
                "observability",
                ObservabilityConfig.from_dict(self.observability),
            )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict capturing every field (tuples become lists)."""
        raw = dataclasses.asdict(self)
        raw["per_link_latency_s"] = list(self.per_link_latency_s)
        return raw

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ReplicationConfig":
        """Rebuild a config from :meth:`to_dict` output; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ReplicationConfig keys: {sorted(unknown)}"
            )
        return cls(**raw)

    # -- derived engine configs ------------------------------------------------

    def strategy_instance(self) -> ReplicationStrategy:
        """Build the configured :class:`~repro.engine.strategy.ReplicationStrategy`."""
        if self.codec is None:
            return make_strategy(self.strategy)
        return make_strategy(self.strategy, codec=self.codec)

    def batch_config(self) -> BatchConfig | None:
        """The ship-batch window, or ``None`` for per-write shipping."""
        if self.batch_records is None:
            return None
        return BatchConfig(
            max_records=self.batch_records, max_bytes=self.batch_bytes
        )

    def resilience_config(self) -> ResilienceConfig | None:
        """The fault-tolerance policy, or ``None`` for a strict engine."""
        if not self.resilient:
            return None
        return ResilienceConfig(
            retry=RetryPolicy(max_attempts=self.max_attempts),
            backlog_capacity_bytes=self.backlog_capacity_bytes,
            seed=self.seed,
            resync=self.resync,
        )

    def scheduler_config(self) -> SchedulerConfig:
        """The fan-out window policy: ``window=1`` when sequential."""
        return SchedulerConfig(
            workers=self.workers,
            window=self.window if self.fanout == "pipelined" else 1,
            link_latency_s=self.link_latency_s,
            per_link_latency_s=self.per_link_latency_s,
            latency_jitter=self.latency_jitter,
            seed=self.seed,
            worker_count=self.worker_count,
            ring_slots=self.ring_slots,
        )

    def codec_pool_instance(self) -> CodecWorkerPool | None:
        """A process codec pool per the concurrency fields, or ``None``.

        Built once per :func:`open_primary` stack; the stack owns and
        closes it.
        """
        if self.workers != "process":
            return None
        return CodecWorkerPool(
            worker_count=self.worker_count,
            ring_slots=self.ring_slots,
            block_size=self.block_size,
        )

    def stripe_config(self) -> StripeConfig | None:
        """The erasure-tier code shape, or ``None`` for mirror redundancy."""
        if self.redundancy != "erasure":
            return None
        return StripeConfig(k=self.k, n=self.n)

    def telemetry_instance(self) -> Any:
        """A live registry when telemetry/observability is on, else the default.

        ``observability.enabled`` implies a live registry even when the
        plain ``telemetry`` flag is off, sized and labelled by the
        :class:`ObservabilityConfig` (trace/flight-recorder capacities,
        node name, auto-dump path).
        """
        obs = self.observability
        if self.telemetry or obs.enabled:
            return Telemetry(
                trace_capacity=obs.trace_capacity,
                node=obs.node,
                flightrec_capacity=obs.flightrec_capacity,
                flightrec_dump=obs.flightrec_dump,
                detail=obs.detail,
            )
        return get_telemetry()


@dataclass
class PrimaryStack:
    """What :func:`open_primary` hands back: the engine plus its replicas.

    ``engine`` is the wired :class:`~repro.engine.primary.PrimaryEngine`;
    ``device`` its local store; ``replica_devices`` the N mirror devices
    (inspect them to verify byte-identity); ``replica_engines`` and
    ``links`` the plumbing in between, exposed so tests can wrap or fail
    individual channels.  Usable as a context manager —
    exit drains in-flight fan-out and closes the engine.

    With ``redundancy="erasure"`` the ``replica_devices`` are the ``n``
    fragment holders (each ``block_size / k`` bytes per block);
    :meth:`verify` checks them against the primary's derived fragments,
    :meth:`read_striped` reassembles a block from any ``k`` healthy
    holders, and :meth:`repair_fragment` rebuilds one lost holder from
    survivors at ``volume / k`` shipped bytes.
    """

    engine: PrimaryEngine
    device: MemoryBlockDevice
    replica_devices: list[MemoryBlockDevice]
    replica_engines: list[ReplicaEngine]
    links: list[ReplicaLink]
    config: ReplicationConfig
    telemetry: Any = NULL_TELEMETRY
    #: per-replica iSCSI targets when ``transport != "inline"``
    servers: list[Any] = field(default_factory=list)
    #: the shared process codec pool (``workers="process"``)
    codec_pool: Any = None

    def __enter__(self) -> "PrimaryStack":
        """Enter: nothing to do — construction already wired everything."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Exit: :meth:`close` the whole stack."""
        self.close()

    def close(self) -> None:
        """Drain and close the engine, then tear down servers and pool.

        Ordering matters: the engine closes first (flushing batches and
        logging initiator sessions out), then each replica target shuts
        down deterministically, then the codec worker pool.  Every step
        runs even when the engine's final flush fails, and the first
        error is re-raised at the end.  Idempotent.
        """
        steps = [self.engine.close, *(server.close for server in self.servers)]
        if self.codec_pool is not None:
            steps.append(self.codec_pool.close)
        self.servers = []
        self.codec_pool = None
        run_all(steps)

    def drain(self) -> None:
        """Flush the batch window and drain pipelined fan-out to quiescence."""
        self.engine.drain()

    def verify(self) -> bool:
        """True when every replica matches the primary (see :meth:`mismatches`)."""
        return not self.mismatches()

    def mismatches(self) -> dict[int, list[int]]:
        """``{replica index: mismatched LBAs}``; empty when all replicas match.

        Mirror tier: each replica device must be byte-identical to the
        primary.  Erasure tier: each fragment holder must be
        byte-identical to its derived fragment of the primary (the
        stripe-group consistency invariant).  Threaded channels
        (``workers="threads"`` or ``"process"``) may still be sending, so
        their sends are waited for first; nothing is flushed or charged
        and no stashed failure is raised — that is :meth:`drain`.
        """
        engine = self.engine
        engine.scheduler.wait_idle()
        codec = engine.stripe_codec
        if codec is not None:
            return verify_fragments(codec, self.device, self.replica_devices)
        snapshot = self.device.snapshot()
        return {
            index: verify_consistency(self.device, replica)
            for index, replica in enumerate(self.replica_devices)
            if replica.snapshot() != snapshot
        }

    def read_striped(self, lba: int, exclude: Any = ()) -> bytes:
        """Reassemble block ``lba`` from any ``k`` healthy fragment holders."""
        return self.engine.read_striped(lba, exclude=exclude)

    def repair_fragment(self, index: int) -> RepairReport:
        """Rebuild fragment holder ``index`` from ``k`` survivors."""
        return self.engine.repair_fragment(index)


def open_primary(
    config: ReplicationConfig | None = None,
    *,
    initial_image: bytes | None = None,
    link_factory: Any = None,
    telemetry_name: str | None = None,
    accountant: Any = None,
    resilience: ResilienceConfig | None = None,
) -> PrimaryStack:
    """Build a primary engine mirrored to ``config.replicas`` in-memory replicas.

    With ``redundancy="erasure"`` the stack gets ``config.n`` fragment
    holders instead of ``config.replicas`` mirrors — each a
    ``block_size / k``-sized device wired through the same links,
    scheduler, and resilience machinery.

    ``initial_image`` preloads the primary and full-syncs every replica
    (the paper's "after the initial sync" baseline; erasure stacks
    encode it onto every fragment holder).  ``link_factory``
    decorates each base channel — called as
    ``link_factory(replica_index, base_link)``; use it to interpose
    :class:`~repro.engine.resilience.FaultyLink` or a custom transport.
    ``telemetry_name`` overrides the engine's source name in snapshots
    (default ``api.primary`` when telemetry is live).  ``accountant``
    substitutes a pre-built
    :class:`~repro.engine.accounting.TrafficAccountant` (e.g. with
    ``keep_raw=True`` for per-write payload samples).
    ``resilience`` overrides the config-derived fault policy with a
    hand-tuned :class:`~repro.engine.resilience.ResilienceConfig`
    (thresholds the flat config deliberately doesn't expose).
    """
    config = config or ReplicationConfig()
    live = config.telemetry or config.observability.enabled
    return _open_stack(
        config,
        config.telemetry_instance(),
        telemetry_name or ("api.primary" if live else None),
        initial_image=initial_image,
        link_factory=link_factory,
        accountant=accountant,
        resilience=resilience,
    )


def _open_stack(
    config: ReplicationConfig,
    telemetry: Any,
    telemetry_name: str | None,
    *,
    initial_image: bytes | None = None,
    link_factory: Any = None,
    accountant: Any = None,
    resilience: ResilienceConfig | None = None,
) -> PrimaryStack:
    """Wire one primary stack; :func:`open_primary` and :func:`open_cluster` share it."""
    strategy = config.strategy_instance()
    stripe = config.stripe_config()
    device = MemoryBlockDevice(config.block_size, config.num_blocks)
    if initial_image is not None:
        device.load(initial_image)
    replica_devices: list[MemoryBlockDevice] = []
    replica_engines: list[ReplicaEngine] = []
    links: list[ReplicaLink] = []
    servers: list[Any] = []
    if stripe is not None:
        # erasure tier: n fragment holders, block_size/k bytes per block
        # (transport="inline" enforced by the config validator)
        fragment_size = config.block_size // stripe.k
        for index in range(stripe.n):
            holder = MemoryBlockDevice(fragment_size, config.num_blocks)
            replica_engine = ReplicaEngine(holder, strategy)
            link: ReplicaLink = DirectLink(replica_engine)
            if link_factory is not None:
                link = link_factory(index, link)
            replica_devices.append(holder)
            replica_engines.append(replica_engine)
            links.append(link)
    else:
        for index in range(config.replicas):
            replica_device = MemoryBlockDevice(
                config.block_size, config.num_blocks
            )
            if initial_image is not None:
                full_sync(device, replica_device)
            replica_engine = ReplicaEngine(replica_device, strategy)
            link = _replica_channel(
                config, replica_engine, replica_device, servers
            )
            if link_factory is not None:
                link = link_factory(index, link)
            replica_devices.append(replica_device)
            replica_engines.append(replica_engine)
            links.append(link)
    codec_pool = config.codec_pool_instance()
    engine = PrimaryEngine(
        device,
        strategy,
        links,
        verify_acks=config.verify_acks,
        resilience=resilience
        if resilience is not None
        else config.resilience_config(),
        accountant=accountant,
        telemetry=telemetry,
        telemetry_name=telemetry_name,
        batch=config.batch_config(),
        scheduler=config.scheduler_config(),
        stripe=stripe,
        read_policy=config.read_policy,
        codec_pool=codec_pool,
    )
    if stripe is not None and initial_image is not None:
        assert engine.stripe_codec is not None
        stripe_full_sync(engine.stripe_codec, device, replica_devices)
    return PrimaryStack(
        engine=engine,
        device=device,
        replica_devices=replica_devices,
        replica_engines=replica_engines,
        links=links,
        config=config,
        telemetry=telemetry,
        servers=servers,
        codec_pool=codec_pool,
    )


def _replica_channel(
    config: ReplicationConfig,
    replica_engine: ReplicaEngine,
    replica_device: MemoryBlockDevice,
    servers: list[Any],
) -> ReplicaLink:
    """Wire one replica behind the configured transport tier.

    ``inline`` returns a :class:`~repro.engine.links.DirectLink`; ``tcp``
    stands up a per-replica :class:`~repro.iscsi.target.TargetServer`
    with the replica engine installed as its replication handler, and
    dials it with a blocking initiator session.  Both tiers charge
    byte-identical PDUs, so accounting and replica images match the
    inline baseline exactly.
    """
    if config.transport == "inline":
        return DirectLink(replica_engine)
    server = TargetServer(
        replica_device,
        replication_handler=replica_engine.receive,
        batch_handler=replica_engine.receive_batch,
    ).start()
    servers.append(server)
    host, port = server.address
    return InitiatorLink(Initiator(TcpTransport.connect(host, port)))


def open_cluster(
    config: ReplicationConfig | None = None,
    *,
    placement: dict[int, list[int]] | None = None,
    link_factory: Any = None,
    resilience: ResilienceConfig | None = None,
) -> StorageCluster:
    """Build the Fig. 1 multi-node pool: one primary stack per node.

    Node ``p`` is wired exactly like an :func:`open_primary` stack from
    ``config``; its replica ``i`` (erasure: fragment holder ``i``) is
    hosted by node ``placement[p][i]``.  The default placement is
    successor lists (chained declustering): node ``p`` replicates to
    nodes ``p + 1 … p + replicas`` modulo ``nodes`` (``n`` successors on
    the erasure tier).  ``link_factory`` decorates each channel, called
    as ``link_factory(primary_id, replica_id, base_link)``.
    ``resilience`` substitutes a hand-tuned fault policy for the
    config's.  All nodes share one telemetry registry, with sources
    ``cluster.node<p>`` and ``cluster``.  Returns a
    :class:`~repro.engine.cluster.StorageCluster`.
    """
    config = config or ReplicationConfig()
    if config.transport != "inline":
        raise ConfigurationError(
            "open_cluster wires its nodes in-process; the tcp "
            "transport tier applies to open_primary only"
        )
    nodes = config.nodes
    width = config.n if config.redundancy == "erasure" else config.replicas
    if width > nodes - 1:
        raise ConfigurationError(
            f"each node ships to {width} distinct peers, so the cluster "
            f"needs at least {width + 1} nodes, got nodes={nodes}"
        )
    if placement is None:
        placement = {
            p: [(p + offset) % nodes for offset in range(1, width + 1)]
            for p in range(nodes)
        }
    if sorted(placement) != list(range(nodes)):
        raise ConfigurationError(
            f"placement must map every node 0..{nodes - 1}, "
            f"got {sorted(placement)}"
        )
    for node_id, hosts in placement.items():
        others = set(range(nodes)) - {node_id}
        if len(hosts) != width or len(set(hosts) & others) != width:
            raise ConfigurationError(
                f"node {node_id} must list {width} distinct hosts other "
                f"than itself among nodes 0..{nodes - 1} (position = "
                f"replica index), got {hosts}"
            )
    telemetry = config.telemetry_instance()

    def stack(p: int) -> PrimaryStack:
        hosts = placement[p]
        return _open_stack(
            config,
            telemetry,
            f"cluster.node{p}",
            link_factory=None
            if link_factory is None
            else lambda index, link: link_factory(p, hosts[index], link),
            resilience=resilience,
        )

    return StorageCluster([stack(p) for p in range(nodes)], placement)
