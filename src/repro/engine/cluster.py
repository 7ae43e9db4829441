"""Multi-node storage cluster (the paper's Fig. 1 architecture).

"Consider a set of computing nodes interconnected by an IP network.  Each
node has a computation engine and a locally attached storage system. …
The storages of all the nodes collectively form a shared storage pool. …
shared data are replicated in a subset of nodes, called replica nodes"
(Sec. 2).

:class:`StorageCluster` assembles that picture from the existing pieces:
every node owns a local device plus a replica engine; a placement policy
assigns each node its replica set; each node's primary engine ships parity
deltas to its replicas.  The cluster exposes the aggregate traffic numbers
the queueing model consumes (population = nodes × replicas, Sec. 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.block.device import BlockDevice
from repro.block.memory import MemoryBlockDevice
from repro.common.errors import (
    ConfigurationError,
    ReplicationError,
    StaleReplicaError,
)
from repro.engine.batch import BatchConfig
from repro.engine.links import DirectLink, ReplicaLink
from repro.engine.primary import PrimaryEngine
from repro.engine.replica import ReplicaEngine
from repro.engine.resilience import LinkHealth, ResilienceConfig, ResyncOutcome
from repro.engine.router import READ_POLICIES
from repro.engine.scheduler import SchedulerConfig
from repro.engine.shard import ShardMap, ShardView, ShardedEngine
from repro.engine.strategy import ReplicationStrategy, make_strategy
from repro.engine.stripe import FragmentView, RepairReport, StripeConfig
from repro.engine.sync import verify_consistency
from repro.obs.telemetry import get_telemetry

#: hook for decorating each primary→replica channel, e.g. with a
#: :class:`~repro.engine.resilience.FaultyLink`; called as
#: ``link_factory(primary_id, replica_id, base_link)``
LinkFactory = Callable[[int, int, ReplicaLink], ReplicaLink]


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the cluster.

    ``redundancy="mirror"`` (the default) gives every node
    ``replicas_per_node`` full-copy replicas.  ``redundancy="erasure"``
    instead stripes each node's writes into ``n`` coded fragments of
    ``block_size / k`` bytes hosted on ``n`` distinct peer nodes — any
    ``k`` reassemble a block, so ``n - k`` simultaneous node failures
    are tolerated at ``n/k`` storage overhead instead of ``f + 1``
    full mirrors (:mod:`repro.engine.stripe`).

    ``shards`` partitions each node's LBA space across that many
    independent primary engines (:mod:`repro.engine.shard`), each with
    its own scheduler/links/accounting; ``read_policy`` routes
    conflict-free reads across healthy replicas
    (:mod:`repro.engine.router`).  The defaults (``1``/``"primary"``)
    keep the wire bit-identical to the unsharded cluster.
    """

    nodes: int = 4
    replicas_per_node: int = 2  # size of each node's replica set
    block_size: int = 8192
    blocks_per_node: int = 256
    strategy: str = "prins"
    codec: str | None = None  # delta/compression codec; None = strategy default
    old_block_cache: int | None = None  # LRU slots for A_old; None = off
    redundancy: str = "mirror"  # "mirror" or "erasure"
    k: int = 4  # erasure data fragments per block
    n: int = 6  # erasure total fragments per block (k data + n-k parity)
    shards: int = 1  # LBA partitions per node (multi-primary when > 1)
    read_policy: str = "primary"  # "primary" | "replica" | "least_loaded"

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ConfigurationError("a cluster needs at least 2 nodes")
        if self.redundancy not in ("mirror", "erasure"):
            raise ConfigurationError(
                f"redundancy must be 'mirror' or 'erasure', "
                f"got {self.redundancy!r}"
            )
        if self.redundancy == "erasure":
            StripeConfig(self.k, self.n)  # validates k >= 2, n > k
            if self.n > self.nodes - 1:
                raise ConfigurationError(
                    f"erasure n={self.n} needs at least n+1={self.n + 1} "
                    f"nodes (each fragment on a distinct peer), "
                    f"have {self.nodes}"
                )
            if self.block_size % self.k:
                raise ConfigurationError(
                    f"erasure redundancy needs block_size divisible by "
                    f"k={self.k}, got block_size={self.block_size}"
                )
        if not 1 <= self.replicas_per_node < self.nodes:
            raise ConfigurationError(
                "replicas_per_node must be in [1, nodes-1]"
            )
        if self.old_block_cache is not None and self.old_block_cache < 1:
            raise ConfigurationError(
                "old_block_cache must be a positive capacity (or None)"
            )
        if self.codec is not None and self.strategy == "traditional":
            raise ConfigurationError(
                "the traditional strategy ships raw blocks and takes no codec"
            )
        if self.read_policy not in READ_POLICIES:
            raise ConfigurationError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {self.read_policy!r}"
            )
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.shards > self.blocks_per_node:
            raise ConfigurationError(
                f"cannot split {self.blocks_per_node} blocks across "
                f"{self.shards} shards"
            )

    def shard_map(self) -> ShardMap | None:
        """The per-node LBA partition, or ``None`` when unsharded."""
        if self.shards == 1:
            return None
        return ShardMap(self.shards, self.blocks_per_node)

    def stripe_config(self) -> StripeConfig | None:
        """The erasure code shape, or ``None`` for mirror redundancy."""
        if self.redundancy != "erasure":
            return None
        return StripeConfig(k=self.k, n=self.n)

    @property
    def fanout_width(self) -> int:
        """Outbound channels per node: ``n`` fragments or ``replicas_per_node``."""
        return self.n if self.redundancy == "erasure" else self.replicas_per_node

    @property
    def region_block_size(self) -> int:
        """Bytes per block in a hosted replica region (fragment-sized on erasure)."""
        if self.redundancy == "erasure":
            return self.block_size // self.k
        return self.block_size

    @property
    def population(self) -> int:
        """The queueing model's population: nodes × channels (Sec. 3.3)."""
        return self.nodes * self.fanout_width


class ClusterNode:
    """One node: local storage, a primary engine, and a replica engine.

    The node's *primary* device holds its own data (replicated outward);
    its *replica* device holds copies of other nodes' data (one region per
    remote primary, addressed by that primary's node id).
    """

    def __init__(
        self,
        node_id: int,
        config: ClusterConfig,
        strategy: ReplicationStrategy,
    ) -> None:
        self.node_id = node_id
        self.primary_device = MemoryBlockDevice(
            config.block_size, config.blocks_per_node
        )
        # one replica region per possible remote primary
        self.replica_regions: dict[int, BlockDevice] = {}
        self._replica_engines: dict[int, ReplicaEngine] = {}
        # sharded hosting: one replica engine per (remote primary, shard),
        # all writing through views into that primary's single region
        self._shard_replica_engines: dict[tuple[int, int], ReplicaEngine] = {}
        self._strategy = strategy
        self._config = config
        self.engine: "PrimaryEngine | ShardedEngine | None" = None  # wired by the cluster

    def _region_for(self, primary_id: int) -> BlockDevice:
        """Create (or return) the single region holding ``primary_id``'s data."""
        region = self.replica_regions.get(primary_id)
        if region is None:
            region = MemoryBlockDevice(
                self._config.region_block_size, self._config.blocks_per_node
            )
            self.replica_regions[primary_id] = region
        return region

    def host_replica_for(self, primary_id: int) -> ReplicaEngine:
        """Create (or return) the replica engine for ``primary_id``'s data."""
        if primary_id not in self._replica_engines:
            self._replica_engines[primary_id] = ReplicaEngine(
                self._region_for(primary_id), self._strategy
            )
        return self._replica_engines[primary_id]

    def host_replica_shard(
        self, primary_id: int, shard: int, shard_map: ShardMap
    ) -> ReplicaEngine:
        """The replica engine for shard ``shard`` of ``primary_id``'s data.

        Every shard engine applies into a :class:`ShardView` of the same
        whole region, so the hosted image stays directly comparable to
        the primary's volume regardless of the shard count.
        """
        key = (primary_id, shard)
        if key not in self._shard_replica_engines:
            self._shard_replica_engines[key] = ReplicaEngine(
                ShardView(self._region_for(primary_id), shard_map, shard),
                self._strategy,
            )
        return self._shard_replica_engines[key]


def round_robin_placement(config: ClusterConfig) -> dict[int, list[int]]:
    """Default placement: node ``i`` replicates to its next successors.

    The classic successor-list placement (chained declustering); any
    mapping node → replica list with the same cardinality works.  On the
    erasure tier the list has ``n`` entries and *position is meaning*:
    entry ``j`` hosts stripe fragment ``j`` of the primary's volume.
    """
    return {
        node: [
            (node + offset) % config.nodes
            for offset in range(1, config.fanout_width + 1)
        ]
        for node in range(config.nodes)
    }


class StorageCluster:
    """The full Fig. 1 system: N nodes, each replicating to k others."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        placement: dict[int, list[int]] | None = None,
        resilience: ResilienceConfig | None = None,
        link_factory: LinkFactory | None = None,
        telemetry=None,
        batch: BatchConfig | None = None,
        fanout: str = "sequential",
        scheduler: SchedulerConfig | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._strategy = (
            make_strategy(self.config.strategy, codec=self.config.codec)
            if self.config.codec is not None
            else make_strategy(self.config.strategy)
        )
        self._resilience = resilience
        self._batch = batch
        self._fanout = "pipelined" if scheduler is not None else fanout
        self._scheduler_config = scheduler
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.nodes = [
            ClusterNode(i, self.config, self._strategy)
            for i in range(self.config.nodes)
        ]
        self.placement = placement or round_robin_placement(self.config)
        self._validate_placement()
        self._down_nodes: set[int] = set()
        shard_map = self.config.shard_map()
        for node in self.nodes:
            if shard_map is None:
                links: list[ReplicaLink] = []
                for replica_id in self.placement[node.node_id]:
                    link: ReplicaLink = DirectLink(
                        self.nodes[replica_id].host_replica_for(node.node_id)
                    )
                    if link_factory is not None:
                        link = link_factory(node.node_id, replica_id, link)
                    links.append(link)
                node.engine = PrimaryEngine(
                    node.primary_device,
                    self._strategy,
                    links,
                    resilience=resilience,
                    telemetry=self.telemetry,
                    telemetry_name=f"cluster.node{node.node_id}",
                    batch=batch,
                    old_block_cache=self.config.old_block_cache,
                    fanout=fanout,
                    scheduler=scheduler,
                    stripe=self.config.stripe_config(),
                    read_policy=self.config.read_policy,
                )
                continue
            # multi-primary: one engine per LBA shard, all writing through
            # views into this node's single primary volume, each shipping
            # to per-shard replica engines that share the remote regions
            shard_engines: list[PrimaryEngine] = []
            for shard in range(self.config.shards):
                links = []
                for replica_id in self.placement[node.node_id]:
                    link = DirectLink(
                        self.nodes[replica_id].host_replica_shard(
                            node.node_id, shard, shard_map
                        )
                    )
                    if link_factory is not None:
                        link = link_factory(node.node_id, replica_id, link)
                    links.append(link)
                shard_engines.append(
                    PrimaryEngine(
                        ShardView(node.primary_device, shard_map, shard),
                        self._strategy,
                        links,
                        resilience=resilience,
                        telemetry=self.telemetry,
                        telemetry_name=(
                            f"cluster.node{node.node_id}.shard{shard}"
                        ),
                        batch=batch,
                        old_block_cache=self.config.old_block_cache,
                        fanout=fanout,
                        scheduler=scheduler,
                        stripe=self.config.stripe_config(),
                        read_policy=self.config.read_policy,
                    )
                )
            node.engine = ShardedEngine(
                shard_engines, shard_map, node.primary_device
            )
        if self.telemetry.enabled:
            self.telemetry.register_source("cluster", self.telemetry_snapshot)

    @property
    def resilience(self) -> ResilienceConfig | None:
        """The cluster-wide fault-tolerance policy (``None`` = strict)."""
        return self._resilience

    @property
    def batching(self) -> BatchConfig | None:
        """The cluster-wide batch window (``None`` = per-write shipping)."""
        return self._batch

    @property
    def fanout(self) -> str:
        """The cluster-wide fan-out mode (``sequential`` or ``pipelined``)."""
        return self._fanout

    @property
    def scheduler(self) -> SchedulerConfig | None:
        """The pipelined fan-out window policy (``None`` = sequential)."""
        return self._scheduler_config

    def flush(self) -> None:
        """Flush every live node's pending batch window (commit boundary)."""
        for node in self.nodes:
            if node.node_id in self._down_nodes:
                continue
            assert node.engine is not None
            node.engine.flush_batch()

    def drain(self) -> None:
        """Quiesce every live node: flush batches and drain in-flight fan-out.

        A no-op beyond :meth:`flush` in sequential mode; under
        ``fanout="pipelined"`` it blocks until every node's scheduler has
        resolved all outstanding window slots (the cluster-wide commit
        barrier).
        """
        for node in self.nodes:
            if node.node_id in self._down_nodes:
                continue
            assert node.engine is not None
            node.engine.drain()

    def close(self) -> None:
        """Drain and release every node's engine (schedulers, devices)."""
        for node in self.nodes:
            assert node.engine is not None
            node.engine.close()

    def _validate_placement(self) -> None:
        width = self.config.fanout_width
        for node_id, replicas in self.placement.items():
            if self.config.redundancy == "erasure" and len(replicas) != width:
                raise ConfigurationError(
                    f"erasure placement for node {node_id} must list exactly "
                    f"n={width} hosts (position = fragment index), "
                    f"got {len(replicas)}"
                )
            if node_id in replicas:
                raise ConfigurationError(
                    f"node {node_id} cannot replicate to itself"
                )
            if len(set(replicas)) != len(replicas):
                raise ConfigurationError(
                    f"node {node_id} has duplicate replicas: {replicas}"
                )
            for replica_id in replicas:
                if not 0 <= replica_id < self.config.nodes:
                    raise ConfigurationError(
                        f"node {node_id} references unknown replica {replica_id}"
                    )

    # -- data path ------------------------------------------------------------

    def write(self, node_id: int, lba: int, data: bytes) -> None:
        """Write through node ``node_id``'s engine (replicates outward)."""
        if node_id in self._down_nodes:
            raise ReplicationError(
                f"node {node_id} is down; writes need a live primary"
            )
        engine = self.nodes[node_id].engine
        assert engine is not None
        engine.write_block(lba, data)

    def read(self, node_id: int, lba: int) -> bytes:
        """Read node ``node_id``'s data (degraded-mode routing when down).

        A read addressed to a down node is transparently served by one of
        its replicas — the paper's motivating failover ("shared data are
        replicated in a subset of nodes", Sec. 2).
        """
        if node_id in self._down_nodes:
            return self.read_from_replica(node_id, lba)
        engine = self.nodes[node_id].engine
        assert engine is not None
        return engine.read_block(lba)

    def read_from_replica(self, primary_id: int, lba: int) -> bytes:
        """Serve ``primary_id``'s block from its replica set.

        Used after a primary failure.  Only *live, fresh* members of the
        replica set answer — a replica whose channel is not
        :attr:`~repro.engine.resilience.GuardedLink.fresh` missed writes.
        Mirror tier: any of them can answer whole; fails over down the
        list in placement order.  Erasure tier: gathers fragments from
        them (placement position = fragment index) and reassembles from
        any ``k``.  Raises
        :class:`~repro.common.errors.StaleReplicaError` when stale
        replicas leave too few to serve, and
        :class:`~repro.common.errors.ReplicationError` when no replica —
        or fewer than ``k`` fragment holders — is live.
        """
        replicas = self.placement[primary_id]
        engine = self.nodes[primary_id].engine
        assert engine is not None
        # Quiesce the primary's outbound pipeline first: under
        # fanout="pipelined" (threads mode especially) a submitted-but-
        # unacked ShipWork may be mid-apply on the replica, and reading
        # around it could observe a torn write.  Down channels journal
        # instantly, so this never blocks on the failed node itself.
        engine.drain()
        guards = engine.guards
        live = [
            index
            for index, replica_id in enumerate(replicas)
            if replica_id not in self._down_nodes
        ]
        serving = [i for i in live if not guards or guards[i].fresh]
        stale = len(live) - len(serving)
        codec = engine.stripe_codec
        if codec is not None:
            fragments: dict[int, bytes] = {}
            for index in serving:
                replica_id = replicas[index]
                region = self.nodes[replica_id].replica_regions.get(primary_id)
                fragments[index] = (
                    region.read_block(lba)
                    if region is not None
                    else bytes(codec.fragment_size)  # never written: zeros
                )
                if len(fragments) == codec.k:
                    break
            if len(fragments) < codec.k:
                error = StaleReplicaError if stale else ReplicationError
                raise error(
                    f"only {len(fragments)} of the {codec.k} fragments "
                    f"needed for node {primary_id}'s LBA {lba} are on "
                    f"live holders ({stale} more missed writes)"
                )
            return codec.reassemble(fragments)
        if not serving:
            error = StaleReplicaError if stale else ReplicationError
            raise error(
                f"no replica can serve node {primary_id}'s data: "
                f"of replicas {replicas}, {stale} are live but missed "
                "writes and the rest are down"
            )
        for index in serving:
            region = self.nodes[replicas[index]].replica_regions.get(
                primary_id
            )
            if region is not None:
                return region.read_block(lba)
        # no write ever reached any live replica; data is still all zeros
        return bytes(self.config.block_size)

    # -- health and recovery ---------------------------------------------------

    def _links_to(self, node_id: int) -> list[tuple[int, int]]:
        """Every (primary_id, link_index) whose replica lives on ``node_id``."""
        found: list[tuple[int, int]] = []
        for primary_id, replicas in self.placement.items():
            for index, replica_id in enumerate(replicas):
                if replica_id == node_id:
                    found.append((primary_id, index))
        return found

    def _require_resilience(self, operation: str) -> None:
        if self._resilience is None:
            raise ConfigurationError(
                f"{operation} needs a fault-tolerant cluster; construct "
                "StorageCluster(..., resilience=ResilienceConfig())"
            )

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.config.nodes:
            raise ConfigurationError(
                f"unknown node {node_id} (cluster has {self.config.nodes})"
            )

    @property
    def down_nodes(self) -> frozenset[int]:
        """Nodes currently marked down."""
        return frozenset(self._down_nodes)

    def health(self) -> dict[tuple[int, int], LinkHealth]:
        """Health of every (primary, replica) channel in the cluster."""
        report: dict[tuple[int, int], LinkHealth] = {}
        for node in self.nodes:
            assert node.engine is not None
            states = node.engine.link_health()
            for index, replica_id in enumerate(self.placement[node.node_id]):
                report[(node.node_id, replica_id)] = states[index]
        return report

    def fail_node(self, node_id: int) -> None:
        """Mark ``node_id`` unreachable: every link into it journals.

        Writes whose replica set includes the node degrade into backlog;
        reads addressed to the node fail over to its replicas.
        """
        self._require_resilience("fail_node")
        self._check_node(node_id)
        self._down_nodes.add(node_id)
        for primary_id, index in self._links_to(node_id):
            engine = self.nodes[primary_id].engine
            assert engine is not None
            engine.fail_link(index)

    def heal_node(
        self, node_id: int
    ) -> dict[int, ResyncOutcome | list[ResyncOutcome]]:
        """Reconnect ``node_id`` and catch up every replica it hosts.

        Returns ``{primary_id: outcome}`` describing, per inbound channel,
        which recovery tier ran (backlog replay, set reconciliation, or
        the digest-sweep fallback) and what it cost on the wire.  On a
        sharded cluster each value is a list — one outcome per shard.
        """
        self._require_resilience("heal_node")
        self._check_node(node_id)
        self._down_nodes.discard(node_id)
        outcomes: dict[int, ResyncOutcome | list[ResyncOutcome]] = {}
        for primary_id, index in self._links_to(node_id):
            engine = self.nodes[primary_id].engine
            assert engine is not None
            outcomes[primary_id] = engine.heal_link(index)
        return outcomes

    def repair_node(
        self, node_id: int
    ) -> dict[int, RepairReport | list[RepairReport]]:
        """Rebuild every fragment hosted on ``node_id`` from survivors.

        The erasure tier's replacement path for a node that is *lost*
        (disk gone) rather than merely lagging: for each primary whose
        fragment lived there, pull fragment-sized reads from ``k``
        surviving holders and regenerate the missing fragment in place —
        ``volume / k`` bytes shipped per hosted fragment instead of a
        full re-mirror.  Returns ``{primary_id: RepairReport}``.  The
        node must be live again (``heal_node`` first if it was failed);
        repair traffic lands in each primary's accountant.
        """
        self._check_node(node_id)
        if node_id in self._down_nodes:
            raise ReplicationError(
                f"node {node_id} is down; heal_node it before repair"
            )
        reports: dict[int, RepairReport | list[RepairReport]] = {}
        for primary_id, index in self._links_to(node_id):
            engine = self.nodes[primary_id].engine
            assert engine is not None
            if engine.stripe_codec is None:
                raise ConfigurationError(
                    "repair_node is an erasure-tier operation; mirror "
                    "clusters recover via heal_node"
                )
            reports[primary_id] = engine.repair_fragment(index)
        return reports

    def heal_all(
        self,
    ) -> dict[tuple[int, int], ResyncOutcome | list[ResyncOutcome]]:
        """Heal every channel in the cluster; returns per-pair outcomes."""
        self._require_resilience("heal_all")
        self._down_nodes.clear()
        outcomes: dict[
            tuple[int, int], ResyncOutcome | list[ResyncOutcome]
        ] = {}
        for node in self.nodes:
            assert node.engine is not None
            for index, replica_id in enumerate(self.placement[node.node_id]):
                outcomes[(node.node_id, replica_id)] = node.engine.heal_link(
                    index
                )
        return outcomes

    # -- verification and accounting -------------------------------------------

    def verify(self) -> dict[tuple[int, int], int]:
        """Check every (primary, replica) pair; returns mismatch counts.

        An empty dict means the whole cluster is consistent.  Use
        :meth:`verify_detailed` to tell true divergence apart from a
        replica that is merely down-with-backlog (lagging but recoverable).
        """
        mismatches: dict[tuple[int, int], int] = {}
        stripe_codec = None
        if self.config.redundancy == "erasure":
            engine = self.nodes[0].engine
            assert engine is not None
            stripe_codec = engine.stripe_codec
        for node in self.nodes:
            for index, replica_id in enumerate(self.placement[node.node_id]):
                region = self.nodes[replica_id].replica_regions.get(node.node_id)
                if region is None:
                    continue  # never written to: trivially consistent
                if stripe_codec is not None:
                    # compare against the derived fragment, not the volume
                    source: BlockDevice = FragmentView(
                        node.primary_device, stripe_codec, index
                    )
                else:
                    source = node.primary_device
                bad = verify_consistency(source, region)
                if bad:
                    mismatches[(node.node_id, replica_id)] = len(bad)
        return mismatches

    def verify_detailed(self) -> "VerifyReport":
        """Classify every mismatched pair: diverged vs. down-with-backlog.

        A pair whose link holds backlog (or is forced down, or overflowed
        awaiting resync) is *pending*: the replica lags but the primary
        knows exactly how to catch it up, so the mismatch is expected and
        recoverable.  A mismatch on a clean, healthy link is *diverged* —
        the correctness failure replication exists to prevent.
        """
        diverged: dict[tuple[int, int], int] = {}
        pending: dict[tuple[int, int], int] = {}
        for (primary_id, replica_id), count in self.verify().items():
            engine = self.nodes[primary_id].engine
            assert engine is not None
            index = self.placement[primary_id].index(replica_id)
            guards = engine.guards
            guard = guards[index] if guards else None
            lagging = guard is not None and (
                guard.backlog_depth > 0
                or guard.needs_resync
                or guard.forced_down
            )
            if lagging:
                assert guard is not None
                pending[(primary_id, replica_id)] = guard.backlog_depth
            else:
                diverged[(primary_id, replica_id)] = count
        return VerifyReport(diverged=diverged, pending=pending)

    @property
    def total_retry_bytes(self) -> int:
        """Wire bytes spent on link-level retries cluster-wide."""
        return sum(
            node.engine.accountant.retry_bytes
            for node in self.nodes
            if node.engine is not None
        )

    @property
    def total_resync_bytes(self) -> int:
        """Wire bytes catching replicas up (replay + reconcile + digest)."""
        return sum(
            node.engine.accountant.backlog_replay_bytes
            + node.engine.accountant.resync_bytes
            + node.engine.accountant.reconcile_bytes
            for node in self.nodes
            if node.engine is not None
        )

    def verify_traffic_conservation(self) -> dict[int, dict[int, int]]:
        """Check every node's per-replica traffic ledgers balance.

        Runs :meth:`~repro.engine.primary.PrimaryEngine
        .verify_traffic_conservation` on each node's engine — including
        the resync wire bytes heal cycles charge — and returns
        ``{node_id: {replica_index: outstanding_bytes}}``.  Raises
        :class:`~repro.engine.accounting.ConservationError` on the first
        node whose ledger fails to balance.
        """
        outstanding: dict[int, dict[int, int]] = {}
        for node in self.nodes:
            assert node.engine is not None
            outstanding[node.node_id] = (
                node.engine.verify_traffic_conservation()
            )
        return outstanding

    @property
    def total_recovery_bytes(self) -> int:
        """All fault-recovery wire bytes (retries + replay + resync)."""
        return sum(
            node.engine.accountant.recovery_bytes
            for node in self.nodes
            if node.engine is not None
        )

    @property
    def total_payload_bytes(self) -> int:
        """Replication bytes shipped cluster-wide."""
        return sum(
            node.engine.accountant.payload_bytes
            for node in self.nodes
            if node.engine is not None
        )

    @property
    def total_data_bytes(self) -> int:
        """Logical bytes written cluster-wide."""
        return sum(
            node.engine.accountant.data_bytes
            for node in self.nodes
            if node.engine is not None
        )

    def mean_payload_per_write(self) -> float:
        """Mean replicated payload per write — feeds the queueing model."""
        writes = sum(
            node.engine.accountant.writes_replicated
            for node in self.nodes
            if node.engine is not None
        )
        return self.total_payload_bytes / writes if writes else 0.0

    def telemetry_snapshot(self) -> dict:
        """JSON-safe cluster aggregates + channel health map.

        Registered as the ``cluster`` telemetry source; per-node detail
        lives in the engines' own ``cluster.node<i>`` sources.
        """
        return {
            "nodes": self.config.nodes,
            "replicas_per_node": self.config.replicas_per_node,
            "redundancy": self.config.redundancy,
            "strategy": self.config.strategy,
            "down_nodes": sorted(self._down_nodes),
            "payload_bytes": self.total_payload_bytes,
            "data_bytes": self.total_data_bytes,
            "retry_bytes": self.total_retry_bytes,
            "resync_bytes": self.total_resync_bytes,
            "recovery_bytes": self.total_recovery_bytes,
            "mean_payload_per_write": self.mean_payload_per_write(),
            "link_health": {
                f"{primary}->{replica}": health.value
                for (primary, replica), health in sorted(self.health().items())
            },
        }


@dataclass(frozen=True)
class VerifyReport:
    """Cluster consistency, with lagging replicas told apart from diverged.

    ``diverged`` — (primary, replica) pairs that mismatch on a clean link:
    a real correctness failure.  ``pending`` — pairs whose mismatch is
    explained by journaled backlog / a down link (value = backlog depth):
    lagging, and recoverable via :meth:`StorageCluster.heal_node`.
    """

    diverged: dict[tuple[int, int], int] = field(default_factory=dict)
    pending: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        """True when nothing has truly diverged (pending lag is fine)."""
        return not self.diverged
