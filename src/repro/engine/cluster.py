"""Multi-node storage cluster (the paper's Fig. 1 architecture).

"Consider a set of computing nodes interconnected by an IP network.  Each
node has a computation engine and a locally attached storage system. …
The storages of all the nodes collectively form a shared storage pool. …
shared data are replicated in a subset of nodes, called replica nodes"
(Sec. 2).

A cluster is therefore one primary stack per node plus a placement map:
node ``p`` is a :class:`~repro.api.PrimaryStack` built by
:func:`repro.api.open_cluster` from the same config as every other node,
and its replica (or erasure fragment holder) ``i`` is hosted by node
``placement[p][i]``.  :class:`StorageCluster` composes those stacks: it
maps node-level operations (fail, heal, repair, failover reads,
verification) onto the stacks' engines and exposes the aggregate
traffic numbers the queueing model consumes (population = nodes ×
replicas, Sec. 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import (
    ConfigurationError,
    ReplicationError,
    StaleReplicaError,
    run_all,
)
from repro.engine.resilience import LinkHealth, ResyncOutcome
from repro.engine.stripe import RepairReport

if TYPE_CHECKING:  # repro.api builds clusters; importing it here would cycle
    from repro.api import PrimaryStack


class StorageCluster:
    """The full Fig. 1 system: N primary stacks plus who hosts what.

    ``nodes[p]`` is node ``p``'s :class:`~repro.api.PrimaryStack`;
    ``placement[p][i]`` is the node that hosts its replica ``i`` (on the
    erasure tier, stripe fragment ``i``), whose device is
    ``nodes[p].replica_devices[i]``.  Build one with
    :func:`repro.api.open_cluster`.
    """

    def __init__(
        self, nodes: list[PrimaryStack], placement: dict[int, list[int]]
    ) -> None:
        self.nodes = nodes
        self.placement = placement
        self._down_nodes: set[int] = set()
        telemetry = nodes[0].telemetry
        if telemetry.enabled:
            telemetry.register_source("cluster", self.telemetry_snapshot)

    @property
    def population(self) -> int:
        """The queueing model's population: nodes × channels (Sec. 3.3)."""
        return sum(len(hosts) for hosts in self.placement.values())

    def drain(self) -> None:
        """Quiesce every live node: flush batches and drain in-flight fan-out.

        A no-op beyond flushing batch windows when acks resolve at send;
        with metered latency or threaded workers it blocks until every
        node's scheduler has resolved all outstanding window slots (the
        cluster-wide commit barrier).
        """
        for node_id, node in enumerate(self.nodes):
            if node_id not in self._down_nodes:
                node.engine.drain()

    def close(self) -> None:
        """Close every node's stack, even when one fails; re-raise the first error."""
        run_all(node.close for node in self.nodes)

    # -- data path ------------------------------------------------------------

    def write(self, node_id: int, lba: int, data: bytes) -> None:
        """Write through node ``node_id``'s engine (replicates outward)."""
        if node_id in self._down_nodes:
            raise ReplicationError(
                f"node {node_id} is down; writes need a live primary"
            )
        self.nodes[node_id].engine.write_block(lba, data)

    def read(self, node_id: int, lba: int) -> bytes:
        """Read node ``node_id``'s data (degraded-mode routing when down).

        A read addressed to a down node is transparently served by one of
        its replicas — the paper's motivating failover ("shared data are
        replicated in a subset of nodes", Sec. 2).
        """
        if node_id in self._down_nodes:
            return self.read_from_replica(node_id, lba)
        return self.nodes[node_id].engine.read_block(lba)

    def read_from_replica(self, primary_id: int, lba: int) -> bytes:
        """Serve ``primary_id``'s block from its replica set.

        Used after a primary failure.  Only *live, fresh* members of the
        replica set answer (:meth:`~repro.engine.primary.PrimaryEngine
        .fresh_replicas`): a replica that missed writes is skipped.
        Mirror tier: the first of them in placement order answers whole.
        Erasure tier: :meth:`~repro.engine.primary.PrimaryEngine
        .read_striped` reassembles the block from any ``k`` of them.
        Raises :class:`~repro.common.errors.StaleReplicaError` when stale
        replicas leave too few to serve, and
        :class:`~repro.common.errors.ReplicationError` when too few are
        live.
        """
        node = self.nodes[primary_id]
        engine = node.engine
        # Quiesce the primary's outbound pipeline first: under
        # fanout="pipelined" (threads mode especially) a submitted-but-
        # unacked ShipWork may be mid-apply on the replica, and reading
        # around it could observe a torn write.  Down channels journal
        # instantly, so this never blocks on the failed node itself.
        engine.drain()
        hosts = self.placement[primary_id]
        down = [i for i, host in enumerate(hosts) if host in self._down_nodes]
        if engine.stripe_codec is not None:
            return engine.read_striped(lba, exclude=down)
        serving = [i for i in engine.fresh_replicas() if i not in down]
        if not serving:
            stale = len(hosts) - len(down)
            error = StaleReplicaError if stale else ReplicationError
            raise error(
                f"no replica can serve node {primary_id}'s data: "
                f"of replicas {hosts}, {stale} are live but missed "
                "writes and the rest are down"
            )
        return node.replica_devices[serving[0]].read_block(lba)

    # -- health and recovery ---------------------------------------------------

    def _links_to(self, node_id: int) -> list[tuple[int, int]]:
        """Every (primary_id, link_index) whose replica lives on ``node_id``."""
        if not 0 <= node_id < len(self.nodes):
            raise ConfigurationError(
                f"unknown node {node_id} (cluster has {len(self.nodes)})"
            )
        return [
            (primary_id, index)
            for primary_id, hosts in self.placement.items()
            for index, host in enumerate(hosts)
            if host == node_id
        ]

    def _require_resilience(self, operation: str) -> None:
        if self.nodes[0].engine.resilience is None:
            raise ConfigurationError(
                f"{operation} needs a fault-tolerant cluster; build it "
                "with open_cluster(ReplicationConfig(resilient=True))"
            )

    @property
    def down_nodes(self) -> frozenset[int]:
        """Nodes currently marked down."""
        return frozenset(self._down_nodes)

    def health(self) -> dict[tuple[int, int], LinkHealth]:
        """Health of every (primary, replica) channel in the cluster."""
        return {
            (primary_id, self.placement[primary_id][index]): state
            for primary_id, node in enumerate(self.nodes)
            for index, state in enumerate(node.engine.link_health())
        }

    def fail_node(self, node_id: int) -> None:
        """Mark ``node_id`` unreachable: every link into it journals.

        Writes whose replica set includes the node degrade into backlog;
        reads addressed to the node fail over to its replicas.
        """
        self._require_resilience("fail_node")
        links = self._links_to(node_id)
        self._down_nodes.add(node_id)
        for primary_id, index in links:
            self.nodes[primary_id].engine.fail_link(index)

    def heal_node(self, node_id: int) -> dict[int, ResyncOutcome]:
        """Reconnect ``node_id`` and catch up every replica it hosts.

        Returns ``{primary_id: outcome}`` describing, per inbound channel,
        which recovery tier ran (backlog replay, set reconciliation, or
        the digest-sweep fallback) and what it cost on the wire.
        """
        self._require_resilience("heal_node")
        links = self._links_to(node_id)
        self._down_nodes.discard(node_id)
        return {
            primary_id: self.nodes[primary_id].engine.heal_link(index)
            for primary_id, index in links
        }

    def repair_node(self, node_id: int) -> dict[int, RepairReport]:
        """Rebuild every fragment hosted on ``node_id`` from survivors.

        The erasure tier's replacement path for a node that is *lost*
        (disk gone) rather than merely lagging: for each primary whose
        fragment lived there, :meth:`~repro.engine.primary.PrimaryEngine
        .repair_fragment` pulls fragment-sized reads from ``k`` fresh
        holders and regenerates the missing fragment in place —
        ``volume / k`` bytes shipped per hosted fragment instead of a
        full re-mirror.  Returns ``{primary_id: RepairReport}``.  The
        node must be live again (``heal_node`` first if it was failed);
        repair traffic lands in each primary's accountant.  Mirror
        clusters recover via :meth:`heal_node` and raise
        :class:`~repro.common.errors.ConfigurationError` here.
        """
        links = self._links_to(node_id)
        if node_id in self._down_nodes:
            raise ReplicationError(
                f"node {node_id} is down; heal_node it before repair"
            )
        return {
            primary_id: self.nodes[primary_id].engine.repair_fragment(index)
            for primary_id, index in links
        }

    def heal_all(self) -> dict[tuple[int, int], ResyncOutcome]:
        """Heal every channel in the cluster; returns per-pair outcomes."""
        self._require_resilience("heal_all")
        self._down_nodes.clear()
        return {
            (primary_id, self.placement[primary_id][index]): outcome
            for primary_id, node in enumerate(self.nodes)
            for index, outcome in enumerate(node.engine.heal_all())
        }

    # -- verification and accounting -------------------------------------------

    def _mismatches(self) -> Iterator[tuple[int, int, int]]:
        """``(primary_id, replica_index, mismatched blocks)`` per bad pair."""
        for primary_id, node in enumerate(self.nodes):
            for index, bad in node.mismatches().items():
                yield primary_id, index, len(bad)

    def verify(self) -> dict[tuple[int, int], int]:
        """Check every (primary, replica) pair; returns mismatch counts.

        An empty dict means the whole cluster is consistent.  Use
        :meth:`verify_detailed` to tell true divergence apart from a
        replica that is merely down-with-backlog (lagging but recoverable).
        """
        return {
            (primary_id, self.placement[primary_id][index]): count
            for primary_id, index, count in self._mismatches()
        }

    def verify_detailed(self) -> VerifyReport:
        """Classify every mismatched pair: diverged vs. down-with-backlog.

        A pair whose link holds backlog (or is forced down, or overflowed
        awaiting resync) is *pending*: the replica lags but the primary
        knows exactly how to catch it up, so the mismatch is expected and
        recoverable.  A mismatch on a clean, healthy link is *diverged* —
        the correctness failure replication exists to prevent.
        """
        report = VerifyReport()
        for primary_id, index, count in self._mismatches():
            pair = (primary_id, self.placement[primary_id][index])
            guards = self.nodes[primary_id].engine.guards
            guard = guards[index] if guards else None
            if guard is not None and (
                guard.backlog_depth > 0
                or guard.needs_resync
                or guard.forced_down
            ):
                report.pending[pair] = guard.backlog_depth
            else:
                report.diverged[pair] = count
        return report

    def _total(self, counter: str) -> int:
        return sum(
            getattr(node.engine.accountant, counter) for node in self.nodes
        )

    @property
    def total_retry_bytes(self) -> int:
        """Wire bytes spent on link-level retries cluster-wide."""
        return self._total("retry_bytes")

    @property
    def total_resync_bytes(self) -> int:
        """Wire bytes catching replicas up (replay + reconcile + digest)."""
        return (
            self._total("backlog_replay_bytes")
            + self._total("resync_bytes")
            + self._total("reconcile_bytes")
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
        return {
            node_id: node.engine.verify_traffic_conservation()
            for node_id, node in enumerate(self.nodes)
        }

    @property
    def total_recovery_bytes(self) -> int:
        """All fault-recovery wire bytes (retries + replay + resync)."""
        return self._total("recovery_bytes")

    @property
    def total_payload_bytes(self) -> int:
        """Replication bytes shipped cluster-wide."""
        return self._total("payload_bytes")

    @property
    def total_data_bytes(self) -> int:
        """Logical bytes written cluster-wide."""
        return self._total("data_bytes")

    def mean_payload_per_write(self) -> float:
        """Mean replicated payload per write — feeds the queueing model."""
        writes = self._total("writes_replicated")
        return self.total_payload_bytes / writes if writes else 0.0

    def telemetry_snapshot(self) -> dict:
        """JSON-safe cluster aggregates + channel health map.

        Registered as the ``cluster`` telemetry source; per-node detail
        lives in the engines' own ``cluster.node<i>`` sources.
        """
        return {
            "nodes": len(self.nodes),
            "population": self.population,
            "redundancy": self.nodes[0].config.redundancy,
            "strategy": self.nodes[0].config.strategy,
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
