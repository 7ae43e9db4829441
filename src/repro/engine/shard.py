"""LBA-sharded multi-primary: partition one volume across N engines.

One :class:`~repro.engine.primary.PrimaryEngine` serializes every write
through a single scheduler, batcher, and sequence space — the write-side
scaling wall once the read tier (:mod:`repro.engine.router`) stops
funnelling reads through it.  Sharding splits the LBA space into ``N``
independent partitions, each owned by its own engine with its own
scheduler/links/accounting, so disjoint-shard writes pipeline with zero
shared state.

The split is pure address arithmetic, not data movement:

* :class:`ShardMap` — the partition function.  ``policy="hash"``
  (default) interleaves LBAs round-robin (``shard = lba % N``), the
  degenerate-but-perfect consistent hash for a dense LBA space;
  ``policy="range"`` assigns contiguous runs.  Both are bijections
  ``global LBA ↔ (shard, local LBA)``, so shard devices need no lookup
  tables.
* :class:`ShardView` — a shard's window onto a *shared* backing device,
  translating local to global LBAs on every access.  Primary and
  replica devices stay whole: ``N`` shard engines write through ``N``
  views into the same primary volume, and their per-shard replica
  engines write through views into the same replica region — replica
  *images* are byte-identical to an unsharded run (only record
  sequence numbers differ, one dense space per shard).
* :class:`ShardedEngine` — the facade.  It is itself a
  :class:`~repro.block.device.BlockDevice` over the full volume:
  ``write_block``/``read_block`` forward to the owning shard,
  :meth:`write_many` splits a window per shard so cross-shard traffic
  drains concurrently, and health/recovery calls fan out to every
  shard (a link index means the same replica on all of them).

``shards=1`` is never wrapped: the API layer hands back the plain
engine, keeping the default path bit-for-bit identical to the
unsharded code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.block.device import BlockDevice
from repro.common.errors import ConfigurationError
from repro.engine.accounting import AggregateAccountant
from repro.engine.resilience import LinkHealth, ResyncOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.primary import PrimaryEngine
    from repro.engine.stripe import StripeCodec

__all__ = ["ShardMap", "ShardView", "ShardedEngine"]

#: LBA-partitioning policies understood by :class:`ShardMap`
SHARD_POLICIES = ("hash", "range")


class ShardMap:
    """Bijective partition of ``num_blocks`` LBAs across ``shards`` owners.

    ``hash`` interleaves (``shard = lba % shards``): adjacent LBAs land
    on different shards, spreading any sequential or strided workload
    evenly — the dense-address-space equivalent of consistent hashing.
    ``range`` assigns contiguous runs of ``ceil(num_blocks / shards)``
    LBAs: shard locality for range scans, at the cost of hot-range skew.
    """

    def __init__(
        self, shards: int, num_blocks: int, policy: str = "hash"
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if num_blocks < shards:
            raise ConfigurationError(
                f"cannot split {num_blocks} blocks across {shards} shards "
                "(each shard needs at least one block)"
            )
        if policy not in SHARD_POLICIES:
            raise ConfigurationError(
                f"shard policy must be one of {SHARD_POLICIES}, got {policy!r}"
            )
        self.shards = shards
        self.num_blocks = num_blocks
        self.policy = policy
        # range policy: contiguous runs of `width` LBAs per shard
        self._width = -(-num_blocks // shards)

    def shard_of(self, lba: int) -> int:
        """The shard owning global ``lba``."""
        if self.policy == "hash":
            return lba % self.shards
        return lba // self._width

    def local_of(self, lba: int) -> int:
        """Global ``lba`` as the owning shard's local block address."""
        if self.policy == "hash":
            return lba // self.shards
        return lba - (lba // self._width) * self._width

    def global_of(self, shard: int, local: int) -> int:
        """Shard-local address back to the global LBA."""
        if self.policy == "hash":
            return local * self.shards + shard
        return shard * self._width + local

    def blocks_in(self, shard: int) -> int:
        """How many LBAs shard ``shard`` owns."""
        if self.policy == "hash":
            base, extra = divmod(self.num_blocks, self.shards)
            return base + (1 if shard < extra else 0)
        start = shard * self._width
        return max(0, min(self._width, self.num_blocks - start))

    def split(
        self, writes: Sequence[tuple[int, bytes]]
    ) -> dict[int, list[tuple[int, bytes]]]:
        """Partition ``(lba, data)`` pairs by shard, order-preserving.

        Relative order *within* a shard is kept (same-LBA writes must
        apply in submission order); cross-shard order is immaterial —
        different shards own disjoint LBAs.
        """
        per_shard: dict[int, list[tuple[int, bytes]]] = {}
        for lba, data in writes:
            shard = self.shard_of(lba)
            per_shard.setdefault(shard, []).append((self.local_of(lba), data))
        return per_shard


class ShardView(BlockDevice):
    """One shard's window onto a shared backing device.

    Reads and writes translate the shard-local address to the global
    LBA and hit the shared base — so ``N`` shard engines (and their
    replica engines) materialize their images in *one* device, and
    byte-level comparisons against an unsharded run need no
    reassembly.  Closing a view closes only the view; the base belongs
    to whoever built it.
    """

    def __init__(self, base: BlockDevice, shard_map: ShardMap, shard: int) -> None:
        if not 0 <= shard < shard_map.shards:
            raise ConfigurationError(
                f"shard {shard} out of range ({shard_map.shards} shards)"
            )
        blocks = shard_map.blocks_in(shard)
        if blocks < 1:
            raise ConfigurationError(f"shard {shard} owns no blocks")
        super().__init__(base.block_size, blocks)
        self._base = base
        self._map = shard_map
        self._shard = shard

    @property
    def base(self) -> BlockDevice:
        """The shared backing device."""
        return self._base

    @property
    def shard(self) -> int:
        """This view's shard index."""
        return self._shard

    def _read(self, lba: int) -> bytes:
        return self._base.read_block(self._map.global_of(self._shard, lba))

    def _write(self, lba: int, data: bytes) -> None:
        self._base.write_block(self._map.global_of(self._shard, lba), data)

    def close(self) -> None:
        """Mark the view closed; the shared base stays open."""
        self._closed = True

    def snapshot(self) -> bytes:
        """This shard's blocks, concatenated in local LBA order."""
        return b"".join(data for _, data in self.iter_blocks())


class ShardedEngine(BlockDevice):
    """N independent primaries behind one block-device facade.

    ``engines[s]`` owns the LBAs :class:`ShardMap` assigns to shard
    ``s`` and must be built over a :class:`ShardView` of the shared
    ``device`` (the API/cluster factories do this).  Link index ``j``
    must mean the same replica on every shard, so health and recovery
    calls fan out by index.
    """

    def __init__(
        self,
        engines: "Sequence[PrimaryEngine]",
        shard_map: ShardMap,
        device: BlockDevice,
    ) -> None:
        if len(engines) != shard_map.shards:
            raise ConfigurationError(
                f"shard map expects {shard_map.shards} engines, "
                f"got {len(engines)}"
            )
        if device.num_blocks != shard_map.num_blocks:
            raise ConfigurationError(
                f"shard map covers {shard_map.num_blocks} blocks but the "
                f"device has {device.num_blocks}"
            )
        widths = {len(engine.links) for engine in engines}
        if len(widths) > 1:
            raise ConfigurationError(
                "every shard engine must share the same fan-out width, "
                f"got {sorted(widths)}"
            )
        super().__init__(device.block_size, device.num_blocks)
        self._engines = list(engines)
        self._map = shard_map
        self._device = device
        self.accountant = AggregateAccountant(
            [engine.accountant for engine in self._engines]
        )

    # -- topology ------------------------------------------------------------

    @property
    def shards(self) -> "tuple[PrimaryEngine, ...]":
        """The per-shard engines, in shard order."""
        return tuple(self._engines)

    @property
    def shard_map(self) -> ShardMap:
        """The LBA partition function."""
        return self._map

    @property
    def device(self) -> BlockDevice:
        """The shared full-volume primary device."""
        return self._device

    @property
    def fanout_width(self) -> int:
        """Replica links per shard (same replica set on every shard)."""
        return len(self._engines[0].links)

    @property
    def stripe_codec(self) -> "StripeCodec | None":
        """The erasure codec (``None`` for mirror fan-out)."""
        return self._engines[0].stripe_codec

    @property
    def stripe(self):
        """The erasure shape (``None`` for mirror fan-out)."""
        return self._engines[0].stripe

    @property
    def old_block_cache(self):
        """Shard 0's A_old cache (each shard keeps its own; ``None`` = off)."""
        return self._engines[0].old_block_cache

    @property
    def read_policy(self) -> str:
        """The read-routing policy in force (uniform across shards)."""
        return self._engines[0].read_policy

    def _shard_for(self, lba: int) -> "tuple[PrimaryEngine, int]":
        return self._engines[self._map.shard_of(lba)], self._map.local_of(lba)

    # -- BlockDevice interface ------------------------------------------------

    def _read(self, lba: int) -> bytes:
        engine, local = self._shard_for(lba)
        return engine.read_block(local)

    def _write(self, lba: int, data: bytes) -> None:
        engine, local = self._shard_for(lba)
        engine.write_block(local, data)

    def write_many(self, writes: Sequence[tuple[int, bytes]]) -> None:
        """Split a window per shard; each shard drains its slice in order.

        Cross-shard slices proceed independently — under pipelined
        fan-out each shard's scheduler overlaps its own window, so a
        window spanning all shards costs roughly one shard's makespan
        instead of the sum.
        """
        for lba, _ in writes:
            self._check_lba(lba)
        for shard, slice_ in self._map.split(writes).items():
            self._engines[shard].write_many(slice_)

    def read_striped(self, lba: int, exclude: Sequence[int] = ()) -> bytes:
        """Reassemble ``lba`` from the owning shard's fragment holders."""
        engine, local = self._shard_for(lba)
        return engine.read_striped(local, exclude=exclude)

    # -- lifecycle -------------------------------------------------------------

    def flush_batch(self) -> None:
        """Flush every shard's pending batch window."""
        for engine in self._engines:
            engine.flush_batch()

    def drain(self) -> None:
        """Quiesce every shard (flush batches, resolve in-flight fan-out)."""
        for engine in self._engines:
            engine.drain()

    def close(self) -> None:
        """Close every shard engine, then the shared device."""
        if not self.closed:
            for engine in self._engines:
                engine.close()
            self._device.close()
        super().close()

    # -- health & recovery -----------------------------------------------------

    def link_health(self) -> list[LinkHealth]:
        """Worst health per link index across all shards."""
        order = [LinkHealth.HEALTHY, LinkHealth.DEGRADED, LinkHealth.DOWN]
        merged: list[LinkHealth] = []
        for states in zip(*(e.link_health() for e in self._engines)):
            merged.append(max(states, key=order.index))
        return merged

    def backlog_depth(self, index: int) -> int:
        """Records backlogged toward link ``index``, summed over shards."""
        return sum(engine.backlog_depth(index) for engine in self._engines)

    def fail_link(self, index: int) -> None:
        """Mark link ``index`` down on every shard."""
        for engine in self._engines:
            engine.fail_link(index)

    def heal_link(self, index: int) -> list[ResyncOutcome]:
        """Heal link ``index`` on every shard; one outcome per shard."""
        return [engine.heal_link(index) for engine in self._engines]

    def heal_all(self) -> "list[list[ResyncOutcome]]":
        """Heal every link on every shard."""
        return [
            self.heal_link(index) for index in range(self.fanout_width)
        ]

    def repair_fragment(self, index: int) -> list:
        """Regenerate holder ``index``'s fragment on every shard.

        Erasure tier only; one :class:`~repro.engine.stripe.RepairReport`
        per shard, in shard order.
        """
        return [engine.repair_fragment(index) for engine in self._engines]

    @property
    def guards(self) -> tuple:
        """Per-link merged guard views (empty for strict engines)."""
        if not self._engines[0].guards:
            return ()
        return tuple(
            _ShardLinkGuards(
                index, [engine.guards[index] for engine in self._engines]
            )
            for index in range(self.fanout_width)
        )

    def verify_traffic_conservation(self) -> "dict[int, dict[int, int]]":
        """Run each shard's conservation check; ``{shard: outcome}``."""
        return {
            shard: engine.verify_traffic_conservation()
            for shard, engine in enumerate(self._engines)
        }

    # -- reporting -------------------------------------------------------------

    def router_snapshot(self) -> dict:
        """Summed read-router counters across shards (``{}`` if unrouted)."""
        routers = [e.router for e in self._engines if e.router is not None]
        if not routers:
            return {}
        return {
            "policy": routers[0].policy,
            "reads_primary": sum(r.reads_primary for r in routers),
            "reads_replica": sum(r.reads_replica for r in routers),
            "reads_conflict": sum(r.reads_conflict for r in routers),
        }


class _ShardLinkGuards:
    """Read-only merged view of one link's guards across every shard.

    Exposes exactly the fields cluster-level diagnostics and failover
    reads consult (:meth:`~repro.engine.cluster.StorageCluster
    .verify_detailed`, :meth:`~repro.engine.cluster.StorageCluster
    .read_from_replica`): lagging on *any* shard means the replica lags.
    """

    def __init__(self, index: int, guards: Sequence) -> None:
        self.index = index
        self._guards = list(guards)

    @property
    def backlog_depth(self) -> int:
        return sum(guard.backlog_depth for guard in self._guards)

    @property
    def needs_resync(self) -> bool:
        return any(guard.needs_resync for guard in self._guards)

    @property
    def forced_down(self) -> bool:
        return any(guard.forced_down for guard in self._guards)

    @property
    def fresh(self) -> bool:
        return all(guard.fresh for guard in self._guards)

    @property
    def health(self) -> LinkHealth:
        order = [LinkHealth.HEALTHY, LinkHealth.DEGRADED, LinkHealth.DOWN]
        return max((g.health for g in self._guards), key=order.index)
