"""Conflict-aware replica read routing: the scale-out read tier.

Every read used to funnel through the primary, so adding replicas
bought durability but zero read throughput.  Harmonia-style routing
fixes that: a read of an LBA with **no write in flight** toward a
replica is safe to serve from that replica — its image for the LBA is
byte-identical to the primary's, because the primary applies writes
locally before shipping and the replica's copy only lags by in-flight
(submitted-but-unacked) work.  The scheduler's credit window tracks
exactly that set per channel (:meth:`~repro.engine.scheduler
.ReplicaChannel.lba_in_flight`), so conflict detection falls out of
existing bookkeeping.

:class:`ReadRouter` fans conflict-free reads out round-robin (or
least-loaded) across HEALTHY replicas and falls back to the primary
for everything else:

* the LBA is **dirty** on the chosen channel (unacked ShipWork, or a
  payload still buffered in the batch window) — counted as a
  ``router.reads_conflict``;
* the replica is DEGRADED/DOWN, holds journaled backlog, needs a
  resync, or exposes no readable device (e.g. a TCP initiator link);
* strict engines mid-failure — any stale state surfaces through the
  engine's own error paths, never through a routed read.

Erasure engines route the same way per *fragment holder*: a block is
reassembled from any ``k`` conflict-free healthy holders, with the
starting holder rotated per read so load spreads across all ``n``.

Linearizability argument (see DESIGN.md §5g): whenever a submission is
not resolved by the time the scheduler lets go of its lock — a metered
ack still on the event heap, a threaded worker still sending — the
dirty mark was taken under that lock *before* the write could reach
any wire, and it is cleared only *after* the replica acked the apply.
A send that returns the verified ack (the inline backend at zero
latency) is marked and cleared inside one hold of the lock, which no
read can observe, so it leaves no mark at all.  A routed read that
finds no mark therefore runs after the ack — it observes the new
bytes on the replica exactly as it would have on the primary.  A read
that sees a mark is served by the primary, which already holds the new
bytes.  Either way the read returns the value of the latest completed
write — the same answer ``read_policy="primary"`` gives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.block.device import BlockDevice
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.primary import PrimaryEngine

__all__ = ["READ_POLICIES", "ReadRouter"]

#: read policies understood by the engine/API layer; ``"primary"`` means
#: no router at all (every read served locally, the historical behavior)
READ_POLICIES = ("primary", "replica", "least_loaded")


class ReadRouter:
    """Route conflict-free reads across healthy replicas.

    ``policy`` picks the replica among the eligible set: ``"replica"``
    rotates round-robin; ``"least_loaded"`` prefers the channel with the
    fewest in-flight + queued submissions (ties rotate).  Construction
    with ``policy="primary"`` is rejected — a primary-serving engine
    simply has no router.

    Plain integer counters (:attr:`reads_primary` /
    :attr:`reads_replica` / :attr:`reads_conflict`) mirror the
    ``router.reads_*`` telemetry counters so routing decisions are
    observable even with telemetry off.
    """

    def __init__(self, engine: "PrimaryEngine", policy: str = "replica") -> None:
        if policy not in READ_POLICIES[1:]:
            raise ConfigurationError(
                f"router policy must be one of {READ_POLICIES[1:]}, "
                f"got {policy!r}"
            )
        self._engine = engine
        self.policy = policy
        self._rr = 0
        self.reads_primary = 0
        self.reads_replica = 0
        self.reads_conflict = 0
        tel = engine.telemetry
        self._tel = tel
        self._live = tel.enabled
        self._primary_counter = tel.counter("router.reads_primary")
        self._replica_counter = tel.counter("router.reads_replica")
        self._conflict_counter = tel.counter("router.reads_conflict")
        # per link, resolved once: its readable device (None for a link
        # that crosses a real network) and its guard (strict: no guards)
        self._devices: list[BlockDevice | None] = []
        self._guards: list = []
        #: replicas with a readable device — all a strict engine ever checks
        self._readable: list[int] = []
        guards = engine.guards
        for index, link in enumerate(engine.links):
            self.add_link(link, guards[index] if guards else None)

    def add_link(self, link, guard=None) -> None:
        """Register one more replica: resolve its device (and guard) once."""
        device = link.sync_device()
        if device is not None:
            self._readable.append(len(self._devices))
        self._devices.append(device)
        if guard is not None:
            self._guards.append(guard)

    # -- eligibility ---------------------------------------------------------

    def _healthy(self) -> list[int]:
        """Readable replicas that are up to date (modulo in-flight work).

        A guard that is not :attr:`~repro.engine.resilience.GuardedLink
        .fresh` has records the replica never saw — its whole image is
        suspect, not just single LBAs.
        """
        guards = self._guards
        if not guards:
            return self._readable
        return [j for j in self._readable if guards[j].fresh]

    def _channel_load(self, index: int) -> int:
        """In-flight + queued submissions on channel ``index`` (0 if none)."""
        scheduler = self._engine.scheduler
        if scheduler is None:
            return 0
        channel = scheduler.channels[index]
        return channel.inflight + channel.queue_depth

    # -- routing -------------------------------------------------------------

    def read(self, lba: int) -> bytes:
        """Serve one read, preferring a conflict-free healthy replica."""
        if not self._live:
            return self._route(lba)[0]
        with self._tel.span("read.route", lba=lba, policy=self.policy) as span:
            data, route = self._route(lba)
            span.set("route", route)
            return data

    def _route(self, lba: int) -> tuple[bytes, str]:
        engine = self._engine
        codec = engine.stripe_codec
        needed = 1 if codec is None else codec.k
        healthy = self._healthy()
        eligible = engine.clean_replicas(lba, healthy)
        if len(eligible) < needed:
            if len(healthy) >= needed:
                # enough healthy replicas existed but the LBA is in flight
                # on them (or still buffered in the batch window)
                self.reads_conflict += 1
                self._conflict_counter.inc()
            self.reads_primary += 1
            self._primary_counter.inc()
            return engine.device.read_block(lba), "primary"
        self.reads_replica += 1
        self._replica_counter.inc()
        devices = self._devices
        if codec is None:
            index = self._pick(eligible)
            route = f"replica:{index}" if self._live else ""
            return devices[index].read_block(lba), route
        # reassemble from any k conflict-free healthy holders, rotating the
        # starting holder so fragment load spreads over all n
        start = self._rr % len(eligible)
        self._rr += 1
        chosen = [eligible[(start + i) % len(eligible)] for i in range(codec.k)]
        fragments = {j: devices[j].read_block(lba) for j in chosen}
        route = ""
        if self._live:
            route = "holders:" + ",".join(str(j) for j in sorted(chosen))
        return codec.reassemble(fragments), route

    def _pick(self, eligible: list[int]) -> int:
        """Select one replica from the eligible set per the policy."""
        if self.policy == "least_loaded":
            loads = [self._channel_load(j) for j in eligible]
            best = min(loads)
            eligible = [j for j, load in zip(eligible, loads) if load == best]
        index = eligible[self._rr % len(eligible)]
        self._rr += 1
        return index

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe routing counters (also exported via telemetry)."""
        return {
            "policy": self.policy,
            "reads_primary": self.reads_primary,
            "reads_replica": self.reads_replica,
            "reads_conflict": self.reads_conflict,
        }
