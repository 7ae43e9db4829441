"""Fault tolerance for the primary→replica path.

The paper asserts the prototype is "fairly robust" under "extensive testing
and experiments" (Sec. 6) but never says *how* a PRINS primary survives a
flaky WAN link.  This module supplies the missing machinery, bottom-up:

* :class:`FaultyLink` — fault *injection*: wraps any
  :class:`~repro.engine.links.ReplicaLink` and drops, errors, delays, or
  duplicate-delivers ships on command (mirroring
  :class:`~repro.block.faulty.FaultyDevice`'s API for storage), so every
  recovery behaviour below is testable deterministically;
* :class:`RetryPolicy` / :class:`ResilientLink` — fault *masking*: bounded
  retries with exponential backoff and deterministic jitter (seeded through
  :func:`repro.common.rng.make_rng`), plus a per-attempt latency budget;
* :class:`CircuitBreaker` / :class:`LinkHealth` — fault *containment*: a
  HEALTHY → DEGRADED → DOWN state machine per link; a DOWN link stops
  eating retry budgets and is only probed every ``probe_interval`` writes
  (the classic half-open circuit);
* :class:`GuardedLink` — fault *recovery*: owned by
  :class:`~repro.engine.primary.PrimaryEngine`, it journals writes for an
  unreachable replica as parity-delta backlog
  (:class:`~repro.engine.journal.ReplicationJournal`), drains the backlog
  in sequence order once the link answers again, and escalates through
  the recovery ladder when the backlog overflowed its byte budget: set
  reconciliation (:mod:`repro.engine.reconcile`, O(divergence) wire
  cost) first, the full :func:`~repro.engine.sync.digest_sync` sweep as
  the deterministic fallback.  An overflowed link drops to *backlog-free
  DOWN mode* — further writes are counted and their LBAs remembered,
  but nothing is buffered and the primary's write path never fails.
  The wire cost of every recovery path (retries, backlog replay,
  reconcile sketches/diffs, digest resync) is charged to the engine's
  :class:`~repro.engine.accounting.TrafficAccountant` so benchmarks can
  compare recovery tiers byte for byte.

Replay safety rests on the replica's idempotency: re-shipping an
already-applied sequence number is acknowledged as ``ACK_DUPLICATE``
instead of re-XORing the delta (see :class:`~repro.engine.replica
.ReplicaEngine`).  Ordering safety rests on one invariant enforced by
:class:`GuardedLink`: once *any* record for a link is backlogged, every
subsequent record is backlogged behind it until the backlog drains —
PRINS parity deltas are only invertible against the exact old block, so
records must reach the replica in primary order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import (
    ConfigurationError,
    ReplicationError,
    RetriesExhaustedError,
    SyncError,
)
from repro.common.rng import make_rng
from repro.engine.accounting import Flow, TrafficAccountant
from repro.engine.journal import JournalOverflowError, ReplicationJournal
from repro.engine.links import ReplicaLink
from repro.engine.messages import ReplicationRecord
from repro.engine.reconcile import (
    ReconcileConfig,
    ReconcileReport,
    ReconcileSession,
    ReconcileStalledError,
    ResyncShipper,
)
from repro.engine.sync import SyncReport, digest_sync
from repro.engine.work import ShipWork
from repro.iscsi.transport import InjectedTransportError, TransportClosedError
from repro.obs.telemetry import NULL_TELEMETRY


class InjectedLinkError(ReplicationError):
    """The error raised for injected link failures.

    ``delivered`` records whether the ship reached the replica before the
    failure: a *drop* loses the record (``delivered=False``), an *error*
    loses only the ack (``delivered=True``) — retrying the latter exercises
    the replica's duplicate-suppression path.
    """

    def __init__(self, kind: str, lba: int, delivered: bool) -> None:
        super().__init__(f"injected link {kind} shipping LBA {lba}")
        self.kind = kind
        self.lba = lba
        self.delivered = delivered


#: Exceptions a resilient link treats as transient (worth retrying).
#: Anything else — CRC mismatches, protocol violations, programming
#: errors — propagates immediately: retrying a deterministic failure
#: only duplicates the damage.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    InjectedLinkError,
    InjectedTransportError,
    TimeoutError,
    TransportClosedError,
    ConnectionError,
    OSError,
)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class FaultyLink(ReplicaLink):
    """Pass-through link wrapper with controllable fault injection.

    The network-side sibling of :class:`~repro.block.faulty.FaultyDevice`:
    probabilistic faults driven by a seeded generator plus targeted
    one-shot faults, ``kill()``, and ``heal()``.  Four fault modes:

    * **drop** — the record never reaches the replica; the caller sees an
      :class:`InjectedLinkError` (as a real initiator would see a timeout);
    * **error** — the record *is* applied but the ack is lost, so the
      caller still sees an error.  A retry must be answered
      ``ACK_DUPLICATE`` by the replica;
    * **delay** — the record is delivered but ``delay_s`` of (simulated)
      latency is charged; a :class:`ResilientLink` with a per-attempt
      budget treats an over-budget ship as a timeout;
    * **duplicate** — the record is delivered twice (a retransmitting
      network); the replica must suppress the second copy.
    """

    def __init__(
        self,
        inner: ReplicaLink,
        drop_probability: float = 0.0,
        error_probability: float = 0.0,
        delay_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        delay_s: float = 0.25,
        rng: np.random.Generator | None = None,
    ) -> None:
        probs = {
            "drop": drop_probability,
            "error": error_probability,
            "delay": delay_probability,
            "duplicate": duplicate_probability,
        }
        for name, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"{name}_probability must be in [0, 1], got {p}"
                )
        if sum(probs.values()) > 1.0:
            raise ValueError(
                f"fault probabilities must sum to <= 1, got {sum(probs.values())}"
            )
        self._inner = inner
        self._probs = probs
        self._delay_s = delay_s
        self._rng = rng if rng is not None else make_rng(0, "faulty-link")
        self._forced: list[str] = []  # pending one-shot faults (FIFO)
        self._dead = False
        self.ships_attempted = 0
        self.faults_injected = 0
        self.drops = 0
        self.errors = 0
        self.delays = 0
        self.duplicates = 0
        self.simulated_delay_s = 0.0
        #: latency of the most recent *successful* ship (read by
        #: :class:`ResilientLink` to enforce its per-attempt budget)
        self.last_ship_delay_s = 0.0

    @property
    def inner(self) -> ReplicaLink:
        """The wrapped link."""
        return self._inner

    # -- fault controls ----------------------------------------------------

    def fail_next(self, count: int = 1, kind: str = "drop") -> None:
        """Force the next ``count`` ships to fail with ``kind``.

        ``kind`` is one of ``drop``/``error``/``delay``/``duplicate``.
        Forced faults fire before any probabilistic draw, so tests can
        script exact failure sequences.
        """
        if kind not in self._probs:
            raise ValueError(f"unknown fault kind {kind!r}")
        self._forced.extend([kind] * count)

    def kill(self) -> None:
        """Simulate link partition: every ship drops until :meth:`heal`."""
        self._dead = True

    def heal(self) -> None:
        """Clear all injected faults (partition over, queue drained)."""
        self._dead = False
        self._forced.clear()

    def _draw(self) -> str | None:
        if self._dead:
            return "drop"
        if self._forced:
            return self._forced.pop(0)
        total = sum(self._probs.values())
        if total <= 0.0:
            return None
        r = float(self._rng.random())
        acc = 0.0
        for kind, p in self._probs.items():
            acc += p
            if r < acc:
                return kind
        return None

    # -- ReplicaLink -------------------------------------------------------

    def submit(self, work: ShipWork) -> bytes:
        """Submit through the inner link unless a fault draw intervenes.

        One fault draw covers single records and batches alike.  A *drop*
        loses the whole submission; an *error* applies it but loses the
        ack; *duplicate* redelivers it (the replica's per-record
        idempotency must absorb every segment).
        """
        self.ships_attempted += 1
        self.last_ship_delay_s = 0.0
        mode = self._draw()
        if mode is None:
            return self._inner.submit(work)
        self.faults_injected += 1
        if mode == "drop":
            self.drops += 1
            raise InjectedLinkError("drop", work.lba, delivered=False)
        if mode == "error":
            self.errors += 1
            self._inner.submit(work)  # applied, but the ack is lost
            raise InjectedLinkError("error", work.lba, delivered=True)
        if mode == "delay":
            self.delays += 1
            self.simulated_delay_s += self._delay_s
            self.last_ship_delay_s = self._delay_s
            return self._inner.submit(work)
        # duplicate: the network retransmitted; replica sees it twice
        self.duplicates += 1
        ack = self._inner.submit(work)
        self._inner.submit(work)
        return ack

    def bind_telemetry(self, telemetry) -> None:
        """Forward the telemetry handle to the wrapped link."""
        self._inner.bind_telemetry(telemetry)

    def sync_device(self):
        """Expose the wrapped link's replica device (for resync)."""
        return self._inner.sync_device()

    def close(self) -> None:
        """Close the wrapped link."""
        self._inner.close()


# ---------------------------------------------------------------------------
# Retry with backoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay_s(i)`` for retry ``i`` (0-based) is
    ``min(base_delay_s * multiplier**i, max_delay_s)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1]``.  The draw comes from
    the caller's seeded generator, so two runs with the same seed back off
    identically — experiments stay reproducible even under injected faults.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    #: a single attempt slower than this counts as a timeout (retryable)
    attempt_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay_s(
        self, retry_index: int, rng: np.random.Generator | None = None
    ) -> float:
        """Backoff before retry ``retry_index`` (0-based), jittered."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        delay = min(
            self.base_delay_s * self.multiplier**retry_index, self.max_delay_s
        )
        if self.jitter and rng is not None:
            delay *= 1.0 - self.jitter * float(rng.random())
        return delay

    def schedule(self, rng: np.random.Generator | None = None) -> list[float]:
        """The full backoff schedule for one exhausted retry budget."""
        return [self.delay_s(i, rng) for i in range(self.max_attempts - 1)]


class ResilientLink(ReplicaLink):
    """Retry decorator around any :class:`~repro.engine.links.ReplicaLink`.

    Transient failures (:data:`TRANSIENT_ERRORS`) are retried up to
    ``policy.max_attempts`` times with the policy's jittered backoff;
    everything else propagates untouched.  When the budget is exhausted a
    :class:`~repro.common.errors.RetriesExhaustedError` wraps the last
    transient error, which the engine's :class:`GuardedLink` treats as
    "this replica is unreachable right now".

    By default backoff time is *simulated* (accumulated in
    :attr:`simulated_backoff_s`) so tests and traffic experiments never
    sleep; pass ``sleep=time.sleep`` to block for real over a live network.
    """

    def __init__(
        self,
        inner: ReplicaLink,
        policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        sleep: Callable[[float], None] | None = None,
        on_retry: Callable[[int], None] | None = None,
        telemetry=None,
    ) -> None:
        self._inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = rng if rng is not None else make_rng(0, "resilient-link")
        self._sleep = sleep
        self._on_retry = on_retry
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.ships = 0
        self.retries = 0
        self.giveups = 0
        self.simulated_backoff_s = 0.0

    @property
    def inner(self) -> ReplicaLink:
        """The wrapped link."""
        return self._inner

    def _backoff(self, retry_index: int) -> None:
        delay = self.policy.delay_s(retry_index, self._rng)
        if self._sleep is not None:
            self._sleep(delay)
        else:
            self.simulated_backoff_s += delay

    def _attempt(self, work: ShipWork) -> bytes:
        started = time.perf_counter()
        ack = self._inner.submit(work)
        budget = self.policy.attempt_budget_s
        if budget is not None:
            elapsed = time.perf_counter() - started
            # injected (simulated) latency counts against the budget too
            elapsed += getattr(self._inner, "last_ship_delay_s", 0.0)
            if elapsed > budget:
                what = (
                    f"batch ship of {work.record_count} records"
                    if work.is_batch
                    else f"ship of LBA {work.lba}"
                )
                raise TimeoutError(
                    f"{what} took {elapsed:.3f}s "
                    f"(budget {budget:.3f}s); ack discarded"
                )
        return ack

    def submit(self, work: ShipWork) -> bytes:
        """Submit with bounded retries; raises RetriesExhaustedError on give-up.

        The whole submission is the retry unit — for a batch, the
        replica's per-record duplicate suppression makes a partial
        re-delivery harmless.
        """
        self.ships += 1
        wire_len = work.wire_size + self.pdu_overhead
        last: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self._backoff(attempt - 1)
                self.retries += 1
                if self._on_retry is not None:
                    self._on_retry(wire_len)
                self._tel.event(
                    "link.retry",
                    lba=work.lba,
                    attempt=attempt,
                    error=type(last).__name__ if last is not None else "",
                )
            try:
                if attempt:
                    # Each retry is its own span joined to the write's causal
                    # context, so the stitched tree shows every re-ship.
                    with self._tel.span_in(
                        "link.retry", work.ctx, attempt=attempt, lba=work.lba
                    ):
                        return self._attempt(work)
                return self._attempt(work)
            except TRANSIENT_ERRORS as exc:
                last = exc
        self.giveups += 1
        assert last is not None
        self._tel.event(
            "link.giveup",
            lba=work.lba,
            attempts=self.policy.max_attempts,
            error=type(last).__name__,
        )
        raise RetriesExhaustedError(
            work.lba, self.policy.max_attempts, last
        ) from last

    def bind_telemetry(self, telemetry) -> None:
        """Forward the telemetry handle to the wrapped link."""
        self._inner.bind_telemetry(telemetry)

    def sync_device(self):
        """Expose the wrapped link's replica device (for resync)."""
        return self._inner.sync_device()

    def close(self) -> None:
        """Close the wrapped link."""
        self._inner.close()


# ---------------------------------------------------------------------------
# Health state machine
# ---------------------------------------------------------------------------


class LinkHealth(str, Enum):
    """Per-link health as the primary sees it."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"


class CircuitBreaker:
    """HEALTHY → DEGRADED → DOWN with a half-open probe, by failure count.

    ``degraded_after`` consecutive failures mark the link DEGRADED (still
    shipped to, but visibly unwell); ``down_after`` open the circuit: the
    link is skipped entirely except for one *probe* ship every
    ``probe_interval`` suppressed attempts (the half-open state).  A probe
    success closes the circuit; a probe failure re-opens it and restarts
    the probe countdown.  Counting writes instead of wall-clock keeps the
    machine deterministic under simulation.
    """

    def __init__(
        self,
        degraded_after: int = 1,
        down_after: int = 3,
        probe_interval: int = 4,
        on_transition: Callable[[LinkHealth, LinkHealth], None] | None = None,
    ) -> None:
        if degraded_after < 1:
            raise ConfigurationError(
                f"degraded_after must be >= 1, got {degraded_after}"
            )
        if down_after < degraded_after:
            raise ConfigurationError(
                "down_after must be >= degraded_after "
                f"({down_after} < {degraded_after})"
            )
        if probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1, got {probe_interval}"
            )
        self._degraded_after = degraded_after
        self._down_after = down_after
        self._probe_interval = probe_interval
        self._state = LinkHealth.HEALTHY
        self._consecutive_failures = 0
        self._suppressed = 0
        self._half_open = False
        self.transitions: list[tuple[LinkHealth, LinkHealth]] = []
        #: observer called as ``on_transition(old, new)`` after each move —
        #: the guard wires the flight recorder here
        self.on_transition = on_transition

    @property
    def state(self) -> LinkHealth:
        """Current health."""
        return self._state

    @property
    def half_open(self) -> bool:
        """True while a probe ship is in flight for a DOWN link."""
        return self._half_open

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success."""
        return self._consecutive_failures

    def _move(self, new: LinkHealth) -> None:
        if new is not self._state:
            old = self._state
            self.transitions.append((old, new))
            self._state = new
            if self.on_transition is not None:
                self.on_transition(old, new)

    def should_attempt(self) -> bool:
        """Whether the next ship may go on the wire.

        Always true while HEALTHY/DEGRADED.  While DOWN, every
        ``probe_interval``-th call returns True (half-open probe); the rest
        are suppressed so a dead replica costs almost nothing.
        """
        if self._state is not LinkHealth.DOWN:
            return True
        self._suppressed += 1
        if self._suppressed >= self._probe_interval:
            self._suppressed = 0
            self._half_open = True
            return True
        return False

    def record_success(self) -> None:
        """An attempted ship was acked: close the circuit."""
        self._consecutive_failures = 0
        self._suppressed = 0
        self._half_open = False
        self._move(LinkHealth.HEALTHY)

    def record_failure(self) -> None:
        """An attempted ship failed (after any retries)."""
        self._consecutive_failures += 1
        self._suppressed = 0
        self._half_open = False
        if self._consecutive_failures >= self._down_after:
            self._move(LinkHealth.DOWN)
        elif self._consecutive_failures >= self._degraded_after:
            self._move(LinkHealth.DEGRADED)

    def force_down(self) -> None:
        """Operator/cluster marked the replica down (no probes fire)."""
        self._consecutive_failures = max(
            self._consecutive_failures, self._down_after
        )
        self._half_open = False
        self._move(LinkHealth.DOWN)


# ---------------------------------------------------------------------------
# Engine-side guard: breaker + backlog + resync escalation
# ---------------------------------------------------------------------------


#: resync escalation modes: ``reconcile`` inserts the set-reconciliation
#: tier (with digest fallback); ``digest`` goes straight to the full sweep
RESYNC_MODES = ("reconcile", "digest")


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for a fault-tolerant :class:`PrimaryEngine`."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degraded_after: int = 1
    down_after: int = 3
    probe_interval: int = 4
    backlog_capacity_bytes: int = 1 << 20
    seed: int = 0
    #: how an overflowed link is caught up: "reconcile" or "digest"
    resync: str = "reconcile"
    #: set-reconciliation tunables (only used when ``resync="reconcile"``)
    reconcile: ReconcileConfig = field(default_factory=ReconcileConfig)

    def __post_init__(self) -> None:
        """Reject unknown resync modes before an engine is wired."""
        if self.resync not in RESYNC_MODES:
            raise ConfigurationError(
                f"resync must be one of {RESYNC_MODES}, got {self.resync!r}"
            )


@dataclass(frozen=True)
class ResyncOutcome:
    """What one :meth:`GuardedLink.heal` did to catch the replica up.

    ``tiers`` records every escalation step the heal walked, in order —
    e.g. ``("reconcile",)`` for a clean reconciliation, or
    ``("reconcile", "digest")`` when sketch decoding stalled and the
    heal fell back to the full digest sweep.
    """

    mode: str  # "none" | "replay" | "reconcile" | "digest"
    records_replayed: int = 0
    bytes_replayed: int = 0
    sync_report: SyncReport | None = None
    reconcile: ReconcileReport | None = None
    tiers: tuple[str, ...] = ()


class GuardedLink:
    """One replica channel under the engine's fault-tolerance policy.

    Wraps the user's link in a :class:`ResilientLink` (unless it already is
    one), owns the link's :class:`CircuitBreaker` and backlog journal, and
    exposes a :meth:`submit` that *never raises on transient faults*: a
    submission either reaches the replica now (returns True) or is
    journaled for later (returns False).  Deterministic errors (CRC
    mismatches, bad acks) still propagate — masking those would hide
    corruption.
    """

    def __init__(
        self,
        link: ReplicaLink,
        config: ResilienceConfig,
        accountant: TrafficAccountant,
        index: int = 0,
        telemetry=None,
    ) -> None:
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        #: orders this guard's updates of state its engine's other guards
        #: share (the ``resilience.*`` counters); a fan-out scheduler that
        #: runs guards on worker threads puts its resolve lock here
        self.shared_lock: threading.Lock | threading.RLock = threading.Lock()
        # shared across links on purpose: these are engine-wide aggregates
        self._delivered_counter = tel.counter("resilience.ships_delivered")
        self._journaled_counter = tel.counter("resilience.ships_journaled")
        self._suppressed_counter = tel.counter("resilience.ships_suppressed")
        self._probe_counter = tel.counter("resilience.probe_ships")
        self._overflow_counter = tel.counter("resilience.backlog_overflows")
        self.raw_link = link
        if isinstance(link, ResilientLink):
            self.link: ReplicaLink = link
        elif config.retry.max_attempts > 1:
            self.link = ResilientLink(
                link,
                config.retry,
                rng=make_rng(config.seed, "retry", index),
                on_retry=lambda wire_len: accountant.post(
                    index, Flow.RETRY, wire_len
                ),
                telemetry=tel,
            )
        else:
            self.link = link
        self.breaker = CircuitBreaker(
            degraded_after=config.degraded_after,
            down_after=config.down_after,
            probe_interval=config.probe_interval,
            on_transition=self._on_health_transition,
        )
        self.backlog = ReplicationJournal(config.backlog_capacity_bytes)
        self.accountant = accountant
        self.config = config
        #: fan-out position of this channel (per-replica accounting key)
        self.index = index
        self.forced_down = False
        self.last_error: BaseException | None = None
        #: backlog-free DOWN mode: the backlog overflowed, so only a
        #: resync tier can catch the replica up — new writes are counted
        #: (and their LBAs remembered) but no longer buffered
        self.resync_required = False
        #: in-flight reconciliation, kept across failed heals for resume
        self._session: ReconcileSession | None = None
        #: (sketch, digest, diff) bytes of the session already charged
        self._reconcile_charged = (0, 0, 0)
        #: LBA of every record journaled, suppressed or dropped since the
        #: replica was last caught up.  It seeds the next reconcile
        #: session, so it must be complete: an LBA is forgotten only once
        #: the backlog fully replays or a resync tier completes
        self._dirty: set[int] = set()

    # -- state -------------------------------------------------------------

    def _on_health_transition(self, old: LinkHealth, new: LinkHealth) -> None:
        """Record every breaker move; a drop to DOWN dumps the recorder."""
        self._tel.event(
            "health.transition", link=self.index, old=old.value, new=new.value
        )
        if new is LinkHealth.DOWN:
            self._tel.fault(
                "link_down",
                link=self.index,
                error=(
                    type(self.last_error).__name__
                    if self.last_error is not None
                    else ""
                ),
            )

    @property
    def health(self) -> LinkHealth:
        """Effective health (forced-down counts as DOWN)."""
        return LinkHealth.DOWN if self.forced_down else self.breaker.state

    @property
    def backlog_depth(self) -> int:
        """Records currently waiting in this link's backlog."""
        return self.backlog.entry_count

    @property
    def needs_resync(self) -> bool:
        """True when only a resync tier can restore this replica."""
        return self.resync_required or self.backlog.overflowed

    @property
    def fresh(self) -> bool:
        """True when the replica holds every record shipped to it.

        HEALTHY, no backlog, no resync pending.  Every path that trusts a
        replica's image — routed reads, striped reads, survivor repair,
        failover reads — checks this one predicate: a DEGRADED holder
        that lost a delta is as stale as a DOWN one.
        """
        return (
            self.health is LinkHealth.HEALTHY
            and not self.backlog.entry_count
            and not self.needs_resync
        )

    # -- data path -----------------------------------------------------------

    def submit(self, work: ShipWork, verify_acks: bool) -> bool:
        """Deliver now if possible, else journal; True iff delivered.

        One entry point for single records and batches.  On failure a
        batch submission is *disaggregated* — each constituent record is
        journaled individually, in order, so a later heal replays them
        through the ordinary record path (replay code needs no batch
        awareness and the replica applies them in the original sequence
        order).
        """
        if self.resync_required:
            # Backlog-free DOWN mode: the backlog already overflowed, so
            # a resync tier must cover this write anyway — count it and
            # remember its LBA, but don't buffer or touch the wire.
            with self.shared_lock:
                self._suppressed_counter.inc()
            self._journal_work(work)
            return False
        if self.forced_down or not self.breaker.should_attempt():
            with self.shared_lock:
                self._suppressed_counter.inc()
            self._journal_work(work)
            return False
        if self.breaker.half_open:
            with self.shared_lock:
                self._probe_counter.inc()
        if self.backlog.overflowed:
            # Only an explicit heal() (resync tier) can recover; keep
            # journaling so post-overflow writes are at least countable.
            self._journal_work(work)
            return False
        try:
            if self.backlog.entry_count:
                # Drain in order first: PRINS deltas are order-sensitive.
                self._drain_backlog()
                self._dirty.clear()  # fully replayed: caught up
            ack = self.link.submit(work)
        except JournalOverflowError as exc:
            # The backlog overflowed under our feet (concurrent writers
            # racing the overflow check): degrade to resync-required
            # instead of failing the primary's write.
            self.last_error = exc
            self._enter_resync_required()
            self._journal_work(work)
            return False
        except TRANSIENT_ERRORS + (RetriesExhaustedError,) as exc:
            self.last_error = exc
            self.breaker.record_failure()
            self._journal_work(work)
            return False
        if verify_acks:
            work.verify_ack(ack)
        self.breaker.record_success()
        with self.shared_lock:
            self._delivered_counter.inc()
        return True

    def _journal_work(self, work: ShipWork) -> None:
        """Journal a failed submission's records individually, in order."""
        for lba, record in work.records():
            self._journal(lba, record)

    def _journal(self, lba: int, record: ReplicationRecord) -> None:
        # Remember the LBA before the record can be evicted, abandoned or
        # dropped: the next reconcile session is seeded from this set.
        self._dirty.add(lba)
        if self.resync_required:
            # Backlog-free DOWN mode: count the deferred copy and close
            # its ledger immediately (journaled == dropped) — the resync
            # tier will re-derive the block from the devices.
            with self.shared_lock:
                self._journaled_counter.inc()
            self.accountant.post(self.index, Flow.JOURNAL, record.wire_size)
            self.accountant.post(self.index, Flow.DROP, record.wire_size)
            if self._session is not None:
                # a suspended reconciliation must re-check this group
                self._session.invalidate((lba,))
            return
        dropped_before = self.backlog.payload_bytes_dropped_total
        self.backlog.append(lba, record)
        self._tel.event(
            "journal.append", link=self.index, lba=lba, seq=record.seq
        )
        with self.shared_lock:
            self._journaled_counter.inc()
        self.accountant.post(self.index, Flow.JOURNAL, record.wire_size)
        dropped = self.backlog.payload_bytes_dropped_total - dropped_before
        if dropped:
            # Overflow eviction: those bytes will never replay — close the
            # ledger now so conservation holds under out-of-order recovery.
            self.accountant.post(self.index, Flow.DROP, dropped)
            self._enter_resync_required()

    def _enter_resync_required(self) -> None:
        """Degrade to backlog-free DOWN mode after a backlog overflow.

        The overflowed backlog can never replay, so buffering further
        records only burns memory: drop what remains (charging the
        ledger; every journaled LBA, evicted or not, is already
        remembered), and force the breaker DOWN so the write path stops
        probing a replica that only :meth:`heal` can bring back.  The
        primary's writes keep succeeding locally throughout — a long
        outage degrades the replica, never the write path.
        """
        if self.resync_required:
            return
        self.resync_required = True
        with self.shared_lock:
            self._overflow_counter.inc()
        self._tel.event(
            "backlog.overflow",
            link=self.index,
            pending_bytes=self.backlog.payload_bytes_pending,
            pending_records=self.backlog.entry_count,
        )
        pending = self.backlog.payload_bytes_pending
        if pending:
            self.accountant.post(self.index, Flow.DROP, pending)
        self.backlog.clear()
        self.breaker.force_down()

    def _drain_backlog(self) -> int:
        """Replay the backlog through the link, charging wire bytes.

        Ship-then-pop replay means a mid-drain failure keeps the failing
        record (and everything behind it) queued in order; the exception
        propagates to the caller, which journals the current record behind
        the retained backlog.
        """
        records_before = self.backlog.records_replayed_total
        bytes_before = self.backlog.bytes_replayed_total
        try:
            return self.backlog.replay(self.link)
        finally:
            replayed = self.backlog.records_replayed_total - records_before
            replayed_bytes = self.backlog.bytes_replayed_total - bytes_before
            if replayed:
                self._tel.event(
                    "backlog.replay",
                    link=self.index,
                    records=replayed,
                    bytes=replayed_bytes,
                )
            self.accountant.post(
                self.index, Flow.REPLAY, replayed_bytes, replayed
            )

    # -- recovery ------------------------------------------------------------

    def fail(self) -> None:
        """Operator marked the replica unreachable: journal everything."""
        self.forced_down = True
        self.breaker.force_down()

    def heal(
        self,
        sync_source: BlockDevice,
        record_builder: Callable[[int, bytes, bytes], ReplicationRecord | None]
        | None = None,
    ) -> ResyncOutcome:
        """Reconnect and catch the replica up; returns what it cost.

        The recovery ladder, cheapest tier first:

        1. **replay** — backlog intact: drain it in sequence order;
        2. **reconcile** — backlog overflowed (or a prior reconciliation
           is suspended): run the :mod:`~repro.engine.reconcile` set
           reconciliation, shipping only divergent blocks.  A new
           session is seeded from the LBAs this guard remembers, so it
           only sketches the groups holding one of them; with nothing
           remembered (e.g. ``resync_required`` set by hand) it runs the
           full session, which is the scrub.  Requires
           ``record_builder`` (the engine's strategy-aware record
           factory) and ``config.resync == "reconcile"``;
        3. **digest** — the deterministic fallback: a full
           :func:`~repro.engine.sync.digest_sync` sweep, taken when the
           reconcile tier is disabled, unavailable, or stalls.

        Seeding is exact because the remembered set is complete: the
        guard remembers the LBA of every record it journals, suppresses
        or drops — evicted on overflow, abandoned at heal, or part of a
        failed batch — and forgets them only once the replica is caught
        up (backlog fully replayed, or a resync tier completed).

        Every tier the heal walked is recorded in the outcome's
        ``tiers``.  Transient link errors propagate with session state
        intact — call :meth:`heal` again to resume from the last
        verified group.  Raises :class:`~repro.common.errors.SyncError`
        if a resync is needed but the link cannot expose the replica
        device (resync must then happen out-of-band).
        """
        self.forced_down = False
        needs_resync_tier = (
            self.resync_required
            or self.backlog.overflowed
            or self._session is not None
        )
        if not needs_resync_tier:
            if self.backlog.entry_count:
                records_before = self.backlog.records_replayed_total
                bytes_before = self.backlog.bytes_replayed_total
                self._drain_backlog()  # transient errors propagate to caller
                self._dirty.clear()
                self.breaker.record_success()
                self._tel.counter("resilience.resync_replay").inc()
                return ResyncOutcome(
                    "replay",
                    records_replayed=self.backlog.records_replayed_total
                    - records_before,
                    bytes_replayed=self.backlog.bytes_replayed_total
                    - bytes_before,
                    tiers=("replay",),
                )
            self.breaker.record_success()
            return ResyncOutcome("none")
        dest = self.link.sync_device()
        if dest is None:
            raise SyncError(
                "backlog overflowed and the link does not expose the "
                "replica device; run digest_sync/full_sync out-of-band "
                "and clear() the backlog"
            )
        # Whatever the backlog still buffers is covered by the resync,
        # not a replay (its LBAs are already remembered): close the ledger.
        pending = self.backlog.payload_bytes_pending
        if pending:
            self.accountant.post(self.index, Flow.DROP, pending)
        self.backlog.clear()
        self.resync_required = True
        tiers: list[str] = []
        if self.config.resync == "reconcile" and record_builder is not None:
            tiers.append("reconcile")
            outcome = self._heal_reconcile(
                sync_source, dest, record_builder, tiers
            )
            if outcome is not None:
                return outcome
            # stalled: deterministic fallback to the full digest sweep
        tiers.append("digest")
        report = digest_sync(sync_source, dest)
        self.accountant.post(self.index, Flow.RESYNC, report.wire_bytes)
        self._finish_resync()
        self.breaker.record_success()
        self._tel.counter("resilience.resync_digest").inc()
        return ResyncOutcome("digest", sync_report=report, tiers=tuple(tiers))

    def _heal_reconcile(
        self,
        sync_source: BlockDevice,
        dest: BlockDevice,
        record_builder: Callable[[int, bytes, bytes], ReplicationRecord | None],
        tiers: list[str],
    ) -> ResyncOutcome | None:
        """Run (or resume) the reconcile tier; None means "fall back".

        A new session is seeded from the remembered LBAs — only their
        groups start pending — or, with nothing remembered, starts every
        group pending (the full scrub).  Writes that land while a
        session is suspended re-pend their groups as they are journaled
        (:meth:`_journal`), so a resumed session never trusts a stale
        group.  A transient fault propagates after charging the bytes
        already spent, with the session retained for the next heal.  A
        stall discards the session and returns None so :meth:`heal`
        escalates to the digest sweep.
        """
        session = self._session
        if session is None:
            session = self._session = ReconcileSession(
                sync_source.num_blocks,
                sync_source.block_size,
                self.config.reconcile,
                seed=self.config.seed + self.index,
                dirty=self._dirty or None,
            )
            self._reconcile_charged = (0, 0, 0)
        shipper = ResyncShipper(self.link, record_builder, session.report)
        self.accountant.post(self.index, Flow.RECONCILE, 0)
        stalled = False
        with self._tel.span(
            "resync.reconcile", link=self.index, rounds=session.rounds_used
        ) as span:
            try:
                session.run(
                    sync_source,
                    dest,
                    shipper,
                    on_round=lambda rnd, pending: self._tel.event(
                        "reconcile.round",
                        link=self.index,
                        round=rnd,
                        pending_groups=pending,
                    ),
                )
            except ReconcileStalledError:
                stalled = True
                span.set("stalled", True)
            except TRANSIENT_ERRORS + (RetriesExhaustedError,) as exc:
                self.last_error = exc
                self.breaker.record_failure()
                raise
            finally:
                self._charge_reconcile(session)
        if stalled:
            self._tel.fault(
                "reconcile_stalled",
                link=self.index,
                rounds=session.rounds_used,
            )
            self._session = None
            self._tel.counter("reconcile.fallbacks").inc()
            return None
        report = session.report
        self._session = None
        self._finish_resync()
        self.breaker.record_success()
        self._tel.counter("resilience.resync_reconcile").inc()
        self._tel.counter("reconcile.groups_verified").inc(
            report.groups_verified
        )
        return ResyncOutcome(
            "reconcile", reconcile=report, tiers=tuple(tiers)
        )

    def _charge_reconcile(self, session: ReconcileSession) -> None:
        """Charge the session's un-charged wire bytes to the accountant.

        Charging the *delta* since the last call keeps the ledger exact
        for sessions that span several heals (resume after faults).
        """
        report = session.report
        sketch, digest, diff = self._reconcile_charged
        post = self.accountant.post
        post(self.index, Flow.SKETCH, report.sketch_bytes - sketch)
        post(self.index, Flow.DIGEST, report.digest_bytes - digest)
        post(self.index, Flow.DIFF, report.diff_bytes - diff)
        self._reconcile_charged = (
            report.sketch_bytes,
            report.digest_bytes,
            report.diff_bytes,
        )

    def _finish_resync(self) -> None:
        """A resync tier completed: the replica is caught up."""
        self.resync_required = False
        self._session = None
        self._dirty.clear()
