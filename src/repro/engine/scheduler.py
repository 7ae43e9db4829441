"""Credit-windowed fan-out: the one way replication leaves the primary.

"The results … are then sent together with meta-data such as LBA to
replica nodes" (Sec. 2).  :class:`FanoutScheduler` is that send, and
:class:`~repro.engine.primary.PrimaryEngine` has no other.  Every replica
gets a :class:`ReplicaChannel` with a bounded **in-flight window**
(``window`` credits), per-channel FIFO send order (parity deltas must
apply in primary order), out-of-order acks folded by **cumulative-ack
compaction** (a dense per-channel ticket sequence, an ``acked_through``
pointer, a bounded out-of-order set), and independent degradation — a
guarded channel whose :class:`~repro.engine.resilience.GuardedLink`
journals a submission resolves at once, so healthy replicas never wait
behind a dead one.  Sequential fan-out — the paper's lock-step "ship to
each replica, wait for its ack" — is this scheduler at ``window=1``
(:func:`fanout_config`).

What a "send" is depends on the backend, and only one of them overlaps
anything on a real link:

* ``workers="inline"`` (default) — one thread.  A send is a **blocking
  round trip**: ``link.submit`` returns the replica's verified ack (over
  a real ``InitiatorLink`` as much as over a ``DirectLink``), in
  submission order, so replica images and byte accounting do not depend
  on the window.  What happens next is selected by the configured
  latency:

  - no latency configured (every stack ``open_primary`` builds unless a
    latency is asked for): there is nothing left to wait for.  **Every
    ack resolves at its send** — :meth:`FanoutScheduler.send` (which
    :meth:`~FanoutScheduler.submit` runs too), one flat loop over the
    target channels, sends, counts each ack, compacts each ticket and
    fires the charge before it returns.  No credit is held, nothing
    queues, nothing is marked dirty and the event heap is never touched,
    so the window size changes nothing here.
  - ``link_latency_s`` / ``per_link_latency_s`` set
    (``LatencyLink``/``SimClock`` makespan tests,
    ``scripts/bench_scheduler.py``): the send has happened, but its ack
    is **metered** — an event on a :class:`repro.sim.core.Simulator`
    heap, the channel's latency (optionally jittered) in the simulated
    future.  Until it fires the channel holds a credit and the
    submission's LBAs stay dirty; submissions beyond the window queue
    FIFO; a full ``max_queue`` stalls the producer by stepping the heap.
    After :meth:`drain`, :attr:`FanoutScheduler.now` is the simulated
    makespan — ``ceil(n/w) × latency`` per channel, overlapped across
    channels, versus the lock-step ``n × Σ latency``.  The event heap
    exists for this metering only.

* ``workers="threads"`` (and ``"process"``, which additionally offloads
  codec kernels to worker processes upstream) — one worker per channel on
  a real :class:`concurrent.futures.ThreadPoolExecutor`, so round trips
  to different replicas overlap in wall-clock time.  Each channel's
  bounded queue is its credit window (a full one blocks the producer, and
  the stall is metered as ``sched.stall_ns``); accounting-touching
  operations serialize on one resolve lock so the
  :class:`~repro.engine.accounting.TrafficAccountant` conservation laws
  hold unchanged.

Charging is one callback: the engine hands each submission a
``charge(delivered, journaled)`` closure, and the scheduler fires it
exactly once, when the submission's fate on *every* target channel is
known — so per-replica byte accounting is identical in all modes.
Each delivered copy is posted to its replica's
:attr:`~repro.engine.accounting.Flow.SHIP` row as its ack settles; the
scheduler is the only place a ship is booked, for raw and guarded
channels alike.  A strict (unguarded) channel's failure raises
:class:`~repro.common.errors.PartialReplicationError` naming exactly the
channels that delivered: from :meth:`FanoutScheduler.send` when acks
resolve at send, from :meth:`FanoutScheduler.drain` otherwise.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence

from repro.common.errors import (
    ConfigurationError,
    PartialReplicationError,
    ReplicationError,
)
from repro.common.rng import make_rng
from repro.engine.accounting import Flow, TrafficAccountant
from repro.engine.links import ReplicaLink
from repro.engine.work import ShipWork
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracing import NULL_SPAN
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.resilience import GuardedLink

__all__ = [
    "FanoutScheduler",
    "LatencyLink",
    "ReplicaChannel",
    "SchedulerConfig",
    "SimClock",
    "fanout_config",
]

#: sentinel that stops a thread-mode channel worker
_STOP = object()

#: a channel send's outcome: acked, or journaled by its guard (a raw
#: link's failure is returned as the exception itself)
DELIVERED = "delivered"
JOURNALED = "journaled"

#: worker backends a scheduler accepts
WORKER_BACKENDS = ("inline", "threads", "process")

#: fan-out disciplines: window policies of the one scheduler
FANOUT_MODES = ("sequential", "pipelined")


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables for the fan-out scheduler.

    ``workers`` picks the concurrency backend: ``"inline"`` (one thread,
    each send a blocking round trip — the default), ``"threads"``
    (one real worker thread per channel, overlapping link I/O), or
    ``"process"`` (thread-per-channel link I/O *plus* codec kernels
    offloaded to a :class:`~repro.engine.workers.CodecWorkerPool` of
    ``worker_count`` processes fed through ``ring_slots``-deep
    shared-memory rings).  ``window`` is the per-replica credit budget
    (max in-flight submissions); ``window=1`` is sequential fan-out.
    ``link_latency_s`` is the simulated send→ack latency every channel
    meters in inline mode (0, the default, resolves each ack at its send
    and meters nothing); ``per_link_latency_s`` overrides it per channel
    index.
    ``latency_jitter`` scales each ack's latency by a factor drawn
    uniformly from ``[1 - jitter, 1]`` using a seeded generator, so
    out-of-order acks within a channel are exercised deterministically.
    ``max_queue`` bounds how many submissions may wait behind a full
    window before :meth:`FanoutScheduler.submit` stalls the producer
    (threaded backends block for real; inline counts a stall and keeps
    queueing, staying deterministic).
    """

    workers: str = "inline"
    window: int = 8
    link_latency_s: float = 0.0
    per_link_latency_s: tuple[float, ...] = ()
    latency_jitter: float = 0.0
    max_queue: int = 1024
    seed: int = 0
    drain_timeout_s: float = 30.0
    worker_count: int = 0
    ring_slots: int = 8

    def __post_init__(self) -> None:
        """Validate backend, window and latency."""
        if self.workers not in WORKER_BACKENDS:
            raise ConfigurationError(
                f"scheduler workers must be one of {WORKER_BACKENDS}, "
                f"got {self.workers!r}"
            )
        if self.worker_count < 0:
            raise ConfigurationError(
                f"worker_count must be >= 0 (0 = auto), got {self.worker_count}"
            )
        if self.ring_slots < 2:
            raise ConfigurationError(
                f"ring_slots must be >= 2, got {self.ring_slots}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.link_latency_s < 0:
            raise ConfigurationError("link_latency_s must be non-negative")
        if any(lat < 0 for lat in self.per_link_latency_s):
            raise ConfigurationError("per-link latencies must be non-negative")
        if not 0.0 <= self.latency_jitter <= 1.0:
            raise ConfigurationError(
                f"latency_jitter must be in [0, 1], got {self.latency_jitter}"
            )

    @property
    def execution(self) -> str:
        """How channel sends run: ``"sim"`` (inline) or ``"threads"``.

        Both the ``threads`` and ``process`` backends drive links from
        real per-channel worker threads; ``process`` additionally
        offloads codec kernels to worker processes *upstream* of the
        scheduler, so channel execution is identical.
        """
        return "sim" if self.workers == "inline" else "threads"

    @property
    def acks_at_send(self) -> bool:
        """True when every ack resolves at its send (inline, no latency)."""
        return (
            self.workers == "inline"
            and not self.link_latency_s
            and not any(self.per_link_latency_s)
        )

    @property
    def fanout(self) -> str:
        """The discipline this window is: ``"sequential"`` at window 1."""
        return "sequential" if self.window == 1 else "pipelined"

    def latency_for(self, index: int) -> float:
        """The configured base latency for channel ``index``."""
        if index < len(self.per_link_latency_s):
            return self.per_link_latency_s[index]
        return self.link_latency_s


def fanout_config(
    fanout: str = "sequential", scheduler: SchedulerConfig | None = None
) -> SchedulerConfig:
    """The scheduler policy a fan-out discipline asks for.

    An explicit ``scheduler`` wins (its window names the discipline);
    otherwise ``"sequential"`` is a window of one and ``"pipelined"`` the
    default window.
    """
    if fanout not in FANOUT_MODES:
        raise ConfigurationError(
            f"fanout must be one of {FANOUT_MODES}, got {fanout!r}"
        )
    if scheduler is not None:
        return scheduler
    if fanout == "sequential":
        return SchedulerConfig(window=1)
    return SchedulerConfig()


class SimClock:
    """A trivially advanceable clock for metering *lock-step* ship time.

    A scheduler with no configured latency meters nothing, so benchmarks
    wrap its links in :class:`LatencyLink` bound to one shared
    ``SimClock``: every ship advances the clock by the link's latency,
    serially — exactly what lock-step fan-out costs.  Comparing
    ``SimClock.now`` against :attr:`FanoutScheduler.now` after a
    pipelined run of the same workload gives the makespan ratio with
    identical byte accounting on both sides.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        """Move the clock forward ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        self.now += dt


class LatencyLink(ReplicaLink):
    """Pass-through link that charges a fixed latency per submission.

    With a :class:`SimClock` the latency is *simulated* (the clock
    advances, nothing sleeps) — the sequential-baseline half of the
    scaling benchmark.  Without a clock the latency is *real*
    (``time.sleep``), which is how thread-mode tests emulate a slow WAN
    link without a network.  Byte accounting is untouched either way:
    the record still fully serializes through the inner link.
    """

    def __init__(
        self,
        inner: ReplicaLink,
        latency_s: float,
        clock: SimClock | None = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {latency_s}")
        self._inner = inner
        self.latency_s = latency_s
        self.clock = clock
        self.ships = 0

    @property
    def inner(self) -> ReplicaLink:
        """The wrapped link."""
        return self._inner

    def submit(self, work: ShipWork) -> bytes:
        """Deliver through the inner link, then charge the latency."""
        ack = self._inner.submit(work)
        self.ships += 1
        if self.clock is not None:
            self.clock.advance(self.latency_s)
        elif self.latency_s:
            time.sleep(self.latency_s)
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


class _WorkState:
    """One queued submission's fate across its channels (metered/threads)."""

    __slots__ = (
        "work",
        "charge",
        "remaining",
        "succeeded",
        "journaled",
        "failure",
        "failed_index",
        "lbas",
    )

    def __init__(
        self,
        work: ShipWork,
        charge: Callable[[int, int], None],
        fanout: int,
    ) -> None:
        self.work = work
        self.charge = charge
        self.remaining = fanout
        #: indices of the channels that delivered (resolution order)
        self.succeeded: list[int] = []
        self.journaled = 0
        self.failure: BaseException | None = None
        self.failed_index = -1
        # the LBAs this submission touches (all batch segments), held in
        # each target channel's dirty set until that channel resolves
        if work.batch is not None:
            self.lbas: tuple[int, ...] = tuple(
                entry.lba for entry in work.batch.entries
            )
        else:
            self.lbas = (work.lba,)


@dataclass
class ChannelStats:
    """Counters one :class:`ReplicaChannel` accumulates."""

    sends: int = 0
    acks: int = 0
    journaled: int = 0
    failures: int = 0
    stalls: int = 0
    max_inflight: int = 0
    max_ooo: int = 0  # peak out-of-order ack set size (sim mode)


class ReplicaChannel:
    """One replica's windowed submission pipeline.

    Owns the FIFO queue, the credit window, and the cumulative-ack
    state for a single replica.  A channel targets either a raw
    :class:`~repro.engine.links.ReplicaLink` (strict semantics: a failure
    surfaces as :class:`~repro.common.errors.PartialReplicationError`)
    or a :class:`~repro.engine.resilience.GuardedLink` (degrading
    semantics: failures journal and the channel resolves instantly).
    """

    def __init__(
        self,
        index: int,
        scheduler: "FanoutScheduler",
        link: ReplicaLink | None = None,
        guard: "GuardedLink | None" = None,
    ) -> None:
        if (link is None) == (guard is None):
            raise ConfigurationError(
                "a channel targets exactly one of link/guard"
            )
        self.index = index
        self.link = link
        self.guard = guard
        self._sched = scheduler
        config = scheduler.config
        self.latency_s = config.latency_for(index)
        self._jitter = config.latency_jitter
        self._rng = (
            make_rng(config.seed, "sched-latency", index)
            if self._jitter
            else None
        )
        self.credits = config.window
        self.stats = ChannelStats()
        # FIFO of (state, enqueue_time) waiting for a credit (sim mode)
        self._fifo: deque[tuple[_WorkState, float]] = deque()
        # cumulative-ack compaction over a dense per-channel ticket space
        self._next_ticket = 0
        self.acked_through = -1
        self._ooo_acks: set[int] = set()
        # dirty-LBA refcounts: LBAs in submitted-but-unresolved ShipWork
        # toward this replica.  Marked at submit, cleared as acks compact
        # (resolve); both under the scheduler's resolve lock.  The read
        # router treats a dirty LBA as unroutable to this replica.
        self._dirty: dict[int, int] = {}
        # thread mode: bounded queue == credit window, one worker drains it
        self._queue: queue.Queue | None = None

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Submissions sent but not yet acked."""
        return self._sched.config.window - self.credits

    @property
    def queue_depth(self) -> int:
        """Submissions waiting behind the window."""
        if self._queue is not None:
            return self._queue.qsize()
        return len(self._fifo)

    @property
    def ooo_ack_count(self) -> int:
        """Acks received ahead of the cumulative pointer (awaiting gaps)."""
        return len(self._ooo_acks)

    # -- dirty-LBA conflict tracking ----------------------------------------

    @property
    def dirty_lba_count(self) -> int:
        """Distinct LBAs with submitted-but-unresolved work on this channel."""
        return len(self._dirty)

    def mark_dirty(self, lbas: tuple[int, ...]) -> None:
        """Refcount ``lbas`` as in flight toward this replica (hold lock)."""
        dirty = self._dirty
        for lba in lbas:
            dirty[lba] = dirty.get(lba, 0) + 1

    def clear_dirty(self, lbas: tuple[int, ...]) -> None:
        """Release one in-flight reference per LBA (hold lock)."""
        dirty = self._dirty
        for lba in lbas:
            count = dirty.get(lba, 0) - 1
            if count <= 0:
                dirty.pop(lba, None)
            else:
                dirty[lba] = count

    def lba_in_flight(self, lba: int) -> bool:
        """True when ``lba`` has unresolved work toward this replica."""
        return lba in self._dirty

    # -- the send ------------------------------------------------------------

    def send(self, work: ShipWork, locked: bool = False):
        """One round trip: :data:`DELIVERED`, :data:`JOURNALED`, or the failure.

        A guarded channel journals what it cannot deliver; a raw link's
        failure (ack verification included) is *returned*, not raised, so
        the caller decides when it surfaces.  ``locked`` (thread mode)
        serializes the accounting-mutating guard submit on the
        scheduler's resolve lock; raw-link I/O always runs unlocked so
        thread-mode channels overlap on the wire.

        With live telemetry the round trip is a ``write.send`` span joined
        to the submission's causal context, so cross-channel fan-out
        shows up as sibling sends under the originating write.
        """
        self.stats.sends += 1
        sched = self._sched
        if not sched.live:
            return self._round_trip(work, NULL_SPAN, locked)
        span = sched.telemetry.span_in("write.send", work.ctx, link=self.index)
        if work.is_batch:
            span.set("batched", True)
        with span:
            return self._round_trip(work, span, locked)

    def _round_trip(self, work: ShipWork, span, locked: bool):
        sched = self._sched
        guard = self.guard
        if guard is not None:
            if locked:
                with sched.resolve_lock:
                    ok = guard.submit(work, sched.verify_acks)
            else:
                ok = guard.submit(work, sched.verify_acks)
            if ok:
                return DELIVERED
            self.stats.journaled += 1
            span.set("journaled", True)
            return JOURNALED
        assert self.link is not None
        try:
            ack = self.link.submit(work)
            if sched.verify_acks:
                work.verify_ack(ack)
        except Exception as exc:  # noqa: BLE001 — the caller surfaces it
            self.stats.failures += 1
            span.set("failed", type(exc).__name__)
            return exc
        return DELIVERED

    # -- sim mode (metered latency) -------------------------------------------

    def enqueue_sim(self, state: _WorkState) -> None:
        """Accept one submission: send now if a credit is free, else queue."""
        sched = self._sched
        self.mark_dirty(state.lbas)
        if self.credits > 0 and not self._fifo:
            self._send_sim(state)
            return
        sched.record_queue_depth(len(self._fifo) + 1)
        if len(self._fifo) >= sched.config.max_queue:
            # Deterministic backpressure: drain acks until a slot frees.
            self.stats.stalls += 1
            sched.stall_until(lambda: len(self._fifo) < sched.config.max_queue)
        self._fifo.append((state, sched.sim.now))

    def _send_sim(self, state: _WorkState) -> None:
        """Put one submission on the wire; a delivery resolves at its ack event."""
        sched = self._sched
        stats = self.stats
        outcome = self.send(state.work)
        ticket = self._next_ticket
        self._next_ticket = ticket + 1
        if outcome is DELIVERED:
            # the credit is held until the simulated ack fires on the heap
            self.credits -= 1
            if self.inflight > stats.max_inflight:
                stats.max_inflight = self.inflight
            sched.update_inflight()
            sched.sim.schedule(
                self._draw_latency(), self._on_ack_sim, ticket, state
            )
            return
        # journaled, or a failure to stash: no wire latency to wait for
        self.clear_dirty(state.lbas)
        self._compact(ticket)
        sched.settle(state, self.index, outcome)

    def _pump_sim(self) -> None:
        """Send queued submissions while window credits are free.

        Looping (rather than pulling one entry per ack) matters when a
        send resolves *instantly* — a journaled ship on a DOWN guard or a
        stashed strict failure consumes no credit and schedules no ack,
        so without the loop the queue behind it would starve.
        """
        while self._fifo and self.credits > 0:
            state, enqueued_at = self._fifo.popleft()
            waited = self._sched.sim.now - enqueued_at
            if waited > 0:
                self.stats.stalls += 1
                self._sched.record_stall(waited)
            self._send_sim(state)

    def _on_ack_sim(self, ticket: int, state: _WorkState) -> None:
        """A metered ack arrived: compact, free the credit, pump the queue."""
        self.stats.acks += 1
        self._compact(ticket)
        self.credits += 1
        self._sched.update_inflight()
        self.clear_dirty(state.lbas)
        self._sched.settle(state, self.index, DELIVERED)
        self._pump_sim()

    def _draw_latency(self) -> float:
        """This ack's latency, jittered deterministically when configured."""
        latency = self.latency_s
        if self._rng is not None and latency:
            latency *= 1.0 - self._jitter * float(self._rng.random())
        return latency

    def _compact(self, ticket: int) -> None:
        """Cumulative-ack compaction: fold ``ticket`` into the pointer."""
        if ticket == self.acked_through + 1:
            self.acked_through = ticket
            while self.acked_through + 1 in self._ooo_acks:
                self.acked_through += 1
                self._ooo_acks.discard(self.acked_through)
        else:
            self._ooo_acks.add(ticket)
            self.stats.max_ooo = max(self.stats.max_ooo, len(self._ooo_acks))

    # -- thread mode ---------------------------------------------------------

    def start_worker(self, executor: ThreadPoolExecutor) -> None:
        """Spin up this channel's single FIFO worker (thread mode)."""
        self._queue = queue.Queue(maxsize=self._sched.config.window)
        executor.submit(self._worker)

    def enqueue_threaded(self, state: _WorkState) -> None:
        """Hand one submission to the worker; block when the window is full."""
        assert self._queue is not None
        started = time.perf_counter()
        try:
            self._queue.put_nowait(state)
        except queue.Full:
            self.stats.stalls += 1
            self._queue.put(state)  # real backpressure: producer blocks
            self._sched.record_stall(time.perf_counter() - started)
        self._sched.record_queue_depth(self._queue.qsize())

    def stop_worker(self) -> None:
        """Ask the worker loop to exit after the queue drains."""
        if self._queue is not None:
            self._queue.put(_STOP)

    def _worker(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            state: _WorkState = item
            outcome = self.send(state.work, locked=True)
            ticket = self._next_ticket
            self._next_ticket += 1
            # One worker per channel: acks complete in FIFO order, so the
            # cumulative pointer advances without an out-of-order set.
            self._compact(ticket)
            if outcome is DELIVERED:
                self.stats.acks += 1
            self._sched.resolve(state, self.index, outcome)


class FanoutScheduler:
    """Credit-windowed fan-out across every replica channel.

    Attach each replica with :meth:`add_channel` — a raw link (strict
    semantics) or the engine's guard (degrading semantics) — then feed
    it :meth:`submit` calls and finish with :meth:`drain` (or, when
    :attr:`acks_at_send`, :meth:`send` calls with nothing to drain).
    Every :class:`~repro.engine.primary.PrimaryEngine` ships through one.
    """

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        verify_acks: bool = True,
        telemetry=None,
        accountant: TrafficAccountant | None = None,
        simulator: Simulator | None = None,
    ) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self.verify_acks = verify_acks
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: spans and instruments are touched only when telemetry is live
        self.live = self.telemetry.enabled
        self.accountant = accountant
        self.sim = simulator if simulator is not None else Simulator()
        self.resolve_lock = threading.RLock()
        self._drained = threading.Condition(self.resolve_lock)
        self._outstanding = 0
        self._submitted = 0
        self._resolved = 0
        self._stashed_failures: list[_WorkState] = []
        self._threaded = self.config.execution == "threads"
        self._acks_at_send = self.config.acks_at_send
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self.channels: list[ReplicaChannel] = []
        # telemetry instruments (null objects when disabled, and then unused)
        tel = self.telemetry
        self._inflight_gauge = tel.gauge("sched.inflight")
        self._queue_histogram = tel.histogram("sched.queue_depth")
        self._stall_counter = tel.counter("sched.stall_ns")
        self._submit_counter = tel.counter("sched.submits")
        self._drain_counter = tel.counter("sched.drains")

    # -- channel management --------------------------------------------------

    def add_channel(
        self,
        link: ReplicaLink | None = None,
        guard: "GuardedLink | None" = None,
    ) -> ReplicaChannel:
        """Attach one more replica channel, before the first submission.

        Raises :class:`~repro.common.errors.ConfigurationError` once any
        submission has been made: a channel that joins later would miss
        the records already shipped.
        """
        if self._submitted:
            raise ConfigurationError(
                "channels must be attached before the first submission"
            )
        channel = ReplicaChannel(
            len(self.channels), self, link=link, guard=guard
        )
        self.channels.append(channel)
        return channel

    def _ensure_workers(self) -> None:
        if self._executor is not None:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, len(self.channels)),
            thread_name_prefix="prins-sched",
        )
        for channel in self.channels:
            channel.start_worker(self._executor)

    # -- submission ----------------------------------------------------------

    @property
    def acks_at_send(self) -> bool:
        """True when every ack resolves at its send: :meth:`send` applies."""
        return self._acks_at_send

    def _targets(self, only: int | None) -> Sequence[ReplicaChannel]:
        """The channels one submission fans out to; counts the submission."""
        if self._closed:
            raise ReplicationError("scheduler is closed")
        if only is None:
            targets: Sequence[ReplicaChannel] = self.channels
        elif 0 <= only < len(self.channels):
            targets = (self.channels[only],)
        else:
            raise ConfigurationError(
                f"targeted submit index {only} out of range "
                f"({len(self.channels)} channels)"
            )
        self._submitted += 1
        return targets

    def submit(
        self,
        work: ShipWork,
        charge: Callable[[int, int], None],
        only: int | None = None,
    ) -> None:
        """Fan one submission out to its channels; charge it once.

        ``charge(delivered, journaled)`` fires exactly once, when the
        submission's fate is known on every target channel: how many
        delivered it and how many journaled it.  When acks resolve at
        send (inline, no latency) this is :meth:`send`.  Otherwise the
        submission is queued behind each channel's credit window, and a
        strict channel's failure surfaces at :meth:`drain`.

        ``only`` routes the submission to a single channel (fan-out width
        1) — the erasure tier's per-fragment dispatch, where each coded
        fragment targets exactly the channel holding that stripe
        position.  Credit windows, DOWN isolation, and trace spans apply
        per channel exactly as for mirrored traffic.
        """
        if self._acks_at_send:
            self.send(work, charge, only)
            return
        targets = self._targets(only)
        span = NULL_SPAN
        if self.live:
            span = self.telemetry.span(
                "sched.submit", seq=work.last_seq, batched=work.is_batch
            )
            self._submit_counter.inc()
        with span:
            state = _WorkState(work, charge, len(targets))
            if not targets:
                self._finalize(state)
                return
            if self._threaded:
                with self.resolve_lock:
                    self._outstanding += 1
                    # Dirty-mark before the work can reach any wire: a
                    # routed read that observes the mark is serialized
                    # before the write; one that doesn't, after its ack.
                    for channel in targets:
                        channel.mark_dirty(state.lbas)
                self._ensure_workers()
                for channel in targets:
                    channel.enqueue_threaded(state)
                return
            # Inline: one thread runs every send, so one acquisition
            # covers the whole fan-out (a reader on another thread sees
            # the submission entirely before or entirely after it).
            with self.resolve_lock:
                self._outstanding += 1
                for channel in targets:
                    channel.enqueue_sim(state)

    def send(
        self,
        work: ShipWork,
        charge: Callable[[int, int], None],
        only: int | None = None,
    ) -> None:
        """:meth:`submit` when :attr:`acks_at_send`: settled on return.

        Nothing queues or is metered, so no credit is held, no LBA turns
        dirty and each channel's ticket compacts at its send.  Every
        target is tried; then ``charge`` fires once, and a strict
        channel's failure raises
        :class:`~repro.common.errors.PartialReplicationError` naming
        exactly the channels that delivered.  One resolve-lock hold
        covers the fan-out, so a reader on another thread sees the
        submission entirely before or entirely after it.
        """
        if not self._acks_at_send:
            raise ConfigurationError(
                "send() needs acks that resolve at send (inline workers, "
                "no latency); use submit()"
            )
        targets = self._targets(only)
        succeeded: list[int] = []
        journaled = 0
        failure: BaseException | None = None
        failed_index = -1
        accountant = self.accountant
        with self.resolve_lock:
            for channel in targets:
                outcome = channel.send(work)
                channel.acked_through = channel._next_ticket
                channel._next_ticket += 1
                if outcome is DELIVERED:
                    channel.stats.acks += 1
                    succeeded.append(channel.index)
                    if accountant is not None:
                        accountant.post(channel.index, Flow.SHIP, work.wire_size)
                elif outcome is JOURNALED:
                    journaled += 1
                elif failure is None:
                    failure, failed_index = outcome, channel.index
            self._resolved += 1
            charge(len(succeeded), journaled)
        if failure is not None:
            self._raise_partial(work, succeeded, failed_index, failure)

    # -- resolution ----------------------------------------------------------

    def resolve(self, state: _WorkState, index: int, outcome) -> None:
        """A channel worker finished with ``state`` (threaded backends)."""
        with self.resolve_lock:
            self.channels[index].clear_dirty(state.lbas)
            self.settle(state, index, outcome)
            if self._outstanding == 0:
                self._drained.notify_all()

    def settle(self, state: _WorkState, index: int, outcome) -> None:
        """Book channel ``index``'s outcome; finalize when all have (hold lock).

        ``outcome`` is :data:`DELIVERED`, :data:`JOURNALED`, or the
        exception a strict channel's send returned.
        """
        if outcome is DELIVERED:
            state.succeeded.append(index)
            if self.accountant is not None:
                self.accountant.post(index, Flow.SHIP, state.work.wire_size)
        elif outcome is JOURNALED:
            state.journaled += 1
        elif state.failure is None:
            state.failure, state.failed_index = outcome, index
        state.remaining -= 1
        if state.remaining > 0:
            return
        self._finalize(state)
        self._outstanding -= 1
        self._resolved += 1

    def _finalize(self, state: _WorkState) -> None:
        """Fire the submission's one charging callback; stash its failure."""
        state.charge(len(state.succeeded), state.journaled)
        if state.failure is not None:
            self._stashed_failures.append(state)

    # -- drain & shutdown ------------------------------------------------------

    def drain(self) -> None:
        """Resolve every in-flight submission; surface stashed failures.

        Sim mode runs the event loop to exhaustion (the returned clock is
        the pipelined makespan); thread mode waits on the resolve
        condition up to ``drain_timeout_s``.  The first strict-channel
        failure is raised as a
        :class:`~repro.common.errors.PartialReplicationError` naming the
        failing link and the links that delivered (ack-shape
        :class:`ReplicationError` mismatches included as its cause).
        """
        with self.telemetry.span(
            "sched.drain", outstanding=self._outstanding
        ):
            self._drain_counter.inc()
            if self._threaded:
                if not self.wait_idle():
                    raise ReplicationError(
                        f"scheduler drain timed out with "
                        f"{self._outstanding} submissions outstanding"
                    )
            else:
                with self.resolve_lock:
                    self.sim.run_all()
                if self._outstanding:
                    raise ReplicationError(
                        f"simulation exhausted with {self._outstanding} "
                        "submissions outstanding (event starvation bug)"
                    )
            self._raise_stashed()

    def wait_idle(self) -> bool:
        """Wait until every send has run; False if ``drain_timeout_s`` passed.

        Only threaded channels send after :meth:`submit` returns (a
        metered ack still on the heap changes no replica image).  Unlike
        :meth:`drain` this steps no clock and raises no stashed failure.
        """
        if not self._threaded:
            return True
        with self._drained:
            return self._drained.wait_for(
                lambda: self._outstanding == 0,
                timeout=self.config.drain_timeout_s,
            )

    def _raise_stashed(self) -> None:
        if not self._stashed_failures:
            return
        state = self._stashed_failures[0]
        self._stashed_failures.clear()
        assert state.failure is not None
        self._raise_partial(
            state.work, state.succeeded, state.failed_index, state.failure
        )

    def _raise_partial(
        self,
        work: ShipWork,
        succeeded: list[int],
        failed_index: int,
        exc: BaseException,
    ) -> NoReturn:
        """Record the fault (flight-recorder dump), then raise it typed."""
        self.telemetry.fault(
            "partial_replication",
            lba=work.lba,
            seq=work.last_seq,
            failed_index=failed_index,
            succeeded=len(succeeded),
            error=type(exc).__name__,
        )
        raise PartialReplicationError(
            lba=work.lba,
            seq=work.last_seq,
            succeeded=tuple(sorted(succeeded)),
            failed_index=failed_index,
            total_links=len(self.channels),
            cause=exc,
        ) from exc

    def close(self) -> None:
        """Drain, then stop thread workers (idempotent)."""
        if self._closed:
            return
        try:
            self.drain()
        finally:
            self._closed = True
            if self._executor is not None:
                for channel in self.channels:
                    channel.stop_worker()
                self._executor.shutdown(wait=True)
                self._executor = None

    # -- clock / metrics -------------------------------------------------------

    @property
    def now(self) -> float:
        """Simulated makespan so far (sim mode clock)."""
        return self.sim.now

    @property
    def outstanding(self) -> int:
        """Submissions whose fate is not yet fully resolved."""
        return self._outstanding

    def lba_in_flight(self, lba: int, index: int) -> bool:
        """True when ``lba`` has unresolved work toward channel ``index``.

        The read router's conflict check: an in-flight (submitted but
        unacked) write makes the replica's image for that LBA
        indeterminate, so conflicted reads must fall back to the primary.
        Taken under the resolve lock so thread-mode marks/clears are
        never observed half-applied.
        """
        with self.resolve_lock:
            return self.channels[index].lba_in_flight(lba)

    def clean_channels(self, lba: int, indices: list[int]) -> list[int]:
        """Those of ``indices`` whose channel has no unresolved work on ``lba``.

        :meth:`lba_in_flight` for a candidate set under one acquisition
        of the resolve lock.
        """
        channels = self.channels
        with self.resolve_lock:
            return [j for j in indices if lba not in channels[j]._dirty]

    def dirty_lbas(self, index: int) -> frozenset[int]:
        """Snapshot of channel ``index``'s dirty-LBA set (diagnostics)."""
        with self.resolve_lock:
            return frozenset(self.channels[index]._dirty)

    def update_inflight(self) -> None:
        """Refresh the ``sched.inflight`` gauge from channel windows."""
        if self.live:
            self._inflight_gauge.set(
                sum(channel.inflight for channel in self.channels)
            )

    def record_queue_depth(self, depth: int) -> None:
        """Feed the ``sched.queue_depth`` histogram."""
        if self.live:
            self._queue_histogram.record(depth)

    def record_stall(self, seconds: float) -> None:
        """Charge ``seconds`` of producer stall to ``sched.stall_ns``."""
        self._stall_counter.inc(int(seconds * 1e9))
        self.telemetry.event("scheduler.stall", seconds=seconds)

    def stall_until(self, predicate: Callable[[], bool]) -> None:
        """Sim-mode backpressure: run events until ``predicate`` holds."""
        started = self.sim.now
        while not predicate() and self.sim.events_pending:
            self.sim.step()
        waited = self.sim.now - started
        if waited > 0:
            self.record_stall(waited)

    def snapshot(self) -> dict:
        """JSON-safe scheduler state (per-channel windows and ack state)."""
        return {
            "workers": self.config.workers,
            "mode": self.config.execution,
            "window": self.config.window,
            "submitted": self._submitted,
            "resolved": self._resolved,
            "outstanding": self._outstanding,
            "sim_now": self.sim.now,
            "channels": [
                {
                    "index": channel.index,
                    "latency_s": channel.latency_s,
                    "inflight": channel.inflight,
                    "queue_depth": channel.queue_depth,
                    "acked_through": channel.acked_through,
                    "ooo_acks": channel.ooo_ack_count,
                    "dirty_lbas": channel.dirty_lba_count,
                    "sends": channel.stats.sends,
                    "acks": channel.stats.acks,
                    "journaled": channel.stats.journaled,
                    "failures": channel.stats.failures,
                    "stalls": channel.stats.stalls,
                    "max_inflight": channel.stats.max_inflight,
                    "max_ooo": channel.stats.max_ooo,
                }
                for channel in self.channels
            ],
        }
