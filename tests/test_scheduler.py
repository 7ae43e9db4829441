"""Tests for the pipelined credit-window fan-out scheduler."""

from __future__ import annotations

import random
import sys
import time

import pytest

from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, PartialReplicationError
from repro.engine import (
    DirectLink,
    FaultyLink,
    LatencyLink,
    PrimaryEngine,
    ReplicaEngine,
    ResilienceConfig,
    SchedulerConfig,
    ShipWork,
    SimClock,
    make_strategy,
)
from repro.engine.links import ReplicaLink
from repro.engine.messages import ReplicationRecord
from repro.obs.telemetry import Telemetry

BS = 512
N = 64


def _stack(
    replicas=3,
    strategy_name="prins",
    link_wrapper=None,
    **engine_kwargs,
):
    strategy = make_strategy(strategy_name)
    primary = MemoryBlockDevice(BS, N)
    replica_devices = [MemoryBlockDevice(BS, N) for _ in range(replicas)]
    links = []
    for index, device in enumerate(replica_devices):
        link = DirectLink(ReplicaEngine(device, strategy))
        if link_wrapper is not None:
            link = link_wrapper(index, link)
        links.append(link)
    engine = PrimaryEngine(primary, strategy, links, **engine_kwargs)
    return engine, primary, replica_devices


def _random_writes(engine, count=60, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        lba = rng.randrange(N)
        engine.write_block(lba, bytes(rng.randrange(256) for _ in range(BS)))


class TestSchedulerConfig:
    def test_defaults_validate(self):
        config = SchedulerConfig()
        assert config.workers == "inline"
        assert config.execution == "sim"
        assert config.window >= 1

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(workers="carrier-pigeon")

    def test_process_backend_validates(self):
        config = SchedulerConfig(workers="process", worker_count=2, ring_slots=4)
        assert config.execution == "threads"
        with pytest.raises(ConfigurationError):
            SchedulerConfig(workers="process", worker_count=-1)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(ring_slots=1)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(window=0)

    def test_per_link_latency_lookup(self):
        config = SchedulerConfig(
            link_latency_s=0.5, per_link_latency_s=(0.1, 0.2)
        )
        assert config.latency_for(0) == 0.1
        assert config.latency_for(1) == 0.2
        assert config.latency_for(2) == 0.5  # falls back to the global


class TestPipelinedSimEquivalence:
    """Pipelined fan-out must be byte- and byte-count-identical."""

    @pytest.mark.parametrize("strategy_name", ["traditional", "prins"])
    def test_images_and_bytes_match_sequential(self, strategy_name):
        seq_engine, seq_primary, seq_reps = _stack(strategy_name=strategy_name)
        _random_writes(seq_engine)
        pip_engine, pip_primary, pip_reps = _stack(
            strategy_name=strategy_name,
            fanout="pipelined",
            scheduler=SchedulerConfig(window=4, link_latency_s=0.01),
        )
        _random_writes(pip_engine)
        pip_engine.drain()
        assert (
            seq_engine.accountant.payload_bytes
            == pip_engine.accountant.payload_bytes
        )
        assert seq_primary.snapshot() == pip_primary.snapshot()
        for seq_dev, pip_dev in zip(seq_reps, pip_reps):
            assert seq_dev.snapshot() == pip_dev.snapshot()

    def test_scheduler_config_implies_pipelined(self):
        engine, _, _ = _stack(scheduler=SchedulerConfig(window=2))
        assert engine.fanout == "pipelined"
        assert engine.scheduler is not None

    def test_sequential_has_no_scheduler(self):
        """Sequential fan-out is no second sender: it is window 1."""
        engine, _, _ = _stack()
        assert engine.fanout == "sequential"
        assert engine.scheduler.config.window == 1
        _random_writes(engine, count=50)  # no drain(): acks resolve at send
        for channel in engine.scheduler.channels:
            assert channel.stats.sends == channel.stats.acks == 50
            assert channel.queue_depth == 0
            assert channel.dirty_lba_count == 0

    def test_unknown_fanout_rejected(self):
        with pytest.raises(ConfigurationError):
            _stack(fanout="broadcast")


class TestCreditWindow:
    def test_window_bounds_inflight(self):
        window = 3
        engine, _, _ = _stack(
            replicas=2,
            scheduler=SchedulerConfig(window=window, link_latency_s=0.01),
        )
        _random_writes(engine, count=40)
        engine.drain()
        for channel in engine.scheduler.channels:
            assert channel.stats.max_inflight <= window
            assert channel.inflight == 0  # fully drained

    def test_makespan_beats_sequential_metering(self):
        """window>1 overlaps ack latency; makespan ≈ N·L/window + L."""
        latency = 0.01
        writes = 32
        engine, _, _ = _stack(
            replicas=1,
            scheduler=SchedulerConfig(window=8, link_latency_s=latency),
        )
        _random_writes(engine, count=writes)
        engine.drain()
        sequential_time = writes * latency
        assert engine.scheduler.now < sequential_time / 2

    def test_queue_backpressure_is_deterministic(self):
        """max_queue=1 forces stalls; the run still completes and verifies."""
        engine, primary, reps = _stack(
            replicas=2,
            scheduler=SchedulerConfig(
                window=1, link_latency_s=0.005, max_queue=1
            ),
        )
        _random_writes(engine, count=30)
        engine.drain()
        assert any(c.stats.stalls > 0 for c in engine.scheduler.channels)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()


class TestAcksResolveAtSend:
    """Inline sends are round trips: a zero-latency ack is in hand at send."""

    WINDOW = 8
    WRITES = 200  # far more than the window, far fewer than max_queue

    @pytest.mark.parametrize("transport", ["inline", "tcp"])
    def test_writes_are_on_the_wire_without_a_drain(self, transport):
        from repro.api import ReplicationConfig, open_primary

        config = ReplicationConfig(
            block_size=BS,
            num_blocks=N,
            replicas=2,
            transport=transport,
            fanout="pipelined",
            window=self.WINDOW,
        )
        with open_primary(config) as stack:
            rng = random.Random(5)
            for _ in range(self.WRITES):
                stack.engine.write_block(rng.randrange(N), rng.randbytes(BS))
            # no drain(): what was submitted must already be applied
            for replica in stack.replica_engines:
                assert replica.records_applied >= self.WRITES - self.WINDOW
            channels = stack.engine.scheduler.snapshot()["channels"]
            for channel in channels:
                assert channel["queue_depth"] == 0
                assert channel["dirty_lbas"] <= self.WINDOW
                assert channel["acks"] >= self.WRITES - self.WINDOW
                assert channel["stalls"] == 0

    def test_read_of_settled_lba_routes_to_a_replica(self):
        """An LBA written more than ``window`` writes ago is no conflict."""
        engine, primary, _ = _stack(
            replicas=2,
            read_policy="replica",
            scheduler=SchedulerConfig(window=self.WINDOW),
        )
        rng = random.Random(6)
        for i in range(self.WRITES):
            engine.write_block(i % N, rng.randbytes(BS))
        settled = (self.WRITES - 1 - 2 * self.WINDOW) % N
        assert engine.read_block(settled) == primary.read_block(settled)
        assert engine.router.reads_replica == 1
        assert engine.router.reads_conflict == 0

    def test_metered_latency_still_holds_the_window(self):
        """``latency_s > 0`` keeps the event path: credits, queue, dirty set."""
        engine, _, _ = _stack(
            replicas=2,
            scheduler=SchedulerConfig(window=self.WINDOW, link_latency_s=0.01),
        )
        _random_writes(engine, count=20)
        for channel in engine.scheduler.channels:
            assert channel.inflight == self.WINDOW
            assert channel.queue_depth == 20 - self.WINDOW
            assert channel.dirty_lba_count > 0
        engine.drain()
        for channel in engine.scheduler.channels:
            assert channel.stats.acks == 20
            assert channel.dirty_lba_count == 0

    def test_send_refuses_a_scheduler_that_meters(self):
        """``send`` settles before returning, so it needs acks at send."""
        engine, _, _ = _stack(
            replicas=1, scheduler=SchedulerConfig(link_latency_s=0.01)
        )
        assert not engine.scheduler.acks_at_send
        work = ShipWork.for_record(0, ReplicationRecord(1, 0, b""))
        with pytest.raises(ConfigurationError):
            engine.scheduler.send(work, lambda delivered, journaled: None)
        assert engine.scheduler.snapshot()["submitted"] == 0


class TestOutOfOrderAcks:
    def test_jittered_acks_compact_to_cumulative_pointer(self):
        engine, primary, reps = _stack(
            replicas=2,
            scheduler=SchedulerConfig(
                window=6, link_latency_s=0.01, latency_jitter=0.8, seed=3
            ),
        )
        _random_writes(engine, count=50)
        engine.drain()
        for channel in engine.scheduler.channels:
            # every ticket acked, pointer fully compacted, no strays
            assert channel.acked_through == channel.stats.sends - 1
            assert channel.ooo_ack_count == 0
        # OOO reordering actually happened under jitter
        assert any(c.stats.max_ooo > 0 for c in engine.scheduler.channels)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()

    def test_fifo_apply_order_survives_reordering(self):
        """Same-LBA overwrites must land in sequence order at the replica."""
        engine, primary, reps = _stack(
            replicas=1,
            scheduler=SchedulerConfig(
                window=8, link_latency_s=0.01, latency_jitter=0.9, seed=5
            ),
        )
        for round_number in range(20):
            engine.write_block(0, bytes([round_number]) * BS)
        engine.drain()
        assert reps[0].read_block(0) == bytes([19]) * BS


class TestSlowReplicaIsolation:
    def test_fast_replicas_finish_ahead_of_slow(self):
        engine, primary, reps = _stack(
            replicas=3,
            scheduler=SchedulerConfig(
                window=4, per_link_latency_s=(0.001, 0.001, 0.05)
            ),
        )
        _random_writes(engine, count=20)
        engine.drain()
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()
        stats = [c.stats for c in engine.scheduler.channels]
        assert stats[2].acks == stats[0].acks  # all delivered everywhere

    def test_down_replica_does_not_stall_healthy(self):
        """A DOWN guard journals instantly: healthy channels keep their pace."""
        engine, primary, reps = _stack(
            replicas=3,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(window=4, link_latency_s=0.01),
        )
        _random_writes(engine, count=10, seed=1)
        engine.drain()
        healthy_only_start = engine.scheduler.now
        engine.fail_link(2)
        _random_writes(engine, count=10, seed=2)
        engine.drain()
        # the DOWN channel resolved every submission without consuming
        # wire latency: makespan grew only by the healthy channels' time
        makespan = engine.scheduler.now - healthy_only_start
        assert makespan <= 10 * 0.01 + 0.01
        engine.heal_link(2)
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()
        engine.verify_traffic_conservation()


class TestStrictFailures:
    def test_strict_failure_surfaces_at_drain(self):
        class ExplodingLink(ReplicaLink):
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def _submit_record(self, lba, record):
                self.calls += 1
                if self.calls > 5:
                    raise ConnectionError("link died")
                return self._inner.submit(ShipWork.for_record(lba, record))

        engine, _, _ = _stack(
            replicas=2,
            link_wrapper=lambda i, link: ExplodingLink(link)
            if i == 1
            else link,
            scheduler=SchedulerConfig(window=2, link_latency_s=0.001),
        )
        with pytest.raises(PartialReplicationError):
            _random_writes(engine, count=20)
            engine.drain()

    @pytest.mark.parametrize("window", [1, 8])
    def test_zero_latency_failure_raises_from_the_write(self, window):
        def kill_first(index, link):
            if index == 0:
                link = FaultyLink(link)
                link.kill()
            return link

        engine, primary, reps = _stack(
            replicas=2,
            link_wrapper=kill_first,
            scheduler=SchedulerConfig(window=window),
        )
        with pytest.raises(PartialReplicationError) as excinfo:
            engine.write_block(7, b"w" * BS)
        # every target was tried before raising: replica 1 holds the write
        assert excinfo.value.succeeded == (1,)
        assert reps[1].read_block(7) == primary.read_block(7)
        assert engine.scheduler.outstanding == 0
        engine.drain()
        engine.verify_traffic_conservation()
        engine.close()

    @pytest.mark.parametrize(
        "cell",
        [{}, {"link_latency_s": 0.01}, {"workers": "threads"}],
        ids=["zero-latency", "metered", "threads"],
    )
    def test_succeeded_names_the_replicas_that_delivered(self, cell):
        """A failing channel before a healthy one: succeeded is (1,)."""
        from repro.api import ReplicationConfig, open_primary

        def kill_first(index, link):
            if index == 0:
                link = FaultyLink(link)
                link.kill()
            return link

        config = ReplicationConfig(
            replicas=2,
            fanout="pipelined",
            block_size=4096,
            num_blocks=8,
            **cell,
        )
        with open_primary(config, link_factory=kill_first) as stack:
            with pytest.raises(PartialReplicationError) as excinfo:
                stack.engine.write_block(3, b"s" * 4096)
                stack.engine.drain()
            assert excinfo.value.succeeded == (1,)
            assert excinfo.value.failed_index == 0
            assert stack.replica_devices[1].read_block(3) == b"s" * 4096


class TestThreadMode:
    def test_threaded_matches_sequential_bytes_and_images(self):
        seq_engine, seq_primary, seq_reps = _stack()
        _random_writes(seq_engine)
        engine, primary, reps = _stack(
            scheduler=SchedulerConfig(workers="threads", window=4),
        )
        _random_writes(engine)
        engine.drain()
        engine.close()
        assert (
            engine.accountant.payload_bytes
            == seq_engine.accountant.payload_bytes
        )
        for seq_dev, dev in zip(seq_reps, reps):
            assert dev.snapshot() == seq_dev.snapshot()

    def test_threaded_guarded_conserves_traffic(self):
        engine, primary, reps = _stack(
            replicas=2,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(workers="threads", window=4),
        )
        _random_writes(engine, count=30)
        engine.drain()
        engine.verify_traffic_conservation()
        engine.close()
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()


    def test_guarded_replicas_overlap_on_the_wire(self):
        """Two guarded replicas whose links each block 50 ms per ship are
        on the wire at once: no lock is held across a guarded round trip.
        The shared ``resilience.ships_delivered`` counter and the ledger
        still balance."""

        class SlowLink(ReplicaLink):
            def __init__(self, inner, spans):
                self._inner = inner
                self._spans = spans

            def submit(self, work):
                began = time.monotonic()
                time.sleep(0.05)
                self._spans.append((began, time.monotonic()))
                return self._inner.submit(work)

        spans: list[list[tuple[float, float]]] = [[], []]
        telemetry = Telemetry()
        engine, primary, reps = _stack(
            replicas=2,
            link_wrapper=lambda i, link: SlowLink(link, spans[i]),
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(workers="threads", window=4),
            telemetry=telemetry,
        )
        try:
            for lba in range(4):
                engine.write_block(lba, bytes([lba + 1]) * BS)
            engine.drain()
            outstanding = engine.verify_traffic_conservation()
        finally:
            engine.close()  # stops the channel worker threads
        assert [len(s) for s in spans] == [4, 4]
        assert any(
            a0 < b1 and a1 < b0 for a0, b0 in spans[0] for a1, b1 in spans[1]
        )
        assert not any(outstanding.values())
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["resilience.ships_delivered"] == 8
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()


    def test_shared_guard_counters_lose_no_update(self):
        """Four guarded replicas submit on four worker threads at once,
        switching every microsecond: the engine-wide counter they share
        and every replica's ledger row still count every ship."""
        telemetry = Telemetry()
        engine, primary, reps = _stack(
            replicas=4,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(workers="threads", window=4),
            telemetry=telemetry,
        )
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _random_writes(engine, count=40, seed=5)
            engine.drain()
            outstanding = engine.verify_traffic_conservation()
        finally:
            sys.setswitchinterval(old_interval)
            engine.close()
        shipped = engine.accountant.writes_replicated
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["resilience.ships_delivered"] == shipped
        assert not any(outstanding.values())
        for dev in reps:
            assert dev.snapshot() == primary.snapshot()


class TestLatencyLink:
    def test_sim_clock_advances_instead_of_sleeping(self):
        strategy = make_strategy("prins")
        device = MemoryBlockDevice(BS, N)
        clock = SimClock()
        link = LatencyLink(
            DirectLink(ReplicaEngine(device, strategy)), 0.25, clock=clock
        )
        engine = PrimaryEngine(MemoryBlockDevice(BS, N), strategy, [link])
        engine.write_block(0, b"z" * BS)
        assert clock.now == pytest.approx(0.25)
        assert device.read_block(0) == b"z" * BS


class TestSchedulerTelemetry:
    def test_instruments_populate(self):
        telemetry = Telemetry()
        engine, _, _ = _stack(
            replicas=2,
            telemetry=telemetry,
            telemetry_name="sched-test",
            scheduler=SchedulerConfig(
                window=1, link_latency_s=0.002, max_queue=2
            ),
        )
        _random_writes(engine, count=25)
        engine.drain()
        snapshot = telemetry.snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters["sched.submits"] == 25
        assert "sched.queue_depth" in snapshot["metrics"]["histograms"]

    def test_engine_snapshot_includes_scheduler(self):
        engine, _, _ = _stack(scheduler=SchedulerConfig(window=2))
        _random_writes(engine, count=5)
        engine.drain()
        snap = engine.telemetry_snapshot()
        assert snap["scheduler"]["submitted"] == 5
        assert snap["scheduler"]["outstanding"] == 0
        assert len(snap["scheduler"]["channels"]) == 3


class TestChannelManagement:
    def test_channel_after_submit_rejected(self):
        engine, _, _ = _stack(replicas=1, scheduler=SchedulerConfig(window=2))
        engine.write_block(0, b"a" * BS)
        engine.drain()
        extra = DirectLink(
            ReplicaEngine(MemoryBlockDevice(BS, N), make_strategy("prins"))
        )
        with pytest.raises(ConfigurationError):
            engine.scheduler.add_channel(link=extra)
