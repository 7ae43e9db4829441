"""Tests for the fault-tolerance layer (engine/resilience.py).

Covers, bottom-up: fault injection (FaultyLink / FlakyTransport), retry
schedules and their determinism under a fixed seed, circuit-breaker
open/half-open/close transitions, backlog drain ordering and idempotent
re-apply at the replica, backlog-overflow → digest_sync escalation, wire
accounting for every recovery path, and the cluster-level end-to-end
degradation story the ISSUE acceptance criteria demand.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReplicationConfig, open_cluster, open_primary
from repro.block import MemoryBlockDevice
from repro.common.errors import (
    ConfigurationError,
    PartialReplicationError,
    ReplicationError,
    RetriesExhaustedError,
    StaleReplicaError,
    SyncError,
)
from repro.common.rng import make_rng
from repro.engine import (
    CircuitBreaker,
    DirectLink,
    FaultyLink,
    InjectedLinkError,
    LinkHealth,
    PrimaryEngine,
    ReplicaEngine,
    ResilienceConfig,
    ResilientLink,
    RetryPolicy,
    ShipWork,
    make_strategy,
    verify_consistency,
)
from repro.engine.accounting import ConservationError, Flow
from repro.engine.messages import ReplicationRecord
from repro.engine.reconcile import (
    GROUP_SKETCH_OVERHEAD,
    ReconcileConfig,
    ReconcileSession,
    ResyncShipper,
)
from repro.engine.replica import ACK_APPLIED, ACK_DUPLICATE
from repro.engine.resilience import GuardedLink
from repro.iscsi.transport import (
    FlakyTransport,
    InjectedTransportError,
    transport_pair,
)
from tests.test_engine_hotpath import CountingDevice

BS = 512
N = 16


def _pair(strategy_name: str = "prins"):
    """A (replica_engine, replica_device, base_link) triple."""
    strategy = make_strategy(strategy_name)
    replica_dev = MemoryBlockDevice(BS, N)
    replica = ReplicaEngine(replica_dev, strategy)
    return replica, replica_dev, DirectLink(replica)


def _engine(links, strategy_name: str = "prins", **kwargs):
    strategy = make_strategy(strategy_name)
    primary_dev = MemoryBlockDevice(BS, N)
    engine = PrimaryEngine(primary_dev, strategy, links, **kwargs)
    return engine, primary_dev


def block(rng, size: int = BS) -> bytes:
    return rng.integers(0, 256, size, dtype="u1").tobytes()


# ---------------------------------------------------------------------------
# FaultyLink — the injection wrapper everything else is tested through
# ---------------------------------------------------------------------------


class TestFaultyLink:
    def test_passthrough_when_healthy(self):
        replica, replica_dev, base = _pair()
        engine, primary = _engine([FaultyLink(base)])
        engine.write_block(0, b"a" * BS)
        assert replica_dev.read_block(0) == b"a" * BS

    def test_drop_raises_without_delivering(self):
        replica, replica_dev, base = _pair()
        link = FaultyLink(base)
        link.fail_next(1, "drop")
        engine, _ = _engine([link])
        with pytest.raises(PartialReplicationError) as excinfo:
            engine.write_block(0, b"b" * BS)
        assert isinstance(excinfo.value.cause, InjectedLinkError)
        assert not excinfo.value.cause.delivered
        assert replica.records_applied == 0

    def test_error_delivers_but_loses_ack(self):
        replica, replica_dev, base = _pair()
        link = FaultyLink(base)
        link.fail_next(1, "error")
        engine, _ = _engine([link])
        with pytest.raises(PartialReplicationError):
            engine.write_block(0, b"c" * BS)
        # the record reached the replica even though the write "failed"
        assert replica.records_applied == 1
        assert replica_dev.read_block(0) == b"c" * BS

    def test_duplicate_is_suppressed_by_replica(self):
        replica, replica_dev, base = _pair()
        link = FaultyLink(base)
        link.fail_next(1, "duplicate")
        engine, primary = _engine([link])
        engine.write_block(0, b"d" * BS)  # no error: dup acked quietly
        assert replica.records_applied == 1
        assert replica.records_duplicate == 1
        assert verify_consistency(primary, replica_dev) == []

    def test_kill_and_heal(self):
        replica, replica_dev, base = _pair()
        link = FaultyLink(base)
        link.kill()
        with pytest.raises(InjectedLinkError):
            link.submit(ShipWork.for_record(0, _record()))
        link.heal()
        engine, _ = _engine([link])
        engine.write_block(1, b"e" * BS)
        assert replica_dev.read_block(1) == b"e" * BS

    def test_probabilistic_faults_deterministic_under_seed(self):
        def run():
            _, _, base = _pair("traditional")
            link = FaultyLink(
                base, drop_probability=0.3, rng=make_rng(9, "flaky")
            )
            outcomes = []
            for seq in range(50):
                try:
                    link.submit(ShipWork.for_record(0, _record(seq + 1)))
                    outcomes.append("ok")
                except InjectedLinkError:
                    outcomes.append("drop")
            return outcomes

        first, second = run(), run()
        assert first == second
        assert 5 < first.count("drop") < 25

    def test_probability_validation(self):
        _, _, base = _pair()
        with pytest.raises(ValueError):
            FaultyLink(base, drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultyLink(base, drop_probability=0.7, error_probability=0.7)
        with pytest.raises(ValueError):
            FaultyLink(base).fail_next(1, "melt")


def _record(seq: int = 1, data: bytes = b"x" * BS):
    # a traditional full-block frame is simplest to apply standalone
    # (ship hand-built records only at replicas built with "traditional")
    from repro.engine.messages import ReplicationRecord

    strategy = make_strategy("traditional")
    frame = strategy.encode_update(data, b"")
    return ReplicationRecord.for_block(seq, data, frame)


# ---------------------------------------------------------------------------
# RetryPolicy / ResilientLink
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "max_attempts,expected_retries", [(1, 0), (2, 1), (4, 3), (7, 6)]
    )
    def test_schedule_length_matches_budget(self, max_attempts, expected_retries):
        policy = RetryPolicy(max_attempts=max_attempts, jitter=0.0)
        assert len(policy.schedule()) == expected_retries

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            max_attempts=8,
            base_delay_s=0.01,
            multiplier=2.0,
            max_delay_s=0.05,
            jitter=0.0,
        )
        schedule = policy.schedule()
        assert schedule[0] == pytest.approx(0.01)
        assert schedule[1] == pytest.approx(0.02)
        assert schedule[2] == pytest.approx(0.04)
        assert all(d == pytest.approx(0.05) for d in schedule[3:])

    def test_jitter_deterministic_under_fixed_seed(self):
        policy = RetryPolicy(max_attempts=6, jitter=0.5)
        a = policy.schedule(make_rng(42, "backoff"))
        b = policy.schedule(make_rng(42, "backoff"))
        c = policy.schedule(make_rng(43, "backoff"))
        assert a == b
        assert a != c
        # jitter only ever shortens the deterministic delay, never extends
        unjittered = policy.schedule()
        assert all(x <= y for x, y in zip(a, unjittered))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1.0)


class TestResilientLink:
    def test_masks_transient_faults(self):
        replica, replica_dev, base = _pair()
        flaky = FaultyLink(base)
        flaky.fail_next(2, "drop")
        link = ResilientLink(flaky, RetryPolicy(max_attempts=4))
        engine, primary = _engine([link])
        engine.write_block(0, b"r" * BS)  # two drops then success
        assert link.retries == 2
        assert verify_consistency(primary, replica_dev) == []

    def test_attempt_counts_exhausted(self):
        _, _, base = _pair("traditional")
        flaky = FaultyLink(base)
        flaky.fail_next(10, "drop")
        link = ResilientLink(flaky, RetryPolicy(max_attempts=3))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            link.submit(ShipWork.for_record(0, _record()))
        assert excinfo.value.attempts == 3
        assert flaky.ships_attempted == 3
        assert link.giveups == 1

    def test_retry_after_lost_ack_yields_duplicate_ack(self):
        """Delivered-but-unacked + retry = the idempotency story end-to-end."""
        replica, replica_dev, base = _pair("traditional")
        flaky = FaultyLink(base)
        flaky.fail_next(1, "error")  # applied, ack lost
        link = ResilientLink(flaky, RetryPolicy(max_attempts=2))
        ack = link.submit(ShipWork.for_record(0, _record()))
        seq, status = ReplicaEngine.parse_ack(ack)
        assert status == ACK_DUPLICATE  # replica refused to re-apply
        assert replica.records_applied == 1
        assert replica.records_duplicate == 1

    def test_nontransient_errors_propagate_immediately(self):
        class ExplodingLink(DirectLink):
            def _submit_record(self, lba, record):
                raise ReplicationError("CRC mismatch — deterministic")

        link = ResilientLink(ExplodingLink(None), RetryPolicy(max_attempts=5))
        with pytest.raises(ReplicationError, match="CRC"):
            link.submit(ShipWork.for_record(0, _record()))
        assert link.retries == 0  # no retry budget wasted on a hard error

    def test_backoff_is_simulated_not_slept(self):
        _, _, base = _pair("traditional")
        flaky = FaultyLink(base)
        flaky.fail_next(3, "drop")
        link = ResilientLink(
            flaky,
            RetryPolicy(
                max_attempts=4, base_delay_s=10.0, max_delay_s=40.0, jitter=0.0
            ),
        )
        # would sleep 70 s if the backoff were real
        link.submit(ShipWork.for_record(0, _record()))
        assert link.simulated_backoff_s == pytest.approx(70.0)

    def test_slow_ship_counts_as_timeout(self):
        _, _, base = _pair("traditional")
        flaky = FaultyLink(base, delay_s=0.5)
        flaky.fail_next(1, "delay")
        link = ResilientLink(
            flaky,
            RetryPolicy(max_attempts=2, attempt_budget_s=0.1),
        )
        # 1st attempt over budget, 2nd clean
        ack = link.submit(ShipWork.for_record(0, _record()))
        assert link.retries == 1
        _, status = ReplicaEngine.parse_ack(ack)
        assert status == ACK_DUPLICATE  # the slow ship did deliver

    def test_on_retry_callback_charges_wire_bytes(self):
        charged: list[int] = []
        _, _, base = _pair("traditional")
        flaky = FaultyLink(base)
        flaky.fail_next(2, "drop")
        link = ResilientLink(
            flaky, RetryPolicy(max_attempts=3), on_retry=charged.append
        )
        record = _record()
        link.submit(ShipWork.for_record(0, record))
        wire = len(record.pack()) + link.pdu_overhead
        assert charged == [wire, wire]


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_healthy_to_degraded_to_down(self):
        breaker = CircuitBreaker(degraded_after=2, down_after=4)
        for _ in range(1):
            breaker.record_failure()
        assert breaker.state is LinkHealth.HEALTHY
        breaker.record_failure()
        assert breaker.state is LinkHealth.DEGRADED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is LinkHealth.DOWN
        assert breaker.transitions == [
            (LinkHealth.HEALTHY, LinkHealth.DEGRADED),
            (LinkHealth.DEGRADED, LinkHealth.DOWN),
        ]

    def test_success_resets_to_healthy(self):
        breaker = CircuitBreaker(degraded_after=1, down_after=3)
        breaker.record_failure()
        assert breaker.state is LinkHealth.DEGRADED
        breaker.record_success()
        assert breaker.state is LinkHealth.HEALTHY
        assert breaker.consecutive_failures == 0

    def test_open_circuit_suppresses_until_probe(self):
        breaker = CircuitBreaker(degraded_after=1, down_after=1, probe_interval=3)
        breaker.record_failure()
        assert breaker.state is LinkHealth.DOWN
        attempts = [breaker.should_attempt() for _ in range(6)]
        # every probe_interval-th call is the half-open probe
        assert attempts == [False, False, True, False, False, True]

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(degraded_after=1, down_after=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.should_attempt()  # half-open probe
        assert breaker.half_open
        breaker.record_success()
        assert breaker.state is LinkHealth.HEALTHY
        assert not breaker.half_open

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(degraded_after=1, down_after=1, probe_interval=2)
        breaker.record_failure()
        assert not breaker.should_attempt()
        assert breaker.should_attempt()  # probe
        breaker.record_failure()  # probe failed
        assert breaker.state is LinkHealth.DOWN
        assert not breaker.should_attempt()  # countdown restarted

    def test_force_down(self):
        breaker = CircuitBreaker()
        breaker.force_down()
        assert breaker.state is LinkHealth.DOWN

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(degraded_after=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(degraded_after=3, down_after=2)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(probe_interval=0)


# ---------------------------------------------------------------------------
# Fault-tolerant PrimaryEngine: backlog, drain, escalation
# ---------------------------------------------------------------------------


def _resilient_stack(
    flaky_kwargs=None,
    config: ResilienceConfig | None = None,
    strategy_name: str = "prins",
):
    replica, replica_dev, base = _pair(strategy_name)
    flaky = FaultyLink(base, **(flaky_kwargs or {}))
    engine, primary = _engine(
        [flaky],
        strategy_name,
        resilience=config or ResilienceConfig(),
    )
    return engine, primary, replica, replica_dev, flaky


class TestGuardedEngine:
    def test_transient_fault_degrades_instead_of_raising(self):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1))
        )
        flaky.fail_next(1, "drop")
        engine.write_block(0, b"a" * BS)  # no raise
        assert engine.link_health() == [LinkHealth.DEGRADED]
        assert engine.backlog_depth(0) == 1
        assert engine.accountant.writes_journaled == 1
        assert engine.accountant.journaled_records == 1

    def test_backlog_drains_in_order_on_next_write(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1))
        )
        engine.write_block(3, block(rng))
        flaky.fail_next(2, "drop")  # two writes fail -> journaled in order
        for _ in range(2):
            data = bytearray(engine.read_block(3))
            data[0:30] = block(rng, 30)
            engine.write_block(3, bytes(data))
        assert engine.backlog_depth(0) == 2
        # next healthy write drains the backlog first, then ships itself
        data = bytearray(engine.read_block(3))
        data[100:130] = block(rng, 30)
        engine.write_block(3, bytes(data))
        assert engine.backlog_depth(0) == 0
        assert verify_consistency(primary, replica_dev) == []
        assert engine.accountant.backlog_records_replayed == 2
        assert engine.accountant.backlog_replay_bytes > 0

    def test_ordering_preserved_when_drain_fails_midway(self, rng):
        """Ship-then-pop: a drain interrupted by a fresh fault loses nothing."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), down_after=100
            )
        )
        engine.write_block(5, block(rng))
        flaky.fail_next(3, "drop")
        for _ in range(3):
            data = bytearray(engine.read_block(5))
            data[0:20] = block(rng, 20)
            engine.write_block(5, bytes(data))
        assert engine.backlog_depth(0) == 3
        # drain attempt that dies after one replayed record
        flaky.fail_next(1, "drop")  # hits the second replayed record? no —
        # the first replay ship fails, so all 3 stay + the new write joins
        data = bytearray(engine.read_block(5))
        data[50:70] = block(rng, 20)
        engine.write_block(5, bytes(data))
        assert engine.backlog_depth(0) == 4
        # healthy write finally drains everything, in order
        engine.write_block(6, block(rng))
        assert engine.backlog_depth(0) == 0
        assert verify_consistency(primary, replica_dev) == []

    def test_duplicate_replay_acked_as_duplicate(self, rng):
        """A record applied-but-unacked is journaled; its replay must be
        suppressed by the replica, not re-XORed into corruption."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1))
        )
        engine.write_block(2, block(rng))
        flaky.fail_next(1, "error")  # delivered, ack lost -> journaled anyway
        data = bytearray(engine.read_block(2))
        data[0:40] = block(rng, 40)
        engine.write_block(2, bytes(data))
        assert engine.backlog_depth(0) == 1
        engine.write_block(7, block(rng))  # drains: replay is a duplicate
        assert replica.records_duplicate >= 1
        assert verify_consistency(primary, replica_dev) == []

    def test_down_link_stops_burning_retries(self):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                down_after=2,
                probe_interval=100,
            )
        )
        flaky.kill()
        for lba in range(6):
            engine.write_block(lba, bytes([lba + 1]) * BS)
        assert engine.link_health() == [LinkHealth.DOWN]
        # 2 failed fan-outs x 2 attempts each; the other 4 writes were
        # suppressed by the open circuit (no wire attempts at all)
        assert flaky.ships_attempted == 4
        assert engine.backlog_depth(0) == 6

    def test_half_open_probe_recovers_automatically(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                down_after=1,
                probe_interval=2,
            )
        )
        flaky.kill()
        engine.write_block(0, block(rng))  # fails -> DOWN
        flaky.heal()
        engine.write_block(1, block(rng))  # suppressed (journaled)
        assert engine.link_health() == [LinkHealth.DOWN]
        engine.write_block(2, block(rng))  # probe: drains backlog + ships
        assert engine.link_health() == [LinkHealth.HEALTHY]
        assert engine.backlog_depth(0) == 0
        assert verify_consistency(primary, replica_dev) == []

    def test_heal_replays_backlog(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack()
        engine.fail_link(0)
        writes = {lba: block(rng) for lba in range(8)}
        for lba, data in writes.items():
            engine.write_block(lba, data)
        assert engine.link_health() == [LinkHealth.DOWN]
        assert verify_consistency(primary, replica_dev) != []
        outcome = engine.heal_link(0)
        assert outcome.mode == "replay"
        assert outcome.records_replayed == 8
        assert outcome.bytes_replayed > 0
        assert engine.link_health() == [LinkHealth.HEALTHY]
        assert verify_consistency(primary, replica_dev) == []

    def test_backlog_overflow_escalates_to_digest_sync(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                backlog_capacity_bytes=1500, resync="digest"
            )
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))  # overflow the tiny backlog
        assert engine.guards[0].needs_resync
        outcome = engine.heal_link(0)
        assert outcome.mode == "digest"
        assert outcome.tiers == ("digest",)
        assert outcome.sync_report is not None
        assert outcome.sync_report.blocks_copied > 0
        assert engine.accountant.resyncs == 1
        assert engine.accountant.resync_bytes == outcome.sync_report.wire_bytes
        assert verify_consistency(primary, replica_dev) == []

    def test_backlog_overflow_defaults_to_reconcile_tier(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1500)
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))  # overflow the tiny backlog
        assert engine.guards[0].needs_resync
        outcome = engine.heal_link(0)
        assert outcome.mode == "reconcile"
        assert outcome.tiers == ("reconcile",)
        assert outcome.reconcile is not None
        assert outcome.reconcile.records_shipped > 0
        assert engine.accountant.reconciles == 1
        assert (
            engine.accountant.reconcile_bytes
            == outcome.reconcile.wire_bytes
        )
        assert verify_consistency(primary, replica_dev) == []

    def test_overflow_without_sync_device_raises_sync_error(self):
        class OpaqueLink(DirectLink):
            def sync_device(self):
                return None  # a real WAN link: no local device handle

        strategy = make_strategy("prins")
        replica_dev = MemoryBlockDevice(BS, N)
        replica = ReplicaEngine(replica_dev, strategy)
        engine, _ = _engine(
            [OpaqueLink(replica)],
            resilience=ResilienceConfig(backlog_capacity_bytes=600),
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, bytes([lba + 1]) * BS)
        with pytest.raises(SyncError, match="out-of-band"):
            engine.heal_link(0)

    def test_wire_accounting_splits_recovery_paths(self, rng):
        """Each recovery path lands in its own counter, so benchmarks can
        weigh backlog replay against digest resync (Dimakis' question)."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=3))
        )
        acct = engine.accountant
        # 1. retries
        flaky.fail_next(1, "drop")
        engine.write_block(0, block(rng))
        assert acct.retries == 1 and acct.retry_bytes > 0
        # 2. backlog replay
        engine.fail_link(0)
        engine.write_block(1, block(rng))
        engine.heal_link(0)
        assert acct.backlog_records_replayed == 1
        assert acct.backlog_replay_bytes > 0
        # 3. digest resync
        small = _resilient_stack(
            config=ResilienceConfig(
                backlog_capacity_bytes=400, resync="digest"
            )
        )
        engine2 = small[0]
        engine2.fail_link(0)
        for lba in range(N):
            engine2.write_block(lba, block(rng))
        engine2.heal_link(0)
        assert engine2.accountant.resync_bytes > 0
        assert (
            engine2.accountant.recovery_bytes
            >= engine2.accountant.resync_bytes
        )
        # 4. set reconciliation (the default overflow tier)
        tiny = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=400)
        )
        engine3 = tiny[0]
        engine3.fail_link(0)
        for lba in range(N):
            engine3.write_block(lba, block(rng))
        engine3.heal_link(0)
        assert engine3.accountant.resync_bytes == 0
        assert engine3.accountant.reconcile_bytes > 0
        assert (
            engine3.accountant.recovery_bytes
            >= engine3.accountant.reconcile_bytes
        )

    def test_strict_engine_rejects_health_api(self):
        engine, _ = _engine([_pair()[2]])
        with pytest.raises(ConfigurationError):
            engine.fail_link(0)
        with pytest.raises(ConfigurationError):
            engine.heal_all()
        assert engine.link_health() == [LinkHealth.HEALTHY]


# ---------------------------------------------------------------------------
# Strict fan-out: typed partial-failure reporting (satellite)
# ---------------------------------------------------------------------------


class TestPartialReplication:
    def test_partial_error_carries_progress(self):
        r1, d1, l1 = _pair()
        r2, d2, l2 = _pair()
        bad = FaultyLink(l2)
        bad.kill()
        engine, primary = _engine([l1, bad])
        with pytest.raises(PartialReplicationError) as excinfo:
            engine.write_block(0, b"p" * BS)
        err = excinfo.value
        assert err.succeeded == (0,)
        assert err.failed_index == 1
        assert err.total_links == 2
        assert err.lba == 0
        # the first replica really does hold the data
        assert d1.read_block(0) == b"p" * BS

    def test_partial_progress_is_charged_to_accountant(self):
        _, _, l1 = _pair()
        bad = FaultyLink(_pair()[2])
        bad.kill()
        engine, _ = _engine([l1, bad])
        with pytest.raises(PartialReplicationError):
            engine.write_block(0, b"q" * BS)
        acct = engine.accountant
        assert acct.writes_total == 1
        assert acct.data_bytes == BS
        assert acct.writes_replicated == 1  # the one acked copy
        assert acct.payload_bytes > 0

    def test_zero_progress_failure_counts_as_failed_write(self):
        bad = FaultyLink(_pair()[2])
        bad.kill()
        engine, _ = _engine([bad])
        with pytest.raises(PartialReplicationError):
            engine.write_block(0, b"z" * BS)
        acct = engine.accountant
        assert acct.writes_failed == 1
        assert acct.writes_replicated == 0
        assert acct.data_bytes == BS


# ---------------------------------------------------------------------------
# FlakyTransport (PDU-level injection)
# ---------------------------------------------------------------------------


class TestFlakyTransport:
    def test_forced_error_raises(self):
        a, b = transport_pair()
        flaky = FlakyTransport(a)
        flaky.fail_next(1, "error")
        from repro.iscsi.pdu import Opcode, Pdu

        with pytest.raises(InjectedTransportError):
            flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=1))
        assert flaky.errors == 1

    def test_drop_loses_pdu_silently(self):
        a, b = transport_pair()
        flaky = FlakyTransport(a)
        flaky.fail_next(1, "drop")
        from repro.iscsi.pdu import Opcode, Pdu

        flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=1))  # "succeeds" at the sender
        with pytest.raises(TimeoutError):
            b.receive(timeout=0.05)
        flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=2))  # next one goes through
        assert b.receive(timeout=1.0).itt == 2

    def test_duplicate_delivers_twice(self):
        a, b = transport_pair()
        flaky = FlakyTransport(a)
        flaky.fail_next(1, "duplicate")
        from repro.iscsi.pdu import Opcode, Pdu

        flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=7))
        assert b.receive(timeout=1.0).itt == 7
        assert b.receive(timeout=1.0).itt == 7

    def test_kill_heal(self):
        a, b = transport_pair()
        flaky = FlakyTransport(a)
        flaky.kill()
        from repro.iscsi.pdu import Opcode, Pdu

        flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=1))
        assert flaky.drops == 1
        flaky.heal()
        flaky.send(Pdu(opcode=Opcode.NOP_OUT, itt=2))
        assert b.receive(timeout=1.0).itt == 2

    def test_validation(self):
        a, _ = transport_pair()
        with pytest.raises(ValueError):
            FlakyTransport(a, drop_probability=-0.1)
        with pytest.raises(ValueError):
            FlakyTransport(a, drop_probability=0.6, error_probability=0.6)


# ---------------------------------------------------------------------------
# Cluster-level degradation (tentpole end-to-end + acceptance criteria)
# ---------------------------------------------------------------------------


def _flaky_cluster(
    nodes: int = 4,
    fail_fraction: float = 0.3,
    seed: int = 11,
    config: ResilienceConfig | None = None,
):
    cluster_config = ReplicationConfig(
        nodes=nodes, replicas=2, block_size=BS, num_blocks=N
    )
    faulty: dict[tuple[int, int], FaultyLink] = {}

    def factory(primary_id, replica_id, link):
        wrapped = FaultyLink(
            link,
            drop_probability=fail_fraction * 2 / 3,
            error_probability=fail_fraction / 3,
            rng=make_rng(seed, "flaky", primary_id, replica_id),
        )
        faulty[(primary_id, replica_id)] = wrapped
        return wrapped

    cluster = open_cluster(
        cluster_config,
        resilience=config or ResilienceConfig(),
        link_factory=factory,
    )
    return cluster, faulty


class TestClusterDegradedMode:
    def test_acceptance_200_writes_through_30pct_faulty_links(self):
        """ISSUE acceptance: 4 nodes, 30% ship failures, 200 writes, no
        raise; verify() empty after heal; retry+resync counters nonzero;
        deterministic under the fixed seed."""
        cluster, _ = _flaky_cluster(nodes=4, fail_fraction=0.3, seed=11)
        rng = make_rng(2026, "acceptance")
        for _ in range(200):
            cluster.write(
                int(rng.integers(0, 4)), int(rng.integers(0, N)), block(rng)
            )
        # graceful degradation: nothing raised; now converge and verify
        cluster.heal_all()
        assert cluster.verify() == {}
        assert cluster.total_retry_bytes > 0
        assert cluster.total_resync_bytes > 0
        assert cluster.total_recovery_bytes == (
            cluster.total_retry_bytes + cluster.total_resync_bytes
        )

    def test_acceptance_run_is_deterministic(self):
        def run():
            cluster, _ = _flaky_cluster(nodes=4, fail_fraction=0.3, seed=11)
            rng = make_rng(2026, "acceptance")
            for _ in range(200):
                cluster.write(
                    int(rng.integers(0, 4)), int(rng.integers(0, N)), block(rng)
                )
            cluster.heal_all()
            return (
                cluster.total_retry_bytes,
                cluster.total_resync_bytes,
                cluster.total_payload_bytes,
            )

        assert run() == run()

    def test_fail_node_journals_then_heal_drains(self, rng):
        cluster, _ = _flaky_cluster(fail_fraction=0.0)
        cluster.fail_node(1)
        for _ in range(40):
            node = int(rng.integers(0, 4))
            if node in cluster.down_nodes:
                continue
            cluster.write(node, int(rng.integers(0, N)), block(rng))
        report = cluster.verify_detailed()
        assert report.consistent  # lag is pending, not divergence
        assert all(
            replica_id == 1 for (_, replica_id) in report.pending
        ) and report.pending
        health = cluster.health()
        assert all(
            state is LinkHealth.DOWN
            for (_, replica_id), state in health.items()
            if replica_id == 1
        )
        outcomes = cluster.heal_node(1)
        assert any(o.mode == "replay" for o in outcomes.values())
        assert cluster.verify() == {}

    def test_read_failover_to_next_replica(self):
        cluster, _ = _flaky_cluster(fail_fraction=0.0)
        cluster.write(0, 5, b"f" * BS)  # replicas of node 0: nodes 1 and 2
        cluster.fail_node(1)
        assert cluster.read_from_replica(0, 5) == b"f" * BS  # served by 2
        cluster.fail_node(2)
        with pytest.raises(ReplicationError, match="no replica can serve"):
            cluster.read_from_replica(0, 5)

    def test_failover_read_skips_a_replica_that_lost_a_delta(self):
        """A DEGRADED replica with backlog is live but stale: a failover
        read must not serve its pre-write image."""
        cluster, faulty = _flaky_cluster(
            fail_fraction=0.0,
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
        )
        cluster.write(0, 5, b"a" * BS)  # replicas of node 0: nodes 1 and 2
        faulty[(0, 1)].fail_next(1, "drop")
        cluster.write(0, 5, b"b" * BS)  # node 1 misses it
        assert cluster.health()[(0, 1)] is LinkHealth.DEGRADED
        cluster.fail_node(0)
        assert cluster.read_from_replica(0, 5) == b"b" * BS  # served by 2
        cluster.heal_node(0)
        faulty[(0, 1)].fail_next(1, "drop")
        faulty[(0, 2)].fail_next(1, "drop")
        cluster.write(0, 5, b"c" * BS)  # now both replicas are stale
        with pytest.raises(StaleReplicaError, match="no replica can serve"):
            cluster.read_from_replica(0, 5)

    def test_degraded_read_routing(self):
        cluster, _ = _flaky_cluster(fail_fraction=0.0)
        cluster.write(0, 3, b"g" * BS)
        cluster.fail_node(0)
        # a read addressed to the down node is served by its replica set
        assert cluster.read(0, 3) == b"g" * BS
        with pytest.raises(ReplicationError, match="down"):
            cluster.write(0, 3, b"h" * BS)
        cluster.heal_node(0)
        cluster.write(0, 3, b"h" * BS)
        assert cluster.read(0, 3) == b"h" * BS

    def test_strict_cluster_rejects_fault_api(self):
        cluster = open_cluster(
            ReplicationConfig(nodes=4, replicas=2, block_size=BS, num_blocks=N)
        )
        with pytest.raises(ConfigurationError):
            cluster.fail_node(1)
        with pytest.raises(ConfigurationError):
            cluster.heal_all()

    def test_unknown_node_rejected(self):
        cluster, _ = _flaky_cluster()
        with pytest.raises(ConfigurationError):
            cluster.fail_node(99)


# ---------------------------------------------------------------------------
# Journal overflow: graceful degradation instead of write-path failure
# ---------------------------------------------------------------------------


class TestJournalOverflowDegradation:
    """Satellite: an overflowing journal must degrade the *replica*, never
    the primary's write path (JournalOverflowError stays internal)."""

    def test_overflow_never_raises_into_write_path(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1200)
        )
        engine.fail_link(0)
        for lba in range(N):  # far past capacity: no raise at any point
            engine.write_block(lba, block(rng))
        guard = engine.guards[0]
        assert guard.resync_required
        assert guard.needs_resync
        assert engine.link_health() == [LinkHealth.DOWN]
        # local writes kept succeeding the whole time
        assert engine.accountant.writes_total == N

    def test_down_mode_is_backlog_free(self, rng):
        """After overflow the guard counts writes but stops buffering:
        every journaled byte is immediately dropped (ledger closed) and
        the LBA remembered for reconcile-group invalidation."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1200)
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        guard = engine.guards[0]
        assert guard.backlog.entry_count == 0  # nothing buffered
        journaled_before = engine.accountant.journaled_bytes
        dropped_before = engine.accountant.dropped_bytes
        engine.write_block(3, block(rng))
        delta_journaled = engine.accountant.journaled_bytes - journaled_before
        delta_dropped = engine.accountant.dropped_bytes - dropped_before
        assert delta_journaled == delta_dropped > 0
        assert guard.backlog.entry_count == 0
        # the ledger balances mid-outage, before any heal
        engine.verify_traffic_conservation()

    def test_racing_drain_overflow_degrades_not_raises(self, rng):
        """A JournalOverflowError surfacing from a backlog drain (the
        TOCTOU window concurrent writers can hit) must convert to
        resync-required degradation, not propagate to the caller."""
        from repro.engine.journal import JournalOverflowError

        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1))
        )
        flaky.fail_next(1, "drop")
        engine.write_block(0, block(rng))  # journals one record
        guard = engine.guards[0]
        assert guard.backlog.entry_count == 1

        def exploding_replay(link):
            raise JournalOverflowError("overflowed under a racing writer")

        guard.backlog.replay = exploding_replay
        engine.write_block(1, block(rng))  # drain blows up -> no raise
        del guard.backlog.replay
        assert guard.resync_required
        assert engine.link_health() == [LinkHealth.DOWN]
        outcome = engine.heal_link(0)
        assert outcome.mode == "reconcile"
        assert verify_consistency(primary, replica_dev) == []
        engine.verify_traffic_conservation()

    def test_overflow_then_heal_converges_and_balances(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1200)
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        outcome = engine.heal_link(0)
        assert outcome.mode == "reconcile"
        assert not engine.guards[0].needs_resync
        assert engine.link_health() == [LinkHealth.HEALTHY]
        assert verify_consistency(primary, replica_dev) == []
        engine.verify_traffic_conservation()


# ---------------------------------------------------------------------------
# The reconcile tier inside the heal ladder (tentpole integration)
# ---------------------------------------------------------------------------


class TestReconcileTier:
    def test_stall_falls_back_to_digest_sweep(self, rng, monkeypatch):
        """Sketches that never decode (every key hashes to bit 0) must walk
        reconcile -> digest and still converge byte-identically."""
        import repro.engine.reconcile as reconcile_mod

        monkeypatch.setattr(
            reconcile_mod, "_bit_of", lambda lba, crc, nbits, salt: 0
        )
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1200)
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        outcome = engine.heal_link(0)
        assert outcome.mode == "digest"
        assert outcome.tiers == ("reconcile", "digest")
        assert outcome.sync_report is not None
        assert verify_consistency(primary, replica_dev) == []
        # both tiers' wire bytes are on the ledger, and it balances
        assert engine.accountant.reconcile_bytes > 0
        assert engine.accountant.resync_bytes > 0
        engine.verify_traffic_conservation()

    def test_fault_mid_reconcile_resumes_idempotently(self, rng):
        """A link fault mid-reconcile propagates out of heal() with the
        session retained; the guard stays resync-required (never HEALTHY
        with divergent blocks) and the next heal resumes and converges."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                backlog_capacity_bytes=1200,
                retry=RetryPolicy(max_attempts=1),
            )
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        flaky.fail_next(1, "drop")  # one attempt per record: ship fails
        with pytest.raises(ReplicationError):
            engine.heal_link(0)
        guard = engine.guards[0]
        assert guard.needs_resync  # divergence is still advertised
        assert engine.link_health() != [LinkHealth.HEALTHY]
        assert verify_consistency(primary, replica_dev) != []
        outcome = engine.heal_link(0)  # resume: fault cleared
        assert outcome.mode == "reconcile"
        assert outcome.reconcile.groups_verified == (
            outcome.reconcile.groups_total
        )
        assert not guard.needs_resync
        assert verify_consistency(primary, replica_dev) == []
        engine.verify_traffic_conservation()

    def test_write_during_suspended_reconcile_is_reconciled(self, rng):
        """Writes landing between a faulted heal and its resume must
        invalidate their groups: the resumed session may not trust a
        previously verified group that went stale."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                backlog_capacity_bytes=1200,
                retry=RetryPolicy(max_attempts=1),
            )
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        flaky.fail_next(1, "drop")
        with pytest.raises(ReplicationError):
            engine.heal_link(0)
        # mid-suspension writes: suppressed, counted, remembered
        late = {lba: block(rng) for lba in (0, N - 1)}
        for lba, data in late.items():
            engine.write_block(lba, data)
        outcome = engine.heal_link(0)
        assert outcome.mode == "reconcile"
        assert verify_consistency(primary, replica_dev) == []
        for lba, data in late.items():
            assert replica_dev.read_block(lba) == data
        engine.verify_traffic_conservation()

    def test_reconcile_outcome_snapshot_reaches_telemetry(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(backlog_capacity_bytes=1200)
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        engine.heal_link(0)
        snap = engine.accountant.snapshot()["resilience"]
        assert snap["reconciles"] == 1
        assert snap["reconcile_bytes"] == (
            snap["reconcile_sketch_bytes"]
            + snap["reconcile_digest_bytes"]
            + snap["reconcile_diff_bytes"]
        )
        assert snap["reconcile_bytes"] > 0

    def test_digest_mode_never_builds_a_session(self, rng):
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                backlog_capacity_bytes=1200, resync="digest"
            )
        )
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        outcome = engine.heal_link(0)
        assert outcome.mode == "digest"
        assert outcome.tiers == ("digest",)
        assert engine.accountant.reconciles == 0
        assert engine.accountant.reconcile_bytes == 0

    def test_resync_mode_validated(self):
        with pytest.raises(ConfigurationError, match="resync"):
            ResilienceConfig(resync="rsync")


# ---------------------------------------------------------------------------
# Seeded reconcile: the remembered dirty set must be complete
# ---------------------------------------------------------------------------


def _outage_stack(redundancy: str = "mirror", **overrides):
    """A 1024-block resilient stack with an 8 KiB backlog.

    Returns ``(stack, victim, faulty)``: the channel an outage targets
    (replica 1 of 2 mirrors, or the last parity holder at (4, 6), which
    receives a delta for every write) and its :class:`FaultyLink`.
    """
    config = ReplicationConfig(
        num_blocks=1024,
        replicas=2,
        redundancy=redundancy,
        resilient=True,
        backlog_capacity_bytes=8192,
        **overrides,
    )
    victim = config.n - 1 if redundancy == "erasure" else 1
    faulty: dict[int, FaultyLink] = {}

    def factory(index, link):
        if index == victim:
            link = faulty[index] = FaultyLink(link)
        return link

    stack = open_primary(config, link_factory=factory)
    return stack, victim, faulty[victim]


def _row_update(engine, rng, lba: int, row: int = 300) -> None:
    """Rewrite one ``row``-byte slice of block ``lba`` (a TPC-C row)."""
    page = bytearray(engine.read_block(lba))
    offset = int(rng.integers(0, len(page) - row))
    page[offset : offset + row] = block(rng, row)
    engine.write_block(lba, bytes(page))


def _assert_converged(stack) -> None:
    assert stack.verify()
    outstanding = stack.engine.verify_traffic_conservation()
    assert all(v == 0 for v in outstanding.values())


class TestSeededReconcileCompleteness:
    """A new reconcile session only sketches the groups holding an LBA the
    guard remembers, so every LBA whose record the guard journaled,
    suppressed or dropped must be remembered until the replica catches
    up — evicted and failed-batch records included."""

    @pytest.mark.parametrize("redundancy", ["mirror", "erasure"])
    def test_lba_evicted_by_overflow_is_reconciled(self, rng, redundancy):
        stack, victim, _ = _outage_stack(redundancy)
        with stack:
            engine = stack.engine
            engine.fail_link(victim)
            _row_update(engine, rng, 1000)  # journaled, then evicted
            for i in range(40):
                _row_update(engine, rng, i % 8)
            assert engine.guards[victim].resync_required
            outcome = engine.heal_link(victim)
            assert outcome.tiers == ("reconcile",)
            report = outcome.reconcile
            assert report.groups_verified == report.groups_total
            # seeded: only the groups of LBAs 0-7 and 1000 were sketched
            per_group = 64 + GROUP_SKETCH_OVERHEAD  # 64 LBAs x 8 bits
            assert report.sketch_bytes <= 2 * per_group * report.rounds
            _assert_converged(stack)

    @pytest.mark.parametrize("redundancy", ["mirror", "erasure"])
    def test_write_during_suspended_heal_is_reconciled(self, rng, redundancy):
        stack, victim, faulty = _outage_stack(redundancy, max_attempts=1)
        with stack:
            engine = stack.engine
            engine.fail_link(victim)
            _row_update(engine, rng, 1000)
            for i in range(40):
                _row_update(engine, rng, i % 8)
            faulty.fail_next(1, "drop")  # the first shipped diff dies
            with pytest.raises(ReplicationError):
                engine.heal_link(victim)
            assert engine.guards[victim].needs_resync
            # land in a group outside the seed while the session waits
            _row_update(engine, rng, 500)
            outcome = engine.heal_link(victim)
            assert outcome.tiers == ("reconcile",)
            _assert_converged(stack)

    def test_failed_batch_spanning_two_groups_is_reconciled(self, rng):
        stack, victim, faulty = _outage_stack(batch_records=4)
        with stack:
            engine = stack.engine
            _row_update(engine, rng, 10)  # group 0
            _row_update(engine, rng, 100)  # group 1
            faulty.fail_next(4, "drop")  # every retry of the batch drops
            engine.flush_batch()
            assert engine.guards[victim].backlog_depth == 2
            engine.fail_link(victim)
            for i in range(40):  # overflow evicts both batch records
                _row_update(engine, rng, 512 + i % 8)
            stack.drain()
            assert engine.guards[victim].resync_required
            outcome = engine.heal_link(victim)
            assert outcome.tiers == ("reconcile",)
            _assert_converged(stack)


# ---------------------------------------------------------------------------
# Heal cost: reads and hashes scale with the divergence, not the group size
# ---------------------------------------------------------------------------

HEAL_BS = 8192
HEAL_BLOCKS = 1024
OUTAGE_WRITES = 60


def _heal_stack(rng):
    """Two mirrors of a 1024 x 8 KiB volume behind an 8 KiB backlog.

    Returns ``(engine, primary, replica)``; ``replica`` is the device of
    link 1, the one the outages take down.
    """
    strategy = make_strategy("prins")
    image = block(rng, HEAL_BS * HEAL_BLOCKS)
    devices = [CountingDevice(HEAL_BS, HEAL_BLOCKS) for _ in range(3)]
    for device in devices:
        device.load(image)
    primary, *replicas = devices
    engine = PrimaryEngine(
        primary,
        strategy,
        [DirectLink(ReplicaEngine(dev, strategy)) for dev in replicas],
        resilience=ResilienceConfig(backlog_capacity_bytes=8192),
    )
    return engine, primary, replicas[1]


#: the pages every outage rewrites, as a TPC-C trace keeps rewriting a
#: hot set: 30 LBAs, one or two in each of the 16 groups
HOT_LBAS = tuple(range(5, HEAL_BLOCKS, 35))


def _outage(engine, rng) -> None:
    """Fail link 1; overflow its backlog with two row updates per hot LBA."""
    engine.fail_link(1)
    for i in range(OUTAGE_WRITES):
        _row_update(engine, rng, HOT_LBAS[i % len(HOT_LBAS)])
    assert engine.guards[1].resync_required


class _CountingZlib:
    """Stands in for ``zlib`` inside the memory device; counts its CRCs."""

    def __init__(self, real):
        self._real = real
        self.crcs = 0

    def crc32(self, data, value=0):
        self.crcs += 1
        return self._real.crc32(data, value)


class TestHealCost:
    """A heal reads and hashes the blocks that diverged, not every block
    of every group holding one: the memory device answers ``block_crc``
    from a table its own writes keep exact."""

    def test_heal_reads_and_hashes_scale_with_the_dirty_set(
        self, rng, monkeypatch
    ):
        import zlib

        import repro.block.memory as memory_mod

        counting = _CountingZlib(zlib)
        monkeypatch.setattr(memory_mod, "zlib", counting)
        engine, primary, replica = _heal_stack(rng)
        dirty = len(HOT_LBAS)
        for cycle in range(4):
            _outage(engine, rng)
            primary.reads = replica.reads = counting.crcs = 0
            outcome = engine.heal_link(1)
            reads = (primary.reads, replica.reads)
            crcs = counting.crcs
            assert outcome.tiers == ("reconcile",)
            assert outcome.reconcile.dirty_lbas_found == dirty
            assert verify_consistency(primary, replica) == []
            if cycle == 0:
                continue  # the first heal takes every CRC it sketches
            # sketching and verifying 16 pending groups read 2 x 64 x 16
            # blocks of each device; now a record needs one read of each
            # side and its apply one more of the replica
            assert max(reads) <= 2 * dirty
            # the primary's rewritten blocks, and the replica's once shipped
            assert crcs <= 3 * dirty

    def test_write_behind_the_guard_is_found_by_a_warm_scrub(self, rng):
        engine, primary, replica = _heal_stack(rng)
        _outage(engine, rng)
        assert engine.heal_link(1).tiers == ("reconcile",)
        for lba in range(HEAL_BLOCKS):  # warm both CRC tables
            primary.block_crc(lba)
            replica.block_crc(lba)
        rotten = bytearray(replica.read_block(700))
        rotten[100] ^= 0xFF
        replica.write_block(700, bytes(rotten))
        engine.guards[1].resync_required = True
        outcome = engine.heal_link(1)
        assert outcome.tiers == ("reconcile",)
        assert outcome.reconcile.dirty_lbas_found == 1
        assert verify_consistency(primary, replica) == []
        assert all(
            v == 0 for v in engine.verify_traffic_conservation().values()
        )


# ---------------------------------------------------------------------------
# Property: every heal converges, balances, and ships what a scrub would
# ---------------------------------------------------------------------------

PROP_BS = 512
PROP_BLOCKS = 256
#: 16 groups of 16 LBAs, so a seed that misses a group is observable
PROP_RECONCILE = ReconcileConfig(group_size=16)

_replica_index = st.integers(0, 1)
heal_ladder_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, PROP_BLOCKS - 1),
            st.integers(0, PROP_BS - 64),
            st.binary(min_size=1, max_size=64),
        ),
        st.tuples(st.just("fail"), _replica_index),
        st.tuples(st.just("drop"), _replica_index),
        st.tuples(
            st.just("overflow"),
            _replica_index,
            st.lists(st.integers(0, PROP_BLOCKS - 1), min_size=5, max_size=8),
            st.integers(0, 2**16),
        ),
        st.tuples(st.just("fault_heal"), _replica_index),
        st.tuples(st.just("heal"), _replica_index),
    ),
    max_size=30,
)


def _full_session_diff_bytes(source: bytes, dest: bytes) -> int:
    """``diff_bytes`` of an unseeded session run on copies of two devices."""
    src = MemoryBlockDevice(PROP_BS, PROP_BLOCKS)
    dst = MemoryBlockDevice(PROP_BS, PROP_BLOCKS)
    src.load(source)
    dst.load(dest)
    strategy = make_strategy("prins")
    seq = itertools.count(1)

    def builder(lba, new, old):
        frame = strategy.encode_update(new, old)
        if frame is None:
            return None
        return ReplicationRecord.for_block(next(seq), new, frame)

    session = ReconcileSession(PROP_BLOCKS, PROP_BS, PROP_RECONCILE)
    link = DirectLink(ReplicaEngine(dst, strategy))
    shipper = ResyncShipper(link, builder, session.report)
    session.run(src, dst, shipper)
    assert dst.snapshot() == source
    return session.report.diff_bytes


@settings(max_examples=100, deadline=None)
@given(ops=heal_ladder_ops)
def test_heal_ladder_converges_and_seeding_misses_nothing(ops):
    """Random writes, outages, dropped deltas, overflows and faulted heals
    on two inline replicas behind a 2 KiB backlog.  After every heal that
    succeeds: the healed replica is byte-identical, its ledger balances
    to zero, and a seeded session shipped exactly the bytes a full
    session would have shipped from the same two devices — a stale seed
    may cost more groups, never a missed block."""
    faulty: dict[int, FaultyLink] = {}

    def factory(index, link):
        link = faulty[index] = FaultyLink(link)
        return link

    stack = open_primary(
        ReplicationConfig(
            block_size=PROP_BS,
            num_blocks=PROP_BLOCKS,
            replicas=2,
            resilient=True,
        ),
        link_factory=factory,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            backlog_capacity_bytes=2048,
            reconcile=PROP_RECONCILE,
        ),
    )
    engine = stack.engine
    # a heal that raised leaves a session to resume; the next heal's
    # report then covers more than one device-pair snapshot
    resumed = [False, False]

    def heal(r: int) -> None:
        before = (stack.device.snapshot(), stack.replica_devices[r].snapshot())
        try:
            outcome = engine.heal_link(r)
        except ReplicationError:
            resumed[r] = True
            return
        assert stack.replica_devices[r].snapshot() == stack.device.snapshot()
        assert engine.verify_traffic_conservation().get(r, 0) == 0
        if outcome.mode == "reconcile" and not resumed[r]:
            assert outcome.reconcile.diff_bytes == _full_session_diff_bytes(
                *before
            )
        resumed[r] = False

    with stack:
        for step, op in enumerate(ops):
            kind, args = op[0], op[1:]
            if kind == "write":
                lba, offset, row = args
                page = bytearray(engine.read_block(lba))
                page[offset : offset + len(row)] = row
                engine.write_block(lba, bytes(page))
            elif kind == "fail":
                engine.fail_link(args[0])
            elif kind == "drop":
                faulty[args[0]].fail_next(1, "drop")
            elif kind == "overflow":
                r, lbas, seed = args
                engine.fail_link(r)
                # the step keys the stream: two overflow ops drawing the
                # same seed would rewrite identical blocks, which are
                # no-op writes that journal nothing and cannot overflow
                rng = make_rng(seed, "overflow", step)
                for lba in lbas:
                    engine.write_block(lba, block(rng))
                assert engine.guards[r].needs_resync
            elif kind == "fault_heal":
                faulty[args[0]].fail_next(1, "drop")
                heal(args[0])
            else:
                heal(args[0])
        for link in faulty.values():
            link.heal()
        for r in (0, 1):
            heal(r)
        assert stack.verify()
        outstanding = engine.verify_traffic_conservation()
        assert all(v == 0 for v in outstanding.values())


# ---------------------------------------------------------------------------
# Faults injected mid-heal (satellite: FlakyTransport / FaultyLink)
# ---------------------------------------------------------------------------


def _iscsi_resilient_stack(config=None, timeout: float = 0.25):
    """A resilient engine over in-process iSCSI with a FlakyTransport in
    the middle (initiator side), so PDU-level faults hit the heal path."""
    import threading

    from repro.engine import InitiatorLink
    from repro.iscsi import Initiator, Target

    strategy = make_strategy("prins")
    replica_dev = MemoryBlockDevice(BS, N)
    replica = ReplicaEngine(replica_dev, strategy)
    target = Target(replica_dev, replication_handler=replica.receive)
    t_end, i_end = transport_pair()
    threading.Thread(target=target.serve, args=(t_end,), daemon=True).start()
    flaky = FlakyTransport(i_end)
    link = InitiatorLink(Initiator(flaky, timeout=timeout))
    primary_dev = MemoryBlockDevice(BS, N)
    engine = PrimaryEngine(
        primary_dev,
        strategy,
        [link],
        resilience=config or ResilienceConfig(),
    )
    return engine, primary_dev, replica_dev, flaky


class TestHealUnderFlakyTransport:
    """Satellite: PDU-level faults injected *during* heal.  Replay rides
    the real wire, so FlakyTransport can hit it; the digest/reconcile
    tiers need a sync device, which iSCSI links do not expose — their
    mid-heal faults are exercised via FaultyLink in TestReconcileTier."""

    def test_drop_mid_replay_then_second_heal_converges(self, rng):
        engine, primary_dev, replica_dev, flaky = _iscsi_resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=1))
        )
        engine.fail_link(0)
        writes = {lba: block(rng) for lba in range(6)}
        for lba, data in writes.items():
            engine.write_block(lba, data)
        flaky.fail_next(1, "drop")  # the ack never comes: replay faults
        with pytest.raises((ReplicationError, TimeoutError)):
            engine.heal_link(0)
        assert verify_consistency(primary_dev, replica_dev) != []
        outcome = engine.heal_link(0)  # backlog retained: replay resumes
        assert outcome.mode == "replay"
        assert verify_consistency(primary_dev, replica_dev) == []

    def test_error_mid_replay_is_absorbed_by_retries(self, rng):
        engine, primary_dev, replica_dev, flaky = _iscsi_resilient_stack(
            config=ResilienceConfig(retry=RetryPolicy(max_attempts=3))
        )
        engine.fail_link(0)
        for lba in range(6):
            engine.write_block(lba, block(rng))
        flaky.fail_next(1, "error")
        outcome = engine.heal_link(0)  # retry layer eats the PDU error
        assert outcome.mode == "replay"
        assert outcome.records_replayed == 6
        assert verify_consistency(primary_dev, replica_dev) == []

    def test_duplicate_mid_replay_is_idempotent(self, rng):
        """A duplicated PDU delivers the same record twice; the replica's
        seq check must ack the duplicate without reapplying (a PRINS XOR
        delta applied twice would cancel itself)."""
        engine, primary_dev, replica_dev, flaky = _iscsi_resilient_stack()
        engine.fail_link(0)
        for lba in range(6):
            engine.write_block(lba, block(rng))
        flaky.fail_next(1, "duplicate")
        try:
            outcome = engine.heal_link(0)
            assert outcome.mode == "replay"
        except ReplicationError:
            # the duplicate's stray response can poison the next exchange;
            # the backlog retains whatever did not ack, so heal resumes
            outcome = engine.heal_link(0)
        assert verify_consistency(primary_dev, replica_dev) == []


# ---------------------------------------------------------------------------
# Heal-time wire bytes obey the conservation law (satellite)
# ---------------------------------------------------------------------------


class TestHealCycleConservation:
    def test_every_recovery_path_balances(self, rng):
        """One engine pushed through retry, replay, reconcile and digest
        recovery; the per-replica ledger must balance after each heal."""
        engine, primary, replica, replica_dev, flaky = _resilient_stack(
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                backlog_capacity_bytes=1500,
            )
        )
        # retry path
        flaky.fail_next(1, "drop")
        engine.write_block(0, block(rng))
        engine.verify_traffic_conservation()
        # replay path
        engine.fail_link(0)
        engine.write_block(1, block(rng))
        engine.heal_link(0)
        engine.verify_traffic_conservation()
        # reconcile path (overflow the backlog first)
        engine.fail_link(0)
        for lba in range(N):
            engine.write_block(lba, block(rng))
        assert engine.heal_link(0).mode == "reconcile"
        outstanding = engine.verify_traffic_conservation()
        assert all(v == 0 for v in outstanding.values())
        # digest path: force a stale replica block behind the sketch's back
        replica_dev.write_block(2, block(rng))
        engine.guards[0].resync_required = True
        assert engine.heal_link(0).mode == "reconcile"
        assert verify_consistency(primary, replica_dev) == []
        engine.verify_traffic_conservation()

    def test_cluster_wide_conservation_after_heal_cycles(self):
        cluster, _ = _flaky_cluster(nodes=4, fail_fraction=0.3, seed=11)
        rng = make_rng(2026, "conservation")
        for _ in range(120):
            cluster.write(
                int(rng.integers(0, 4)), int(rng.integers(0, N)), block(rng)
            )
        cluster.heal_all()
        outstanding = cluster.verify_traffic_conservation()
        assert set(outstanding) == {0, 1, 2, 3}
        for per_replica in outstanding.values():
            assert all(v == 0 for v in per_replica.values())

    def test_overflowed_cluster_heals_through_reconcile(self, rng):
        cluster, faulty = _flaky_cluster(
            fail_fraction=0.0,
            config=ResilienceConfig(backlog_capacity_bytes=1500),
        )
        cluster.fail_node(1)
        for _ in range(80):
            node = int(rng.integers(0, 4))
            if node in cluster.down_nodes:
                continue
            cluster.write(node, int(rng.integers(0, N)), block(rng))
        outcomes = cluster.heal_node(1)
        assert any(o.mode in ("reconcile", "replay") for o in outcomes.values())
        assert cluster.verify() == {}
        assert cluster.total_resync_bytes >= 0
        cluster.verify_traffic_conservation()

    def test_backlog_emptied_off_the_books_is_caught(self, rng):
        """Live backlog and ledger disagree: bytes left without a drop."""
        engine, *_ = _resilient_stack()
        engine.fail_link(0)
        engine.write_block(0, block(rng))
        assert engine.verify_traffic_conservation() == {
            0: engine.guards[0].backlog.payload_bytes_pending
        }
        engine.guards[0].backlog.clear()  # no Flow.DROP posted
        with pytest.raises(ConservationError, match="live backlog 0"):
            engine.verify_traffic_conservation()

    def test_replaying_more_than_journaled_is_caught(self, rng):
        engine, *_ = _resilient_stack()
        engine.fail_link(0)
        engine.write_block(0, block(rng))
        pending = engine.guards[0].backlog.payload_bytes_pending
        engine.accountant.post(0, Flow.REPLAY, pending + 1)
        with pytest.raises(ConservationError, match="more than it journaled"):
            engine.verify_traffic_conservation()


# ---------------------------------------------------------------------------
# Stress (excluded from tier-1: run with `pytest -m stress`)
# ---------------------------------------------------------------------------


@pytest.mark.stress
class TestStress:
    def test_six_node_soak_converges_after_heal(self):
        """500 writes through probabilistically faulty links on a 6-node
        cluster, with mid-run node failures and heals; after heal_all the
        whole cluster must converge to byte-identical replicas."""
        cluster, faulty = _flaky_cluster(
            nodes=6,
            fail_fraction=0.25,
            seed=5,
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                down_after=2,
                probe_interval=3,
                backlog_capacity_bytes=64 * 1024,
            ),
        )
        def heal_with_retries(fn, attempts=50):
            # Replay during heal still rides the (faulty) wire; a transient
            # failure mid-drain retains the unshipped tail, so retrying the
            # heal resumes where it stopped and converges quickly.
            for _ in range(attempts):
                try:
                    return fn()
                except ReplicationError:
                    continue
            return fn()

        rng = make_rng(77, "soak")
        for step in range(500):
            if step == 150:
                cluster.fail_node(2)
            if step == 300:
                heal_with_retries(lambda: cluster.heal_node(2))
            if step == 350:
                cluster.fail_node(5)
            node = int(rng.integers(0, 6))
            if node in cluster.down_nodes:
                node = (node + 1) % 6
            cluster.write(node, int(rng.integers(0, N)), block(rng))
        report = cluster.verify_detailed()
        assert report.consistent  # any mismatch must be explained backlog
        heal_with_retries(cluster.heal_all)
        assert cluster.verify() == {}
        assert cluster.total_retry_bytes > 0
        assert cluster.total_resync_bytes > 0

    def test_heal_ladder_soak_under_flaky_transport(self):
        """Repeated outage/overflow/heal cycles with probabilistic PDU
        faults riding every replay: each converged heal must leave the
        replica byte-identical, and a faulted heal must never report
        healthy with divergent blocks."""
        engine, primary_dev, replica_dev, flaky = _iscsi_resilient_stack(
            config=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3),
                backlog_capacity_bytes=64 * 1024,
            )
        )
        flaky._drop_p = 0.1
        flaky._error_p = 0.05
        flaky._duplicate_p = 0.05
        rng = make_rng(99, "heal-soak")
        for cycle in range(6):
            engine.fail_link(0)
            for _ in range(24):  # replay-tier heals (iSCSI has no
                # sync device, so overflow would need out-of-band resync)
                engine.write_block(int(rng.integers(0, N)), block(rng))
            for _ in range(60):
                try:
                    engine.heal_link(0)
                except (ReplicationError, TimeoutError, SyncError):
                    assert engine.guards[0].needs_resync or (
                        engine.guards[0].backlog_depth > 0
                    )
                    continue
                break
            assert verify_consistency(primary_dev, replica_dev) == [], cycle
        engine.verify_traffic_conservation()
