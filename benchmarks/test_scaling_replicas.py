"""Scaling study: traffic and modeled response time vs replica count.

The paper scales its queueing model by population = nodes × replicas
(Sec. 3.3: "if we have 10 nodes ... and each write is replicated to 4
replica nodes, then the population is 40").  This benchmark grounds that
product in the engine itself: a real cluster (:func:`repro.api.open_cluster`) at increasing
replica counts, measured traffic per strategy, and the resulting modeled
response time on a T1 line.
"""

from __future__ import annotations

from conftest import bench_scale

from repro.analysis import format_table
from repro.api import ReplicationConfig, open_cluster
from repro.block import MemoryBlockDevice
from repro.common.rng import make_rng
from repro.engine import (
    DirectLink,
    LatencyLink,
    PrimaryEngine,
    ReplicaEngine,
    ResilienceConfig,
    SchedulerConfig,
    SimClock,
    make_strategy,
)
from repro.queueing import ReplicationNetworkModel, StrategyTraffic, T1

NODES = 6
BLOCK_SIZE = 8192

#: heterogeneous ack latencies for the fan-out makespan study (seconds)
PER_LINK_LATENCY_S = (0.002, 0.002, 0.004, 0.008)


def run_cluster(strategy: str, replicas: int, writes: int) -> tuple[int, float]:
    """Return (total payload bytes, mean payload per write)."""
    cluster = open_cluster(
        ReplicationConfig(
            nodes=NODES,
            replicas=replicas,
            block_size=BLOCK_SIZE,
            num_blocks=64,
            strategy=strategy,
        )
    )
    rng = make_rng(13, "scaling")  # same stream at every replica count
    for node in range(NODES):
        for lba in range(64):
            cluster.write(
                node, lba, rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes()
            )
    for node_obj in cluster.nodes:
        node_obj.engine.accountant.reset()
    for _ in range(writes):
        node = int(rng.integers(0, NODES))
        lba = int(rng.integers(0, 64))
        block = bytearray(cluster.read(node, lba))
        start = int(rng.integers(0, BLOCK_SIZE - 800))
        block[start : start + 800] = rng.integers(0, 256, 800, dtype="u1").tobytes()
        cluster.write(node, lba, bytes(block))
    assert cluster.verify() == {}
    return cluster.total_payload_bytes, cluster.mean_payload_per_write()


def test_replica_count_scaling(benchmark):
    writes = 400 if bench_scale() == "paper" else 150
    replica_counts = (1, 2, 3, 4)

    def sweep():
        results = {}
        for replicas in replica_counts:
            for strategy in ("traditional", "prins"):
                results[(strategy, replicas)] = run_cluster(
                    strategy, replicas, writes
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for replicas in replica_counts:
        population = NODES * replicas
        trad_total, trad_mean = results[("traditional", replicas)]
        prins_total, prins_mean = results[("prins", replicas)]
        trad_rt = ReplicationNetworkModel(
            StrategyTraffic("traditional", trad_mean), T1
        ).response_time(population)
        prins_rt = ReplicationNetworkModel(
            StrategyTraffic("prins", prins_mean), T1
        ).response_time(population)
        rows.append(
            [
                replicas,
                population,
                trad_total / 1024.0,
                prins_total / 1024.0,
                trad_rt,
                prins_rt,
            ]
        )
    print()
    print(
        format_table(
            [
                "replicas", "population", "traditional KB", "prins KB",
                "trad RT s", "prins RT s",
            ],
            rows,
            title=f"[scaling] {NODES}-node cluster, traffic and modeled T1 "
            "response time vs replica count",
        )
    )

    # traffic scales linearly with replica count, for both strategies
    for strategy in ("traditional", "prins"):
        base_total, _ = results[(strategy, 1)]
        for replicas in replica_counts[1:]:
            total, _ = results[(strategy, replicas)]
            assert total == replicas * base_total  # identical write stream

    # both response times grow with population, but PRINS stays deep in the
    # flat region (fig8's story) while traditional passes one second
    traditional_curve = [row[4] for row in rows]
    prins_curve = [row[5] for row in rows]
    assert traditional_curve == sorted(traditional_curve)
    assert prins_curve == sorted(prins_curve)
    assert traditional_curve[-1] > 1.0
    assert all(value < 0.2 for value in prins_curve)


def _fanout_stack(
    latency_profile: tuple[float, ...],
    scheduler: SchedulerConfig | None,
    clock: SimClock | None,
    resilience: ResilienceConfig | None = None,
):
    """One PRINS primary fanning out to ``len(latency_profile)`` replicas.

    Sequential runs meter latency with a shared :class:`SimClock` via
    per-link :class:`LatencyLink` wrappers; pipelined runs let the
    scheduler's own simulator meter the same per-link latencies.
    """
    strategy = make_strategy("prins")
    primary = MemoryBlockDevice(BLOCK_SIZE, 64)
    devices = [
        MemoryBlockDevice(BLOCK_SIZE, 64) for _ in latency_profile
    ]
    links = []
    for latency_s, device in zip(latency_profile, devices):
        link = DirectLink(ReplicaEngine(device, strategy))
        if scheduler is None and latency_s:
            link = LatencyLink(link, latency_s, clock=clock)
        links.append(link)
    engine = PrimaryEngine(
        primary, strategy, links, scheduler=scheduler, resilience=resilience
    )
    return engine, primary, devices


def _fanout_burst(engine, writes: int) -> None:
    rng = make_rng(29, "fanout-makespan")  # same stream both arms
    for _ in range(writes):
        lba = int(rng.integers(0, 64))
        engine.write_block(
            lba, rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes()
        )


def test_pipelined_fanout_halves_sequential_makespan(benchmark):
    """Acceptance: pipelined fan-out <= 0.5x the sequential sim makespan.

    Four replicas with heterogeneous ack latencies, identical write
    stream.  Sequential shipping serializes every ack
    (makespan = writes x sum of latencies); the credit window overlaps
    them, so the makespan collapses toward the slowest single link.  The
    wire bytes and the replica images must not change — pipelining is a
    scheduling win, not a traffic change.
    """
    writes = 120 if bench_scale() == "paper" else 48

    def sweep():
        clock = SimClock()
        seq_engine, seq_primary, seq_devices = _fanout_stack(
            PER_LINK_LATENCY_S, None, clock
        )
        _fanout_burst(seq_engine, writes)
        sequential_s = clock.now

        config = SchedulerConfig(
            window=8, per_link_latency_s=PER_LINK_LATENCY_S
        )
        pip_engine, pip_primary, pip_devices = _fanout_stack(
            PER_LINK_LATENCY_S, config, None
        )
        _fanout_burst(pip_engine, writes)
        pip_engine.drain()
        return (
            sequential_s,
            pip_engine.scheduler.now,
            seq_engine.accountant.payload_bytes,
            pip_engine.accountant.payload_bytes,
            [device.snapshot() for device in seq_devices],
            [device.snapshot() for device in pip_devices],
            seq_primary.snapshot() == pip_primary.snapshot(),
        )

    (
        sequential_s,
        pipelined_s,
        seq_bytes,
        pip_bytes,
        seq_images,
        pip_images,
        primaries_match,
    ) = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print(
        f"\n[fanout] {writes} writes x {len(PER_LINK_LATENCY_S)} replicas: "
        f"sequential {sequential_s:.3f}s vs pipelined {pipelined_s:.3f}s "
        f"({sequential_s / pipelined_s:.1f}x)"
    )
    # the headline acceptance bound: at least a 2x makespan win
    assert pipelined_s <= 0.5 * sequential_s
    # identical wire bytes: scheduling must not change the traffic story
    assert seq_bytes == pip_bytes
    # byte-identical images on every replica, and on the primary
    assert primaries_match
    for seq_image, pip_image in zip(seq_images, pip_images):
        assert seq_image == pip_image


def test_down_replica_costs_at_most_one_window():
    """Acceptance: a DOWN replica's drag on healthy peers is bounded.

    With resilience guards, a DOWN channel journals each submission
    instantly instead of consuming wire latency, so a burst with one
    dead replica may take at most one extra window of link latency over
    the same burst with every replica healthy.
    """
    writes = 24
    window = 4
    latency_s = 0.005
    profile = (latency_s,) * 4
    config = SchedulerConfig(window=window, link_latency_s=latency_s)
    engine, primary, devices = _fanout_stack(
        profile, config, None, resilience=ResilienceConfig()
    )

    _fanout_burst(engine, writes)
    engine.drain()
    healthy_makespan = engine.scheduler.now

    engine.fail_link(3)
    _fanout_burst(engine, writes)
    engine.drain()
    degraded_makespan = engine.scheduler.now - healthy_makespan

    assert degraded_makespan <= healthy_makespan + window * latency_s

    engine.heal_link(3)
    engine.drain()
    for device in devices:
        assert device.snapshot() == primary.snapshot()
    engine.verify_traffic_conservation()
