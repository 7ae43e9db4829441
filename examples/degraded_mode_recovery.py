#!/usr/bin/env python
"""Degraded-mode operation and recovery on a resilient PRINS cluster.

The paper asserts its implementation is "fairly robust" under "extensive
testing and experiments" (Sec. 6) without showing the machinery.  This
example demonstrates the reproduction's fault-tolerance layer end to end:

1. a 4-node cluster whose replication links are wrapped in
   :class:`~repro.engine.resilience.FaultyLink` (30% of ships fail);
2. :class:`~repro.engine.resilience.ResilientLink` retries with
   deterministic exponential backoff absorb the transient faults;
3. a node is taken DOWN — its inbound links journal parity deltas as
   backlog instead of failing writes;
4. on heal the backlog is replayed in sequence order (escalating to a
   digest resync if the backlog had overflowed), and ``verify()``
   confirms every replica is byte-identical again;
5. the traffic accountant itemises what recovery cost on the wire.

Everything is seeded — rerunning prints identical numbers.

Run:  python examples/degraded_mode_recovery.py
"""

from repro import ReplicationConfig, open_cluster
from repro.common.rng import make_rng
from repro.common.units import format_bytes
from repro.engine import FaultyLink, ResilienceConfig, RetryPolicy

NODES = 4
REPLICAS = 2
BLOCK_SIZE = 4096
BLOCKS = 64
WRITES = 200
FAIL_FRACTION = 0.30
SEED = 23


def main() -> None:
    config = ReplicationConfig(
        strategy="prins",
        nodes=NODES,
        replicas=REPLICAS,
        block_size=BLOCK_SIZE,
        num_blocks=BLOCKS,
        resilient=True,
    )
    # the fault thresholds the flat config doesn't expose ride along as a
    # hand-tuned policy override
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.5),
        degraded_after=1,
        down_after=5,
        probe_interval=4,
        backlog_capacity_bytes=256 * 1024,
        seed=SEED,
    )

    faulty: dict[tuple[int, int], FaultyLink] = {}

    def wrap(primary_id: int, replica_id: int, link):
        wrapped = FaultyLink(
            link,
            drop_probability=FAIL_FRACTION * 2 / 3,
            error_probability=FAIL_FRACTION / 3,
            rng=make_rng(SEED, "faults", primary_id, replica_id),
        )
        faulty[(primary_id, replica_id)] = wrapped
        return wrapped

    cluster = open_cluster(config, resilience=resilience, link_factory=wrap)
    print(
        f"cluster: {NODES} nodes x {REPLICAS} replicas, "
        f"{FAIL_FRACTION:.0%} of ships faulted"
    )

    # ---- phase 1: write through the faulty links; retries absorb faults
    rng = make_rng(SEED, "workload")
    for _ in range(WRITES):
        node = int(rng.integers(0, NODES))
        lba = int(rng.integers(0, BLOCKS))
        cluster.write(node, lba, rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes())
    print(f"\nphase 1: {WRITES} writes completed, none raised")
    print(f"  link health: {sorted(h.value for h in cluster.health().values())}")

    # ---- phase 2: node 2 dies; writes to its peers journal backlog
    cluster.fail_node(2)
    for _ in range(60):
        node = int(rng.integers(0, NODES))
        if node in cluster.down_nodes:
            node = (node + 1) % NODES
        lba = int(rng.integers(0, BLOCKS))
        cluster.write(node, lba, rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes())
    report = cluster.verify_detailed()
    print("\nphase 2: node 2 DOWN, 60 more writes")
    print(f"  pending (down-with-backlog) pairs: {sorted(report.pending)}")
    print(f"  diverged pairs: {sorted(report.diverged)}")
    # a read of node 2's data still works — served by a surviving replica
    data = cluster.read(2, 0)
    print(f"  read(node 2, lba 0) served from replica: {len(data)} bytes")

    # ---- phase 3: heal; backlog replays (or digest-resyncs) in order
    outcomes = cluster.heal_all()
    modes = {pair: out.mode for pair, out in outcomes.items() if out.mode != "none"}
    print("\nphase 3: heal_all()")
    for pair, mode in sorted(modes.items()):
        print(f"  link {pair}: recovered via {mode}")
    mismatches = cluster.verify()
    print(f"  verify() mismatches: {mismatches}")
    assert mismatches == {}, "replicas must be byte-identical after heal"

    # ---- the bill: what fault tolerance cost on the wire
    retry = cluster.total_retry_bytes
    resync = cluster.total_resync_bytes
    recovery = cluster.total_recovery_bytes
    payload = cluster.total_payload_bytes
    print("\nwire accounting:")
    print(f"  first-attempt payload : {format_bytes(payload)}")
    print(f"  retry traffic         : {format_bytes(retry)}")
    print(f"  backlog replay/resync : {format_bytes(resync)}")
    print(f"  total recovery        : {format_bytes(recovery)}")
    assert retry > 0 and resync > 0
    print("\nall replicas byte-identical; recovery fully accounted")


if __name__ == "__main__":
    main()
