#!/usr/bin/env python
"""The paper's Figure 1 system: N nodes forming a shared storage pool.

Builds a cluster with :func:`repro.api.open_cluster` — every node is a
full primary stack with local storage, replicates its writes to a subset of peer nodes (round-
robin successor placement), and can serve any peer's data after that peer
fails.  Also demonstrates the disconnect → journal → catch-up path for a
replica that drops off the network, and feeds the cluster's measured
traffic into the queueing model to predict WAN response time at the
cluster's population (nodes × replicas, exactly the paper's Sec. 3.3).

Run:  python examples/cluster_wide_pool.py
"""

from repro import ReplicationConfig, open_cluster
from repro.common.rng import make_rng
from repro.common.units import format_bytes
from repro.queueing import ReplicationNetworkModel, StrategyTraffic, T1

NODES = 6
REPLICAS = 2
BLOCK_SIZE = 4096


def main() -> None:
    config = ReplicationConfig(
        strategy="prins",
        nodes=NODES,
        replicas=REPLICAS,
        block_size=BLOCK_SIZE,
        num_blocks=128,
    )
    cluster = open_cluster(config)
    print(
        f"cluster: {NODES} nodes x {REPLICAS} replicas "
        f"(queueing population {cluster.population})"
    )
    for node_id, replicas in sorted(cluster.placement.items()):
        print(f"  node {node_id} -> replicas {replicas}")

    # ---- warm the pool, then run a partial-overwrite workload
    rng = make_rng(41, "cluster")
    for node in range(NODES):
        for lba in range(64):
            cluster.write(node, lba, rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes())
    for node_obj in cluster.nodes:  # measure steady state, not the load phase
        node_obj.engine.accountant.reset()

    for _ in range(600):
        node = int(rng.integers(0, NODES))
        lba = int(rng.integers(0, 64))
        block = bytearray(cluster.read(node, lba))
        start = int(rng.integers(0, BLOCK_SIZE - 400))
        block[start : start + 400] = rng.integers(0, 256, 400, dtype="u1").tobytes()
        cluster.write(node, lba, bytes(block))

    assert cluster.verify() == {}, "cluster inconsistent!"
    print(
        f"\n600 writes: {format_bytes(cluster.total_data_bytes)} written, "
        f"{format_bytes(cluster.total_payload_bytes)} replicated "
        f"({cluster.total_data_bytes / cluster.total_payload_bytes * REPLICAS:.1f}x "
        f"saving per replica copy)"
    )

    # ---- node 3 "fails"; its data is served from a replica
    probe_lba = 10
    from_primary = cluster.read(3, probe_lba)
    from_replica = cluster.read_from_replica(3, probe_lba)
    assert from_primary == from_replica
    print(f"node 3 lost — block {probe_lba} served from replica set "
          f"{cluster.placement[3]}: identical")

    # ---- capacity planning from the measured traffic
    mean_payload = cluster.mean_payload_per_write()
    model = ReplicationNetworkModel(
        StrategyTraffic("prins", mean_payload), T1
    )
    print(
        f"\nmeasured mean payload {mean_payload:.0f} B/write -> modeled "
        f"replication response time at population {cluster.population} on T1: "
        f"{model.response_time(cluster.population) * 1000:.1f} ms"
    )


if __name__ == "__main__":
    main()
