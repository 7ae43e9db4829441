"""Tests for the multi-node storage cluster."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import ClusterConfig, StorageCluster
from repro.engine.cluster import round_robin_placement


def small_config(**overrides):
    defaults = dict(
        nodes=4, replicas_per_node=2, block_size=512, blocks_per_node=16
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestClusterConfig:
    def test_population_is_nodes_times_replicas(self):
        # Sec. 3.3: "a fixed population size being the product of total
        # number of nodes and number of replicas"
        assert small_config(nodes=10, replicas_per_node=4).population == 40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(nodes=1)
        with pytest.raises(ConfigurationError):
            small_config(replicas_per_node=0)
        with pytest.raises(ConfigurationError):
            small_config(replicas_per_node=4)  # == nodes


class TestPlacement:
    def test_round_robin_successors(self):
        placement = round_robin_placement(small_config())
        assert placement[0] == [1, 2]
        assert placement[3] == [0, 1]  # wraps around

    def test_self_replication_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageCluster(small_config(), placement={0: [0, 1], 1: [2, 3], 2: [3, 0], 3: [1, 2]})

    def test_duplicate_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageCluster(
                small_config(),
                placement={0: [1, 1], 1: [2, 3], 2: [3, 0], 3: [0, 1]},
            )

    def test_unknown_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageCluster(
                small_config(),
                placement={0: [1, 9], 1: [2, 3], 2: [3, 0], 3: [0, 1]},
            )


class TestClusterDataPath:
    def test_all_pairs_consistent_after_writes(self, rng):
        cluster = StorageCluster(small_config())
        for _ in range(120):
            node = int(rng.integers(0, 4))
            lba = int(rng.integers(0, 16))
            cluster.write(node, lba, rng.integers(0, 256, 512, dtype="u1").tobytes())
        assert cluster.verify() == {}

    def test_replica_serves_primary_data(self):
        cluster = StorageCluster(small_config())
        cluster.write(2, 5, b"q" * 512)
        assert cluster.read(2, 5) == b"q" * 512
        assert cluster.read_from_replica(2, 5) == b"q" * 512

    def test_unwritten_replica_reads_zero(self):
        cluster = StorageCluster(small_config())
        assert cluster.read_from_replica(1, 3) == bytes(512)

    def test_traffic_charged_per_replica(self):
        cluster = StorageCluster(small_config(strategy="traditional"))
        cluster.write(0, 0, b"z" * 512)
        accountant = cluster.nodes[0].engine.accountant
        assert accountant.writes_replicated == 2  # two replicas

    def test_prins_cluster_cheaper_than_traditional(self, rng):
        def run(strategy):
            cluster = StorageCluster(small_config(strategy=strategy))
            write_rng = __import__("numpy").random.default_rng(6)
            # overwrite a warm working set with partial changes
            for node in range(4):
                for lba in range(16):
                    cluster.write(node, lba, write_rng.integers(0, 256, 512, dtype="u1").tobytes())
            for node_obj in cluster.nodes:  # measure steady state, not load
                node_obj.engine.accountant.reset()
            for _ in range(100):
                node = int(write_rng.integers(0, 4))
                lba = int(write_rng.integers(0, 16))
                block = bytearray(cluster.read(node, lba))
                block[0:50] = write_rng.integers(0, 256, 50, dtype="u1").tobytes()
                cluster.write(node, lba, bytes(block))
            assert cluster.verify() == {}
            return cluster.total_payload_bytes

        assert run("prins") * 3 < run("traditional")

    def test_mean_payload_feeds_queueing_model(self, rng):
        cluster = StorageCluster(small_config())
        for _ in range(20):
            cluster.write(
                int(rng.integers(0, 4)),
                int(rng.integers(0, 16)),
                rng.integers(0, 256, 512, dtype="u1").tobytes(),
            )
        mean_payload = cluster.mean_payload_per_write()
        assert mean_payload > 0
        from repro.queueing import ReplicationNetworkModel, StrategyTraffic, T1

        model = ReplicationNetworkModel(
            StrategyTraffic("prins", mean_payload), T1
        )
        assert model.response_time(cluster.config.population) > 0


class TestFailoverReadDrains:
    """read_from_replica must quiesce in-flight fan-out before serving.

    Regression: under ``fanout="pipelined"`` in threads mode a write can
    still be mid-flight toward the replica set when the primary is
    declared down; a failover read that raced it could observe the
    replica's pre-write (torn) image.  ``read_from_replica`` now drains
    the primary's pipeline first.
    """

    def test_threads_failover_read_sees_last_write(self):
        from repro.engine import ResilienceConfig, SchedulerConfig

        config = small_config()
        cluster = StorageCluster(
            config,
            resilience=ResilienceConfig(),
            scheduler=SchedulerConfig(
                workers="threads", window=4, link_latency_s=0.02
            ),
        )
        try:
            data = bytes([0x5A]) * config.block_size
            cluster.write(0, 3, data)  # ack still in flight toward replicas
            cluster.fail_node(0)  # primary declared down immediately after
            assert cluster.read(0, 3) == data
        finally:
            cluster.close()

    def test_batched_failover_read_sees_buffered_write(self):
        from repro.engine import BatchConfig, ResilienceConfig

        config = small_config()
        cluster = StorageCluster(
            config,
            resilience=ResilienceConfig(),
            batch=BatchConfig(max_records=64),
        )
        try:
            data = bytes([0xC3]) * config.block_size
            cluster.write(0, 7, data)  # parked in node 0's batch window
            cluster.fail_node(0)
            assert cluster.read(0, 7) == data
        finally:
            cluster.close()
