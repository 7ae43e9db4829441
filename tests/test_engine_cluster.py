"""Tests for the multi-node storage cluster."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import ReplicationConfig, open_cluster
from repro.common.errors import ConfigurationError, PartialReplicationError
from repro.engine import FaultyLink


def small_config(**overrides):
    defaults = dict(nodes=4, replicas=2, block_size=512, num_blocks=16)
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


class TestClusterConfig:
    def test_population_is_nodes_times_replicas(self):
        # Sec. 3.3: "a fixed population size being the product of total
        # number of nodes and number of replicas"
        assert open_cluster(small_config(nodes=10, replicas=4)).population == 40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            open_cluster(small_config(nodes=1, replicas=1))
        with pytest.raises(ConfigurationError):
            small_config(replicas=0)
        with pytest.raises(ConfigurationError):
            open_cluster(small_config(replicas=4))  # == nodes


class TestPlacement:
    def test_round_robin_successors(self):
        placement = open_cluster(small_config()).placement
        assert placement[0] == [1, 2]
        assert placement[3] == [0, 1]  # wraps around

    def test_self_replication_rejected(self):
        with pytest.raises(ConfigurationError):
            open_cluster(small_config(), placement={0: [0, 1], 1: [2, 3], 2: [3, 0], 3: [1, 2]})

    def test_duplicate_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            open_cluster(
                small_config(),
                placement={0: [1, 1], 1: [2, 3], 2: [3, 0], 3: [0, 1]},
            )

    def test_unknown_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            open_cluster(
                small_config(),
                placement={0: [1, 9], 1: [2, 3], 2: [3, 0], 3: [0, 1]},
            )

    def test_placement_must_match_the_mirror_width(self):
        with pytest.raises(ConfigurationError):
            open_cluster(
                small_config(),
                placement={0: [1], 1: [2, 3], 2: [3, 0], 3: [0, 1]},
            )
        with pytest.raises(ConfigurationError):
            open_cluster(small_config(), placement={0: [1, 2], 1: [2, 3]})


class TestClusterDataPath:
    def test_all_pairs_consistent_after_writes(self, rng):
        cluster = open_cluster(small_config())
        for _ in range(120):
            node = int(rng.integers(0, 4))
            lba = int(rng.integers(0, 16))
            cluster.write(node, lba, rng.integers(0, 256, 512, dtype="u1").tobytes())
        assert cluster.verify() == {}

    def test_replica_serves_primary_data(self):
        cluster = open_cluster(small_config())
        cluster.write(2, 5, b"q" * 512)
        assert cluster.read(2, 5) == b"q" * 512
        assert cluster.read_from_replica(2, 5) == b"q" * 512

    def test_unwritten_replica_reads_zero(self):
        cluster = open_cluster(small_config())
        assert cluster.read_from_replica(1, 3) == bytes(512)

    def test_traffic_charged_per_replica(self):
        cluster = open_cluster(small_config(strategy="traditional"))
        cluster.write(0, 0, b"z" * 512)
        accountant = cluster.nodes[0].engine.accountant
        assert accountant.writes_replicated == 2  # two replicas

    def test_prins_cluster_cheaper_than_traditional(self, rng):
        def run(strategy):
            cluster = open_cluster(small_config(strategy=strategy))
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
        cluster = open_cluster(small_config())
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
        assert model.response_time(cluster.population) > 0


class TestNodeWiring:
    """Every node is a full primary stack built from the one config."""

    def test_verify_acks_reaches_every_node(self):
        cluster = open_cluster(small_config(nodes=3, replicas=1, verify_acks=False))
        assert [node.engine.scheduler.verify_acks for node in cluster.nodes] == [
            False
        ] * 3

    def test_each_node_encodes_on_its_own_pool(self):
        children_before = set(multiprocessing.active_children())
        cluster = open_cluster(
            small_config(
                nodes=3,
                replicas=1,
                workers="process",
                worker_count=1,
                batch_records=4,
            )
        )
        try:
            pools = [node.engine.codec_pool for node in cluster.nodes]
            assert len({id(pool) for pool in pools}) == 3
            for i in range(24):
                cluster.write(i % 3, i % 16, bytes([i + 1]) * 512)
            cluster.drain()
            assert cluster.verify() == {}
            assert all(pool.snapshot()["batches"] >= 1 for pool in pools)
        finally:
            cluster.close()
        assert set(multiprocessing.active_children()) <= children_before

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_close_after_failed_flush_closes_every_node(self, workers):
        """Node 0's final flush fails; nodes 1 and 2 still close."""

        def kill_node0(primary_id, replica_id, link):
            if primary_id == 0:
                link = FaultyLink(link)
                link.kill()
            return link

        children_before = set(multiprocessing.active_children())
        pool_fields = (
            {"workers": "process", "worker_count": 1}
            if workers == "process"
            else {}
        )
        cluster = open_cluster(
            small_config(nodes=3, replicas=1, batch_records=4, **pool_fields),
            link_factory=kill_node0,
        )
        cluster.write(0, 0, b"x" * 512)  # parked in node 0's batch window
        cluster.write(1, 0, b"y" * 512)  # parked in node 1's batch window
        with pytest.raises(PartialReplicationError):
            cluster.close()
        assert [node.engine.closed for node in cluster.nodes] == [True] * 3
        assert set(multiprocessing.active_children()) <= children_before
        cluster.close()  # idempotent once torn down

    def test_telemetry_sources_are_named_per_node(self):
        cluster = open_cluster(small_config(nodes=3, replicas=1, telemetry=True))
        sources = cluster.nodes[0].telemetry.snapshot()["sources"]
        assert {"cluster", "cluster.node0", "cluster.node1", "cluster.node2"} <= set(
            sources
        )
        assert all(node.telemetry is cluster.nodes[0].telemetry for node in cluster.nodes)


class TestFailoverReadDrains:
    """read_from_replica must quiesce in-flight fan-out before serving.

    Regression: under ``fanout="pipelined"`` in threads mode a write can
    still be mid-flight toward the replica set when the primary is
    declared down; a failover read that raced it could observe the
    replica's pre-write (torn) image.  ``read_from_replica`` now drains
    the primary's pipeline first.
    """

    def test_threads_failover_read_sees_last_write(self):
        config = small_config(
            resilient=True,
            workers="threads",
            fanout="pipelined",
            window=4,
            link_latency_s=0.02,
        )
        cluster = open_cluster(config)
        try:
            data = bytes([0x5A]) * config.block_size
            cluster.write(0, 3, data)  # ack still in flight toward replicas
            cluster.fail_node(0)  # primary declared down immediately after
            assert cluster.read(0, 3) == data
        finally:
            cluster.close()

    def test_batched_failover_read_sees_buffered_write(self):
        config = small_config(resilient=True, batch_records=64)
        cluster = open_cluster(config)
        try:
            data = bytes([0xC3]) * config.block_size
            cluster.write(0, 7, data)  # parked in node 0's batch window
            cluster.fail_node(0)
            assert cluster.read(0, 7) == data
        finally:
            cluster.close()
