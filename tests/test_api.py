"""Tests for the repro.api front door and the single Link.submit surface."""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import warnings

import pytest

from repro.api import ReplicationConfig, open_cluster, open_primary
from repro.block import MemoryBlockDevice
from repro.common.errors import ConfigurationError, PartialReplicationError
from repro.engine import (
    DirectLink,
    FaultyLink,
    PrimaryEngine,
    ReplicaEngine,
    make_strategy,
)
from repro.obs.telemetry import NULL_TELEMETRY

BS = 512
N = 32


def _killed(index, link):
    """``link_factory`` that partitions every channel: each ship drops."""
    link = FaultyLink(link)
    link.kill()
    return link


def _writes(engine, count=40, seed=3):
    rng = random.Random(seed)
    for _ in range(count):
        engine.write_block(
            rng.randrange(N), bytes(rng.randrange(256) for _ in range(BS))
        )


class TestReplicationConfig:
    def test_defaults_are_paper_baseline(self):
        config = ReplicationConfig()
        assert config.strategy == "prins"
        assert config.fanout == "sequential"
        assert config.batch_records is None
        assert config.resilient is False
        assert config.telemetry is False

    def test_dict_round_trip_is_lossless(self):
        config = ReplicationConfig(
            strategy="compressed",
            codec="zlib",
            replicas=3,
            batch_records=16,
            read_policy="replica",
            fanout="pipelined",
            window=4,
            per_link_latency_s=(0.001, 0.002, 0.004),
            resilient=True,
            telemetry=True,
            seed=9,
        )
        rebuilt = ReplicationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_round_trip_survives_json(self):
        config = ReplicationConfig(per_link_latency_s=(0.5,), window=2)
        over_the_wire = json.loads(json.dumps(config.to_dict()))
        assert ReplicationConfig.from_dict(over_the_wire) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig.from_dict({"strategy": "prins", "bogus": 1})

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(fanout="multicast")

    def test_traditional_with_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(strategy="traditional", codec="zlib")

    def test_derived_configs(self):
        config = ReplicationConfig(
            batch_records=8, resilient=True, fanout="pipelined", window=3
        )
        assert config.batch_config().max_records == 8
        assert config.resilience_config() is not None
        assert config.scheduler_config().window == 3
        sequential = ReplicationConfig()
        assert sequential.batch_config() is None
        assert sequential.resilience_config() is None
        assert sequential.scheduler_config().window == 1

    def test_scheduler_config_carries_seed(self):
        config = ReplicationConfig(fanout="pipelined", seed=77)
        assert config.scheduler_config().seed == 77


class TestConcurrencyConfig:
    """The unified transport/workers surface added by the GIL-escape tier."""

    def test_round_trip_with_concurrency_fields(self):
        config = ReplicationConfig(
            transport="tcp",
            workers="process",
            worker_count=3,
            ring_slots=4,
            fanout="pipelined",
        )
        over_the_wire = json.loads(json.dumps(config.to_dict()))
        assert ReplicationConfig.from_dict(over_the_wire) == config

    def test_cross_field_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            ReplicationConfig(workers="fibers")
        with pytest.raises(ConfigurationError):
            ReplicationConfig(worker_count=2)  # needs workers="process"
        with pytest.raises(ConfigurationError):
            ReplicationConfig(ring_slots=4)  # needs workers="process"
        with pytest.raises(ConfigurationError):
            ReplicationConfig(workers="process", ring_slots=1)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(transport="tcp", resilient=True)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(transport="tcp", redundancy="erasure")

    @pytest.mark.parametrize("policy", ["replica", "least_loaded"])
    def test_tcp_rejects_routed_reads(self, policy):
        # an InitiatorLink has no sync device, so the router could never
        # find an eligible replica: every read would stay on the primary
        with pytest.raises(ConfigurationError):
            ReplicationConfig(transport="tcp", read_policy=policy)
        with pytest.raises(ConfigurationError):
            ReplicationConfig.from_dict(
                {"transport": "tcp", "read_policy": policy}
            )

    def test_asyncio_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(transport="asyncio")
        with pytest.raises(ConfigurationError):
            ReplicationConfig.from_dict({"transport": "asyncio"})

    @pytest.mark.parametrize(
        "key", ["shards", "old_block_cache", "replicas_per_node"]
    )
    def test_removed_config_keys_rejected(self, key):
        with pytest.raises(ConfigurationError):
            ReplicationConfig.from_dict({key: 2})
        with pytest.raises(TypeError):
            ReplicationConfig(**{key: 2})

    @pytest.mark.parametrize("flag", ["--shards", "--old-block-cache"])
    def test_removed_demo_flags_rejected(self, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["demo", flag, "2"])
        assert exit_info.value.code == 2

    def test_scheduler_config_carries_worker_fields(self):
        config = ReplicationConfig(
            fanout="pipelined", workers="process", worker_count=2, ring_slots=4
        )
        derived = config.scheduler_config()
        assert derived.workers == "process"
        assert derived.worker_count == 2
        assert derived.ring_slots == 4

    def test_sequential_threads_stack_runs_threaded_scheduler(self):
        """workers= applies at window 1: images and ledger match inline."""

        def run(workers):
            config = ReplicationConfig(
                block_size=BS, num_blocks=N, replicas=2, workers=workers
            )
            with open_primary(config) as stack:
                mode = stack.engine.scheduler.snapshot()["mode"]
                _writes(stack.engine)
                stack.drain()
                assert stack.verify()
                return mode, (
                    [d.snapshot() for d in stack.replica_devices],
                    stack.engine.accountant.snapshot(),
                )

        threads_mode, threaded = run("threads")
        inline_mode, inline = run("inline")
        assert (threads_mode, inline_mode) == ("threads", "sim")
        assert threaded == inline

    def test_sequential_link_latency_is_metered(self):
        config = ReplicationConfig(
            block_size=BS, num_blocks=N, replicas=2, link_latency_s=0.01
        )
        with open_primary(config) as stack:
            assert stack.engine.fanout == "sequential"
            _writes(stack.engine, count=5)
            stack.drain()
            assert stack.engine.scheduler.now > 0
            assert stack.verify()

    def test_verify_waits_for_threaded_sends_but_raises_nothing(self):
        """verify() is a predicate: the stashed failure waits for drain()."""

        def kill_first(index, link):
            if index == 0:
                link = FaultyLink(link)
                link.kill()
            return link

        config = ReplicationConfig(
            block_size=BS, num_blocks=N, replicas=2, workers="threads"
        )
        with open_primary(config, link_factory=kill_first) as stack:
            _writes(stack.engine, count=4)
            assert not stack.verify()
            assert stack.engine.scheduler.outstanding == 0
            assert stack.replica_devices[1].snapshot() == stack.device.snapshot()
            with pytest.raises(PartialReplicationError):
                stack.drain()

    def test_cluster_rejects_networked_transport(self):
        with pytest.raises(ConfigurationError):
            open_cluster(ReplicationConfig(transport="tcp", nodes=2))

    @pytest.mark.parametrize("transport", ["tcp"])
    def test_networked_facade_matches_inline(self, transport):
        """Networked stacks: replica images and ledger match inline."""

        def run(tier):
            config = ReplicationConfig(
                block_size=BS, num_blocks=N, replicas=2, transport=tier
            )
            with open_primary(config) as stack:
                _writes(stack.engine)
                stack.drain()
                assert stack.verify()
                return (
                    [d.snapshot() for d in stack.replica_devices],
                    stack.engine.accountant.snapshot(),
                )

        assert run(transport) == run("inline")

    def test_networked_stack_closes_servers(self):
        config = ReplicationConfig(block_size=BS, num_blocks=N, transport="tcp")
        stack = open_primary(config)
        assert len(stack.servers) == 1
        _writes(stack.engine, count=4)
        stack.close()
        assert stack.servers == []
        stack.close()  # idempotent

    def test_process_pool_owned_by_stack(self):
        config = ReplicationConfig(
            block_size=BS, num_blocks=N, workers="process", worker_count=1
        )
        stack = open_primary(config)
        assert stack.codec_pool is not None
        assert stack.engine.codec_pool is stack.codec_pool
        _writes(stack.engine, count=4)
        assert stack.verify()
        stack.close()
        assert stack.codec_pool is None

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_close_after_failed_flush_leaks_nothing(self, workers):
        """A final flush that fails still tears the whole stack down."""

        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())
        pool_fields = (
            {"workers": "process", "worker_count": 1}
            if workers == "process"
            else {}
        )
        config = ReplicationConfig(
            block_size=BS,
            num_blocks=8,
            transport="tcp",
            batch_records=4,
            **pool_fields,
        )
        stack = open_primary(config, link_factory=_killed)
        stack.engine.write_block(0, b"x" * BS)  # parked in the batch window
        with pytest.raises(PartialReplicationError):
            stack.close()
        assert stack.engine.closed
        assert stack.servers == []
        assert stack.codec_pool is None
        leaked = [
            thread.name
            for thread in set(threading.enumerate()) - threads_before
            if thread.name.startswith(("target-", "session-"))
        ]
        assert leaked == []
        assert set(multiprocessing.active_children()) <= children_before
        stack.close()  # idempotent once torn down


class TestOpenPrimary:
    def test_facade_matches_hand_wiring(self):
        """open_primary must produce bit-identical traffic to manual setup."""
        image_rng = random.Random(1)
        image_device = MemoryBlockDevice(BS, N)
        for lba in range(N):
            image_device.write_block(
                lba, bytes(image_rng.randrange(256) for _ in range(BS))
            )
        image = image_device.snapshot()

        strategy = make_strategy("prins")
        manual_primary = MemoryBlockDevice(BS, N)
        manual_primary.load(image)
        manual_replica = MemoryBlockDevice(BS, N)
        manual_replica.load(image)
        manual = PrimaryEngine(
            manual_primary,
            strategy,
            [DirectLink(ReplicaEngine(manual_replica, strategy))],
        )
        _writes(manual)

        config = ReplicationConfig(block_size=BS, num_blocks=N)
        with open_primary(config, initial_image=image) as stack:
            _writes(stack.engine)
            assert (
                stack.engine.accountant.payload_bytes
                == manual.accountant.payload_bytes
            )
            assert stack.device.snapshot() == manual_primary.snapshot()
            assert (
                stack.replica_devices[0].snapshot()
                == manual_replica.snapshot()
            )

    def test_stack_verify_and_drain(self):
        config = ReplicationConfig(
            block_size=BS, num_blocks=N, replicas=2, fanout="pipelined"
        )
        with open_primary(config) as stack:
            _writes(stack.engine)
            stack.drain()
            assert stack.verify()

    def test_link_factory_decorates_channels(self):
        seen = []

        def factory(index, link):
            seen.append(index)
            return link

        config = ReplicationConfig(block_size=BS, num_blocks=N, replicas=3)
        open_primary(config, link_factory=factory)
        assert seen == [0, 1, 2]

    def test_telemetry_off_by_default(self):
        stack = open_primary(ReplicationConfig(block_size=BS, num_blocks=N))
        assert stack.telemetry is NULL_TELEMETRY

    def test_telemetry_toggle_installs_live_registry(self):
        stack = open_primary(
            ReplicationConfig(block_size=BS, num_blocks=N, telemetry=True)
        )
        assert stack.telemetry.enabled
        stack.engine.write_block(0, b"x" * BS)
        assert "api.primary" in stack.telemetry.snapshot()["sources"]


class TestOpenCluster:
    def test_cluster_shape_from_config(self):
        cluster = open_cluster(
            ReplicationConfig(
                block_size=BS, num_blocks=N, nodes=5, replicas=2
            )
        )
        assert len(cluster.nodes) == 5
        assert cluster.population == 10

    def test_resilient_pipelined_cluster_round_trip(self):
        config = ReplicationConfig(
            block_size=BS,
            num_blocks=N,
            nodes=3,
            replicas=1,
            resilient=True,
            fanout="pipelined",
            window=2,
            link_latency_s=0.002,
        )
        cluster = open_cluster(config)
        rng = random.Random(4)
        for _ in range(30):
            cluster.write(
                rng.randrange(3),
                rng.randrange(N),
                bytes(rng.randrange(256) for _ in range(BS)),
            )
        cluster.drain()
        assert cluster.verify() == {}
        cluster.fail_node(1)
        cluster.write(0, 0, b"q" * BS)
        cluster.drain()
        cluster.heal_node(1)
        cluster.drain()
        assert cluster.verify() == {}
        for node in cluster.nodes:
            node.engine.verify_traffic_conservation()

    def test_codec_flows_into_cluster_strategy(self):
        cluster = open_cluster(
            ReplicationConfig(
                block_size=BS, num_blocks=N, nodes=2, replicas=1,
                codec="zlib",
            )
        )
        assert [node.engine.strategy.codec.name for node in cluster.nodes] == [
            "zlib",
            "zlib",
        ]


class TestDeprecationShims:
    def test_internal_paths_do_not_warn(self):
        """The hot paths must never touch the deprecated shims."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = ReplicationConfig(
                block_size=BS, num_blocks=N, replicas=2,
                resilient=True, batch_records=4, fanout="pipelined",
            )
            with open_primary(config) as stack:
                _writes(stack.engine, count=20)
                stack.drain()
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_routed_sharded_paths_do_not_warn(self):
        """The read-routing path stays shim-free too."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = ReplicationConfig(
                block_size=BS, num_blocks=N, replicas=2,
                resilient=True, fanout="pipelined", read_policy="replica",
            )
            with open_primary(config) as stack:
                _writes(stack.engine, count=20)
                stack.drain()
                for lba in range(N):
                    stack.engine.read_block(lba)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_guarded_link_shims_removed(self):
        """No link class carries a ship/ship_batch entry point; submit is the path."""
        from repro.engine import GuardedLink, ReplicaLink

        for cls in (ReplicaLink, GuardedLink):
            assert not hasattr(cls, "ship")
            assert not hasattr(cls, "ship_batch")
        assert "submit" in GuardedLink.__dict__
