"""API-surface snapshot: the public facade must not drift silently.

Pins the exported names of :mod:`repro.api`, :mod:`repro`,
:mod:`repro.engine` and :mod:`repro.block` exactly, and the fields of
:class:`~repro.api.ReplicationConfig`.  A failing test here means a
(possibly accidental) public-API change: update the snapshot
*deliberately*, in the same commit that documents the change.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro
import repro.api as api
import repro.block as block
import repro.engine as engine

#: the complete public surface of repro.api
API_EXPORTS = {
    "ObservabilityConfig",
    "PrimaryStack",
    "ReplicationConfig",
    "open_cluster",
    "open_primary",
}

#: every ReplicationConfig field, in declaration order
CONFIG_FIELDS = (
    "strategy",
    "codec",
    "block_size",
    "num_blocks",
    "replicas",
    "nodes",
    "replicas_per_node",
    "redundancy",
    "k",
    "n",
    "batch_records",
    "batch_bytes",
    "old_block_cache",
    "fanout",
    "window",
    "link_latency_s",
    "per_link_latency_s",
    "latency_jitter",
    "transport",
    "workers",
    "worker_count",
    "ring_slots",
    "read_policy",
    "shards",
    "resilient",
    "max_attempts",
    "backlog_capacity_bytes",
    "resync",
    "verify_acks",
    "telemetry",
    "observability",
    "seed",
)

#: the complete top-level surface of repro
REPRO_EXPORTS = {
    "BlockDevice",
    "ChecksumDevice",
    "Column",
    "ColumnType",
    "CompressedBlockStrategy",
    "CountingDevice",
    "Database",
    "DirectLink",
    "FileBlockDevice",
    "FileSystem",
    "FullBlockStrategy",
    "Initiator",
    "InitiatorLink",
    "MemoryBlockDevice",
    "ObservabilityConfig",
    "ParityLog",
    "PrimaryEngine",
    "PrimaryStack",
    "PrinsStrategy",
    "Raid0Array",
    "Raid1Array",
    "Raid4Array",
    "Raid5Array",
    "RecoveryPoint",
    "ReplicaEngine",
    "ReplicationConfig",
    "ReplicationNetworkModel",
    "Schema",
    "SparseBlockDevice",
    "StrategyTraffic",
    "T1",
    "T3",
    "Target",
    "TargetServer",
    "TcpTransport",
    "TrafficAccountant",
    "__version__",
    "backward_parity",
    "digest_sync",
    "forward_parity",
    "full_sync",
    "get_codec",
    "make_strategy",
    "open_cluster",
    "open_primary",
    "recover_block",
    "recover_image",
    "transport_pair",
    "verify_consistency",
}

#: the complete surface of repro.engine
ENGINE_EXPORTS = {
    "AggregateAccountant",
    "BatchConfig",
    "BatchEntry",
    "CircuitBreaker",
    "ClusterConfig",
    "CodecWorkerPool",
    "CompressedBlockStrategy",
    "ConservationError",
    "DirectLink",
    "FanoutScheduler",
    "FaultyLink",
    "FlushResult",
    "FullBlockStrategy",
    "GuardedLink",
    "InitiatorLink",
    "InjectedLinkError",
    "JournalingLink",
    "LatencyLink",
    "LinkHealth",
    "PartialReplicationError",
    "PrimaryEngine",
    "PrinsStrategy",
    "READ_POLICIES",
    "ReadRouter",
    "ReconcileConfig",
    "ReconcileReport",
    "ReconcileSession",
    "ReconcileStalledError",
    "ReplicaChannel",
    "ReplicaEngine",
    "ReplicaLink",
    "ReplicaTraffic",
    "ReplicationJournal",
    "ReplicationRecord",
    "ReplicationStrategy",
    "ResilienceConfig",
    "ResilientLink",
    "ResyncOutcome",
    "RetriesExhaustedError",
    "RetryPolicy",
    "SchedulerConfig",
    "ShardMap",
    "ShardView",
    "ShardedEngine",
    "ShipBatch",
    "ShipBatcher",
    "ShipWork",
    "SimClock",
    "StorageCluster",
    "TrafficAccountant",
    "VerifyReport",
    "WORKER_BACKENDS",
    "digest_sync",
    "ethernet_wire_bytes",
    "full_sync",
    "make_strategy",
    "verify_consistency",
}

#: the complete surface of repro.block
BLOCK_EXPORTS = {
    "BlockCache",
    "BlockDevice",
    "ChecksumDevice",
    "CountingDevice",
    "FaultyDevice",
    "FileBlockDevice",
    "InjectedIoError",
    "IoCounters",
    "MemoryBlockDevice",
    "SparseBlockDevice",
}


#: iscsi exports the asyncio transport tier added
ISCSI_AIO_EXPORTS = {
    "AsyncInitiator",
    "AsyncTargetServer",
    "AsyncTcpTransport",
    "EventLoopThread",
}


def _assert_all_is_exact(module, expected):
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert set(exported) == expected
    for name in expected:
        assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_api_all_is_exact():
    _assert_all_is_exact(api, API_EXPORTS)


def test_api_reexported_from_repro():
    for name in API_EXPORTS:
        assert name in repro.__all__, f"repro.{name} not re-exported"
        assert getattr(repro, name) is getattr(api, name)


def test_replication_config_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(api.ReplicationConfig))
    assert fields == CONFIG_FIELDS


def test_replication_config_is_frozen():
    params = dataclasses.fields(api.ReplicationConfig)
    assert api.ReplicationConfig.__dataclass_params__.frozen
    assert all(f.init for f in params)


def test_repro_all_is_exact():
    _assert_all_is_exact(repro, REPRO_EXPORTS)


def test_engine_all_is_exact():
    _assert_all_is_exact(engine, ENGINE_EXPORTS)


def test_block_all_is_exact():
    _assert_all_is_exact(block, BLOCK_EXPORTS)


def test_iscsi_exports_aio_surface():
    import repro.iscsi as iscsi

    missing = ISCSI_AIO_EXPORTS - set(iscsi.__all__)
    assert not missing, f"iscsi exports missing: {sorted(missing)}"
    for name in ISCSI_AIO_EXPORTS:
        assert hasattr(iscsi, name), f"repro.iscsi.{name} missing"


def test_open_primary_signature_is_stable():
    signature = inspect.signature(api.open_primary)
    assert list(signature.parameters) == [
        "config",
        "shards",
        "read_policy",
        "initial_image",
        "link_factory",
        "telemetry_name",
        "accountant",
        "resilience",
    ]


def test_open_cluster_signature_is_stable():
    signature = inspect.signature(api.open_cluster)
    assert list(signature.parameters) == [
        "config",
        "shards",
        "read_policy",
        "placement",
        "link_factory",
        "resilience",
    ]


def test_link_protocol_surface():
    """submit() is the whole link protocol."""
    from repro.engine.links import ReplicaLink

    assert callable(ReplicaLink.submit)
