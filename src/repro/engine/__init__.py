"""The PRINS engine — the paper's primary contribution.

A :class:`~repro.engine.primary.PrimaryEngine` sits below a file system or
DBMS as a block device (Fig. 1 of the paper).  On every write it stores the
block locally, asks its :class:`~repro.engine.strategy.ReplicationStrategy`
to produce an on-wire record, and ships that record to every replica.  A
:class:`~repro.engine.replica.ReplicaEngine` receives records, inverts the
strategy (for PRINS: the backward parity computation of Eq. 2), and applies
the result at the same LBA.

The three strategies correspond exactly to the paper's three bars:

* ``traditional`` — ship the whole changed block
  (:class:`~repro.engine.strategy.FullBlockStrategy`);
* ``compressed`` — ship the zlib-compressed block
  (:class:`~repro.engine.strategy.CompressedBlockStrategy`);
* ``prins`` — ship the encoded parity delta
  (:class:`~repro.engine.strategy.PrinsStrategy`).
"""

from repro.common.errors import PartialReplicationError, RetriesExhaustedError
from repro.engine.accounting import (
    ConservationError,
    TrafficAccountant,
    ethernet_wire_bytes,
)
from repro.engine.batch import (
    BatchConfig,
    BatchEntry,
    FlushResult,
    ShipBatch,
    ShipBatcher,
)
from repro.engine.cluster import StorageCluster, VerifyReport
from repro.engine.journal import ReplicationJournal
from repro.engine.links import DirectLink, InitiatorLink, ReplicaLink
from repro.engine.messages import ReplicationRecord
from repro.engine.primary import PrimaryEngine
from repro.engine.replica import ReplicaEngine
from repro.engine.resilience import (
    CircuitBreaker,
    FaultyLink,
    GuardedLink,
    InjectedLinkError,
    LinkHealth,
    ResilienceConfig,
    ResilientLink,
    ResyncOutcome,
    RetryPolicy,
)
from repro.engine.router import READ_POLICIES, ReadRouter
from repro.engine.scheduler import (
    WORKER_BACKENDS,
    FanoutScheduler,
    LatencyLink,
    ReplicaChannel,
    SchedulerConfig,
    SimClock,
)
from repro.engine.workers import CodecWorkerPool
from repro.engine.reconcile import (
    ReconcileConfig,
    ReconcileReport,
    ReconcileSession,
    ReconcileStalledError,
)
from repro.engine.strategy import (
    CompressedBlockStrategy,
    FullBlockStrategy,
    PrinsStrategy,
    ReplicationStrategy,
    make_strategy,
)
from repro.engine.sync import digest_sync, full_sync, verify_consistency
from repro.engine.work import ShipWork

__all__ = [
    "BatchConfig",
    "BatchEntry",
    "CircuitBreaker",
    "CodecWorkerPool",
    "CompressedBlockStrategy",
    "ConservationError",
    "DirectLink",
    "FanoutScheduler",
    "FaultyLink",
    "FlushResult",
    "GuardedLink",
    "InjectedLinkError",
    "LatencyLink",
    "LinkHealth",
    "PartialReplicationError",
    "READ_POLICIES",
    "ReadRouter",
    "ReconcileConfig",
    "ReconcileReport",
    "ReconcileSession",
    "ReconcileStalledError",
    "ReplicaChannel",
    "ReplicationJournal",
    "ResilienceConfig",
    "ResilientLink",
    "ResyncOutcome",
    "RetriesExhaustedError",
    "RetryPolicy",
    "SchedulerConfig",
    "ShipBatch",
    "ShipBatcher",
    "ShipWork",
    "SimClock",
    "StorageCluster",
    "WORKER_BACKENDS",
    "FullBlockStrategy",
    "InitiatorLink",
    "PrimaryEngine",
    "PrinsStrategy",
    "ReplicaEngine",
    "ReplicaLink",
    "ReplicationRecord",
    "ReplicationStrategy",
    "TrafficAccountant",
    "VerifyReport",
    "digest_sync",
    "ethernet_wire_bytes",
    "full_sync",
    "make_strategy",
    "verify_consistency",
]
