"""End-to-end integration tests: the paper's full stack, assembled.

These tests wire the real layers together the way the paper's testbed
does: application (minidb / miniext) → PRINS primary engine → iSCSI over
TCP → replica engine on another device — and verify both byte-level
consistency and the headline traffic ordering.
"""

from __future__ import annotations

import pytest

from repro.api import ReplicationConfig, open_primary
from repro.block import MemoryBlockDevice
from repro.cdp import ParityLog, RecoveryPoint, recover_image
from repro.cdp.parity_log import CdpDevice
from repro.engine import (
    DirectLink,
    InitiatorLink,
    PrimaryEngine,
    ReplicaEngine,
    full_sync,
    make_strategy,
    verify_consistency,
)
from repro.fs import FileSystem, tar_paths
from repro.iscsi import Initiator, TargetServer, TcpTransport
from repro.iscsi.pdu import BHS_SIZE
from repro.minidb import Column, ColumnType, Database, Schema
from repro.raid import Raid5Array
from repro.workloads import TpccConfig, TpccWorkload

BS = 4096


class TestMinidbOverPrins:
    def test_database_on_replicated_device(self):
        """App → minidb → PrimaryEngine → replica stays byte-identical."""
        primary_dev = MemoryBlockDevice(BS, 512)
        replica_dev = MemoryBlockDevice(BS, 512)
        strategy = make_strategy("prins")
        engine = PrimaryEngine(
            primary_dev,
            strategy,
            [DirectLink(ReplicaEngine(replica_dev, strategy))],
        )
        db = Database(engine, pool_capacity=32)
        table = db.create_table(
            "kv",
            Schema([Column("k", ColumnType.INT), Column("v", ColumnType.VARCHAR, 200)]),
            key="k",
        )
        for i in range(300):
            table.insert((i, f"value-{i}" * 3))
            if i % 20 == 0:
                db.commit()
        for i in range(0, 300, 7):
            table.update_fields(i, v=f"updated-{i}")
        db.commit()
        assert verify_consistency(primary_dev, replica_dev) == []
        assert engine.accountant.payload_bytes < engine.accountant.data_bytes

    def test_failover_to_replica(self):
        """After primary loss, the replica serves the same database."""
        primary_dev = MemoryBlockDevice(BS, 256)
        replica_dev = MemoryBlockDevice(BS, 256)
        strategy = make_strategy("prins")
        engine = PrimaryEngine(
            primary_dev, strategy,
            [DirectLink(ReplicaEngine(replica_dev, strategy))],
        )
        db = Database(engine, pool_capacity=16)
        table = db.create_table(
            "t",
            Schema([Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT)]),
            key="k",
        )
        for i in range(100):
            table.insert((i, float(i * i)))
        db.commit()
        # "failover": rebuild the database state from the replica image only
        recovered_db = Database(replica_dev, pool_capacity=16)
        recovered = recovered_db.create_table(
            "t",
            Schema([Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT)]),
            key="k",
        )
        # replica blocks hold the pages; rebuild access structures by scan
        from repro.minidb.page import SlottedPage

        found = 0
        for lba in range(256):
            raw = replica_dev.read_block(lba)
            try:
                page = SlottedPage(BS, raw)
            except Exception:
                continue
            found += len(page.live_slots())
        assert found >= 100  # heap rows plus index entries survived


class TestTpccOverTcpIscsi:
    def test_tpcc_replicated_over_real_sockets(self):
        """The full paper stack with the wire in the middle."""
        replica_dev = MemoryBlockDevice(BS, 2048)
        strategy = make_strategy("prins")
        replica_engine = ReplicaEngine(replica_dev, strategy)
        with TargetServer(
            replica_dev, replication_handler=replica_engine.receive
        ) as server:
            host, port = server.address
            initiator = Initiator(TcpTransport.connect(host, port), timeout=10)
            primary_dev = MemoryBlockDevice(BS, 2048)
            engine = PrimaryEngine(
                primary_dev, strategy, [InitiatorLink(initiator)]
            )
            db = Database(engine, pool_capacity=128)
            workload = TpccWorkload(
                db,
                TpccConfig(
                    warehouses=1,
                    districts_per_warehouse=2,
                    customers_per_district=5,
                    items=30,
                ),
            )
            workload.populate()
            workload.run(25)
            assert verify_consistency(primary_dev, replica_dev) == []
            wire = initiator.transport.bytes_sent
            data = engine.accountant.data_bytes
            assert 0 < wire < data  # PRINS moved less than the data written
            initiator.logout()

    @pytest.mark.parametrize("strategy", ["prins", "traditional", "compressed"])
    @pytest.mark.parametrize(
        "shape",
        [{}, {"batch_records": 16}, {"replicas": 2}],
        ids=["unbatched", "batch16", "replicas2"],
    )
    def test_write_ledger_matches_the_socket(self, tpcc_pages, strategy, shape):
        """The accountant's PDU bytes are exactly what the sockets sent.

        Each session sends one header-only login PDU before its first write;
        every later byte on the wire is a replication PDU the ledger charged.
        """
        image, writes = tpcc_pages
        config = ReplicationConfig(
            strategy=strategy,
            block_size=8192,
            num_blocks=64,
            transport="tcp",
            **shape,
        )
        with open_primary(config, initial_image=image) as stack:
            for lba, data in writes:
                stack.engine.write_block(lba, data)
            stack.drain()
            sent = sum(link.initiator.transport.bytes_sent for link in stack.links)
            charged = stack.engine.accountant.pdu_bytes
            assert stack.verify()
        assert charged + BHS_SIZE * len(stack.links) == sent


class TestFilesystemOverCompressed:
    def test_fs_on_compressed_replication(self):
        primary_dev = MemoryBlockDevice(1024, 2048)
        replica_dev = MemoryBlockDevice(1024, 2048)
        strategy = make_strategy("compressed")
        engine = PrimaryEngine(
            primary_dev, strategy,
            [DirectLink(ReplicaEngine(replica_dev, strategy))],
        )
        fs = FileSystem.format(engine, inode_count=64)
        fs.makedirs("data")
        fs.write_file("data/report.txt", b"quarterly numbers " * 200)
        tar_paths(fs, ["data"], "backup.tar")
        assert verify_consistency(primary_dev, replica_dev) == []
        # the replica's filesystem is directly mountable
        replica_fs = FileSystem(replica_dev)
        assert replica_fs.read_file("data/report.txt") == b"quarterly numbers " * 200


class TestRaidPrimaryWithCdp:
    def test_raid5_prins_and_point_in_time_recovery(self):
        """RAID-5 primary, PRINS replication, CDP log, full recovery."""
        import itertools

        array = Raid5Array([MemoryBlockDevice(BS, 64) for _ in range(4)])
        log = ParityLog()
        tick = itertools.count()
        logged = CdpDevice(array, log, clock=lambda: next(tick))
        replica_dev = MemoryBlockDevice(BS, array.num_blocks)
        strategy = make_strategy("prins")
        engine = PrimaryEngine(
            logged, strategy,
            [DirectLink(ReplicaEngine(replica_dev, strategy))],
        )
        baseline = MemoryBlockDevice(BS, array.num_blocks)
        writes = []
        import numpy as np

        rng = np.random.default_rng(3)
        for t in range(30):
            lba = int(rng.integers(0, array.num_blocks))
            data = rng.integers(0, 256, BS, dtype="u1").tobytes()
            engine.write_block(lba, data)
            writes.append((lba, data))
        # replica consistent with the array
        assert verify_consistency(logged, replica_dev) == []
        # RAID parity still sound
        assert array.scrub() == []
        # point-in-time recovery to the midpoint matches a shadow replay
        shadow = MemoryBlockDevice(BS, array.num_blocks)
        for lba, data in writes[:16]:
            shadow.write_block(lba, data)
        recovered = recover_image(log, RecoveryPoint(15.0), baseline=baseline)
        assert recovered.snapshot() == shadow.snapshot()


class TestSyncThenIncrementalReplication:
    def test_initial_sync_then_prins(self):
        """The paper's protocol: sync first, then parity-only forever."""
        primary_dev = MemoryBlockDevice(BS, 128)
        import numpy as np

        rng = np.random.default_rng(11)
        for lba in range(128):
            primary_dev.write_block(
                lba, rng.integers(0, 256, BS, dtype="u1").tobytes()
            )
        replica_dev = MemoryBlockDevice(BS, 128)
        report = full_sync(primary_dev, replica_dev)
        assert report.blocks_copied == 128
        strategy = make_strategy("prins")
        engine = PrimaryEngine(
            primary_dev, strategy,
            [DirectLink(ReplicaEngine(replica_dev, strategy))],
        )
        for lba in range(0, 128, 3):
            block = bytearray(engine.read_block(lba))
            block[0:64] = b"\xaa" * 64
            engine.write_block(lba, bytes(block))
        assert verify_consistency(primary_dev, replica_dev) == []
        # incremental phase shipped ~64 changed bytes per write, not 4 KiB
        assert engine.accountant.mean_payload < 256
