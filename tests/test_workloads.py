"""Tests for content models, traces, and the three workload drivers."""

from __future__ import annotations

import zlib

import pytest

from repro.block import MemoryBlockDevice
from repro.common.buffers import nonzero_fraction
from repro.fs import FileSystem
from repro.minidb import Database
from repro.parity import forward_parity
from repro.workloads import (
    FsMicroBenchmark,
    FsMicroConfig,
    TextGenerator,
    TpccConfig,
    TpccWorkload,
    TpcwConfig,
    TpcwWorkload,
    TraceDevice,
    mutate_fraction,
    random_bytes,
    replay_trace,
)
from repro.workloads.content import astring


class TestContent:
    def test_text_is_compressible(self, rng):
        text = TextGenerator(rng).paragraph(8000)
        assert len(zlib.compress(text)) < len(text) / 2

    def test_astring_is_poorly_compressible(self, rng):
        data = astring(rng, 8000).encode()
        assert len(zlib.compress(data)) > len(data) / 2

    def test_astring_alphanumeric(self, rng):
        assert astring(rng, 500).isalnum()

    def test_astring_validation(self, rng):
        with pytest.raises(ValueError):
            astring(rng, -1)

    def test_paragraph_exact_size(self, rng):
        assert len(TextGenerator(rng).paragraph(1234)) == 1234

    def test_random_bytes_incompressible(self, rng):
        data = random_bytes(rng, 4000)
        assert len(zlib.compress(data)) > len(data) * 0.95

    def test_mutate_fraction_changes_requested_amount(self, rng):
        data = random_bytes(rng, 10000)
        mutated = mutate_fraction(data, 0.10, rng)
        delta = forward_parity(mutated, data)
        assert 0.05 <= nonzero_fraction(delta) <= 0.15
        assert len(mutated) == len(data)

    def test_mutate_zero_fraction_is_identity(self, rng):
        data = random_bytes(rng, 100)
        assert mutate_fraction(data, 0.0, rng) == data

    def test_mutate_validation(self, rng):
        with pytest.raises(ValueError):
            mutate_fraction(b"x", 1.5, rng)
        with pytest.raises(ValueError):
            mutate_fraction(b"x", 0.5, rng, runs=0)

    def test_mutate_clusters_changes(self, rng):
        """Changes land in `runs` contiguous spans, not scattered."""
        data = bytes(10000)
        mutated = mutate_fraction(data, 0.05, rng, runs=2)
        from repro.common.buffers import nonzero_runs

        delta = forward_parity(mutated, data)
        assert len(nonzero_runs(delta)) <= 60  # few clusters (text has spaces)


class TestTrace:
    def test_trace_records_writes(self):
        device = TraceDevice(MemoryBlockDevice(256, 8))
        device.write_block(1, b"a" * 256)
        device.write_block(2, b"b" * 256)
        device.write_block(1, b"c" * 256)
        trace = device.trace
        assert trace.write_count == 3
        assert trace.bytes_written == 768
        assert trace.unique_lbas == 2
        assert trace.writes[0] == (1, b"a" * 256)

    def test_replay_reproduces_image(self):
        source = TraceDevice(MemoryBlockDevice(256, 8))
        for lba in (3, 1, 3):
            source.write_block(lba, bytes([lba + 10]) * 256)
        target = MemoryBlockDevice(256, 8)
        assert replay_trace(source.trace, target) == 3
        for lba in range(8):
            assert target.read_block(lba) == source.inner.read_block(lba)

    def test_replay_block_size_mismatch(self):
        device = TraceDevice(MemoryBlockDevice(256, 8))
        with pytest.raises(ValueError):
            replay_trace(device.trace, MemoryBlockDevice(512, 8))


def small_tpcc(device):
    db = Database(device, pool_capacity=256)
    workload = TpccWorkload(
        db, TpccConfig(warehouses=1, customers_per_district=5, items=50)
    )
    return workload, db


class TestTpcc:
    def test_populate_builds_all_tables(self):
        workload, _ = small_tpcc(MemoryBlockDevice(4096, 2048))
        workload.populate()
        cfg = workload.config
        assert len(workload.warehouse) == cfg.warehouses
        assert len(workload.item) == cfg.items
        assert len(workload.stock) == cfg.warehouses * cfg.items
        assert (
            len(workload.customer)
            == cfg.warehouses * cfg.districts_per_warehouse * cfg.customers_per_district
        )

    def test_mix_roughly_matches_spec(self):
        workload, _ = small_tpcc(MemoryBlockDevice(4096, 4096))
        workload.populate()
        workload.run(150)
        counts = workload.transaction_counts
        assert workload.transactions_run == 150
        assert counts["new_order"] > counts["order_status"]
        assert counts["payment"] > counts["delivery"]

    def test_new_order_advances_district_counter(self):
        workload, _ = small_tpcc(MemoryBlockDevice(4096, 2048))
        workload.populate()
        before = workload.district.get(workload._district_key(1, 1))[4]
        for _ in range(30):
            workload._tx_new_order()
        # at least some orders landed in district (1,1)
        totals = sum(
            workload.district.get(workload._district_key(1, d))[4] - 1
            for d in range(1, 11)
        )
        assert totals == 30
        assert workload.district.get(workload._district_key(1, 1))[4] >= before

    def test_payment_moves_money(self):
        workload, _ = small_tpcc(MemoryBlockDevice(4096, 2048))
        workload.populate()
        ytd_before = workload.warehouse.get(1)[6]
        workload._tx_payment()
        assert workload.warehouse.get(1)[6] > ytd_before

    def test_delivery_consumes_new_orders(self):
        workload, _ = small_tpcc(MemoryBlockDevice(4096, 4096))
        workload.populate()
        for _ in range(20):
            workload._tx_new_order()
        pending_before = len(workload.new_order)
        assert pending_before > 0
        for _ in range(40):
            workload._tx_delivery()
        assert len(workload.new_order) < pending_before

    def test_deterministic_given_seed(self):
        device_a = TraceDevice(MemoryBlockDevice(4096, 2048))
        workload_a, _ = small_tpcc(device_a)
        workload_a.populate()
        workload_a.run(30)
        device_b = TraceDevice(MemoryBlockDevice(4096, 2048))
        workload_b, _ = small_tpcc(device_b)
        workload_b.populate()
        workload_b.run(30)
        assert device_a.trace.writes == device_b.trace.writes


class TestTpcw:
    def _workload(self):
        db = Database(MemoryBlockDevice(4096, 4096), pool_capacity=256)
        return TpcwWorkload(
            db, TpcwConfig(items=100, initial_customers=10, commit_interval=5)
        )

    def test_populate(self):
        workload = self._workload()
        workload.populate()
        assert len(workload.item) == 100
        assert len(workload.customer) == 10

    def test_interactions_run(self):
        workload = self._workload()
        workload.populate()
        workload.run(120)
        assert workload.interactions_run == 120
        assert sum(workload.interaction_counts.values()) == 120

    def test_buy_confirm_writes_order_chain(self):
        workload = self._workload()
        workload.populate()
        workload._ix_cart_update(0)
        workload._ix_cart_update(0)
        workload._ix_buy_confirm(0)
        assert len(workload.orders) == 1
        assert len(workload.order_line) == 2
        assert len(workload.cc_xacts) == 1
        assert len(workload.address) == 1
        assert len(workload.cart_line) == 0  # cart cleared

    def test_admin_update_changes_item(self):
        workload = self._workload()
        workload.populate()
        before = {i: workload.item.get(i)[6] for i in range(1, 101)}
        for _ in range(5):
            workload._ix_admin_update(0)
        after = {i: workload.item.get(i)[6] for i in range(1, 101)}
        assert before != after


class TestFsMicro:
    def _benchmark(self):
        device = MemoryBlockDevice(2048, 4096)
        fs = FileSystem.format(device, inode_count=256)
        return FsMicroBenchmark(
            fs, FsMicroConfig(files_per_directory=3, file_size=4096, rounds=2)
        )

    def test_populate_creates_tree_and_archive(self):
        benchmark = self._benchmark()
        benchmark.populate()
        assert len(benchmark.fs.walk("/")) == 5 * 3 + 1  # files + archive.tar
        assert benchmark.fs.exists("archive.tar")
        assert benchmark.archive_bytes > 0

    def test_rounds_edit_and_retar(self):
        benchmark = self._benchmark()
        benchmark.populate()
        archive_before = benchmark.fs.read_file("archive.tar")
        benchmark.run()
        assert benchmark.rounds_run == 2
        archive_after = benchmark.fs.read_file("archive.tar")
        assert archive_after != archive_before  # edits visible in archive
        assert len(archive_after) == len(archive_before)  # sizes preserved

    def test_run_round_requires_populate(self):
        benchmark = self._benchmark()
        with pytest.raises(RuntimeError):
            benchmark.run_round()
