"""Tests for the experiment harness and figure runners (tiny scales)."""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import pytest

from repro.experiments.figures import SMALL, Scale, get_scale, run_experiment
from repro.experiments.harness import (
    capture_fsmicro_trace,
    capture_tpcc_trace,
    capture_tpcw_trace,
    measure_strategies,
)
from repro.experiments.testbed import testbed_table as render_testbed_table
from repro.minidb import db as minidb_db
from repro.minidb.buffer import BufferPool
from repro.workloads.fsmicro import FsMicroConfig
from repro.workloads.tpcc import TpccConfig
from repro.workloads.tpcw import TpcwConfig

TINY_TPCC = TpccConfig(
    warehouses=1, districts_per_warehouse=2, customers_per_district=5, items=50
)


@pytest.fixture(scope="module")
def tpcc_capture():
    return capture_tpcc_trace(4096, config=TINY_TPCC, transactions=40)


class TestHarness:
    def test_capture_excludes_population(self, tpcc_capture):
        assert tpcc_capture.trace.write_count > 0
        # the base image already contains the populated database
        assert any(byte != 0 for byte in tpcc_capture.base_image[:4096])

    def test_measure_all_strategies_consistent(self, tpcc_capture):
        results = measure_strategies(tpcc_capture)
        assert set(results) == {"traditional", "compressed", "prins"}
        assert all(m.consistent for m in results.values())

    def test_prins_smallest_traditional_largest(self, tpcc_capture):
        results = measure_strategies(tpcc_capture)
        assert (
            results["prins"].payload_bytes
            < results["compressed"].payload_bytes
            < results["traditional"].payload_bytes
        )

    def test_traditional_payload_equals_blocks_shipped(self, tpcc_capture):
        results = measure_strategies(tpcc_capture)
        trace = tpcc_capture.trace
        expected_floor = trace.write_count * trace.block_size
        assert results["traditional"].payload_bytes >= expected_floor

    def test_fsmicro_capture(self):
        capture = capture_fsmicro_trace(
            2048,
            config=FsMicroConfig(files_per_directory=2, file_size=2048, rounds=1),
        )
        assert capture.workload_name == "fsmicro"
        assert capture.trace.write_count > 0
        results = measure_strategies(capture)
        assert results["prins"].payload_bytes < results["traditional"].payload_bytes

    def test_prins_codec_option(self, tpcc_capture):
        rle = measure_strategies(tpcc_capture, strategies=["prins"])
        zlib_variant = measure_strategies(
            tpcc_capture, strategies=["prins"], prins_codec="rle+zlib"
        )
        assert rle["prins"].payload_bytes > 0
        assert zlib_variant["prins"].payload_bytes > 0


PIN_TPCC = TpccConfig(warehouses=1, customers_per_district=20, items=200, seed=3)
PIN_TPCW = TpcwConfig(items=300, initial_customers=50, seed=3)


def _write_stream_digest(capture) -> str:
    """SHA-256 over the base image, then each write as LBA (u64 LE) + data."""
    digest = hashlib.sha256(capture.base_image)
    for lba, data in capture.trace.writes:
        digest.update(struct.pack("<Q", lba))
        digest.update(data)
    return digest.hexdigest()


class TestWriteStreamPin:
    """minidb's block writes and buffer-pool decisions, byte for byte.

    The small pools force evictions, so any change to which pages the pool
    touches, and in what order, moves the write stream.  The counters are
    the pool's ``(fetches, hits, evictions, writebacks)`` over the whole
    capture, population included.
    """

    @pytest.mark.parametrize(
        ("workload", "pool_capacity", "expected_digest", "writes", "counters"),
        [
            (
                "tpcc",
                8,
                "6b738fc8e9d33698dcf92b7bf2e3d44826c074274a462bf009dd887d9f2ee868",
                207,
                (6765, 6359, 431, 266),
            ),
            (
                "tpcc",
                16,
                "f8f15a7318659b13904cff51ae4a0ae7c6c1ccb863186ea647d23e7f20a6af7b",
                169,
                (6765, 6516, 266, 201),
            ),
            (
                "tpcc",
                512,
                "b952bcfb3a9081ca54d10269980dba09c933c768da0fc348a779d19d1dd4d67e",
                84,
                (6765, 6765, 0, 113),
            ),
            (
                "tpcw",
                8,
                "80535ae493433951e77efd864ef7ebe2611bd63a7244aac92c1265f438ea26b3",
                119,
                (3151, 2731, 445, 160),
            ),
            (
                "tpcw",
                512,
                "c5aa623305ffdf83e8a3ea9741e42db6e83daa8e3fef80722f7c2c73ffd40907",
                55,
                (3151, 3151, 0, 83),
            ),
        ],
        ids=["tpcc-pool8", "tpcc-pool16", "tpcc-pool512", "tpcw-pool8", "tpcw-pool512"],
    )
    def test_write_stream_and_pool_counters(
        self, monkeypatch, workload, pool_capacity, expected_digest, writes, counters
    ):
        pools: list[BufferPool] = []

        class RecordingPool(BufferPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(minidb_db, "BufferPool", RecordingPool)
        if workload == "tpcc":
            capture = capture_tpcc_trace(
                8192, PIN_TPCC, transactions=40, pool_capacity=pool_capacity
            )
        else:
            capture = capture_tpcw_trace(
                8192, PIN_TPCW, interactions=80, pool_capacity=pool_capacity
            )
        (pool,) = pools
        assert capture.trace.write_count == writes
        assert _write_stream_digest(capture) == expected_digest
        assert (pool.fetches, pool.hits, pool.evictions, pool.writebacks) == counters


class TestScales:
    def test_get_scale_by_name(self):
        assert get_scale("small") is SMALL
        assert get_scale(SMALL) is SMALL
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_paper_scale_matches_paper_parameters(self):
        paper = get_scale("paper")
        assert paper.tpcc_oracle.warehouses == 5
        assert paper.tpcc_postgres.warehouses == 10
        assert paper.tpcw.items == 10_000
        assert paper.tpcw.emulated_browsers == 30
        assert paper.fsmicro.directories == 5
        assert paper.fsmicro.rounds == 5
        assert paper.block_sizes == (4096, 8192, 16384, 32768, 65536)


TINY_SCALE = Scale(
    name="tiny",
    block_sizes=(4096,),
    tpcc_transactions=30,
    tpcc_oracle=TINY_TPCC,
    tpcc_postgres=dataclasses.replace(TINY_TPCC, seed=2007),
    tpcw_interactions=60,
    tpcw=dataclasses.replace(
        __import__("repro.workloads.tpcw", fromlist=["TpcwConfig"]).TpcwConfig(),
        items=100,
        initial_customers=10,
    ),
    fsmicro=FsMicroConfig(files_per_directory=2, file_size=2048, rounds=1),
)


class TestFigureRunners:
    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig7"])
    def test_traffic_figures_run(self, figure):
        result = run_experiment(figure, scale=TINY_SCALE)
        assert result.experiment_id == figure
        assert len(result.rows) == 1  # one block size in the tiny scale
        # prins column strictly below traditional column
        for row in result.rows:
            assert row[4] < row[2]

    @pytest.mark.parametrize("figure", ["fig8", "fig9", "fig10"])
    def test_queueing_figures_run(self, figure):
        payloads = {"traditional": 8192.0, "compressed": 2700.0, "prins": 400.0}
        from repro.experiments.figures import run_fig8, run_fig9, run_fig10

        runner = {"fig8": run_fig8, "fig9": run_fig9, "fig10": run_fig10}[figure]
        result = runner(payloads=payloads)
        assert result.comparisons
        assert all(c.within_tolerance for c in result.comparisons), result.render()

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_testbed_table_mentions_all_substrates(self):
        table = render_testbed_table()
        for fragment in ("PRINS-engine", "Oracle", "Ext2", "TPC-C", "zlib", "T1/T3"):
            assert fragment in table
