"""Shared fixtures for the PRINS reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.block import MemoryBlockDevice
from repro.common.rng import make_rng
from repro.experiments.harness import capture_tpcc_trace
from repro.workloads.tpcc import TpccConfig


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Dump live flight recorders when a test fails (CI black-box artifact).

    Active only when ``PRINS_FLIGHTREC_DIR`` is set (the CI pytest step
    sets it); each failing test writes every live non-empty
    :class:`~repro.obs.FlightRecorder` to that directory, named by the
    sanitized test node id, and the workflow uploads the directory as an
    artifact.
    """
    outcome = yield
    directory = os.environ.get("PRINS_FLIGHTREC_DIR")
    if not directory:
        return
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    from repro.obs import FlightRecorder

    stem = "".join(
        c if c.isalnum() or c in "-._" else "_" for c in item.nodeid
    )
    os.makedirs(directory, exist_ok=True)
    FlightRecorder.dump_all(directory, stem)

BLOCK_SIZE = 512
NUM_BLOCKS = 64


@pytest.fixture
def rng():
    """A deterministic RNG, fresh per test."""
    return make_rng(1234, "tests")


@pytest.fixture
def device():
    """A small in-memory block device."""
    return MemoryBlockDevice(BLOCK_SIZE, NUM_BLOCKS)


@pytest.fixture
def random_block(rng):
    """One block of random (incompressible) bytes."""
    return rng.integers(0, 256, BLOCK_SIZE, dtype="u1").tobytes()


def make_block(rng, size=BLOCK_SIZE):
    """Helper: random block of ``size`` bytes."""
    return rng.integers(0, 256, size, dtype="u1").tobytes()


@pytest.fixture(scope="session")
def tpcc_pages() -> tuple[bytes, list[tuple[int, bytes]]]:
    """A seeded TPC-C page-write trace on 8 KiB pages and its 64-block image."""
    capture = capture_tpcc_trace(
        8192,
        TpccConfig(warehouses=1, customers_per_district=10, items=100, seed=7),
        transactions=40,
    )
    writes = capture.trace.writes
    assert max(lba for lba, _ in writes) < 64
    return capture.base_image[: 64 * 8192], writes


@pytest.fixture
def engine_stack(request):
    """Factory for a primary/replica pair wired with a given strategy."""
    from repro.engine import DirectLink, PrimaryEngine, ReplicaEngine, make_strategy

    def build(strategy_name="prins", block_size=BLOCK_SIZE, num_blocks=NUM_BLOCKS):
        primary_dev = MemoryBlockDevice(block_size, num_blocks)
        replica_dev = MemoryBlockDevice(block_size, num_blocks)
        strategy = make_strategy(strategy_name)
        replica = ReplicaEngine(replica_dev, strategy)
        engine = PrimaryEngine(primary_dev, strategy, [DirectLink(replica)])
        return engine, primary_dev, replica_dev, replica

    return build
