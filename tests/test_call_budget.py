"""The counted cost of a replicated write: Python calls per write.

Wall-clock time drifts with the host; the Python calls a seeded op stream
makes do not.  Each cell opens a stack through :func:`repro.api.open_primary`
with telemetry off (the default), replays a TPC-C page-write stream, and
counts every Python function call per write with ``sys.setprofile`` on
the client thread and ``threading.setprofile`` on the threads the stack
starts (the iSCSI target's session thread included).  The ceilings hold
the write path to its budget: a change that puts calls back on it fails
here before it shows on a clock.

One cell holds set-up to its budget the same way: the Python and C calls
it takes to capture the bench-sized TPC-C trace.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.api import ReplicationConfig, open_primary
from repro.experiments.harness import capture_tpcc_trace
from repro.workloads.tpcc import TpccConfig

BLOCK = 8192
BLOCKS = 64
WRITES = 280
WARMUP = 20


@pytest.fixture(scope="module")
def tpcc_stream(tpcc_pages) -> tuple[bytes, list[tuple[int, bytes]]]:
    """The ``tpcc_pages`` trace cycled to ``WARMUP + WRITES`` writes."""
    image, writes = tpcc_pages
    return image, [writes[i % len(writes)] for i in range(WARMUP + WRITES)]


def calls_per_write(
    config: ReplicationConfig, image: bytes, stream, files: tuple[str, ...] = ()
) -> float:
    """Python calls per write over ``stream`` after ``WARMUP`` writes.

    With ``files`` (path endings such as ``"repro/obs/tracing.py"``) only
    calls into functions defined in those files count.  Calls are counted
    per thread, so a thread switch inside the profile hook cannot lose an
    increment.
    """
    counts: Counter[int] = Counter()
    counting = False

    def profile(frame, event, arg):  # noqa: ARG001 - the profile protocol
        if counting and event == "call":
            if files and not frame.f_code.co_filename.replace(
                "\\", "/"
            ).endswith(files):
                return
            counts[threading.get_ident()] += 1

    threading.setprofile(profile)  # the threads the stack starts
    try:
        stack = open_primary(config, initial_image=image)
    finally:
        threading.setprofile(None)
    try:
        engine = stack.engine
        for lba, data in stream[:WARMUP]:
            engine.write_block(lba, data)
        sys.setprofile(profile)
        counting = True
        try:
            for lba, data in stream[WARMUP:]:
                engine.write_block(lba, data)
            engine.drain()
        finally:
            counting = False
            sys.setprofile(None)
        assert stack.verify()
    finally:
        stack.close()
    return sum(counts.values()) / (len(stream) - WARMUP)


def _config(**fields) -> ReplicationConfig:
    return ReplicationConfig(
        strategy="prins", block_size=BLOCK, num_blocks=BLOCKS, **fields
    )


def test_tcp_write_is_at_most_60_calls(tpcc_stream):
    """One replica over TCP: client and target threads together."""
    per_write = calls_per_write(_config(transport="tcp"), *tpcc_stream)
    assert per_write <= 60, f"{per_write:.1f} Python calls per write"


def test_inline_two_replica_write_budget(tpcc_stream):
    """Two in-process replicas behind direct links, shipped in turn."""
    per_write = calls_per_write(_config(replicas=2), *tpcc_stream)
    assert per_write <= 56, f"{per_write:.1f} Python calls per write"


def test_telemetry_off_makes_no_telemetry_call(tpcc_stream):
    """Telemetry off, the write and apply paths open no span at all, not
    even the shared no-op one."""
    per_write = calls_per_write(
        _config(transport="tcp"),
        *tpcc_stream,
        files=("repro/obs/tracing.py", "repro/obs/telemetry.py"),
    )
    assert per_write == 0


def test_tpcc_trace_capture_budget():
    """Capturing the bench's TPC-C trace (3 warehouses, 120 transactions,
    8 KiB pages) costs at most 650 k Python and C calls.

    It reads about 637 k with B-tree leaves that keep their entries
    packed; packing every entry of a node on each node write reads
    1.42 M.
    """
    calls = 0

    def profile(frame, event, arg):  # noqa: ARG001 - the profile protocol
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    config = TpccConfig(warehouses=3, customers_per_district=20, items=300, seed=7)
    sys.setprofile(profile)
    try:
        capture_tpcc_trace(BLOCK, config, transactions=120)
    finally:
        sys.setprofile(None)
    assert calls <= 650_000, f"{calls} calls to capture the trace"
