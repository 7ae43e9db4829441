"""Micro-benchmarks for the zero-copy hot path introduced with PR 4.

Companion to ``scripts/bench_hotpath.py`` (which tracks absolute numbers
in ``BENCH_hotpath.json``): these pytest-benchmark timings cover the same
five stages — pairwise XOR, vectorized encode, scatter/XOR decode, the
single-write path, and the batched flush — so a perf regression
shows up in ordinary benchmark runs too, with correctness assertions on
the side (the replica image must equal the primary image after every
timed flush).
"""

from __future__ import annotations

import pytest

from repro.block import MemoryBlockDevice
from repro.common.buffers import xor_blocks_pairwise, xor_bytes
from repro.common.rng import make_rng
from repro.engine import DirectLink, PrimaryEngine, ReplicaEngine, make_strategy
from repro.engine.batch import BatchConfig
from repro.parity import decode_frame_xor_into, encode_frames, get_codec
from repro.workloads.content import mutate_fraction, random_bytes

BLOCK_SIZE = 65536
WINDOW = 16
DIRTINESS = 0.20


@pytest.fixture(scope="module")
def window_blocks():
    """A flush window of (old, new) 64 KB pairs at paper-typical dirtiness."""
    rng = make_rng(11, "hotpath")
    olds = [random_bytes(rng, BLOCK_SIZE) for _ in range(WINDOW)]
    news = [mutate_fraction(old, DIRTINESS, rng) for old in olds]
    return olds, news


def test_xor_pairwise_window(benchmark, window_blocks):
    olds, news = window_blocks
    deltas = benchmark(xor_blocks_pairwise, news, olds)
    assert deltas == [xor_bytes(n, o) for n, o in zip(news, olds)]


def test_encode_frames_window(benchmark, window_blocks):
    olds, news = window_blocks
    codec = get_codec("zero-rle")
    deltas = [xor_bytes(n, o) for n, o in zip(news, olds)]
    frames = benchmark(encode_frames, codec, deltas)
    assert len(frames) == WINDOW
    # sparse deltas must actually compress
    assert sum(map(len, frames)) < sum(map(len, deltas))


def test_decode_xor_into_window(benchmark, window_blocks):
    olds, news = window_blocks
    codec = get_codec("zero-rle")
    deltas = [xor_bytes(n, o) for n, o in zip(news, olds)]
    frames = encode_frames(codec, deltas)

    def apply_window():
        for old, frame in zip(olds, frames):
            block = bytearray(old)
            decode_frame_xor_into(frame, block)
        return block

    last = benchmark(apply_window)
    assert bytes(last) == news[-1]


def _make_engine(num_blocks: int, *, batch: bool):
    strategy = make_strategy("prins")
    primary = MemoryBlockDevice(BLOCK_SIZE, num_blocks)
    replica = MemoryBlockDevice(BLOCK_SIZE, num_blocks)
    kwargs = {}
    if batch:
        kwargs["batch"] = BatchConfig(max_records=WINDOW, max_bytes=1 << 30)
    engine = PrimaryEngine(
        primary,
        strategy,
        [DirectLink(ReplicaEngine(replica, strategy))],
        **kwargs,
    )
    return engine, primary, replica


def test_single_write_path(benchmark, window_blocks):
    olds, news = window_blocks
    engine, primary, replica = _make_engine(1, batch=False)
    primary.write_block(0, olds[0])
    replica.write_block(0, olds[0])
    state = {"flip": False}

    def write_once():
        state["flip"] = not state["flip"]
        engine.write_block(0, news[0] if state["flip"] else olds[0])

    benchmark(write_once)
    assert replica.snapshot() == primary.snapshot()


def test_batched_flush_window(benchmark, window_blocks):
    olds, news = window_blocks
    engine, primary, replica = _make_engine(WINDOW, batch=True)
    for lba, old in enumerate(olds):
        primary.write_block(lba, old)
        replica.write_block(lba, old)
    state = {"flip": False}

    def flush_window():
        blocks = news if not state["flip"] else olds
        state["flip"] = not state["flip"]
        engine.write_many(list(enumerate(blocks)))
        engine.flush_batch()

    benchmark(flush_window)
    assert replica.snapshot() == primary.snapshot()
