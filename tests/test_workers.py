"""Tests for the multiprocess codec worker pool (repro.engine.workers).

The pool must be an *exact* drop-in for inline
:func:`~repro.parity.frame.encode_frames` — byte-identical frames in the
submitted order — while actually moving the codec work off the GIL into
worker processes fed through shared-memory rings.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.common.errors import ConfigurationError, ReplicationError
from repro.engine.workers import (
    CodecWorkerPool,
    available_cores,
    default_worker_count,
    slot_bytes_for,
)
import repro.parity.pipeline  # noqa: F401 -- registers the codec table
from repro.parity.codecs import get_codec
from repro.parity.frame import decode_frame, encode_frames

BS = 4096


def _payloads(count, seed=7, size=BS):
    rng = random.Random(seed)
    out = []
    for index in range(count):
        if index % 3 == 0:
            # sparse delta: long zero runs, the PRINS common case
            block = bytearray(size)
            for _ in range(8):
                block[rng.randrange(size)] = rng.randrange(1, 256)
            out.append(bytes(block))
        else:
            out.append(bytes(rng.randrange(256) for _ in range(size)))
    return out


@pytest.fixture(scope="module")
def pool():
    with CodecWorkerPool(worker_count=2, ring_slots=4, block_size=BS) as p:
        yield p


class TestPoolBasics:
    def test_sizing_helpers(self):
        assert available_cores() >= 1
        assert 1 <= default_worker_count() <= 8
        assert slot_bytes_for(BS) > 2 * BS

    def test_unregistered_codec_rejected(self, pool):
        class Fake:
            codec_id = 250
            name = "fake"

        with pytest.raises(ConfigurationError):
            pool.encode_frames(Fake(), [b"x"])

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            CodecWorkerPool(worker_count=-1)
        with pytest.raises(ConfigurationError):
            CodecWorkerPool(ring_slots=1)


class TestByteIdentity:
    @pytest.mark.parametrize("codec_name", ["zero-rle", "zlib", "rle+zlib"])
    def test_encode_matches_inline(self, pool, codec_name):
        codec = get_codec(codec_name)
        payloads = _payloads(23)
        assert pool.encode_frames(codec, payloads) == encode_frames(
            codec, payloads
        )

    def test_order_preserved_across_sizes(self, pool):
        codec = get_codec("zero-rle")
        payloads = [bytes([i % 256]) * (1 + i * 37) for i in range(40)]
        assert pool.encode_frames(codec, payloads) == encode_frames(
            codec, payloads
        )

    def test_decode_round_trip(self, pool):
        codec = get_codec("zlib")
        payloads = _payloads(11, seed=13)
        frames = encode_frames(codec, payloads)
        assert pool.decode_frames(frames) == payloads
        assert [decode_frame(f) for f in frames] == payloads

    def test_empty_batch(self, pool):
        assert pool.encode_frames(get_codec("zero-rle"), []) == []


class TestFallbacks:
    def test_oversize_payload_falls_back_inline(self, pool):
        codec = get_codec("zero-rle")
        before = pool.snapshot()["inline_fallbacks"]
        payloads = _payloads(6) + [b"\xab" * (8 * BS)]
        assert pool.encode_frames(codec, payloads) == encode_frames(
            codec, payloads
        )
        assert pool.snapshot()["inline_fallbacks"] > before

    def test_dead_worker_raises_not_hangs(self):
        pool = CodecWorkerPool(worker_count=1, ring_slots=2, block_size=BS)
        try:
            codec = get_codec("zero-rle")
            payloads = _payloads(4)
            assert pool.encode_frames(codec, payloads) == encode_frames(
                codec, payloads
            )
            for channel in pool._channels:
                channel.process.terminate()
                channel.process.join(timeout=10)
            started = time.monotonic()
            with pytest.raises(ReplicationError, match="died mid-batch"):
                pool.encode_frames(codec, payloads)
            assert time.monotonic() - started < 5.0
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = CodecWorkerPool(worker_count=1, ring_slots=2, block_size=BS)
        pool.encode_frames(get_codec("zero-rle"), [b"\x00" * 64])
        pool.close()
        pool.close()


class TestSnapshot:
    def test_snapshot_counts_items(self, pool):
        before = pool.snapshot()
        pool.encode_frames(get_codec("zero-rle"), _payloads(5))
        after = pool.snapshot()
        assert after["items"] >= before["items"] + 5
        assert after["workers"] == 2
        assert after["ring_slots"] == 4
