"""From XOR to frame: the dense span shortcut and the stored (raw) fallback.

* ``nonzero_spans``' dense shortcut equals a reference scan at every merge
  gap;
* no frame is longer than ``FRAME_OVERHEAD`` plus its data, for every
  registered codec, and every frame still decodes (plain and XOR-into);
* every path that frames a delta — ``write_block``, ``write_many``
  (direct and batched), ``flush_batch``, the codec worker pool, erasure
  fragments and resync records — emits byte-identical frames for the same
  mix of dense and sparse deltas.
"""

from __future__ import annotations

import re
from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReplicationConfig, open_primary
from repro.block import MemoryBlockDevice
from repro.common.buffers import is_zero, nonzero_spans
from repro.engine import DirectLink, PrimaryEngine, ReplicaEngine, make_strategy
from repro.engine.batch import BatchConfig
from repro.engine.links import ReplicaLink
from repro.engine.workers import CodecWorkerPool
from repro.parity import (
    available_codecs,
    decode_frame,
    decode_frame_into,
    decode_frame_xor_into,
    encode_frame,
    get_codec,
)
from repro.parity.frame import FRAME_OVERHEAD

ZERO_RLE = get_codec("zero-rle")
SIZES = [0, 64, 512, 8192, 65536]
BS = 512


def _reference_spans(data: bytes, gap: int) -> list[tuple[int, int]]:
    """Maximal nonzero runs, then runs at most ``gap`` zeros apart merged."""
    merged: list[tuple[int, int]] = []
    for match in re.finditer(rb"[^\x00]+", data):
        if merged and match.start() - merged[-1][1] <= gap:
            merged[-1] = (merged[-1][0], match.end())
        else:
            merged.append((match.start(), match.end()))
    return merged


@st.composite
def deltas(draw) -> bytes:
    """Dense or sparse deltas with zero holes and zero edges."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        buf = rng.integers(1, 256, n, dtype=np.uint8)
    else:
        buf = np.zeros(n, dtype=np.uint8)
        for _ in range(draw(st.integers(0, 6))):
            start = draw(st.integers(0, max(n - 1, 0)))
            length = draw(st.integers(1, 40))
            chunk = buf[start : start + length]
            chunk[:] = rng.integers(1, 256, chunk.size, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, max(n - 1, 0)))
        buf[start : start + draw(st.integers(1, 9))] = 0
    buf[: draw(st.integers(0, 6))] = 0
    trail = draw(st.integers(0, 6))
    if trail:
        buf[-trail:] = 0
    return buf.tobytes()


@settings(max_examples=150, deadline=None)
@given(deltas())
def test_span_plan_equals_reference_scan(data):
    for gap in range(17):
        starts, ends = nonzero_spans(data, merge_gap=gap)
        assert list(zip(starts.tolist(), ends.tolist())) == _reference_spans(
            data, gap
        )


def test_span_plan_at_every_hole_length_and_word_phase():
    """A 6-byte hole can dodge every aligned word; a 7-byte one cannot."""
    dense = np.random.default_rng(9).integers(1, 256, 64, dtype=np.uint8)
    for length in range(1, 10):
        for offset in range(20, 24):
            data = dense.copy()
            data[offset : offset + length] = 0
            for gap in range(17):
                starts, ends = nonzero_spans(data.tobytes(), merge_gap=gap)
                assert list(zip(starts.tolist(), ends.tolist())) == (
                    _reference_spans(data.tobytes(), gap)
                ), (length, offset, gap)


@settings(max_examples=60, deadline=None)
@given(deltas(), st.integers(0, 2**32 - 1))
def test_frames_never_exceed_the_block_and_round_trip(data, seed):
    n = len(data)
    old = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)
    expect_new = (old ^ np.frombuffer(data, dtype=np.uint8)).tobytes()
    for codec in available_codecs():
        frame = encode_frame(codec, data)
        assert len(frame) == FRAME_OVERHEAD + min(n, len(codec.encode(data)))
        assert decode_frame(frame) == data
        out = bytearray(b"\xee" * n)
        decode_frame_into(frame, out)
        assert bytes(out) == data
        block = bytearray(old.tobytes())
        decode_frame_xor_into(frame, block)
        assert bytes(block) == expect_new


def test_dense_64k_delta_keeps_rle_only_when_it_beats_raw():
    n = 65536
    dense = np.random.default_rng(5).integers(1, 256, n, dtype=np.uint8)
    for lead, trail, codec_id in ((2, 2, 0), (3, 2, 1), (0, 0, 0)):
        delta = dense.copy()
        delta[:lead] = 0
        if trail:
            delta[-trail:] = 0
        frame = encode_frame(ZERO_RLE, delta.tobytes())
        assert frame[0] == codec_id
        if codec_id:  # varint(s) + varint(L) + L, one byte under raw
            assert len(frame) == FRAME_OVERHEAD + 1 + 3 + n - lead - trail


def test_frame_records_byte_length_of_wide_views():
    view = memoryview(array("I", [0, 7, 0, 9]))
    frame = encode_frame(ZERO_RLE, view)
    assert int.from_bytes(frame[1:5], "little") == 16
    assert decode_frame(frame) == view.tobytes()


def test_is_zero_on_wide_views():
    assert is_zero(memoryview(array("I", [0, 0, 0])))
    assert not is_zero(memoryview(array("I", [0, 1 << 24, 0])))


# -- cross-path identity -------------------------------------------------------


def _delta_mix() -> list[bytes]:
    """Dense, dense-but-RLE-wins, dense-at-threshold, sparse, holed."""
    rng = np.random.default_rng(11)
    dense = rng.integers(1, 256, BS, dtype=np.uint8)
    kept = dense.copy()
    kept[:3] = 0
    kept[-2:] = 0  # RLE 1 + 2 + 507 bytes beats raw 512
    edge = dense.copy()
    edge[:2] = 0
    edge[-1:] = 0  # RLE 1 + 2 + 509 bytes ties raw: ships raw
    sparse = np.zeros(BS, dtype=np.uint8)
    sparse[40:60] = rng.integers(1, 256, 20, dtype=np.uint8)
    sparse[300] = 9
    holed = dense.copy()
    holed[100:120] = 0
    return [d.tobytes() for d in (dense, kept, edge, sparse, holed)]


def _writes() -> tuple[list[bytes], list[bytes]]:
    """Two rounds over LBAs 0..4: random old blocks, then old ^ delta."""
    rng = np.random.default_rng(3)
    olds = [rng.integers(0, 256, BS, dtype=np.uint8).tobytes() for _ in range(5)]
    news = [
        (np.frombuffer(o, np.uint8) ^ np.frombuffer(d, np.uint8)).tobytes()
        for o, d in zip(olds, _delta_mix())
    ]
    return olds, news


def _expected_frames() -> list[bytes]:
    olds, _ = _writes()
    return [encode_frame(ZERO_RLE, d) for d in olds + _delta_mix()]


class _Recorder(ReplicaLink):
    """Forwards every submission, keeping each record's frame."""

    def __init__(self, inner: ReplicaLink, frames: list) -> None:
        self._inner = inner
        self._frames = frames

    def submit(self, work):
        self._frames.extend(record.frame for _lba, record in work.records())
        return self._inner.submit(work)


def _mirror_engine(frames: list, batched: bool = False) -> PrimaryEngine:
    strategy = make_strategy("prins")
    replica = ReplicaEngine(MemoryBlockDevice(BS, 8), strategy)
    return PrimaryEngine(
        MemoryBlockDevice(BS, 8),
        strategy,
        [_Recorder(DirectLink(replica), frames)],
        batch=BatchConfig(max_records=16, max_bytes=1 << 20) if batched else None,
    )


def test_delta_mix_covers_raw_and_rle_frames():
    codec_ids = [frame[0] for frame in _expected_frames()[5:]]
    assert codec_ids == [0, 1, 0, 1, 1]


def test_every_mirror_path_emits_identical_frames():
    expected = _expected_frames()
    for use_many in (False, True):
        for batched in (False, True):  # batched: frames come from flush_batch
            frames: list[bytes] = []
            engine = _mirror_engine(frames, batched)
            for blocks in _writes():
                if use_many:
                    engine.write_many(list(enumerate(blocks)))
                else:
                    for lba, data in enumerate(blocks):
                        engine.write_block(lba, data)
                engine.flush_batch()
            assert frames == expected, (use_many, batched)
    assert max(len(frame) for frame in expected) <= FRAME_OVERHEAD + BS


def test_resync_record_and_worker_pool_emit_identical_frames():
    olds, news = _writes()
    expected = _expected_frames()[5:]
    engine = _mirror_engine([])
    assert [
        engine._resync_record(lba, new, old).frame
        for lba, (new, old) in enumerate(zip(news, olds))
    ] == expected
    deltas = [
        make_strategy("prins").make_update(new, old)
        for new, old in zip(news, olds)
    ]
    assert deltas == _delta_mix()
    with CodecWorkerPool(worker_count=1, ring_slots=2, block_size=BS) as pool:
        assert pool.encode_frames(ZERO_RLE, deltas) == expected


def test_erasure_fragments_emit_identical_frames():
    per_holder: dict[int, list[bytes]] = {}
    config = ReplicationConfig(
        redundancy="erasure", k=4, n=6, block_size=BS, num_blocks=8
    )
    stack = open_primary(
        config,
        link_factory=lambda i, base: _Recorder(base, per_holder.setdefault(i, [])),
    )
    olds, news = _writes()
    with stack:
        for blocks in (olds, news):
            for lba, data in enumerate(blocks):
                stack.engine.write_block(lba, data)
        stack.drain()
        stripe = stack.engine.stripe_codec
    expected: dict[int, list[bytes]] = {j: [] for j in range(stripe.n)}
    for delta in olds + _delta_mix():
        for j, fragment in enumerate(stripe.encode(delta)):
            if not is_zero(fragment):
                expected[j].append(encode_frame(ZERO_RLE, fragment))
    assert per_holder == expected
    frag_size = BS // stripe.k
    assert max(len(f) for fs in per_holder.values() for f in fs) <= (
        FRAME_OVERHEAD + frag_size
    )
    assert {f[0] for fs in per_holder.values() for f in fs} == {0, 1}
