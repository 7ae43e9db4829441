"""The ``bytes.find`` span walk and the zero-RLE XOR decoder, at scale.

* ``span_pairs`` (and every wrapper the codecs use) equals the regex
  reference scan of ``test_parity_plan`` for deltas of 1–300 spans at
  512 B, 8 KiB and 64 KiB, with gaps of exactly ``merge_gap`` and
  ``merge_gap + 1`` zeros, at every merge gap from 0 to 16;
* ``ZeroRleCodec.decode_xor_into`` matches a reference copy of its
  earlier, all-numpy loop on multi-byte varints, on literals either side
  of the integer/numpy cutoff, and on every prefix and single-byte
  corruption of valid payloads: it raises exactly when the reference
  does, and leaves the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.buffers import (
    _NUMPY_CUTOFF,
    nonzero_runs,
    nonzero_spans,
    span_pairs,
    xor_into,
)
from repro.common.errors import CodecError
from repro.parity.codecs import _writable_view
from repro.parity.sparse_codec import SparseSegmentCodec
from repro.parity.zero_rle import ZeroRleCodec, _read_varint
from tests.test_parity_plan import _reference_spans

GAPS = range(17)


@st.composite
def many_span_deltas(draw) -> bytes:
    """Up to 300 spans, gaps at the merge boundary, zero or nonzero edges."""
    n = draw(st.sampled_from([512, 8192, 65536]))
    spans = draw(st.integers(1, 300))
    boundary = draw(st.sampled_from(GAPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buf = np.zeros(n, dtype=np.uint8)
    pos = 0 if draw(st.booleans()) else int(rng.integers(1, 40))
    for _ in range(spans):
        if pos >= n:
            break
        length = int(rng.integers(1, 24))
        chunk = buf[pos : pos + length]
        chunk[:] = rng.integers(1, 256, chunk.size, dtype=np.uint8)
        # half the gaps sit exactly on the merge boundary or one past it
        gap = int(rng.choice([boundary, boundary + 1, rng.integers(1, 60)]))
        pos += length + max(gap, 1)
    if draw(st.booleans()):
        buf[-1] = 0xA5  # nonzero last byte
    return buf.tobytes()


@settings(max_examples=60, deadline=None)
@given(many_span_deltas())
def test_span_walk_equals_reference_at_many_spans(data):
    for gap in GAPS:
        expect = _reference_spans(data, gap)
        assert span_pairs(data, gap) == expect
        starts, ends = nonzero_spans(data, merge_gap=gap)
        assert list(zip(starts.tolist(), ends.tolist())) == expect
        runs = [(s, e - s) for s, e in expect]
        assert nonzero_runs(data, gap) == runs
        assert SparseSegmentCodec(merge_gap=gap).segments(data) == runs


# -- decode_xor_into against the earlier loop ---------------------------------


def _reference_decode_xor_into(payload, out) -> None:
    """``ZeroRleCodec.decode_xor_into`` as it was before the integer path.

    Every varint goes through ``_read_varint``; targets of 2048 bytes and
    up XOR each literal with one ufunc on hoisted numpy views, smaller
    ones with :func:`xor_into` per literal.
    """
    view = _writable_view(out)
    original_length = view.nbytes
    payload_length = len(payload)
    pos = 0
    cursor = 0
    if original_length >= 2048:
        tv = np.frombuffer(view, dtype=np.uint8)
        pv = np.frombuffer(payload, dtype=np.uint8)
        while pos < payload_length:
            gap, pos = _read_varint(payload, pos)
            lit_len, pos = _read_varint(payload, pos)
            cursor += gap
            end = cursor + lit_len
            if end > original_length or pos + lit_len > payload_length:
                raise CodecError("zero-RLE payload overruns declared length")
            target = tv[cursor:end]
            np.bitwise_xor(target, pv[pos : pos + lit_len], out=target)
            pos += lit_len
            cursor = end
        return
    while pos < payload_length:
        gap, pos = _read_varint(payload, pos)
        lit_len, pos = _read_varint(payload, pos)
        cursor += gap
        end = cursor + lit_len
        if end > original_length or pos + lit_len > payload_length:
            raise CodecError("zero-RLE payload overruns declared length")
        xor_into(view[cursor:end], payload[pos : pos + lit_len])
        pos += lit_len
        cursor = end


CODEC = ZeroRleCodec()


def _delta(n: int, spans: list[tuple[int, int]], seed: int = 1) -> bytes:
    rng = np.random.default_rng(seed)
    buf = np.zeros(n, dtype=np.uint8)
    for start, length in spans:
        buf[start : start + length] = rng.integers(1, 256, length, dtype=np.uint8)
    return buf.tobytes()


def _outcome(decode, payload, old: bytes):
    """(exception type or None, resulting bytes) of one decode into ``old``."""
    block = bytearray(old)
    try:
        decode(payload, block)
    except CodecError as exc:
        return type(exc), bytes(block)
    return None, bytes(block)


ROUND_TRIPS = {
    # one-byte varints only, small target (the per-literal path before)
    "small": (512, [(0, 3), (20, 5), (200, 40), (500, 12)]),
    # gaps >= 128 and >= 16 384: two- and three-byte varints
    "long-gaps": (65536, [(130, 4), (300, 9), (16_900, 7), (40_000, 2)]),
    # literals either side of the integer/numpy cutoff
    "cutoff": (
        8192,
        [
            (10, _NUMPY_CUTOFF - 1),
            (1000, _NUMPY_CUTOFF),
            (3000, _NUMPY_CUTOFF + 1),
            (7000, 6),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_decode_xor_round_trip_matches_reference(case):
    n, spans = ROUND_TRIPS[case]
    data = _delta(n, spans)
    payload = CODEC.encode(data)
    old = np.random.default_rng(7).integers(0, 256, n, dtype=np.uint8).tobytes()
    expect = (np.frombuffer(old, np.uint8) ^ np.frombuffer(data, np.uint8)).tobytes()
    for buf in (payload, memoryview(payload)):
        assert _outcome(CODEC.decode_xor_into, buf, old) == (None, expect)
        assert _outcome(_reference_decode_xor_into, buf, old) == (None, expect)


def _corruptions(payload: bytes, values) -> "list[bytes]":
    """Every prefix, and ``payload`` with each byte replaced by each value."""
    variants = [payload[:i] for i in range(len(payload))]
    for i, original in enumerate(payload):
        for value in values(original):
            if value != original:
                variants.append(payload[:i] + bytes([value]) + payload[i + 1 :])
    return variants


@pytest.mark.parametrize(
    "n, spans",
    [
        (64, [(0, 2), (5, 1), (30, 3), (60, 4)]),
        (300, [(2, 1), (150, 2), (290, 3)]),
        (4096, [(3, 2), (200, 1), (4000, 5)]),
    ],
)
def test_decode_xor_corruptions_match_reference_every_byte(n, spans):
    """Short payloads: every prefix and every single-byte replacement."""
    payload = CODEC.encode(_delta(n, spans))
    old = np.random.default_rng(11).integers(0, 256, n, dtype=np.uint8).tobytes()
    raised = 0
    for bad in _corruptions(payload, lambda _b: range(256)):
        got = _outcome(CODEC.decode_xor_into, bad, old)
        assert got == _outcome(_reference_decode_xor_into, bad, old), bad
        raised += got[0] is not None
    assert raised  # the sweep reaches the error paths


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_decode_xor_corruptions_match_reference_long_payloads(case):
    """Long payloads: every prefix; every byte flipped to boundary values."""
    n, spans = ROUND_TRIPS[case]
    payload = CODEC.encode(_delta(n, spans))
    old = np.random.default_rng(13).integers(0, 256, n, dtype=np.uint8).tobytes()
    values = lambda b: (0x00, 0x01, 0x7F, 0x80, 0xFF, b ^ 0x80)  # noqa: E731
    for bad in _corruptions(payload, values):
        got = _outcome(CODEC.decode_xor_into, bad, old)
        assert got == _outcome(_reference_decode_xor_into, bad, old)
