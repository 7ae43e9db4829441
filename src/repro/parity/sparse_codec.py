"""Sparse segment codec.

Ships the changed byte ranges of a parity delta as explicit
``(offset, length, bytes)`` segments with fixed 32-bit headers.  Compared to
zero-RLE this trades a slightly larger header per segment for O(1) random
access to segments — the representation the CDP/TRAP parity log stores,
because point-in-time recovery wants to fold deltas without decoding whole
blocks.

Like :mod:`repro.parity.zero_rle`, the encoder is one span scan
(:func:`repro.common.buffers.span_pairs`) plus one ``b"".join`` gather
of headers and zero-copy literal views; the wire format is byte-identical
to the historical loop encoder.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.common.buffers import span_pairs, xor_into
from repro.common.errors import CodecError
from repro.parity.codecs import Buffer, Codec, _writable_view, register_codec

_HEADER = struct.Struct("<II")  # offset, length
_COUNT = struct.Struct("<I")


class SparseSegmentCodec(Codec):
    """Explicit segment-list encoding of nonzero ranges.

    Wire format: ``uint32 segment_count`` then ``segment_count`` records of
    ``uint32 offset, uint32 length, length bytes``.  Adjacent runs separated
    by at most :attr:`merge_gap` zero bytes are merged into one segment to
    amortize the 8-byte header over near-contiguous edits.
    """

    codec_id = 3
    name = "sparse"

    def __init__(self, merge_gap: int = 8) -> None:
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
        self._merge_gap = merge_gap

    @property
    def merge_gap(self) -> int:
        """Runs separated by at most this many zero bytes are merged."""
        return self._merge_gap

    def segments(self, data: Buffer) -> list[tuple[int, int]]:
        """Return the merged ``(offset, length)`` segments for ``data``.

        The merge rule (coalesce spans separated by ``<= merge_gap`` zero
        bytes) is exactly that of :func:`repro.common.buffers.span_pairs`, so
        this is one scan instead of a detect-then-merge Python loop.
        """
        return [(s, e - s) for s, e in span_pairs(data, self._merge_gap)]

    def encode(self, data: Buffer) -> bytes:
        """Emit (offset, length, bytes) segments for each nonzero run."""
        spans = span_pairs(data, self._merge_gap)
        view = data if isinstance(data, memoryview) else memoryview(data)
        parts: list[Buffer] = [_COUNT.pack(len(spans))]
        header = _HEADER.pack
        for s, e in spans:
            parts.append(header(s, e - s))
            parts.append(view[s:e])
        return b"".join(parts)

    def decode(self, payload: bytes, original_length: int) -> bytes:
        """Rebuild the delta by writing each segment into a zero buffer."""
        out = bytearray(original_length)
        self._apply(payload, _writable_view(out), xor=False)
        return bytes(out)

    def decode_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """Scatter segments directly into ``out``, zeroing the gaps."""
        view = _writable_view(out)
        # Segments are emitted in ascending offset order by encode, but the
        # format does not require it; zero the whole target first so any
        # stale bytes between segments are cleared.
        view[:] = bytes(view.nbytes)
        self._apply(payload, view, xor=False)

    def decode_xor_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """XOR only the stored segments into ``out`` (Eq. 2 fast path)."""
        self._apply(payload, _writable_view(out), xor=True)

    def _apply(self, payload: bytes, view: memoryview, *, xor: bool) -> None:
        """Walk the segment list, copying or XORing each into ``view``."""
        original_length = view.nbytes
        if len(payload) < _COUNT.size:
            raise CodecError("sparse payload shorter than its count field")
        (count,) = _COUNT.unpack_from(payload, 0)
        pos = _COUNT.size
        for _ in range(count):
            if pos + _HEADER.size > len(payload):
                raise CodecError("truncated sparse segment header")
            offset, length = _HEADER.unpack_from(payload, pos)
            pos += _HEADER.size
            if offset + length > original_length or pos + length > len(payload):
                raise CodecError("sparse segment overruns declared length")
            if xor:
                xor_into(view[offset : offset + length], payload[pos : pos + length])
            else:
                view[offset : offset + length] = payload[pos : pos + length]
            pos += length


SPARSE = register_codec(SparseSegmentCodec())
