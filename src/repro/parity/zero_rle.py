"""Zero-run-length codec.

"A simple encoding scheme can substantially reduce the size of the parity"
(Sec. 1).  This codec is that simple scheme: it alternates
``(zero_run_length, literal_length, literal_bytes)`` records, exploiting the
fact that a parity delta is zeros everywhere the write did not change the
block.  Run lengths are varint-encoded so a 64 KB block of zeros costs three
bytes.

The encoder is one span scan plus one gather: the ``(start, end)`` pairs
of :func:`repro.common.buffers.span_pairs` at the codec's merge gap (a
dense delta costs one word count there, a sparse one two ``bytes.find``
calls per span), then one ``b"".join`` of varint headers and zero-copy
literal views.  For a one-span (dense) delta the payload size is known
from the span alone, so :meth:`ZeroRleCodec.encode_below` declines a
payload that would not beat the raw block without assembling it, and the
frame layer ships the block raw.  The wire format is unchanged and
byte-identical to the historical loop encoder.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.common.buffers import _NUMPY_CUTOFF, span_pairs
from repro.common.errors import CodecError
from repro.parity.codecs import Buffer, Codec, _writable_view, register_codec

#: single-byte varints (values < 128) precomputed — covers every gap and
#: literal length under 128 bytes with a list index instead of arithmetic
_VARINT1 = [bytes([i]) for i in range(0x80)]

#: memoized multi-byte varints — block-sized gaps and literal lengths repeat
#: heavily across a flush window (every 64 KB delta produces offsets from
#: the same small range), so serving them from a dict beats rebuilding a
#: bytearray per call.  Bounded so adversarial value streams cannot grow it
#: without limit.
_VARINT_CACHE: dict[int, bytes] = {}
_VARINT_CACHE_MAX = 1 << 16


def _varint(value: int) -> bytes:
    """LEB128-style varint as bytes (table- or cache-served when possible)."""
    if value < 0x80:
        return _VARINT1[value]
    cached = _VARINT_CACHE.get(value)
    if cached is not None:
        return cached
    out = bytearray()
    v = value
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    encoded = bytes(out)
    if len(_VARINT_CACHE) < _VARINT_CACHE_MAX:
        _VARINT_CACHE[value] = encoded
    return encoded


def _write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as a LEB128-style varint."""
    out += _varint(value)


def _read_varint(payload: bytes, pos: int) -> tuple[int, int]:
    """Read a varint at ``pos``; return ``(value, new_pos)``.

    The one- and two-byte cases (every gap/length under 16 KB) are
    unrolled; the generic shift loop only runs for longer encodings.
    """
    n = len(payload)
    if pos >= n:
        raise CodecError("truncated varint in zero-RLE payload")
    byte = payload[pos]
    if not byte & 0x80:
        return byte, pos + 1
    if pos + 1 >= n:
        raise CodecError("truncated varint in zero-RLE payload")
    second = payload[pos + 1]
    if not second & 0x80:
        return (byte & 0x7F) | (second << 7), pos + 2
    value = (byte & 0x7F) | ((second & 0x7F) << 7)
    shift = 14
    pos += 2
    while True:
        if pos >= n:
            raise CodecError("truncated varint in zero-RLE payload")
        byte = payload[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long in zero-RLE payload")


class ZeroRleCodec(Codec):
    """Run-length encoding of zero gaps between literal (changed) segments.

    Wire format: repeated ``varint(zero_gap) varint(lit_len) lit_bytes``
    records.  The final zero tail is implicit — decoding pads with zeros to
    ``original_length``.  Literal segments separated by at most
    ``merge_gap`` zero bytes are coalesced (the stray zeros ship as
    literals), which keeps chance zeros inside a changed span from
    fragmenting it into hundreds of records.
    """

    codec_id = 1
    name = "zero-rle"

    def __init__(self, merge_gap: int = 8) -> None:
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be non-negative, got {merge_gap}")
        self._merge_gap = merge_gap

    @property
    def merge_gap(self) -> int:
        """Zero gaps up to this length are encoded as literals."""
        return self._merge_gap

    @staticmethod
    def _assemble(view: memoryview, spans: list[tuple[int, int]]) -> bytes:
        """Gather varint headers and zero-copy literal views in one join.

        Varints are looked up inline: one-byte ones (every gap and length
        under 128) in ``_VARINT1``, longer ones in the memo that
        :func:`_varint` fills, so only a value's first encoding calls it.
        """
        parts: list[Buffer] = []
        append = parts.append
        cached = _VARINT_CACHE.get
        cursor = 0
        for s, e in spans:
            gap = s - cursor  # zeros since last literal
            size = e - s
            append(
                _VARINT1[gap] if gap < 0x80 else cached(gap) or _varint(gap)
            )
            append(
                _VARINT1[size]
                if size < 0x80
                else cached(size) or _varint(size)
            )
            append(view[s:e])
            cursor = e
        return b"".join(parts)

    def encode(self, data: Buffer) -> bytes:
        """Run-length encode the delta's zero gaps (Sec. 2's sparse P').

        One span-detection pass plus one gather: literal segments are
        sliced as zero-copy ``memoryview`` s and joined with their varint
        headers in a single ``b"".join`` (CPython's join accepts buffer
        objects), so no intermediate copy of any literal is made.
        """
        view = memoryview(data).cast("B")  # spans are byte offsets
        return self._assemble(view, span_pairs(view, self._merge_gap))

    def encode_below(self, data: Buffer) -> bytes | None:
        """Encode, or return None when the payload would not beat ``data``.

        A one-span delta sizes its payload as ``varint(s) + varint(L) + L``
        without assembling it — the dense-delta case, where the frame
        layer then ships the block raw.  Skipping that join saves ~3 µs
        of ~8.5 µs for a dense 64 KiB delta (2-core x86 host).
        """
        view = memoryview(data).cast("B")  # spans are byte offsets
        limit = view.nbytes
        spans = span_pairs(view, self._merge_gap)
        if len(spans) == 1:
            s, e = spans[0]
            # a varint of v takes ceil(bit_length / 7) bytes, at least one
            size = ((s.bit_length() + 6) // 7 or 1) + e - s
            size += ((e - s).bit_length() + 6) // 7 or 1
            if size >= limit:
                return None
        payload = self._assemble(view, spans)
        return payload if len(payload) < limit else None

    def decode(self, payload: bytes, original_length: int) -> bytes:
        """Expand zero runs and literals back into the original delta."""
        out = bytearray(original_length)
        self.decode_into(payload, out)
        return bytes(out)

    def decode_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """Scatter literal segments into ``out``; zero the gaps in between.

        Unlike the base implementation this never materializes a full
        intermediate block — each literal lands in its final position and
        the zero gaps are sliced-assigned from a shared zero buffer only
        where the previous contents could be stale.
        """
        view = _writable_view(out)
        original_length = view.nbytes
        pos = 0
        cursor = 0
        while pos < len(payload):
            gap, pos = _read_varint(payload, pos)
            lit_len, pos = _read_varint(payload, pos)
            end = cursor + gap + lit_len
            if end > original_length or pos + lit_len > len(payload):
                raise CodecError("zero-RLE payload overruns declared length")
            if gap:
                view[cursor : cursor + gap] = bytes(gap)
            cursor += gap
            view[cursor:end] = payload[pos : pos + lit_len]
            pos += lit_len
            cursor = end
        if cursor < original_length:
            view[cursor:] = bytes(original_length - cursor)

    def decode_xor_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """XOR only the literal segments into ``out`` (Eq. 2 fast path).

        Zero gaps of the delta are XOR identities, so with ``out`` holding
        ``A_old`` only the changed spans are ever read or written — the
        cost is proportional to the write's dirtiness, not the block size.
        One- and two-byte varints (every gap and length under 16 KiB)
        are read inline; only longer ones call :func:`_read_varint`.  A
        literal under ``_NUMPY_CUTOFF`` bytes is XORed as two
        ``int.from_bytes`` values, below numpy's per-call floor; longer
        ones take one in-place ufunc on numpy views of the target and
        payload, made once per call.  Every record is bounds-checked
        before it is applied, so a payload that breaks off part-way
        raises after applying exactly the records before the break, the
        same ones on every call: applying it twice restores ``out``.
        """
        view = (out if isinstance(out, memoryview) else memoryview(out)).cast("B")
        original_length = view.nbytes
        payload_length = len(payload)
        from_bytes = int.from_bytes
        pos = 0
        cursor = 0
        tv = pv = None
        while pos < payload_length:
            gap = payload[pos]
            if not gap & 0x80:
                pos += 1
            elif pos + 1 < payload_length and not payload[pos + 1] & 0x80:
                gap = (gap & 0x7F) | (payload[pos + 1] << 7)
                pos += 2
            else:
                gap, pos = _read_varint(payload, pos)
            if pos >= payload_length:
                lit_len, pos = _read_varint(payload, pos)  # raises: truncated
            elif not payload[pos] & 0x80:
                lit_len = payload[pos]
                pos += 1
            elif pos + 1 < payload_length and not payload[pos + 1] & 0x80:
                lit_len = (payload[pos] & 0x7F) | (payload[pos + 1] << 7)
                pos += 2
            else:
                lit_len, pos = _read_varint(payload, pos)
            cursor += gap
            end = cursor + lit_len
            lit_end = pos + lit_len
            if end > original_length or lit_end > payload_length:
                raise CodecError("zero-RLE payload overruns declared length")
            if lit_len < _NUMPY_CUTOFF:
                view[cursor:end] = (
                    from_bytes(view[cursor:end], "little")
                    ^ from_bytes(payload[pos:lit_end], "little")
                ).to_bytes(lit_len, "little")
            else:
                if tv is None:
                    tv = np.frombuffer(view, dtype=np.uint8)
                    pv = np.frombuffer(payload, dtype=np.uint8)
                target = tv[cursor:end]
                np.bitwise_xor(target, pv[pos:lit_end], out=target)
            pos = lit_end
            cursor = end


ZERO_RLE = register_codec(ZeroRleCodec())
