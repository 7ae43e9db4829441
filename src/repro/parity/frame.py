"""Self-describing encoded frame.

Every payload a PRINS engine ships is wrapped in a tiny frame recording
which codec produced it and the original (decoded) length, so a replica can
decode without out-of-band configuration and the traffic accountant can
charge exact on-wire bytes.

Frame layout (little-endian)::

    uint8   codec_id
    uint32  original_length   (the data's length in bytes)
    bytes   payload

Stored fallback: when the codec's payload would be at least as long as the
data, the frame carries the data itself under the raw codec (id 0).  So no
frame exceeds ``FRAME_OVERHEAD`` plus the data's length, on every path that
frames (per-write, windows, worker pool, erasure fragments, resync, CDP
log).  A raw frame means "this payload is the data": inside a PRINS stream
the data is a parity delta, and the replica XOR-applies it like any other
(:func:`decode_frame_xor_into`); baseline replicas overwrite the block.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.common.errors import CodecError
from repro.parity.codecs import _REGISTRY, Buffer, Codec, get_codec
from repro.parity.raw import RAW

_HEADER = struct.Struct("<BI")

#: bytes of frame overhead added on top of the codec payload
FRAME_OVERHEAD = _HEADER.size


def encode_frame(codec: Codec, data: Buffer) -> bytes:
    """Encode ``data`` with ``codec`` and wrap it in a frame.

    Falls back to a raw frame of ``data`` when the codec does not shrink
    it, so the frame is at most ``FRAME_OVERHEAD`` bytes over the data.
    """
    n = len(data) if isinstance(data, (bytes, bytearray)) else memoryview(data).nbytes
    payload = codec.encode_below(data)
    if payload is None:
        return _HEADER.pack(RAW.codec_id, n) + data
    return _HEADER.pack(codec.codec_id, n) + payload


def encode_frames(codec: Codec, datas: "list[Buffer]") -> list[bytes]:
    """Encode a window of deltas into frames; maps :func:`encode_frame`."""
    return [encode_frame(codec, data) for data in datas]


def decode_frame(frame: bytes) -> bytes:
    """Decode a frame produced by :func:`encode_frame`."""
    if len(frame) < _HEADER.size:
        raise CodecError(f"frame too short ({len(frame)} bytes)")
    codec_id, original_length = _HEADER.unpack_from(frame, 0)
    codec = get_codec(codec_id)
    return codec.decode(frame[_HEADER.size :], original_length)


def _frame_target(
    frame: bytes, out: Union[bytearray, memoryview]
) -> tuple[Codec, bytes, memoryview]:
    """Validate a frame against a writable target; return codec + payload.

    Runs on every replica apply, so the target view and the codec lookup
    are inlined rather than called.
    """
    if len(frame) < _HEADER.size:
        raise CodecError(f"frame too short ({len(frame)} bytes)")
    codec_id, original_length = _HEADER.unpack_from(frame, 0)
    view = (out if isinstance(out, memoryview) else memoryview(out)).cast("B")
    if view.nbytes != original_length:
        raise CodecError(
            f"frame decodes to {original_length} bytes but the target "
            f"buffer holds {view.nbytes}"
        )
    codec = _REGISTRY.get(codec_id)
    if codec is None:
        codec = get_codec(codec_id)  # raises the unknown-codec error
    return codec, frame[_HEADER.size :], view


def decode_frame_into(frame: bytes, out: Union[bytearray, memoryview]) -> None:
    """Decode a frame directly into the writable buffer ``out``.

    ``out`` must be exactly the frame's ``original_length``; it is fully
    overwritten.  Sparse codecs scatter their segments straight into the
    target instead of materializing an intermediate block.
    """
    codec, payload, view = _frame_target(frame, out)
    codec.decode_into(payload, view)


def decode_frame_xor_into(
    frame: bytes, out: Union[bytearray, memoryview]
) -> None:
    """XOR a frame's decoded delta into ``out`` in place.

    The replica-side Eq. 2 fast path: with ``out`` holding ``A_old`` this
    leaves ``A_new`` in place, touching only the changed spans for sparse
    codecs.
    """
    codec, payload, view = _frame_target(frame, out)
    codec.decode_xor_into(payload, view)


def best_frame(codecs: list[Codec], data: bytes) -> bytes:
    """Encode ``data`` with every codec in ``codecs`` and keep the smallest.

    A cheap form of the adaptive encoding real WAN optimizers use; exposed
    for the codec ablation benchmark.
    """
    if not codecs:
        raise ValueError("best_frame needs at least one codec")
    return min((encode_frame(c, data) for c in codecs), key=len)
