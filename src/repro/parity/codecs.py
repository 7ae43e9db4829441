"""Codec interface and registry.

A codec turns a parity delta (or a raw data block, for the baseline
strategies) into an on-wire payload and back.  Codecs are identified by a
single byte so the frame format (:mod:`repro.parity.frame`) stays
self-describing: a replica can decode any frame without out-of-band
configuration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Union

from repro.common.buffers import xor_into
from repro.common.errors import CodecError

#: any C-contiguous buffer-protocol object a codec accepts on its hot path
Buffer = Union[bytes, bytearray, memoryview]


def _writable_view(out: Union[bytearray, memoryview]) -> memoryview:
    """Normalize a decode target to a flat writable byte view."""
    view = out if isinstance(out, memoryview) else memoryview(out)
    return view.cast("B")


class Codec(ABC):
    """Reversible bytes→bytes encoding.

    Implementations must be lossless: ``decode(encode(b), len(b)) == b`` for
    every input.  ``decode`` receives the original length because several
    codecs (zero-RLE, sparse segments) do not store it themselves.

    ``encode`` accepts any buffer-protocol object (``bytes``, ``bytearray``,
    ``memoryview``) so the zero-copy write path can pass views straight
    through; the wire payload is byte-identical regardless of input type.
    """

    #: one-byte wire identifier; unique across registered codecs
    codec_id: int = -1
    #: short human-readable name used in reports and the CLI
    name: str = "abstract"

    @abstractmethod
    def encode(self, data: Buffer) -> bytes:
        """Encode ``data`` into an on-wire payload."""

    @abstractmethod
    def decode(self, payload: bytes, original_length: int) -> bytes:
        """Invert :meth:`encode`; must return exactly ``original_length`` bytes."""

    def encode_many(self, datas: "Sequence[Buffer]") -> list[bytes]:
        """Encode a batch of deltas; equivalent to mapping :meth:`encode`."""
        return [self.encode(d) for d in datas]

    def encode_below(self, data: Buffer) -> bytes | None:
        """Encode ``data``, or return None if the payload is not shorter.

        The frame layer (:func:`repro.parity.frame.encode_frame`) ships
        the data raw on None.  The default encodes and measures; a codec
        that can size its payload before building it overrides to skip
        the build.
        """
        payload = self.encode(data)
        limit = memoryview(data).nbytes
        return payload if len(payload) < limit else None

    def decode_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """Decode ``payload`` directly into the writable buffer ``out``.

        ``out`` must be exactly ``original_length`` bytes and is fully
        overwritten.  The default materializes :meth:`decode` and copies;
        sparse codecs override to scatter segments without building the
        zero-filled intermediate.
        """
        view = _writable_view(out)
        view[:] = self.decode(payload, view.nbytes)

    def decode_xor_into(
        self, payload: bytes, out: Union[bytearray, memoryview]
    ) -> None:
        """XOR the decoded delta into ``out`` in place (``out ^= decode``).

        This is the replica's Eq. 2 fast path: with ``out`` holding
        ``A_old``, the result is ``A_new`` without materializing either the
        full delta or an intermediate copy of the block.  Sparse codecs
        override to XOR only the literal (changed) segments — the zero gaps
        of the delta are XOR no-ops and never touch memory.
        """
        view = _writable_view(out)
        xor_into(view, self.decode(payload, view.nbytes))

    def ratio(self, data: Buffer) -> float:
        """Convenience: encoded size / original size (lower is better)."""
        data = bytes(data)
        if not data:
            return 1.0
        return len(self.encode(data)) / len(data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.codec_id}, name={self.name!r})"


_REGISTRY: dict[int, Codec] = {}
_BY_NAME: dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its ``codec_id`` and ``name``.

    Re-registering the same id with a different codec class is an error;
    registering the identical instance twice is a harmless no-op.
    """
    existing = _REGISTRY.get(codec.codec_id)
    if existing is not None:
        if existing is codec or type(existing) is type(codec):
            return existing
        raise CodecError(
            f"codec id {codec.codec_id} already registered to {existing!r}"
        )
    if not 0 <= codec.codec_id <= 255:
        raise CodecError(f"codec id must fit in one byte, got {codec.codec_id}")
    _REGISTRY[codec.codec_id] = codec
    _BY_NAME[codec.name] = codec
    return codec


def get_codec(key: int | str) -> Codec:
    """Look up a registered codec by numeric id or by name."""
    table: dict = _REGISTRY if isinstance(key, int) else _BY_NAME
    try:
        return table[key]
    except KeyError:
        raise CodecError(f"unknown codec: {key!r}") from None


def available_codecs() -> list[Codec]:
    """Return all registered codecs, ordered by id."""
    return [_REGISTRY[i] for i in sorted(_REGISTRY)]
