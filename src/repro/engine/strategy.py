"""Replication strategies: traditional, compressed, and PRINS.

A strategy answers two questions: *what bytes does a write put on the
wire?* (``encode_update``, at the primary) and *how does a replica turn
those bytes back into the new block?* (``apply_update``).  The frame
produced by ``encode_update`` is self-describing
(:mod:`repro.parity.frame`), so ``apply_update`` is strategy-agnostic at
the codec level; what differs is whether the frame holds the block itself
or a parity delta that must be XORed with the replica's old block.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from typing import Union

from repro.common.buffers import is_zero, xor_blocks_pairwise, xor_reduce_blocks
from repro.common.errors import ConfigurationError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.parity.codecs import Buffer, Codec, get_codec
from repro.parity.delta import backward_parity, forward_parity
from repro.parity.frame import (
    decode_frame,
    decode_frame_into,
    decode_frame_xor_into,
    encode_frame,
    encode_frames,
)


class ReplicationStrategy(ABC):
    """Policy for turning a block write into replication wire bytes."""

    #: short name used in reports, figures, and the CLI
    name: str = "abstract"
    #: True if ``apply_update`` needs the replica's old block contents
    needs_old_data: bool = False
    #: the codec every frame is encoded with; each strategy sets it
    _codec: Codec
    #: telemetry handle (null by default); set via :meth:`bind_telemetry`
    telemetry = NULL_TELEMETRY
    #: whether the encode paths open spans, and ``write.delta`` fine
    #: spans; decided once per :meth:`bind_telemetry`
    _live = False
    _fine = False
    #: optional :class:`~repro.engine.workers.CodecWorkerPool`; when bound,
    #: windowed encodes scatter across worker processes instead of running
    #: on the caller's thread.  Set via :meth:`bind_codec_pool`.
    codec_pool = None

    def bind_codec_pool(self, pool) -> None:
        """Route windowed encodes through a process worker pool.

        Single-block :meth:`encode_payload` calls stay inline — a
        process round-trip per synchronous write would add latency for
        nothing — so only the vectorized window paths
        (:meth:`encode_payloads`, reached from ``write_many`` and the
        batcher's flush) fan out.  Frame bytes are identical either way.
        """
        self.codec_pool = pool

    def _encode_window(self, payloads: Sequence[bytes]) -> list[bytes]:
        """Frame a flush window: worker pool when bound, else one codec pass."""
        datas = list(payloads)
        if self.codec_pool is not None:
            return self.codec_pool.encode_frames(self._codec, datas)
        return encode_frames(self._codec, datas)

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry handle so encode stages emit spans.

        Called by :class:`~repro.engine.primary.PrimaryEngine` on
        construction; also rebinds the strategy's codec when it supports
        per-stage timing (:class:`~repro.parity.pipeline.PipelineCodec`).
        """
        self.telemetry = telemetry
        self._live = telemetry.enabled
        self._fine = self._live and telemetry.tracer.detail
        codec = getattr(self, "_codec", None)
        bind = getattr(codec, "bind_telemetry", None)
        if bind is not None:
            bind(telemetry)

    @abstractmethod
    def make_update(
        self,
        new_data: Buffer,
        old_data: Buffer,
        raid_delta: bytes | None = None,
    ) -> bytes | None:
        """Return the pre-encoding update payload for this write, or None to skip.

        The payload is the *mergeable* form of the write: a parity delta
        for PRINS (Eq. 1), the full block for the baseline strategies.
        ``raid_delta`` is the free ``P'`` term from a RAID small-write, when
        the primary's device provides one (see
        :meth:`repro.raid.parity_base.ParityArrayBase.write_block_with_delta`).
        ``None`` means the write changed nothing worth replicating.
        """

    def make_updates(
        self,
        new_datas: Sequence[Buffer],
        old_datas: Sequence[Buffer],
    ) -> list[bytes | None]:
        """Batch form of :meth:`make_update` for a whole flush window.

        ``old_datas`` must align with ``new_datas`` (pass ``b""`` entries
        for strategies that ignore old data).  The default loops; delta
        strategies override to compute every forward parity in one
        vectorized pass (:func:`repro.common.buffers.xor_blocks_pairwise`).
        """
        return [
            self.make_update(new, old)
            for new, old in zip(new_datas, old_datas)
        ]

    def encode_payload(self, payload: bytes) -> bytes:
        """Encode a :meth:`make_update` payload into a self-describing frame.

        The strategy's codec encodes it; a payload the codec does not
        shrink ships as a raw frame (:func:`~repro.parity.frame.encode_frame`).
        With live telemetry this runs in a ``write.encode`` span, started
        and ended here without a ``with``.
        """
        if not self._live:
            return encode_frame(self._codec, payload)
        span = self.telemetry.span("write.encode")
        try:
            frame = encode_frame(self._codec, payload)
        except BaseException as exc:
            span.end(type(exc))
            raise
        span.end()
        return frame

    def encode_payloads(self, payloads: Sequence[bytes]) -> list[bytes]:
        """Batch form of :meth:`encode_payload`: frame a whole window.

        One codec pass (through the worker pool when bound), in one
        ``write.encode`` span when telemetry is live.
        """
        if not self._live:
            return self._encode_window(payloads)
        with self.telemetry.span(
            "write.encode", codec=self._codec.name, batch=len(payloads)
        ):
            return self._encode_window(payloads)

    def encode_update(
        self,
        new_data: Buffer,
        old_data: Buffer,
        raid_delta: bytes | None = None,
    ) -> bytes | None:
        """Return the frame to ship for this write, or None to skip.

        Equivalent to :meth:`encode_payload` over :meth:`make_update`; the
        two halves are exposed separately so the batching layer
        (:mod:`repro.engine.batch`) can merge same-LBA payloads *before*
        paying the encoding cost.
        """
        payload = self.make_update(new_data, old_data, raid_delta=raid_delta)
        if payload is None:
            return None
        return self.encode_payload(payload)

    def merge_updates(self, payloads: Sequence[bytes]) -> bytes:
        """Coalesce same-LBA update payloads, oldest first, into one.

        Default: last-writer-wins — correct for any strategy whose payload
        is the full block.  :class:`PrinsStrategy` overrides with XOR
        composition (deltas compose: ``P'₁ ⊕ P'₂`` is a valid delta
        against the replica's original block).
        """
        if not payloads:
            raise ValueError("merge_updates needs at least one payload")
        return payloads[-1]

    def update_is_noop(self, payload: bytes) -> bool:
        """True if shipping ``payload`` would leave the replica unchanged.

        Only delta-shipping strategies can detect this (an all-zero merged
        delta); full-block strategies always return False.
        """
        del payload
        return False

    @abstractmethod
    def apply_update(self, frame: bytes, old_data: bytes | None) -> bytes:
        """Invert :meth:`encode_update` at the replica; returns the new block."""

    def apply_update_into(
        self, frame: bytes, block: Union[bytearray, memoryview]
    ) -> None:
        """In-place form of :meth:`apply_update` for the replica fast path.

        ``block`` must hold ``A_old`` on entry when :attr:`needs_old_data`
        is set (otherwise its contents are arbitrary — the replica reuses
        its scratch block — and every byte must be overwritten) and holds
        ``A_new`` on exit.
        The default round-trips through :meth:`apply_update`; strategies
        override to scatter the decoded frame directly — for PRINS only
        the changed spans of the block are ever touched (Eq. 2 applied
        segment-wise), so apply cost tracks dirtiness, not block size.
        """
        view = block if isinstance(block, memoryview) else memoryview(block)
        old = bytes(view) if self.needs_old_data else None
        view[:] = self.apply_update(frame, old)


class FullBlockStrategy(ReplicationStrategy):
    """The paper's *traditional replication*: ship every changed block whole."""

    name = "traditional"
    needs_old_data = False

    def __init__(self) -> None:
        self._codec = get_codec("raw")

    def make_update(
        self,
        new_data: Buffer,
        old_data: Buffer,
        raid_delta: bytes | None = None,
    ) -> bytes | None:
        """The update payload is the new block itself (no delta, no skip)."""
        del old_data, raid_delta
        return new_data if isinstance(new_data, bytes) else bytes(new_data)

    def apply_update(self, frame: bytes, old_data: bytes | None) -> bytes:
        """Unwrap the shipped block; ``old_data`` is not needed."""
        return decode_frame(frame)

    def apply_update_into(
        self, frame: bytes, block: Union[bytearray, memoryview]
    ) -> None:
        """Scatter the shipped block straight into ``block``."""
        decode_frame_into(frame, block)


class CompressedBlockStrategy(ReplicationStrategy):
    """*Traditional replication with data compression*: zlib over the block."""

    name = "compressed"
    needs_old_data = False

    def __init__(self, codec: Codec | str = "zlib") -> None:
        self._codec = get_codec(codec) if isinstance(codec, str) else codec

    def make_update(
        self,
        new_data: Buffer,
        old_data: Buffer,
        raid_delta: bytes | None = None,
    ) -> bytes | None:
        """The update payload is the new block (compression happens at encode)."""
        del old_data, raid_delta
        return new_data if isinstance(new_data, bytes) else bytes(new_data)

    def apply_update(self, frame: bytes, old_data: bytes | None) -> bytes:
        """Decompress the shipped block; ``old_data`` is not needed."""
        return decode_frame(frame)

    def apply_update_into(
        self, frame: bytes, block: Union[bytearray, memoryview]
    ) -> None:
        """Decompress the shipped block straight into ``block``."""
        decode_frame_into(frame, block)


class PrinsStrategy(ReplicationStrategy):
    """PRINS: ship the encoded parity delta ``P' = A_new XOR A_old``.

    When the primary runs RAID-4/5, ``raid_delta`` arrives precomputed by
    the array's small-write path and the forward parity computation costs
    nothing extra (Sec. 1: "does not introduce additional overhead").
    Otherwise the strategy computes it from ``old_data``.

    ``skip_unchanged`` suppresses replication of writes whose delta is all
    zeros (the application rewrote identical bytes) — traditional
    replication cannot detect that case because it never sees ``A_old``.
    """

    name = "prins"
    needs_old_data = True

    def __init__(
        self, codec: Codec | str = "zero-rle", skip_unchanged: bool = True
    ) -> None:
        self._codec = get_codec(codec) if isinstance(codec, str) else codec
        self._skip_unchanged = skip_unchanged

    @property
    def codec(self) -> Codec:
        """The codec applied to parity deltas."""
        return self._codec

    def make_update(
        self,
        new_data: Buffer,
        old_data: Buffer,
        raid_delta: bytes | None = None,
    ) -> bytes | None:
        """Return the parity delta ``P' = A_new XOR A_old`` (paper Eq. 1).

        Uses the precomputed RAID ``raid_delta`` when available; returns
        None when the delta is all zeros and ``skip_unchanged`` is set.
        """
        if raid_delta is not None:
            delta = raid_delta  # P' came free from the RAID small write
        elif not self._fine:
            delta = forward_parity(new_data, old_data)
        else:
            with self.telemetry.fine_span("write.delta"):
                delta = forward_parity(new_data, old_data)
        if self._skip_unchanged and is_zero(delta):
            return None
        return delta

    def make_updates(
        self,
        new_datas: Sequence[Buffer],
        old_datas: Sequence[Buffer],
    ) -> list[bytes | None]:
        """Forward-parity a whole window in one 2-D numpy kernel.

        All the window's Eq. 1 XORs collapse into a single
        :func:`~repro.common.buffers.xor_blocks_pairwise` call, with the
        all-zero (skip) test folded into the same kernel so the hot delta
        is scanned while it is still a live numpy array.
        """
        if not self._live:
            return xor_blocks_pairwise(
                new_datas, old_datas, skip_zero=self._skip_unchanged
            )
        with self.telemetry.span("write.delta", batch=len(new_datas)):
            return xor_blocks_pairwise(
                new_datas, old_datas, skip_zero=self._skip_unchanged
            )

    def merge_updates(self, payloads: Sequence[bytes]) -> bytes:
        """XOR-compose same-LBA parity deltas into one (Eqs. 1–2 compose).

        ``P'₁ ⊕ P'₂ ⊕ …`` is itself a valid delta against the replica's
        original block, so N overwrites of a hot block ship as one delta.
        Vectorized via :func:`repro.common.buffers.xor_reduce_blocks`.
        """
        if not payloads:
            raise ValueError("merge_updates needs at least one payload")
        return xor_reduce_blocks(payloads)

    def update_is_noop(self, payload: bytes) -> bool:
        """A merged all-zero delta means the overwrites cancelled out."""
        return self._skip_unchanged and is_zero(payload)

    def apply_update(self, frame: bytes, old_data: bytes | None) -> bytes:
        """Recover ``A_new = P' XOR A_old`` at the replica (paper Eq. 2)."""
        if old_data is None:
            raise ConfigurationError(
                "PRINS apply_update needs the replica's old block "
                "(was the replica synchronized? see repro.engine.sync)"
            )
        delta = decode_frame(frame)
        return backward_parity(delta, old_data)

    def apply_update_into(
        self, frame: bytes, block: Union[bytearray, memoryview]
    ) -> None:
        """XOR the delta's literal spans into ``block`` in place (Eq. 2).

        ``block`` holds ``A_old`` on entry and ``A_new`` on exit; the
        delta's zero gaps are XOR identities, so neither a decoded delta
        nor an intermediate block copy is ever materialized.
        """
        decode_frame_xor_into(frame, block)


_STRATEGIES = {
    "traditional": FullBlockStrategy,
    "compressed": CompressedBlockStrategy,
    "prins": PrinsStrategy,
}


def make_strategy(name: str, **kwargs: object) -> ReplicationStrategy:
    """Build a strategy by its paper name: traditional / compressed / prins."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]


def strategy_names() -> list[str]:
    """The paper's three strategies, in figure order."""
    return ["traditional", "compressed", "prins"]
