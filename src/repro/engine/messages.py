"""Replication record: what one write ships to one replica.

Layout (little-endian)::

    uint64  sequence number (per primary, monotonically increasing)
    uint32  CRC32 of the resulting (new) block, for end-to-end verification
    bytes   parity/data frame (self-describing, see repro.parity.frame)

The LBA travels in the PDU header (:class:`repro.iscsi.pdu.Pdu`), matching
the paper's "results of the forward parity computation are then sent
together with meta-data such as LBA" (Sec. 2).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.common.errors import ReplicationError

_HEADER = struct.Struct("<QI")

#: bytes of record overhead on top of the frame
RECORD_OVERHEAD = _HEADER.size


def split_record(raw: "bytes | memoryview") -> tuple[int, int, memoryview]:
    """Parse wire bytes into ``(seq, block_crc, frame)`` without copying.

    ``frame`` is a view of ``raw`` — the replica decodes straight from the
    received bytes instead of slicing the frame out first.
    """
    if len(raw) < RECORD_OVERHEAD:
        raise ReplicationError(
            f"replication record too short ({len(raw)} bytes)"
        )
    seq, crc = _HEADER.unpack_from(raw, 0)
    return seq, crc, memoryview(raw)[RECORD_OVERHEAD:]


def verify_block_crc(new_block, block_crc: int, seq: int) -> None:
    """Raise unless ``new_block`` has the CRC a record carried end to end."""
    actual = zlib.crc32(new_block)
    if actual != block_crc:
        raise ReplicationError(
            f"applied block CRC {actual:#010x} does not match "
            f"record CRC {block_crc:#010x} (seq {seq})"
        )


@dataclass(frozen=True)
class ReplicationRecord:
    """One replicated write, ready for (or parsed from) the wire."""

    seq: int
    block_crc: int
    frame: bytes
    _packed: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        """Bytes this record occupies on the wire, without serializing."""
        return RECORD_OVERHEAD + len(self.frame)

    def parts(self) -> tuple[bytes, bytes]:
        """Writev-style segment list ``(header, frame)`` for zero-copy framing.

        Callers that assemble a larger message (batch bodies, PDUs) extend
        their own part list with these segments and pay one ``b"".join``
        at the end instead of concatenating per record.
        """
        return _HEADER.pack(self.seq, self.block_crc), self.frame

    def pack(self) -> bytes:
        """Serialize to wire bytes (cached — records are immutable)."""
        packed = object.__getattribute__(self, "_packed")
        if packed is None:
            packed = _HEADER.pack(self.seq, self.block_crc) + self.frame
            object.__setattr__(self, "_packed", packed)
        return packed

    @classmethod
    def unpack(cls, raw: bytes) -> "ReplicationRecord":
        """Parse wire bytes back into a record."""
        seq, crc, frame = split_record(raw)
        return cls(seq=seq, block_crc=crc, frame=bytes(frame))

    @classmethod
    def for_block(cls, seq: int, new_block: bytes, frame: bytes) -> "ReplicationRecord":
        """Build a record, computing the verification CRC of ``new_block``."""
        return cls(seq=seq, block_crc=zlib.crc32(new_block), frame=frame)

    def verify(self, new_block: bytes) -> None:
        """Raise unless ``new_block`` matches the CRC carried in the record."""
        verify_block_crc(new_block, self.block_crc, self.seq)
