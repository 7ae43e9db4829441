"""Protocol data units.

Every PDU carries a 48-byte Basic Header Segment (BHS) followed by an
optional data segment, mirroring real iSCSI framing (RFC 3720 uses the same
48-byte BHS).  Field layout (little-endian; real iSCSI is big-endian, the
distinction is irrelevant to byte counts)::

    offset  size  field
    0       1     opcode
    1       1     flags
    2       2     status / reserved
    4       4     initiator task tag (ITT)
    8       8     LBA (SCSI CDB logical block address)
    16      4     transfer length in blocks (SCSI CDB)
    20      4     data segment length
    24      8     sequence number (CmdSN / StatSN)
    32      8     trace id (causal context; 0 = tracing off)
    40      8     parent span id (causal context; 0 = tracing off)

The vendor-specific :attr:`Opcode.REPL_DATA_OUT` carries PRINS replication
frames; everything else is standard command traffic.

The trailing 16 bytes were reserved padding through PR 6; they now carry
the optional :mod:`repro.obs.dist` trace context.  Both fields default
to zero, and zero is exactly what the old ``16x`` padding wrote — so
with tracing off (the default) every packed PDU is byte-identical to the
previous wire format, and the paper-figure byte counts stay pinned.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ProtocolError

BHS_SIZE = 48
_BHS = struct.Struct("<BBHIQIIQQQ")

#: initial size of a :class:`FrameBuffer`; it grows to the largest PDU seen
_FRAME_CAPACITY = 16 * 1024


class Opcode(enum.IntEnum):
    """PDU opcodes (initiator→target even, target→initiator odd)."""

    LOGIN_REQUEST = 0x03
    LOGIN_RESPONSE = 0x23
    SCSI_COMMAND = 0x01
    SCSI_RESPONSE = 0x21
    SCSI_DATA_IN = 0x25
    SCSI_DATA_OUT = 0x05
    NOP_OUT = 0x00
    NOP_IN = 0x20
    LOGOUT_REQUEST = 0x06
    LOGOUT_RESPONSE = 0x26
    REPL_DATA_OUT = 0x1C  # vendor-specific: PRINS replication frame
    REPL_ACK = 0x3C  # vendor-specific: replica acknowledgement
    REPL_BATCH_OUT = 0x1E  # vendor-specific: multi-segment PRINS batch
    REPL_BATCH_ACK = 0x3E  # vendor-specific: batch acknowledgement


#: wire byte -> member; a dict lookup instead of ``Enum.__call__`` per PDU
_OPCODES: dict[int, Opcode] = {int(op): op for op in Opcode}


class ScsiOp(enum.IntEnum):
    """The two SCSI operations the targets serve (encoded in ``flags``)."""

    READ = 0x28
    WRITE = 0x2A


class Status(enum.IntEnum):
    """Response status codes."""

    GOOD = 0x00
    CHECK_CONDITION = 0x02
    LOGIN_REJECT = 0x10
    INVALID_LBA = 0x11
    PROTOCOL_VIOLATION = 0x12


@dataclass(slots=True)
class Pdu:
    """One protocol data unit: 48-byte header plus data segment."""

    opcode: Opcode
    flags: int = 0
    status: int = 0
    itt: int = 0
    lba: int = 0
    transfer_length: int = 0
    seq: int = 0
    trace_id: int = 0
    parent_span: int = 0
    data: bytes = field(default=b"", repr=False)

    @property
    def wire_size(self) -> int:
        """Total bytes this PDU occupies on the wire."""
        return BHS_SIZE + len(self.data)

    def pack(self) -> bytes:
        """Serialize to wire format: the header is packed once, joined once."""
        data = self.data
        header = _BHS.pack(
            self.opcode,
            self.flags,
            self.status,
            self.itt,
            self.lba,
            self.transfer_length,
            len(data),
            self.seq,
            self.trace_id,
            self.parent_span,
        )
        return header + data if data else header

    @classmethod
    def parse(
        cls, buf: "bytes | memoryview", start: int, end: int
    ) -> "tuple[Pdu, int] | None":
        """Parse the PDU at ``buf[start:end]``: ``(pdu, stop)``, or ``None``.

        ``None`` means the bytes so far are a valid but incomplete PDU.
        The data segment is copied out exactly once; the header fields go
        from the struct straight into the constructor.
        """
        if end - start < BHS_SIZE:
            return None
        (
            opcode,
            flags,
            status,
            itt,
            lba,
            xfer,
            data_len,
            seq,
            trace_id,
            parent_span,
        ) = _BHS.unpack_from(buf, start)
        op = _OPCODES.get(opcode)
        if op is None:
            raise ProtocolError(f"unknown opcode {opcode:#04x}")
        body = start + BHS_SIZE
        stop = body + data_len
        if stop > end:
            return None
        data = bytes(buf[body:stop]) if data_len else b""
        return (
            cls(op, flags, status, itt, lba, xfer, seq, trace_id, parent_span, data),
            stop,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "Pdu":
        """Parse a complete PDU from ``raw`` (header + full data segment)."""
        if len(raw) < BHS_SIZE:
            raise ProtocolError(f"BHS must be {BHS_SIZE} bytes, got {len(raw)}")
        parsed = cls.parse(raw, 0, len(raw))
        if parsed is None or parsed[1] != len(raw):
            raise ProtocolError(
                f"data segment is {len(raw) - BHS_SIZE} bytes, the header "
                "declares another length"
            )
        return parsed[0]


class FrameBuffer:
    """Receive-side reassembly: stream bytes in, whole PDUs out.

    The one framing implementation, used by the TCP transport on both
    ends of a session.  :meth:`read` takes the socket's ``recv_into`` and
    returns the next complete PDU, however the bytes were segmented:
    several PDUs coalesced in one segment come out one per call, and a
    PDU split over many segments stays buffered — across a receive
    timeout too — until its last byte arrives.  Underneath, a reader
    fills :meth:`writable`, reports the count to :meth:`wrote` and takes
    PDUs from :meth:`next_pdu`.
    """

    __slots__ = ("_buf", "_view", "_start", "_end")

    def __init__(self, capacity: int = _FRAME_CAPACITY) -> None:
        self._buf = bytearray(max(capacity, BHS_SIZE))
        self._view = memoryview(self._buf)
        self._start = 0  # first byte not yet handed out as a PDU
        self._end = 0  # one past the last byte received

    def read(self, recv_into: "Callable[[Any], int]") -> Pdu | None:
        """The next complete PDU, received with ``recv_into`` as needed.

        Returns ``None`` when ``recv_into`` reports end of stream first.
        The common case — an empty buffer and a PDU that arrives whole in
        one segment — is one ``recv_into`` into the buffer and one parse;
        anything else takes the general loop.  Exceptions from
        ``recv_into`` (a timeout) leave the buffered bytes in place.
        """
        if not self._end:
            count = recv_into(self._buf)
            if not count:
                return None
            self._end = count
            parsed = Pdu.parse(self._view, 0, count)
            if parsed is not None:
                pdu, stop = parsed
                if stop == count:
                    self._end = 0
                else:
                    self._start = stop  # more PDUs came in the same segment
                return pdu
        pdu = self.next_pdu()
        while pdu is None:
            count = recv_into(self.writable())
            if not count:
                return None
            self.wrote(count)
            pdu = self.next_pdu()
        return pdu

    def next_pdu(self) -> Pdu | None:
        """Remove and return the next complete PDU, or ``None`` if partial."""
        if not self._end:
            return None
        parsed = Pdu.parse(self._view, self._start, self._end)
        if parsed is None:
            return None
        pdu, stop = parsed
        if stop == self._end:
            self._start = self._end = 0
        else:
            self._start = stop
        return pdu

    def writable(self, room: int = 1) -> "memoryview | bytearray":
        """Free space to receive into: ``room`` bytes at least, and enough
        for the rest of the PDU in progress."""
        start, end = self._start, self._end
        size = len(self._buf)
        if end == 0 and room <= size:
            return self._buf  # empty: the common case, nothing to slice
        have = end - start
        need = have + room
        if have >= BHS_SIZE:
            need = max(need, BHS_SIZE + _BHS.unpack_from(self._buf, start)[6])
        if start + need > size:
            if need > size:
                grown = bytearray(max(need, 2 * size))
                grown[:have] = self._view[start:end]
                self._view.release()
                self._buf, self._view = grown, memoryview(grown)
            else:
                # slide the partial PDU to the front to reclaim the space
                self._view[:have] = self._view[start:end]
            self._start, self._end = 0, have
            end = have
        return self._view[end:]

    def wrote(self, count: int) -> None:
        """Account ``count`` bytes received into :meth:`writable`."""
        self._end += count
