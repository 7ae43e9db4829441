"""The iSCSI target: serves one block device, hooks replication frames.

A :class:`Target` owns the protocol state machine for one session
(security-negotiation-free login → full-feature phase → logout) and
dispatches SCSI READ/WRITE to its LUN.  The vendor-specific
``REPL_DATA_OUT`` opcode is handed to a pluggable handler — the PRINS
replica engine registers itself there, exactly as the paper's PRINS-engine
"runs as a software module inside the iSCSI target" (Sec. 1).

:class:`TargetServer` runs targets for many TCP connections, one thread
per session, so the networked examples can mirror across real sockets.
"""

from __future__ import annotations

import inspect
import logging
import socket
import threading
import time
from collections.abc import Callable

from repro.block.device import BlockDevice
from repro.common.errors import BlockRangeError, ProtocolError
from repro.iscsi.pdu import Opcode, Pdu, ScsiOp, Status
from repro.iscsi.transport import TcpTransport, Transport, TransportClosedError
from repro.obs.dist import context_from_wire

logger = logging.getLogger(__name__)

#: Called with (lba, frame_bytes); returns ack payload (usually empty).
#: Handlers may additionally accept a ``ctx`` keyword — the carried
#: :class:`~repro.obs.dist.TraceContext` — which the target passes when
#: the request PDU brought one; legacy two-argument handlers keep working.
ReplicationHandler = Callable[[int, bytes], bytes]

#: Called with (packed_batch_bytes); returns the batch ack payload.
#: Same optional ``ctx`` keyword convention as :data:`ReplicationHandler`.
BatchHandler = Callable[[bytes], bytes]


def _accepts_ctx(handler) -> bool:
    """True when ``handler`` can take a ``ctx`` keyword argument.

    Decided once at install time (``inspect.signature`` is too slow for
    the per-PDU path); un-introspectable callables count as legacy.
    """
    if handler is None:
        return False
    try:
        signature = inspect.signature(handler)
    except (TypeError, ValueError):
        return False
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "ctx":
            return True
    return False


class Target:
    """Protocol engine for one session against one LUN."""

    def __init__(
        self,
        device: BlockDevice,
        name: str = "iqn.2006-01.edu.uri.hpcl:prins",
        replication_handler: ReplicationHandler | None = None,
        batch_handler: BatchHandler | None = None,
    ) -> None:
        self._device = device
        self._name = name
        self._replication_handler = replication_handler
        self._batch_handler = batch_handler
        self._repl_handler_ctx = _accepts_ctx(replication_handler)
        self._batch_handler_ctx = _accepts_ctx(batch_handler)
        self._logged_in = False
        self._stat_sn = 0

    @property
    def name(self) -> str:
        """The target's IQN-style name."""
        return self._name

    @property
    def device(self) -> BlockDevice:
        """The LUN this target serves."""
        return self._device

    def set_replication_handler(self, handler: ReplicationHandler) -> None:
        """Install the callback invoked for every ``REPL_DATA_OUT`` PDU."""
        self._replication_handler = handler
        self._repl_handler_ctx = _accepts_ctx(handler)

    def set_batch_handler(self, handler: BatchHandler) -> None:
        """Install the callback invoked for every ``REPL_BATCH_OUT`` PDU."""
        self._batch_handler = handler
        self._batch_handler_ctx = _accepts_ctx(handler)

    # -- session loop -------------------------------------------------------

    def serve(self, transport: Transport) -> None:
        """Process PDUs from ``transport`` until logout or disconnect."""
        try:
            while True:
                try:
                    request = transport.receive()
                except TransportClosedError:
                    return
                response = self.handle(request)
                if response is not None:
                    transport.send(response)
                if request.opcode is Opcode.LOGOUT_REQUEST:
                    return
        finally:
            transport.close()

    def handle(self, request: Pdu) -> Pdu | None:
        """Handle a single request PDU; return the response (or None)."""
        self._stat_sn += 1
        handler = _HANDLERS.get(request.opcode)
        if handler is None:
            raise ProtocolError(f"target cannot handle opcode {request.opcode!r}")
        if not self._logged_in and request.opcode is not Opcode.LOGIN_REQUEST:
            return self._respond(
                request, Opcode.SCSI_RESPONSE, status=Status.PROTOCOL_VIOLATION
            )
        return handler(self, request)

    # -- opcode handlers ------------------------------------------------------

    def _handle_login(self, request: Pdu) -> Pdu:
        requested = request.data.decode("utf-8", errors="replace")
        if requested and requested != self._name:
            logger.warning("login rejected: wanted %r, serving %r", requested, self._name)
            return self._respond(
                request, Opcode.LOGIN_RESPONSE, status=Status.LOGIN_REJECT
            )
        self._logged_in = True
        params = (
            f"TargetName={self._name};BlockSize={self._device.block_size};"
            f"NumBlocks={self._device.num_blocks}"
        )
        return self._respond(
            request, Opcode.LOGIN_RESPONSE, data=params.encode("utf-8")
        )

    def _handle_scsi(self, request: Pdu) -> Pdu:
        try:
            op = ScsiOp(request.flags)
        except ValueError:
            raise ProtocolError(f"unknown SCSI op {request.flags:#04x}") from None
        try:
            if op is ScsiOp.READ:
                data = self._device.read_blocks(request.lba, request.transfer_length)
                return self._respond(request, Opcode.SCSI_DATA_IN, data=data)
            self._device.write_blocks(request.lba, request.data)
            return self._respond(request, Opcode.SCSI_RESPONSE)
        except BlockRangeError:
            return self._respond(
                request, Opcode.SCSI_RESPONSE, status=Status.INVALID_LBA
            )

    def _handle_replication(self, request: Pdu) -> Pdu:
        if self._replication_handler is None:
            logger.warning("replication frame received but no handler installed")
            return self._respond(
                request, Opcode.REPL_ACK, status=Status.PROTOCOL_VIOLATION
            )
        if request.trace_id and self._repl_handler_ctx:
            ctx = context_from_wire(request.trace_id, request.parent_span)
            ack_payload = self._replication_handler(request.lba, request.data, ctx=ctx)
        else:
            ack_payload = self._replication_handler(request.lba, request.data)
        return self._respond(request, Opcode.REPL_ACK, data=ack_payload)

    def _handle_batch(self, request: Pdu) -> Pdu:
        if self._batch_handler is None:
            logger.warning("replication batch received but no handler installed")
            return self._respond(
                request, Opcode.REPL_BATCH_ACK, status=Status.PROTOCOL_VIOLATION
            )
        if request.trace_id and self._batch_handler_ctx:
            ctx = context_from_wire(request.trace_id, request.parent_span)
            ack_payload = self._batch_handler(request.data, ctx=ctx)
        else:
            ack_payload = self._batch_handler(request.data)
        return self._respond(request, Opcode.REPL_BATCH_ACK, data=ack_payload)

    def _handle_nop(self, request: Pdu) -> Pdu:
        return self._respond(request, Opcode.NOP_IN, data=request.data)

    def _handle_logout(self, request: Pdu) -> Pdu:
        self._logged_in = False
        return self._respond(request, Opcode.LOGOUT_RESPONSE)

    def _respond(
        self,
        request: Pdu,
        opcode: Opcode,
        status: Status = Status.GOOD,
        data: bytes = b"",
    ) -> Pdu:
        return Pdu(
            opcode=opcode,
            status=int(status),
            itt=request.itt,
            lba=request.lba,
            seq=self._stat_sn,
            data=data,
        )


#: request opcode -> handler, looked up per PDU (built once, not per call)
_HANDLERS = {
    Opcode.LOGIN_REQUEST: Target._handle_login,
    Opcode.SCSI_COMMAND: Target._handle_scsi,
    Opcode.REPL_DATA_OUT: Target._handle_replication,
    Opcode.REPL_BATCH_OUT: Target._handle_batch,
    Opcode.NOP_OUT: Target._handle_nop,
    Opcode.LOGOUT_REQUEST: Target._handle_logout,
}


class TargetServer:
    """TCP server running one :class:`Target` session per connection."""

    def __init__(
        self,
        device: BlockDevice,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "iqn.2006-01.edu.uri.hpcl:prins",
        replication_handler: ReplicationHandler | None = None,
        batch_handler: BatchHandler | None = None,
    ) -> None:
        self._device = device
        self._name = name
        self._replication_handler = replication_handler
        self._batch_handler = batch_handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        # live sessions: (thread, transport) pairs, guarded by _lock so a
        # racing accept and close() never disagree about liveness
        self._sessions: list[tuple[threading.Thread, TcpTransport]] = []
        self._lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._running = False
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is listening on."""
        return self._listener.getsockname()

    @property
    def session_count(self) -> int:
        """Live (unjoined) session threads."""
        with self._lock:
            self._reap_locked()
            return len(self._sessions)

    def start(self) -> "TargetServer":
        """Begin accepting connections in a background thread."""
        if self._closed:
            raise ProtocolError("target server is closed")
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"target-{self._name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            transport = TcpTransport(conn)
            with self._lock:
                if not self._running:
                    # close() won the race: refuse the straggler session
                    transport.close()
                    return
                target = Target(
                    self._device,
                    name=self._name,
                    replication_handler=self._replication_handler,
                    batch_handler=self._batch_handler,
                )
                thread = threading.Thread(
                    target=target.serve,
                    args=(transport,),
                    name=f"session-{self._name}",
                    daemon=True,
                )
                self._reap_locked()
                self._sessions.append((thread, transport))
                thread.start()

    def _reap_locked(self) -> None:
        """Drop finished session threads (holding the lock)."""
        self._sessions = [
            entry for entry in self._sessions if entry[0].is_alive()
        ]

    def close(self, timeout: float = 5.0) -> None:
        """Deterministic shutdown: refuse, sever, and join every session.

        Closes the listening socket (new connects are refused), closes
        each live session's transport (a session blocked in ``receive`` —
        e.g. behind a half-open initiator that never sends another PDU —
        unblocks with :class:`TransportClosedError` and exits), then
        joins the session and accept threads, each bounded by
        ``timeout``.  Idempotent; the server cannot be restarted.
        """
        with self._lock:
            self._running = False
            self._closed = True
            sessions = list(self._sessions)
        # a plain close() does not wake a thread parked in accept() on
        # Linux; shutdown() does.  Platforms that refuse shutdown on a
        # listening socket get a throwaway wake-up connection instead.
        try:
            address = self._listener.getsockname()
        except OSError:
            address = None
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            if address is not None:
                try:
                    socket.create_connection(address[:2], timeout=0.2).close()
                except OSError:
                    pass
        try:
            self._listener.close()
        except OSError:
            pass
        for _thread, transport in sessions:
            transport.close()
        deadline = time.monotonic() + timeout
        for thread, _transport in sessions:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._accept_thread is not None:
            self._accept_thread.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        leaked = [t for t, _ in sessions if t.is_alive()]
        if leaked:
            raise ProtocolError(
                f"{len(leaked)} session thread(s) failed to stop within "
                f"{timeout:.1f}s"
            )
        with self._lock:
            self._sessions = []

    def __enter__(self) -> "TargetServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
