"""Transports: byte-counting PDU pipes.

Two implementations share one interface: :class:`InProcessTransport` (a pair
of queues, used by the traffic experiments where thousands of engines would
make real sockets needlessly slow) and :class:`TcpTransport` (a real TCP
socket, used by the networked examples and integration tests so the
protocol is exercised end-to-end over the loopback interface exactly as the
paper ran it over Ethernet).

Every transport counts bytes in both directions; the replication traffic
numbers in the figure benchmarks come straight from these counters.
"""

from __future__ import annotations

import queue
import socket
from abc import ABC, abstractmethod

from repro.common.errors import ProtocolError
from repro.iscsi.pdu import BHS_SIZE, FrameBuffer, Pdu


class Transport(ABC):
    """A bidirectional, ordered, reliable PDU pipe with byte accounting.

    A transport can additionally feed the telemetry subsystem
    (:meth:`bind_telemetry`): sent PDUs then emit ``transport.send`` spans
    and aggregate ``transport.*`` counters plus a PDU-size histogram in
    the bound registry.  Counters are registry-wide aggregates shared by
    every transport bound to the same telemetry — matching how the paper
    reports wire totals, not per-socket numbers.
    """

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.pdus_sent = 0
        self.pdus_received = 0
        #: live telemetry, or ``None``: unbound transports touch no instrument
        self._telemetry = None

    def bind_telemetry(self, telemetry) -> None:
        """Route this transport's counters/spans into ``telemetry``."""
        if not telemetry.enabled:
            self._telemetry = None
            return
        self._telemetry = telemetry
        self._tx_bytes = telemetry.counter("transport.bytes_sent")
        self._rx_bytes = telemetry.counter("transport.bytes_received")
        self._tx_pdus = telemetry.counter("transport.pdus_sent")
        self._rx_pdus = telemetry.counter("transport.pdus_received")
        self._pdu_hist = telemetry.histogram("transport.sent_pdu_bytes")

    def send(self, pdu: Pdu) -> None:
        """Send one PDU."""
        raw = pdu.pack()
        size = len(raw)
        if self._telemetry is None:
            self._send_raw(raw)
        else:
            with self._telemetry.span("transport.send", bytes=size):
                self._send_raw(raw)
            self._tx_bytes.inc(size)
            self._tx_pdus.inc()
            self._pdu_hist.record(size)
        self.bytes_sent += size
        self.pdus_sent += 1

    def receive(self, timeout: float | None = None) -> Pdu:
        """Block until the next PDU arrives and return it.

        Raises :class:`TransportClosedError` when the peer has closed.
        """
        pdu = self._receive_pdu(timeout)
        size = BHS_SIZE + len(pdu.data)
        self.bytes_received += size
        self.pdus_received += 1
        if self._telemetry is not None:
            self._rx_bytes.inc(size)
            self._rx_pdus.inc()
        return pdu

    @abstractmethod
    def _send_raw(self, raw: bytes) -> None:
        """Ship serialized bytes to the peer."""

    @abstractmethod
    def _receive_pdu(self, timeout: float | None) -> Pdu:
        """Return the next PDU from the peer."""

    @abstractmethod
    def close(self) -> None:
        """Tear down the pipe; the peer's next receive raises."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TransportClosedError(ProtocolError):
    """Raised when receiving on (or sending to) a closed transport."""


class InjectedTransportError(ProtocolError):
    """The error raised for injected transport (PDU pipe) failures."""

    def __init__(self, kind: str) -> None:
        super().__init__(f"injected transport {kind}")
        self.kind = kind


class FlakyTransport(Transport):
    """Fault-injecting decorator around another transport.

    The PDU-level sibling of :class:`~repro.engine.resilience.FaultyLink`:
    it drops, errors, or duplicates *sent* PDUs so the full iSCSI path
    (initiator → target → replication handler) can be exercised under
    network faults.  A dropped PDU is silently discarded — the peer sees
    nothing and the sender's next ``receive`` times out, exactly how loss
    manifests on a real socket.  Byte counters on this wrapper reflect what
    the application *tried* to send; the inner transport is bypassed for
    dropped PDUs.
    """

    def __init__(
        self,
        inner: Transport,
        drop_probability: float = 0.0,
        error_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        rng=None,
    ) -> None:
        super().__init__()
        for name, p in (
            ("drop", drop_probability),
            ("error", error_probability),
            ("duplicate", duplicate_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"{name}_probability must be in [0, 1], got {p}"
                )
        if drop_probability + error_probability + duplicate_probability > 1.0:
            raise ValueError("fault probabilities must sum to <= 1")
        self._inner = inner
        self._drop_p = drop_probability
        self._error_p = error_probability
        self._duplicate_p = duplicate_probability
        if rng is None:
            from repro.common.rng import make_rng

            rng = make_rng(0, "flaky-transport")
        self._rng = rng
        self._forced: list[str] = []
        self._dead = False
        self.drops = 0
        self.errors = 0
        self.duplicates = 0

    @property
    def inner(self) -> Transport:
        """The wrapped transport."""
        return self._inner

    def fail_next(self, count: int = 1, kind: str = "error") -> None:
        """Force the next ``count`` sends to fail with ``kind``."""
        if kind not in ("drop", "error", "duplicate"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self._forced.extend([kind] * count)

    def kill(self) -> None:
        """Drop every PDU until :meth:`heal` (network partition)."""
        self._dead = True

    def heal(self) -> None:
        """Clear all injected faults."""
        self._dead = False
        self._forced.clear()

    def _draw(self) -> str | None:
        if self._dead:
            return "drop"
        if self._forced:
            return self._forced.pop(0)
        total = self._drop_p + self._error_p + self._duplicate_p
        if total <= 0.0:
            return None
        r = float(self._rng.random())
        if r < self._drop_p:
            return "drop"
        if r < self._drop_p + self._error_p:
            return "error"
        if r < total:
            return "duplicate"
        return None

    def _send_raw(self, raw: bytes) -> None:
        mode = self._draw()
        if mode == "drop":
            self.drops += 1
            return  # peer never sees it; their receive() will time out
        if mode == "error":
            self.errors += 1
            raise InjectedTransportError("send error")
        self._inner._send_raw(raw)
        if mode == "duplicate":
            self.duplicates += 1
            self._inner._send_raw(raw)

    def _receive_pdu(self, timeout: float | None) -> Pdu:
        return self._inner._receive_pdu(timeout)

    def close(self) -> None:
        self._inner.close()


_CLOSE = object()  # sentinel placed on the queue when a peer closes


class InProcessTransport(Transport):
    """One endpoint of an in-memory duplex pipe.

    Build connected pairs with :func:`transport_pair`.  PDUs are serialized
    and re-parsed so framing bugs cannot hide, and byte counts match what a
    socket would carry.
    """

    def __init__(
        self, outbox: "queue.Queue[object]", inbox: "queue.Queue[object]"
    ) -> None:
        super().__init__()
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False

    def _send_raw(self, raw: bytes) -> None:
        if self._closed:
            raise TransportClosedError("transport is closed")
        self._outbox.put(raw)

    def _receive_pdu(self, timeout: float | None) -> Pdu:
        if self._closed:
            raise TransportClosedError("transport is closed")
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("no PDU within timeout") from None
        if item is _CLOSE:
            self._inbox.put(_CLOSE)  # leave the sentinel for other readers
            raise TransportClosedError("peer closed the transport")
        assert isinstance(item, bytes)
        return Pdu.unpack(item)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSE)


def transport_pair() -> tuple[InProcessTransport, InProcessTransport]:
    """Return two connected :class:`InProcessTransport` endpoints."""
    a_to_b: "queue.Queue[object]" = queue.Queue()
    b_to_a: "queue.Queue[object]" = queue.Queue()
    return (
        InProcessTransport(outbox=a_to_b, inbox=b_to_a),
        InProcessTransport(outbox=b_to_a, inbox=a_to_b),
    )


class TcpTransport(Transport):
    """PDU pipe over a connected TCP socket.

    Receives go through one :class:`~repro.iscsi.pdu.FrameBuffer` filled
    by ``recv_into``: a PDU that arrives in one segment costs one
    syscall, and coalesced or split segments parse the same way.  The
    socket's timeout is changed only when a receive asks for a different
    one, so a session with a fixed timeout never touches it again.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = sock.gettimeout()
        self._frames = FrameBuffer()
        self._closed = False

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "TcpTransport":
        """Dial ``host:port`` and wrap the resulting socket."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock)

    def _send_raw(self, raw: bytes) -> None:
        if self._closed:
            raise TransportClosedError("transport is closed")
        try:
            self._sock.sendall(raw)
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from exc

    def _receive_pdu(self, timeout: float | None) -> Pdu:
        if self._closed:
            raise TransportClosedError("transport is closed")
        frames = self._frames
        try:
            pdu = frames.next_pdu()
            if pdu is None and timeout != self._timeout:
                self._sock.settimeout(timeout)
                self._timeout = timeout
            while pdu is None:
                count = self._sock.recv_into(frames.writable())
                if not count:
                    raise TransportClosedError("peer closed the connection")
                frames.wrote(count)
                pdu = frames.next_pdu()
        except TimeoutError:
            # whatever part of a PDU arrived stays in the frame buffer
            raise TimeoutError("no PDU within timeout") from None
        except OSError as exc:
            raise TransportClosedError(f"receive failed: {exc}") from exc
        return pdu

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
