"""Asyncio transport tier: one process, thousands of iSCSI sessions.

The thread-per-connection :class:`~repro.iscsi.target.TargetServer` burns
an OS thread (and its stack) per initiator, which caps how many replica
sessions one node can serve.  This module rebuilds the wire layer on
:mod:`asyncio` streams:

* :class:`AsyncTargetServer` multiplexes every connection on one event
  loop.  Each connection gets its own :class:`~repro.iscsi.target.Target`
  protocol engine — the *same* synchronous state machine the threaded
  server drives, invoked PDU-by-PDU from the reader coroutine — so the
  response bytes are identical to the threaded server's by construction;
* per-connection PDU framing is strictly ordered: one reader coroutine
  feeds whatever the stream delivers into the same
  :class:`~repro.iscsi.pdu.FrameBuffer` the blocking transport receives
  into, takes each whole PDU out of it, then
  writes the response and awaits ``drain()`` — the flow-controlled write
  that turns a slow initiator into backpressure on exactly that session
  instead of unbounded buffering;
* shutdown is cancellation, not abandonment: :meth:`AsyncTargetServer.stop`
  closes the listener, cancels every live session task, and awaits them,
  so no connection outlives the server;
* :class:`AsyncTcpTransport` / :class:`AsyncInitiator` are the client-side
  mirrors, for callers already living on an event loop.

Sync callers (the API facade, tests, benchmarks) host the loop in a
daemon thread via :class:`EventLoopThread`; ``serve_background`` /
``stop_background`` wrap the coroutine round-trips.

Telemetry: accepts emit a ``transport.accept`` span and tick
``transport.accepts`` / the ``transport.sessions`` gauge, so
``prins trace critical`` can attribute connection-setup time; per-PDU
byte counters share the same ``transport.*`` names as the blocking tier.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable

from repro.block.device import BlockDevice
from repro.common.errors import LoginError, ProtocolError
from repro.iscsi.pdu import FrameBuffer, Opcode, Pdu, ScsiOp, Status
from repro.iscsi.target import BatchHandler, ReplicationHandler, Target
from repro.iscsi.transport import TransportClosedError
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "AsyncInitiator",
    "AsyncTargetServer",
    "AsyncTcpTransport",
    "EventLoopThread",
]


class EventLoopThread:
    """An asyncio event loop hosted in a daemon thread.

    Lets synchronous code own asyncio servers: ``run(coro)`` submits a
    coroutine and blocks for its result.  One loop thread can host many
    :class:`AsyncTargetServer` instances — that is exactly the

    single-process multiplexing the tier exists for.
    """

    def __init__(self, name: str = "prins-aio") -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The hosted event loop."""
        return self._loop

    def run(self, coro, timeout: float | None = 30.0):
        """Run ``coro`` on the loop thread and return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._loop.is_closed():
            return
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
        self._loop.close()

    def __enter__(self) -> "EventLoopThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: most bytes taken from the stream per read
_READ_CHUNK = 64 * 1024


async def _read_pdu(reader: asyncio.StreamReader, frames: FrameBuffer) -> Pdu:
    """Next whole PDU of the connection ``frames`` reassembles.

    Bytes of a PDU still in progress stay in ``frames`` when the read is
    cancelled (a receive timeout), so the next call carries on mid-PDU.
    """
    while (pdu := frames.next_pdu()) is None:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            raise TransportClosedError("peer closed the transport")
        frames.feed(chunk)
    return pdu


class AsyncTcpTransport:
    """Asyncio-stream PDU pipe — the event-loop twin of ``TcpTransport``.

    Byte/PDU counters mirror the blocking transport's so wire accounting
    is comparable across tiers; ``send`` awaits ``drain()``, making the
    stream's flow control the sender's backpressure.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._frames = FrameBuffer()
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.pdus_sent = 0
        self.pdus_received = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncTcpTransport":
        """Dial ``host:port`` and wrap the resulting stream pair."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, pdu: Pdu) -> None:
        """Send one PDU and await the stream's flow-controlled drain."""
        if self._closed:
            raise ProtocolError("transport is closed")
        raw = pdu.pack()
        self._writer.write(raw)
        await self._writer.drain()
        self.bytes_sent += len(raw)
        self.pdus_sent += 1

    async def receive(self, timeout: float | None = None) -> Pdu:
        """Await the next PDU (bounded by ``timeout`` when given)."""
        if self._closed:
            raise ProtocolError("transport is closed")
        read = _read_pdu(self._reader, self._frames)
        try:
            if timeout is not None:
                pdu = await asyncio.wait_for(read, timeout)
            else:
                pdu = await read
        except asyncio.TimeoutError:
            raise TimeoutError("no PDU within timeout") from None
        except OSError as exc:
            raise TransportClosedError(f"receive failed: {exc}") from exc
        self.bytes_received += pdu.wire_size
        self.pdus_received += 1
        return pdu

    async def close(self) -> None:
        """Close the stream and await the transport teardown."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class AsyncInitiator:
    """Async one-command-at-a-time iSCSI client (mirror of ``Initiator``).

    Same session discipline, ITT matching, and wire bytes as the blocking
    client — ``await`` replaces blocking on the socket, nothing else
    changes on the wire.
    """

    def __init__(
        self, transport: AsyncTcpTransport, timeout: float | None = 30.0
    ) -> None:
        self._transport = transport
        self._timeout = timeout
        self._itt = 0
        self._cmd_sn = 0
        self._logged_in = False
        self.block_size: int | None = None
        self.num_blocks: int | None = None

    @property
    def transport(self) -> AsyncTcpTransport:
        """The underlying transport (exposes byte counters)."""
        return self._transport

    @property
    def logged_in(self) -> bool:
        """True after a successful :meth:`login`."""
        return self._logged_in

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout: float | None = 30.0
    ) -> "AsyncInitiator":
        """Dial a target and return a not-yet-logged-in initiator."""
        return cls(await AsyncTcpTransport.connect(host, port), timeout)

    # -- session ------------------------------------------------------------

    async def login(self, target_name: str = "") -> dict[str, str]:
        """Log in; returns the target's negotiated parameters."""
        response = await self._roundtrip(
            Pdu(opcode=Opcode.LOGIN_REQUEST, data=target_name.encode("utf-8")),
            expect=Opcode.LOGIN_RESPONSE,
        )
        params: dict[str, str] = {}
        for pair in response.data.decode("utf-8").split(";"):
            if "=" in pair:
                key, value = pair.split("=", 1)
                params[key] = value
        self.block_size = int(params.get("BlockSize", 0)) or None
        self.num_blocks = int(params.get("NumBlocks", 0)) or None
        self._logged_in = True
        return params

    async def logout(self) -> None:
        """Log out and close the transport."""
        if self._logged_in:
            await self._roundtrip(
                Pdu(opcode=Opcode.LOGOUT_REQUEST),
                expect=Opcode.LOGOUT_RESPONSE,
            )
            self._logged_in = False
        await self._transport.close()

    # -- SCSI ----------------------------------------------------------------

    async def read(self, lba: int, count: int = 1) -> bytes:
        """Read ``count`` blocks starting at ``lba``."""
        response = await self._roundtrip(
            Pdu(
                opcode=Opcode.SCSI_COMMAND,
                flags=int(ScsiOp.READ),
                lba=lba,
                transfer_length=count,
            ),
            expect=Opcode.SCSI_DATA_IN,
        )
        return response.data

    async def write(self, lba: int, data: bytes) -> None:
        """Write whole blocks starting at ``lba``."""
        count = len(data) // self.block_size if self.block_size else 1
        await self._roundtrip(
            Pdu(
                opcode=Opcode.SCSI_COMMAND,
                flags=int(ScsiOp.WRITE),
                lba=lba,
                transfer_length=count,
                data=data,
            ),
            expect=Opcode.SCSI_RESPONSE,
        )

    async def ping(self, payload: bytes = b"") -> bytes:
        """NOP round-trip; returns the echoed payload."""
        response = await self._roundtrip(
            Pdu(opcode=Opcode.NOP_OUT, data=payload), expect=Opcode.NOP_IN
        )
        return response.data

    # -- PRINS replication ----------------------------------------------------

    async def send_replication_frame(
        self, lba: int, frame: bytes, ctx=None
    ) -> bytes:
        """Ship one replication frame; returns the replica's ack payload."""
        trace_id, parent_span = (
            (0, 0) if ctx is None else (ctx.trace_id, ctx.span_id)
        )
        response = await self._roundtrip(
            Pdu(
                opcode=Opcode.REPL_DATA_OUT,
                lba=lba,
                trace_id=trace_id,
                parent_span=parent_span,
                data=frame,
            ),
            expect=Opcode.REPL_ACK,
        )
        return response.data

    async def send_replication_batch(
        self, payload: bytes, record_count: int, ctx=None
    ) -> bytes:
        """Ship a packed multi-segment batch; returns the batch ack payload."""
        trace_id, parent_span = (
            (0, 0) if ctx is None else (ctx.trace_id, ctx.span_id)
        )
        response = await self._roundtrip(
            Pdu(
                opcode=Opcode.REPL_BATCH_OUT,
                transfer_length=record_count,
                trace_id=trace_id,
                parent_span=parent_span,
                data=payload,
            ),
            expect=Opcode.REPL_BATCH_ACK,
        )
        return response.data

    # -- plumbing -------------------------------------------------------------

    async def _roundtrip(self, request: Pdu, expect: Opcode) -> Pdu:
        self._itt += 1
        self._cmd_sn += 1
        request.itt = self._itt
        request.seq = self._cmd_sn
        await self._transport.send(request)
        response = await self._transport.receive(timeout=self._timeout)
        while response.itt < request.itt:
            # stale response from an earlier exchange: drain by ITT, same
            # as the blocking initiator
            response = await self._transport.receive(timeout=self._timeout)
        if response.itt != request.itt:
            raise ProtocolError(
                f"response ITT {response.itt} does not match "
                f"request {request.itt}"
            )
        if response.opcode is not expect:
            raise ProtocolError(
                f"expected {expect!r}, got {response.opcode!r} "
                f"(status {response.status:#04x})"
            )
        if response.status != Status.GOOD:
            if response.opcode is Opcode.LOGIN_RESPONSE:
                raise LoginError(
                    f"login rejected with status {response.status:#04x}"
                )
            raise ProtocolError(
                f"command failed with status {response.status:#04x}"
            )
        return response

    async def __aenter__(self) -> "AsyncInitiator":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.logout()


class AsyncTargetServer:
    """Event-loop iSCSI target: every session is a task, not a thread.

    Each accepted connection runs :meth:`_serve_connection` — a fresh
    :class:`~repro.iscsi.target.Target` state machine fed PDUs in arrival
    order, its responses written back through the flow-controlled stream.
    Because :meth:`Target.handle` is the same code the threaded server
    calls, a given request sequence produces identical response bytes on
    either tier.
    """

    def __init__(
        self,
        device: BlockDevice,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "iqn.2006-01.edu.uri.hpcl:prins",
        replication_handler: ReplicationHandler | None = None,
        batch_handler: BatchHandler | None = None,
        telemetry=None,
    ) -> None:
        self._device = device
        self._host = host
        self._port = port
        self._name = name
        self._replication_handler = replication_handler
        self._batch_handler = batch_handler
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        self.sessions_served = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.pdus_served = 0
        self._telemetry = NULL_TELEMETRY
        self._accept_counter = NULL_COUNTER
        self._session_gauge = NULL_GAUGE
        self._pdu_hist = NULL_HISTOGRAM
        if telemetry is not None:
            self.bind_telemetry(telemetry)
        # set by serve_background for the sync-facade lifecycle
        self._loop_thread: EventLoopThread | None = None
        self._owns_loop = False

    def bind_telemetry(self, telemetry) -> None:
        """Meter accepts, live sessions, and response sizes in ``telemetry``."""
        self._telemetry = telemetry
        self._accept_counter = telemetry.counter("transport.accepts")
        self._session_gauge = telemetry.gauge("transport.sessions")
        self._pdu_hist = telemetry.histogram("transport.sent_pdu_bytes")

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is listening on."""
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def connection_count(self) -> int:
        """Live session tasks."""
        return len(self._tasks)

    # -- async lifecycle ------------------------------------------------------

    async def start(self) -> "AsyncTargetServer":
        """Bind the listener and begin accepting sessions."""
        if self._closed:
            raise ProtocolError("target server is closed")
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port
        )
        return self

    def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._telemetry.span("transport.accept", target=self._name):
            self._accept_counter.inc()
            self.sessions_served += 1
            self._session_gauge.set(len(self._tasks))
            target = Target(
                self._device,
                name=self._name,
                replication_handler=self._replication_handler,
                batch_handler=self._batch_handler,
            )
        frames = FrameBuffer()
        try:
            while True:
                request = await _read_pdu(reader, frames)
                self.bytes_received += request.wire_size
                response = target.handle(request)
                if response is not None:
                    raw = response.pack()
                    writer.write(raw)
                    # flow-controlled backpressure: a slow initiator stalls
                    # only its own session coroutine
                    await writer.drain()
                    self.bytes_sent += len(raw)
                    self.pdus_served += 1
                    self._pdu_hist.record(len(raw))
                if request.opcode is Opcode.LOGOUT_REQUEST:
                    break
        except (TransportClosedError, ConnectionError, OSError):
            pass  # peer vanished mid-frame: drop the session
        finally:
            self._session_gauge.set(max(0, len(self._tasks) - 1))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def stop(self) -> None:
        """Stop listening, cancel every live session, await clean exit."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()

    # -- sync facade ----------------------------------------------------------

    def serve_background(
        self, loop_thread: EventLoopThread | None = None
    ) -> "AsyncTargetServer":
        """Start on a loop thread (creating one if needed); returns self.

        The sync entry point used by ``open_primary(transport="asyncio")``
        and tests: the server runs on ``loop_thread`` (shared across many
        servers for true single-process multiplexing) and blocking
        clients connect to :attr:`address` as usual.
        """
        if loop_thread is None:
            loop_thread = EventLoopThread(name=f"aio-{self._name}")
            self._owns_loop = True
        self._loop_thread = loop_thread
        loop_thread.run(self.start())
        return self

    def stop_background(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`serve_background` server from sync code."""
        if self._loop_thread is None:
            return
        self._loop_thread.run(self.stop(), timeout=timeout)
        if self._owns_loop:
            self._loop_thread.close()
        self._loop_thread = None

    def snapshot(self) -> dict:
        """JSON-safe server counters."""
        return {
            "name": self._name,
            "sessions_served": self.sessions_served,
            "live_sessions": len(self._tasks),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "pdus_served": self.pdus_served,
        }


async def run_sessions(
    host: str,
    port: int,
    scripts: "Iterable",
    target_name: str = "",
) -> list:
    """Run many initiator scripts concurrently against one target.

    Each ``script`` is an async callable taking a logged-in
    :class:`AsyncInitiator`; its return value lands in the result list in
    script order.  This is the ≥64-connection concurrency harness used by
    the tests and the benchmark.
    """

    async def _one(script):
        initiator = await AsyncInitiator.connect(host, port)
        await initiator.login(target_name)
        try:
            return await script(initiator)
        finally:
            await initiator.logout()

    return list(await asyncio.gather(*(_one(s) for s in scripts)))
