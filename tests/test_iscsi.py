"""Tests for the iSCSI substrate: PDUs, transports, initiator/target."""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.common.errors import ProtocolError
from repro.iscsi import (
    Initiator,
    Opcode,
    Pdu,
    Target,
    TargetServer,
    TcpTransport,
    transport_pair,
)
from repro.iscsi.pdu import BHS_SIZE, ScsiOp, Status
from repro.iscsi import transport as transport_module
from repro.iscsi.transport import FlakyTransport, TransportClosedError

BS = 512


class TestPdu:
    def test_pack_unpack_roundtrip(self):
        pdu = Pdu(
            opcode=Opcode.SCSI_COMMAND,
            flags=int(ScsiOp.WRITE),
            itt=7,
            lba=123456789,
            transfer_length=4,
            seq=99,
            data=b"payload",
        )
        parsed = Pdu.unpack(pdu.pack())
        assert parsed == pdu

    def test_wire_size(self):
        pdu = Pdu(opcode=Opcode.NOP_OUT, data=b"x" * 100)
        assert pdu.wire_size == BHS_SIZE + 100
        assert len(pdu.pack()) == pdu.wire_size

    def test_header_is_48_bytes(self):
        assert BHS_SIZE == 48  # matches real iSCSI BHS

    def test_unknown_opcode(self):
        raw = bytearray(Pdu(opcode=Opcode.NOP_OUT).pack())
        raw[0] = 0xEE
        with pytest.raises(ProtocolError, match="unknown opcode"):
            Pdu.unpack(bytes(raw))

    def test_data_length_mismatch(self):
        raw = Pdu(opcode=Opcode.NOP_OUT, data=b"abc").pack()
        with pytest.raises(ProtocolError):
            Pdu.unpack(raw[:-1])

    @settings(max_examples=30, deadline=None)
    @given(
        lba=st.integers(0, 2**63 - 1),
        itt=st.integers(0, 2**32 - 1),
        data=st.binary(max_size=256),
    )
    def test_roundtrip_property(self, lba, itt, data):
        pdu = Pdu(opcode=Opcode.REPL_DATA_OUT, lba=lba, itt=itt, data=data)
        assert Pdu.unpack(pdu.pack()) == pdu


class TestInProcessTransport:
    def test_send_receive(self):
        a, b = transport_pair()
        a.send(Pdu(opcode=Opcode.NOP_OUT, data=b"hi"))
        received = b.receive(timeout=1)
        assert received.data == b"hi"

    def test_byte_accounting_symmetric(self):
        a, b = transport_pair()
        pdu = Pdu(opcode=Opcode.NOP_OUT, data=b"x" * 10)
        a.send(pdu)
        b.receive(timeout=1)
        assert a.bytes_sent == pdu.wire_size
        assert b.bytes_received == pdu.wire_size

    def test_close_wakes_peer(self):
        a, b = transport_pair()
        a.close()
        with pytest.raises(TransportClosedError):
            b.receive(timeout=1)

    def test_send_after_close_rejected(self):
        a, _ = transport_pair()
        a.close()
        with pytest.raises(TransportClosedError):
            a.send(Pdu(opcode=Opcode.NOP_OUT))

    def test_receive_timeout(self):
        _, b = transport_pair()
        with pytest.raises(TimeoutError):
            b.receive(timeout=0.05)


def _serve(target, transport):
    thread = threading.Thread(target=target.serve, args=(transport,), daemon=True)
    thread.start()
    return thread


class TestSession:
    def _connect(self, device=None, handler=None):
        device = device or MemoryBlockDevice(BS, 16)
        t_end, i_end = transport_pair()
        target = Target(device, replication_handler=handler)
        thread = _serve(target, t_end)
        return Initiator(i_end, timeout=5), device, thread

    def test_login_negotiates_geometry(self):
        initiator, _, _ = self._connect()
        params = initiator.login()
        assert params["BlockSize"] == str(BS)
        assert initiator.block_size == BS
        assert initiator.num_blocks == 16

    def test_login_wrong_target_name_rejected(self):
        initiator, _, _ = self._connect()
        from repro.common.errors import LoginError

        with pytest.raises(LoginError):
            initiator.login("iqn.wrong:name")

    def test_io_before_login_fails(self):
        initiator, _, _ = self._connect()
        with pytest.raises(ProtocolError):
            initiator.read(0)

    def test_write_read(self):
        initiator, device, _ = self._connect()
        initiator.login()
        initiator.write(3, b"d" * BS)
        assert initiator.read(3) == b"d" * BS
        assert device.read_block(3) == b"d" * BS

    def test_multi_block_transfer(self):
        initiator, _, _ = self._connect()
        initiator.login()
        payload = bytes(range(256)) * 2 * 3
        initiator.write(2, payload)
        assert initiator.read(2, count=3) == payload

    def test_out_of_range_lba_returns_error_status(self):
        initiator, _, _ = self._connect()
        initiator.login()
        with pytest.raises(ProtocolError, match="status"):
            initiator.read(99)

    def test_nop_echo(self):
        initiator, _, _ = self._connect()
        initiator.login()
        assert initiator.ping(b"ping!") == b"ping!"

    def test_replication_frame_dispatched(self):
        seen = []

        def handler(lba, frame):
            seen.append((lba, frame))
            return b"ack-payload"

        initiator, _, _ = self._connect(handler=handler)
        initiator.login()
        ack = initiator.send_replication_frame(9, b"FRAME")
        assert ack == b"ack-payload"
        assert seen == [(9, b"FRAME")]

    def test_replication_without_handler_rejected_with_status(self):
        initiator, _, _ = self._connect()
        initiator.login()
        with pytest.raises(ProtocolError, match="status"):
            initiator.send_replication_frame(0, b"x")

    def test_logout_closes_session(self):
        initiator, _, thread = self._connect()
        initiator.login()
        initiator.logout()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert not initiator.logged_in


class TestTcp:
    def test_full_session_over_sockets(self):
        device = MemoryBlockDevice(BS, 16)
        with TargetServer(device) as server:
            host, port = server.address
            initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
            initiator.login()
            initiator.write(1, b"t" * BS)
            assert initiator.read(1) == b"t" * BS
            assert initiator.transport.bytes_sent > 0
            initiator.logout()

    def test_multiple_concurrent_sessions(self):
        device = MemoryBlockDevice(BS, 16)
        with TargetServer(device) as server:
            host, port = server.address
            initiators = [
                Initiator(TcpTransport.connect(host, port), timeout=5)
                for _ in range(3)
            ]
            for i, initiator in enumerate(initiators):
                initiator.login()
                initiator.write(i, bytes([i]) * BS)
            for i, initiator in enumerate(initiators):
                assert initiator.read(i) == bytes([i]) * BS
                initiator.logout()

    def test_itt_matching_enforced(self):
        """Responses must carry the request's task tag."""
        device = MemoryBlockDevice(BS, 16)
        with TargetServer(device) as server:
            host, port = server.address
            initiator = Initiator(TcpTransport.connect(host, port), timeout=5)
            initiator.login()
            # normal operation keeps tags in sync; just exercise several ops
            for lba in range(5):
                initiator.write(lba, bytes([lba + 1]) * BS)
                assert initiator.read(lba) == bytes([lba + 1]) * BS
            initiator.logout()


@pytest.fixture(params=[TcpTransport], ids=["tcp"])
def transport_cls(request):
    """The networked transport under test."""
    return request.param


@pytest.fixture
def framed(transport_cls):
    """``(peer, receive)``: a raw socket feeding one transport under test."""
    listener = socket.create_server(("127.0.0.1", 0))
    transport = transport_cls.connect(*listener.getsockname())
    peer, _ = listener.accept()
    peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def receive(timeout=5.0):
        return transport.receive(timeout)

    yield peer, receive
    transport.close()
    peer.close()
    listener.close()


def _pdu(itt, size):
    return Pdu(
        opcode=Opcode.REPL_DATA_OUT,
        itt=itt,
        lba=itt,
        data=bytes((itt + i) % 251 for i in range(size)),
    )


def _send_in_pieces(peer, raw, cuts, pause=0.002):
    """Write ``raw`` from a thread, pausing at each cut so segments split."""

    def run():
        start = 0
        for cut in [*cuts, len(raw)]:
            peer.sendall(raw[start:cut])
            start = cut
            time.sleep(pause)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestBufferedFraming:
    """However the stream is segmented, whole PDUs come out in order."""

    def test_two_pdus_coalesced_in_one_segment(self, framed):
        peer, receive = framed
        first, second = _pdu(1, 300), _pdu(2, 0)
        peer.sendall(first.pack() + second.pack() + _pdu(3, 40).pack()[:60])
        assert receive() == first
        assert receive() == second
        peer.sendall(_pdu(3, 40).pack()[60:])
        assert receive() == _pdu(3, 40)

    def test_one_pdu_dribbled_a_byte_at_a_time(self, framed):
        peer, receive = framed
        pdu = _pdu(4, 70)
        raw = pdu.pack()
        writer = _send_in_pieces(peer, raw, range(1, len(raw)), pause=0.0005)
        assert receive() == pdu
        writer.join(timeout=5)

    def test_large_data_segment_split_across_receives(self, framed):
        peer, receive = framed
        pdu = _pdu(5, 64 * 1024)
        raw = pdu.pack()
        writer = _send_in_pieces(peer, raw, [10, 48, 5000, 30000, 65000])
        assert receive() == pdu
        writer.join(timeout=5)
        # the buffer grew for it; a small PDU behind it still parses
        peer.sendall(_pdu(6, 8).pack())
        assert receive() == _pdu(6, 8)

    @pytest.mark.parametrize("sent", [20, BHS_SIZE + 10], ids=["header", "data"])
    def test_peer_close_mid_pdu(self, framed, sent):
        peer, receive = framed
        peer.sendall(_pdu(7, 100).pack()[:sent])
        peer.shutdown(socket.SHUT_WR)
        with pytest.raises(TransportClosedError):
            receive()

    def test_timeout_mid_pdu_keeps_the_partial_bytes(self, framed):
        peer, receive = framed
        pdu = _pdu(8, 500)
        raw = pdu.pack()
        peer.sendall(raw[:200])
        with pytest.raises(TimeoutError):
            receive(timeout=0.1)
        peer.sendall(raw[200:])
        assert receive() == pdu


class TestKernelTimeouts:
    """A receive timeout keeps the socket blocking: the kernel enforces it.

    A Python-level socket timeout makes CPython ``poll()`` before every
    ``sendall`` and ``recv_into``; with ``SO_RCVTIMEO`` / ``SO_SNDTIMEO``
    the blocking call itself returns ``EAGAIN``, mapped to the same
    ``TimeoutError``.
    """

    @pytest.fixture
    def pair(self):
        listener = socket.create_server(("127.0.0.1", 0))
        transport = TcpTransport.connect(*listener.getsockname())
        peer, _ = listener.accept()
        yield transport, peer
        transport.close()
        peer.close()
        listener.close()

    @pytest.mark.skipif(
        not transport_module._SOCKOPT_TIMEOUTS, reason="no SO_RCVTIMEO here"
    )
    def test_timeout_lives_in_the_socket_options(self, pair):
        transport, peer = pair
        with pytest.raises(TimeoutError):
            transport.receive(timeout=0.05)
        sock = transport._sock
        assert sock.gettimeout() is None  # blocking: no poll() per call
        timeval = sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_RCVTIMEO, transport_module._TIMEVAL.size
        )
        seconds, micros = transport_module._TIMEVAL.unpack(timeval)
        # the kernel rounds to its clock tick
        assert seconds + micros / 1e6 == pytest.approx(0.05, abs=0.01)
        peer.sendall(_pdu(1, 10).pack())
        assert transport.receive(timeout=0.05) == _pdu(1, 10)
        # back to no timeout at all: options cleared, still blocking
        peer.sendall(_pdu(2, 0).pack())
        assert transport.receive() == _pdu(2, 0)
        assert sock.gettimeout() is None
        timeval = sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_RCVTIMEO, transport_module._TIMEVAL.size
        )
        assert transport_module._TIMEVAL.unpack(timeval) == (0, 0)

    def test_settimeout_fallback_times_out_the_same(self, pair, monkeypatch):
        monkeypatch.setattr(transport_module, "_SOCKOPT_TIMEOUTS", False)
        transport, peer = pair
        with pytest.raises(TimeoutError):
            transport.receive(timeout=0.05)
        assert transport._sock.gettimeout() == pytest.approx(0.05)
        peer.sendall(_pdu(3, 5).pack())
        assert transport.receive(timeout=0.05) == _pdu(3, 5)


class TestTargetServerShutdown:
    """Regression: close() must be deterministic with half-open sessions."""

    def test_close_with_half_open_connection(self):
        """A client that logs in and then goes silent leaves a session
        thread parked in receive(); close() must sever and join it."""
        device = MemoryBlockDevice(BS, 8)
        server = TargetServer(device).start()
        host, port = server.address
        transport = TcpTransport.connect(host, port)
        initiator = Initiator(transport, timeout=5)
        initiator.login()  # session thread now blocked awaiting the next PDU
        assert server.session_count == 1
        start = time.monotonic()
        server.close(timeout=5.0)
        assert time.monotonic() - start < 5.0
        assert server.session_count == 0
        transport.close()  # the half-open session was the point; free its socket

    def test_close_refuses_new_sessions(self):
        device = MemoryBlockDevice(BS, 8)
        server = TargetServer(device).start()
        host, port = server.address
        server.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)
        with pytest.raises(ProtocolError):
            server.start()

    def test_close_is_idempotent(self):
        server = TargetServer(MemoryBlockDevice(BS, 8)).start()
        server.close()
        server.close()
        assert server.session_count == 0


class TestStaleResponseDrain:
    """A retry after a timeout still finds its own response (ITT matching)."""

    def _server(self, hold=None):
        def handler(lba, frame):
            if hold is not None and not hold.is_set():
                # the ack leaves only once the initiator has given up
                hold.wait(timeout=5)
            return bytes(frame)[:4]

        device = MemoryBlockDevice(BS, 16)
        return TargetServer(device, replication_handler=handler)

    def test_late_ack_is_drained_on_retry(self, transport_cls):
        hold = threading.Event()
        with self._server(hold) as server:
            transport = transport_cls.connect(*server.address)
            initiator = Initiator(transport, timeout=0.2)
            initiator.login()
            with pytest.raises(TimeoutError):
                initiator.send_replication_frame(1, b"lateXXXX")
            hold.set()
            # the retry's receive meets the late ack first and skips it
            ack = initiator.send_replication_frame(1, b"next----")
            assert ack == b"next"
            initiator.logout()

    def test_duplicated_request_is_acked_twice_and_drained(self):
        with self._server() as server:
            flaky = FlakyTransport(TcpTransport.connect(*server.address))
            initiator = Initiator(flaky, timeout=2)
            initiator.login()
            flaky.fail_next(1, "duplicate")
            assert initiator.send_replication_frame(2, b"dup-0000") == b"dup-"
            # the duplicate's ack is still queued: the next exchange skips it
            assert initiator.send_replication_frame(3, b"nxt-0000") == b"nxt-"
            assert flaky.duplicates == 1
            initiator.logout()


class TestStatusCodes:
    def test_handle_returns_invalid_lba_status(self):
        target = Target(MemoryBlockDevice(BS, 4))
        login = Pdu(opcode=Opcode.LOGIN_REQUEST, itt=1)
        target.handle(login)
        bad_read = Pdu(
            opcode=Opcode.SCSI_COMMAND,
            flags=int(ScsiOp.READ),
            lba=100,
            transfer_length=1,
            itt=2,
        )
        response = target.handle(bad_read)
        assert response.status == Status.INVALID_LBA
