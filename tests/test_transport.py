import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import transport
from fedboost.errors import (
    ChannelClosed,
    ProtocolViolation,
    TransportError,
    TransportTimeout,
)


class TestFrameCodec:
    def test_layout(self):
        frame = transport.encode_frame(7, b"abc")
        assert frame == struct.pack(">I", 4) + bytes([7]) + b"abc"

    def test_roundtrip_empty_body(self):
        kind, body = transport.decode_frame(transport.encode_frame(3, b""))
        assert (kind, body) == (3, b"")

    def test_self_delimiting_concatenation(self):
        a = transport.encode_frame(1, b"first")
        b = transport.encode_frame(2, b"second frame")
        blob = a + b
        (length,) = struct.unpack_from(">I", blob)
        first, rest = blob[: 4 + length], blob[4 + length :]
        assert transport.decode_frame(first) == (1, b"first")
        assert transport.decode_frame(rest) == (2, b"second frame")

    def test_oversize_rejected(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 16)
        with pytest.raises(TransportError, match="^frame of 33 bytes exceeds limit 16$"):
            transport.encode_frame(1, b"x" * 32)

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolViolation):
            transport.decode_frame(struct.pack(">I", 0))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.integers(0, 255), body=st.binary(max_size=512))
    def test_roundtrip_property(self, kind, body):
        assert transport.decode_frame(transport.encode_frame(kind, body)) == (kind, body)


@pytest.fixture()
def tcp_pair():
    listener = transport.tcp_listen(("127.0.0.1", 0))
    client_box = {}

    def _connect():
        client_box["ep"] = transport.tcp_connect(listener.address)

    thread = threading.Thread(target=_connect)
    thread.start()
    server_ep = listener.accept(timeout=5)
    thread.join()
    yield client_box["ep"], server_ep
    client_box["ep"].close()
    server_ep.close()
    listener.close()


class TestTcp:
    def test_one_byte_body_roundtrip(self, tcp_pair):
        client, server = tcp_pair
        client.send(5, b"z")
        assert server.recv(timeout=5) == (5, b"z")

    def test_large_frame_roundtrip(self, tcp_pair):
        client, server = tcp_pair
        body = bytes(range(256)) * 1024
        client.send(8, body)
        assert server.recv(timeout=5) == (8, body)

    def test_split_frame_reassembled(self):
        # the frame is pushed through the raw socket in two delayed segments
        listener = transport.tcp_listen(("127.0.0.1", 0))
        frame = transport.encode_frame(4, b"split across segments")

        def _send_in_pieces():
            raw = socket.create_connection(listener.address)
            raw.sendall(frame[:7])
            time.sleep(0.05)
            raw.sendall(frame[7:])
            time.sleep(0.05)
            raw.close()

        thread = threading.Thread(target=_send_in_pieces)
        thread.start()
        server_ep = listener.accept(timeout=5)
        assert server_ep.recv(timeout=5) == (4, b"split across segments")
        thread.join()
        server_ep.close()
        listener.close()

    def test_zero_declared_length_violates_protocol(self):
        listener = transport.tcp_listen(("127.0.0.1", 0))

        def _send_bad():
            raw = socket.create_connection(listener.address)
            raw.sendall(struct.pack(">I", 0))
            time.sleep(0.1)
            raw.close()

        thread = threading.Thread(target=_send_bad)
        thread.start()
        server_ep = listener.accept(timeout=5)
        with pytest.raises(ProtocolViolation):
            server_ep.recv(timeout=5)
        thread.join()
        listener.close()

    def test_oversize_declared_length_rejected(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 64)
        listener = transport.tcp_listen(("127.0.0.1", 0))

        def _send_big():
            raw = socket.create_connection(listener.address)
            raw.sendall(struct.pack(">I", 10_000))
            time.sleep(0.1)
            raw.close()

        thread = threading.Thread(target=_send_big)
        thread.start()
        server_ep = listener.accept(timeout=5)
        with pytest.raises(ProtocolViolation, match="^declared length 10000 exceeds limit 64$"):
            server_ep.recv(timeout=5)
        thread.join()
        listener.close()

    def test_connect_failure(self):
        with pytest.raises(TransportError):
            transport.tcp_connect(("127.0.0.1", 1), timeout=0.2)

    def test_recv_timeout(self, tcp_pair):
        _client, server = tcp_pair
        with pytest.raises(TransportTimeout):
            server.recv(timeout=0.05)

    def test_peer_close_detected(self, tcp_pair):
        client, server = tcp_pair
        client.close()
        with pytest.raises(ChannelClosed):
            server.recv(timeout=5)


class TestTcpFailurePaths:
    """Each failure a socket can give ends the wait at once, as the cause it is."""

    def test_deadline_passes_mid_frame(self, monkeypatch):
        # the length prefix and 3 of 10 body bytes arrive; each clock read
        # advances 0.4 s, so the deadline of 1 s passes between the two reads
        clock = iter(range(0, 100, 4))
        monkeypatch.setattr(transport, "time", SimpleNamespace(monotonic=lambda: next(clock) / 10))
        server_sock, client_sock = socket.socketpair()
        server = transport.TcpEndpoint(server_sock)
        try:
            client_sock.sendall(transport.encode_frame(1, bytes(9))[:7])
            start = time.monotonic()
            with pytest.raises(TransportTimeout, match="^read deadline exceeded$"):
                server.recv(timeout=1.0)
            assert time.monotonic() - start < 1.0
            # the clock was read at the deadline's start, the prefix, the body, then past it
            assert next(clock) == 16
        finally:
            server.close()
            client_sock.close()

    def test_connection_reset_is_a_recv_failure(self, tcp_pair):
        client, server = tcp_pair
        # linger 0: the close sends a reset, not an orderly end of stream
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client._sock.close()
        start = time.monotonic()
        with pytest.raises(TransportError, match="^recv failed: ") as err:
            server.recv(timeout=5)
        assert type(err.value) is TransportError
        assert time.monotonic() - start < 1.0

    def test_accept_times_out(self):
        listener = transport.tcp_listen(("127.0.0.1", 0))
        start = time.monotonic()
        try:
            with pytest.raises(TransportTimeout, match=r"^no connection within 0\.05s$"):
                listener.accept(timeout=0.05)
        finally:
            listener.close()
        assert time.monotonic() - start < 1.0

    def test_listen_on_an_address_already_listening(self):
        listener = transport.tcp_listen(("127.0.0.1", 0))
        host, port = listener.address
        try:
            with pytest.raises(TransportError, match=f"^cannot listen on {host}:{port}: "):
                transport.tcp_listen((host, port))
        finally:
            listener.close()
