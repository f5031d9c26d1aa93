import socket
import struct
import threading
import time
from contextlib import contextmanager
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


# the body bound of every endpoint below that does not test the bound itself
BOUND = 1 << 20


def bounded_pair(max_body: int = BOUND) -> tuple[transport.TcpEndpoint, transport.TcpEndpoint]:
    """Two connected endpoints over a socket pair, each bounded to ``max_body``."""
    return tuple(transport.TcpEndpoint(sock, max_body) for sock in socket.socketpair())


class TestFrameCodec:
    """A frame exists only on a socket: what one bounded endpoint sends, the
    other receives as the same (kind, body) pair."""

    def test_layout(self):
        frame = transport.encode_frame(7, b"abc")
        assert frame == struct.pack(">I", 4) + bytes([7]) + b"abc"

    def test_kind_must_fit_one_byte(self):
        with pytest.raises(ValueError, match="^kind must fit one byte, got 256$"):
            transport.encode_frame(256, b"")

    def test_roundtrip_empty_body(self):
        sender, receiver = bounded_pair()
        try:
            sender.send(3, b"")
            assert receiver.recv(timeout=5) == (3, b"")
        finally:
            sender.close()
            receiver.close()

    def test_self_delimiting_concatenation(self):
        raw, sock = socket.socketpair()
        receiver = transport.TcpEndpoint(sock, BOUND)
        try:
            raw.sendall(transport.encode_frame(1, b"first") + transport.encode_frame(2, b"second frame"))
            assert receiver.recv(timeout=5) == (1, b"first")
            assert receiver.recv(timeout=5) == (2, b"second frame")
        finally:
            raw.close()
            receiver.close()

    def test_oversize_rejected(self):
        # the bound holds for what an endpoint sends, as for what it receives
        sender, receiver = bounded_pair(max_body=15)
        try:
            with pytest.raises(TransportError, match="^frame of 33 bytes exceeds limit 16$"):
                sender.send(1, b"x" * 32)
            sender.send(1, b"x" * 15)
            assert receiver.recv(timeout=5) == (1, b"x" * 15)
        finally:
            sender.close()
            receiver.close()

    def test_zero_length_rejected(self):
        raw, sock = socket.socketpair()
        receiver = transport.TcpEndpoint(sock, BOUND)
        try:
            raw.sendall(struct.pack(">I", 0))
            with pytest.raises(ProtocolViolation, match="^declared length omits the kind byte$"):
                receiver.recv(timeout=5)
        finally:
            raw.close()
            receiver.close()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.integers(0, 255), body=st.binary(max_size=512))
    def test_roundtrip_property(self, kind, body):
        sender, receiver = bounded_pair(max_body=512)
        try:
            sender.send(kind, body)
            assert receiver.recv(timeout=5) == (kind, body)
        finally:
            sender.close()
            receiver.close()


@contextmanager
def connected(max_body: int = BOUND):
    """The (client, server) ends of one pair from ``tcp_pairs``, closed on exit."""
    [(server, client)] = transport.tcp_pairs(1, 5.0, max_body)
    try:
        yield client, server
    finally:
        client.close()
        server.close()


@pytest.fixture()
def tcp_pair():
    with connected() as pair:
        yield pair


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

    def test_split_frame_reassembled(self, tcp_pair):
        # the frame is pushed through the raw client socket in two delayed segments
        client, server_ep = tcp_pair
        frame = transport.encode_frame(4, b"split across segments")

        def _send_in_pieces():
            client._sock.sendall(frame[:7])
            time.sleep(0.05)
            client._sock.sendall(frame[7:])

        thread = threading.Thread(target=_send_in_pieces)
        thread.start()
        assert server_ep.recv(timeout=5) == (4, b"split across segments")
        thread.join()

    def test_zero_declared_length_violates_protocol(self, tcp_pair):
        client, server_ep = tcp_pair
        client._sock.sendall(struct.pack(">I", 0))
        with pytest.raises(ProtocolViolation):
            server_ep.recv(timeout=5)

    def test_oversize_declared_length_rejected(self):
        with connected(max_body=63) as (client, server_ep):
            client._sock.sendall(struct.pack(">I", 10_000))
            with pytest.raises(ProtocolViolation, match="^declared length 10000 exceeds limit 64$"):
                server_ep.recv(timeout=5)

    def test_header_over_the_body_bound_is_refused_before_the_body(self):
        # a frame at the bound passes; the next header declares one byte more,
        # and no body follows it, so only the header can refuse it at once
        with connected(max_body=8) as (client, server_ep):
            client._sock.sendall(transport.encode_frame(3, bytes(8)) + struct.pack(">I", 10))
            assert server_ep.recv(timeout=5) == (3, bytes(8))
            start = time.monotonic()
            with pytest.raises(ProtocolViolation, match="^declared length 10 exceeds limit 9$"):
                server_ep.recv(timeout=5)
            assert time.monotonic() - start < 1.0

    def test_each_end_of_a_pair_bounds_its_frames(self):
        # each end refuses to send a body over the bound, and a header that declares one
        with connected(max_body=4) as (client, server):
            for sender, receiver in ((client, server), (server, client)):
                with pytest.raises(TransportError, match="^frame of 6 bytes exceeds limit 5$"):
                    sender.send(5, bytes(5))
                sender.send(5, bytes(4))
                assert receiver.recv(timeout=5) == (5, bytes(4))
                sender._sock.sendall(transport.encode_frame(5, bytes(5)))
                with pytest.raises(ProtocolViolation, match="^declared length 6 exceeds limit 5$"):
                    receiver.recv(timeout=5)

    def test_pair_k_connects_client_k_to_server_k(self):
        pairs = transport.tcp_pairs(3, 5.0, BOUND)
        try:
            for k, (_, client) in enumerate(pairs, 1):
                client.send(k, bytes([k]))
            for k, (server, client) in enumerate(pairs, 1):
                assert server.recv(timeout=5) == (k, bytes([k]))
                assert server._sock.getpeername() == client._sock.getsockname()
        finally:
            for ends in pairs:
                for endpoint in ends:
                    endpoint.close()

    def test_connect_failure(self, monkeypatch):
        # the connect for pair 2 fails: every socket made, the listener included, is closed
        made = []
        create_server, create_connection, accept = socket.create_server, socket.create_connection, socket.socket.accept

        def record(sock):
            made.append(sock)
            return sock

        def connect(*args, **kwargs):
            if len(made) == 3:  # the listener and pair 1's two ends
                raise ConnectionRefusedError("refused for the test")
            return record(create_connection(*args, **kwargs))

        def accepted(listener):
            conn, address = accept(listener)
            return record(conn), address

        monkeypatch.setattr(socket, "create_server", lambda *a, **kw: record(create_server(*a, **kw)))
        monkeypatch.setattr(socket, "create_connection", connect)
        monkeypatch.setattr(socket.socket, "accept", accepted)
        with pytest.raises(TransportError, match="^cannot make TCP pair 2: refused for the test$"):
            transport.tcp_pairs(3, 5.0, BOUND)
        assert len(made) == 3
        assert [sock.fileno() for sock in made] == [-1, -1, -1]

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
        server = transport.TcpEndpoint(server_sock, BOUND)
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
