"""The framed TCP transport, the one place a frame exists.

One frame on the wire is a 4-byte big-endian length (counting everything that
follows), one kind byte, then the body; so length == len(body) + 1.
Frames are delivered whole or not at all. An endpoint bounds the body both
ways: it refuses to send a longer one, and a header that declares one before
reading it. The loopback cohort (``protocol.InThreadCohort``) passes (kind,
body) pairs as they are. Nothing but frames crosses a TCP connection.
"""

from __future__ import annotations

import socket
import struct
import time

from .errors import ChannelClosed, ProtocolViolation, TransportError, TransportTimeout

_HEADER = struct.Struct(">I")


def encode_frame(kind: int, body: bytes) -> bytes:
    if not (0 <= kind <= 255):
        raise ValueError(f"kind must fit one byte, got {kind}")
    return _HEADER.pack(len(body) + 1) + bytes([kind]) + body


class TcpEndpoint:
    """Framed stream over one connected socket; reassembles partial reads.
    A body longer than ``max_body`` is refused: a sent one before it is
    written, a received one from its header, before it is read.
    ``peer_address`` is the remote end's (host, port) as accepted, if it was."""

    def __init__(self, sock: socket.socket, max_body: int, peer_address: tuple[str, int] | None = None):
        self._sock = sock
        self._limit = max_body + 1
        self.peer_address = peer_address
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """This end's (host, port)."""
        return self._sock.getsockname()[:2]

    def send(self, kind: int, body: bytes) -> None:
        if self._closed:
            raise ChannelClosed("send after close")
        if len(body) + 1 > self._limit:
            raise TransportError(f"frame of {len(body) + 1} bytes exceeds limit {self._limit}")
        try:
            self._sock.sendall(encode_frame(kind, body))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, nbytes: int, deadline: float) -> bytes:
        chunks = []
        got = 0
        while got < nbytes:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout("read deadline exceeded")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(nbytes - got)
            except socket.timeout:
                raise TransportTimeout("read deadline exceeded") from None
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ChannelClosed("connection closed mid-stream")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: float) -> tuple[int, bytes]:
        if self._closed:
            raise ChannelClosed("recv after close")
        deadline = time.monotonic() + timeout
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size, deadline))
        if length < 1:
            raise ProtocolViolation("declared length omits the kind byte")
        if length > self._limit:
            raise ProtocolViolation(f"declared length {length} exceeds limit {self._limit}")
        payload = self._recv_exact(length, deadline)
        return payload[0], payload[1:]

    def release(self) -> None:
        """Close this process's descriptor only: the connection stays open
        while a forked copy of the socket holds it."""
        self._closed = True
        self._sock.close()

    def close(self) -> None:
        """End the connection for every holder of the socket, then release it."""
        if not self._closed:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.release()


class TcpListener:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def accept(self, timeout: float, max_body: int) -> TcpEndpoint:
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout(f"no connection within {timeout}s") from None
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return TcpEndpoint(conn, max_body, peer[:2])

    def close(self) -> None:
        self._sock.close()


def tcp_listen(addr: tuple[str, int]) -> TcpListener:
    host, port = addr
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen()
    except OSError as exc:
        sock.close()
        raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
    return TcpListener(sock)


def tcp_connect(addr: tuple[str, int], timeout: float, max_body: int) -> TcpEndpoint:
    host, port = addr
    try:
        sock = socket.create_connection(addr, timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return TcpEndpoint(sock, max_body)
