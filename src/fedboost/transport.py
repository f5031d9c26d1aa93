"""Frames and the framed TCP transport.

One frame on the wire is a 4-byte big-endian length (counting everything that
follows), one kind byte, then the body; so length == len(body) + 1.
Frames are delivered whole or not at all. Loopback runs pass the same frames to
clients run as one cohort in the server's thread (``protocol.InThreadCohort``),
so both transports carry identical bytes for identical protocol runs.
"""

from __future__ import annotations

import socket
import struct
import time

from .errors import ChannelClosed, ProtocolViolation, TransportError, TransportTimeout

MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(kind: int, body: bytes) -> bytes:
    if not (0 <= kind <= 255):
        raise ValueError(f"kind must fit one byte, got {kind}")
    length = len(body) + 1
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}")
    return _HEADER.pack(length) + bytes([kind]) + body


def _declared_length(data: bytes) -> int:
    """The length a frame header declares, checked to lie in [1, MAX_FRAME_BYTES]."""
    (length,) = _HEADER.unpack_from(data)
    if length < 1:
        raise ProtocolViolation("declared length omits the kind byte")
    if length > MAX_FRAME_BYTES:
        raise ProtocolViolation(f"declared length {length} exceeds limit {MAX_FRAME_BYTES}")
    return length


def decode_frame(data: bytes) -> tuple[int, bytes]:
    if len(data) < _HEADER.size + 1:
        raise ProtocolViolation(f"frame truncated at {len(data)} bytes")
    length = _declared_length(data)
    if len(data) != _HEADER.size + length:
        raise ProtocolViolation(
            f"declared length {length} does not match payload of {len(data) - _HEADER.size}"
        )
    return data[_HEADER.size], data[_HEADER.size + 1 :]


class TcpEndpoint:
    """Framed stream over one connected socket; reassembles partial reads."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False

    def send(self, kind: int, body: bytes) -> None:
        if self._closed:
            raise ChannelClosed("send after close")
        try:
            self._sock.sendall(encode_frame(kind, body))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, nbytes: int, deadline: float | None) -> bytes:
        chunks = []
        got = 0
        while got < nbytes:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout("read deadline exceeded")
                self._sock.settimeout(remaining)
            else:
                self._sock.settimeout(None)
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

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        if self._closed:
            raise ChannelClosed("recv after close")
        deadline = None if timeout is None else time.monotonic() + timeout
        length = _declared_length(self._recv_exact(_HEADER.size, deadline))
        payload = self._recv_exact(length, deadline)
        return payload[0], payload[1:]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class TcpListener:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def fileno(self) -> int:
        """The listening socket's descriptor, readable when a client is waiting."""
        return self._sock.fileno()

    def accept(self, timeout: float | None = None) -> TcpEndpoint:
        self._sock.settimeout(timeout)
        try:
            conn, _peer = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout(f"no connection within {timeout}s") from None
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return TcpEndpoint(conn)

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


def tcp_connect(addr: tuple[str, int], timeout: float = 30.0) -> TcpEndpoint:
    host, port = addr
    try:
        sock = socket.create_connection(addr, timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return TcpEndpoint(sock)
