"""The framed TCP transport, the one place a frame exists.

One frame on the wire is a 4-byte big-endian length (counting everything that
follows), one kind byte, then the body; so length == len(body) + 1.
Frames are delivered whole or not at all. An endpoint bounds the body both
ways: it refuses to send a longer one, and a header that declares one before
reading it. The loopback cohort (``protocol.InThreadCohort``) passes (kind,
body) pairs as they are. Nothing but frames crosses a TCP connection, and
every one is made, both ends, by ``tcp_pairs`` in one process on loopback.
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
    written, a received one from its header, before it is read."""

    def __init__(self, sock: socket.socket, max_body: int):
        self._sock = sock
        self._limit = max_body + 1
        self._closed = False

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


def tcp_pairs(count: int, timeout: float, max_body: int) -> list[tuple[TcpEndpoint, TcpEndpoint]]:
    """``count`` connected (server end, client end) pairs, made one at a time
    through a listener on an ephemeral loopback port, closed after the last.
    The k-th connection accepted must be the k-th made here, so none from
    outside this process is ever served. A failure closes every socket made."""
    socks, pairs = [], []
    try:
        socks.append(listener := socket.create_server(("127.0.0.1", 0)))
        listener.settimeout(timeout)
        for k in range(1, count + 1):
            socks.append(client := socket.create_connection(listener.getsockname(), timeout=timeout))
            server, (host, port, *_) = listener.accept()
            socks.append(server)
            if (host, port) != client.getsockname()[:2]:
                raise ProtocolViolation(
                    f"connection from {host}:{port} is not the runner's own, made for client {k}"
                )
            for sock in (server, client):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
            pairs.append((TcpEndpoint(server, max_body), TcpEndpoint(client, max_body)))
    except BaseException as exc:
        for sock in socks:
            sock.close()
        if isinstance(exc, OSError):
            raise TransportError(f"cannot make TCP pair {len(pairs) + 1}: {exc}") from exc
        raise
    listener.close()
    return pairs
