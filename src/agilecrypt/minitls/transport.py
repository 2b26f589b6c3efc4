"""Byte-stream transports behind one small abstraction.

SocketTransport wraps any connected socket (TCP or socketpair), which
also covers the in-memory case: transport_pair() returns two connected
endpoints in one process.  On TCP it turns Nagle's algorithm off: the
record layer hands over whole flights and application records one at a
time, and holding back the small ones until the peer's delayed ACK would
stall the handshake.

SocketTransport reads ahead through the standard library: an
io.BufferedReader of READ_BUFFER_SIZE bytes over a raw reader that makes
one receive per call, so a record's header and fragment, and often
several records, take one receive instead of two per record.  The
timeout applies to each receive and to each whole write, and
``bytes_received`` counts what was taken from the socket, read-ahead
included.
BufferTransport is a single-threaded FIFO for tests that want to inject
bytes directly without sockets.
"""

from __future__ import annotations

import io
import socket
import weakref

from ..errors import ConnectionClosed


class Transport:
    def read_exact(self, n: int) -> bytes:
        raise NotImplementedError

    def write(self, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# Room for three records of the largest sealed size (2^14 + 2048 + 5).
READ_BUFFER_SIZE = 1 << 16


class _SocketReader(io.RawIOBase):
    """The raw stream under a SocketTransport's read buffer: each
    readinto is one receive from the transport's current socket, counted
    in its ``bytes_received``.  It holds the transport weakly, so the two
    form no reference cycle and a dropped transport frees its buffer at
    once."""

    def __init__(self, transport: SocketTransport):
        self._transport = weakref.proxy(transport)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        transport = self._transport
        try:
            count = transport._sock.recv_into(buffer)
        except OSError as exc:
            raise ConnectionClosed(f"socket error while reading: {exc}") from exc
        transport.bytes_received += count
        return count


class SocketTransport(Transport):
    """Socket-backed transport.  A read timeout turns a half-dead peer
    into ConnectionClosed instead of hanging forever; pass None to block
    indefinitely.  The timeout bounds each receive and each whole write.
    ``bytes_sent`` counts what was written and ``bytes_received`` what
    was taken from the socket, read-ahead not yet returned included."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        sock.settimeout(timeout)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        self._reader = io.BufferedReader(_SocketReader(self), READ_BUFFER_SIZE)

    def read_exact(self, n: int) -> bytes:
        data = self._reader.read(n)
        if len(data) < n:
            raise ConnectionClosed(f"stream ended with {n - len(data)} bytes missing")
        return data

    def write(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosed(f"socket error while writing: {exc}") from exc
        self.bytes_sent += len(data)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def transport_pair(timeout: float | None = None) -> tuple[SocketTransport, SocketTransport]:
    """Two connected in-process endpoints (socketpair under the hood)."""
    a, b = socket.socketpair()
    return SocketTransport(a, timeout), SocketTransport(b, timeout)


def listen_tcp(port: int) -> socket.socket:
    """A listening socket on the loopback interface alone; port 0 picks a free one."""
    return socket.create_server(("127.0.0.1", port))


def connect_tcp(host: str, port: int, timeout: float | None = None) -> SocketTransport:
    """The timeout applies to connecting and to every later read."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except (OSError, UnicodeError) as exc:
        # getaddrinfo raises UnicodeError, with no lookup, for a host IDNA cannot encode.
        raise ConnectionClosed(f"cannot connect to {host}:{port}: {exc}") from exc
    return SocketTransport(sock, timeout)


class BufferTransport(Transport):
    """Single-threaded FIFO endpoint: write() feeds the peer's read
    buffer.  Reading past the buffered bytes raises instead of blocking;
    callers control the interleaving."""

    def __init__(self) -> None:
        self._incoming = bytearray()
        self._peer: BufferTransport | None = None
        self._closed = False

    @classmethod
    def pair(cls) -> tuple[BufferTransport, BufferTransport]:
        a, b = cls(), cls()
        a._peer, b._peer = b, a
        return a, b

    def feed(self, data: bytes) -> None:
        self._incoming.extend(data)

    def read_exact(self, n: int) -> bytes:
        if len(self._incoming) < n:
            raise ConnectionClosed(
                f"buffer has {len(self._incoming)} bytes, {n} requested"
            )
        out = bytes(self._incoming[:n])
        del self._incoming[:n]
        return out

    def write(self, data: bytes) -> None:
        if self._closed or self._peer is None or self._peer._closed:
            raise ConnectionClosed("buffer pipe is closed")
        self._peer.feed(data)

    def close(self) -> None:
        self._closed = True
