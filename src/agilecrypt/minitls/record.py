"""TLS-1.2-style record layer.

Records are `type u8 || version u16 || length u16 || fragment`.  Before
ChangeCipherSpec, fragments travel in the clear; afterwards each
direction runs MAC-then-encrypt CBC through primitives.seal_record with
its own sequence counter starting at 0.  A record whose protection fails
is fatal: the error propagates and the connection must be torn down.

The layer owns the outgoing queue, so handshake flights, alerts and
application data take one send path.  ``frame`` cuts a payload of any
length into records of at most MAX_RECORD_PLAINTEXT bytes (an empty one
makes no record) and queues them; ``flush`` hands the whole queue to the
transport in one write; ``send`` does both, so a handshake flight or
an alert, one ``send`` or ``flush``, is one write.  ``stream`` frames
and flushes one record at a time, so each record is written as soon as
it is sealed; ``TlsSession.send`` is one ``stream``, so the peer opens
one application record while the next is sealed.  ``recv`` reads a
header, then its fragment, from the transport, whose read-ahead usually
serves both from one receive.  Plaintext records that are the same on
every connection can be framed once, by ``frame_clear``, and queued on
any record layer whose send protection is still off (``reuse``).

Every queued item is ``bytes``, never a view.  CPython's ``bytes.join``
releases the GIL for a large join only when every item is ``bytes``, and
the server's cached Certificate records make its first flight about
1.3 MB at HIGH.  Queuing that wire as a ``memoryview`` instead cost the
``tls-high`` benchmark 2% on ``op_ms_p50`` (3.00 to 3.07 ms) and 9% on
``ops_per_s`` (198 to 180), in 6 of 6 alternating 30 s pairs on 2 cores
with Python 3.11.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from ..errors import BadMac, BadPadding, ConnectionClosed, MalformedEncoding
from ..primitives import SymmetricKeys, open_record, seal_record
from .transport import Transport
from .wire import TLS_VERSION, ContentType

MAX_RECORD_PLAINTEXT = 2**14
_HEADER = struct.Struct(">BHH")
# CBC expansion: 16 IV + 64 MAC + up to 16 padding + block rounding.
_MAX_WIRE_FRAGMENT = MAX_RECORD_PLAINTEXT + 2048


def _content_type(ctype_raw: int, version: int) -> ContentType:
    """The content type of a record header, which must carry TLS_VERSION."""
    try:
        content_type = ContentType(ctype_raw)
    except ValueError:
        raise MalformedEncoding(f"unknown content type {ctype_raw}", offset=0) from None
    if version != TLS_VERSION:
        raise MalformedEncoding(f"unsupported record version 0x{version:04x}", offset=1)
    return content_type


class ClearRecords(NamedTuple):
    """Plaintext records framed ahead: their wire bytes, and a view of
    each record's payload within them."""

    wire: bytes
    payloads: tuple[memoryview, ...]


def frame_clear(content_type: ContentType, data: bytes) -> ClearRecords:
    """``data`` as plaintext records of MAX_RECORD_PLAINTEXT bytes each
    (the last one shorter), the same bytes ``RecordLayer.frame`` makes
    before ChangeCipherSpec; ``data`` is copied once, into the wire."""
    view = memoryview(data)
    chunks = [
        view[start : start + MAX_RECORD_PLAINTEXT]
        for start in range(0, len(data), MAX_RECORD_PLAINTEXT)
    ]
    headers = [_HEADER.pack(content_type, TLS_VERSION, len(chunk)) for chunk in chunks]
    wire = b"".join(part for record in zip(headers, chunks) for part in record)
    wire_view, payloads, offset = memoryview(wire), [], 0
    for chunk in chunks:
        offset += _HEADER.size
        payloads.append(wire_view[offset : offset + len(chunk)])
        offset += len(chunk)
    return ClearRecords(wire, tuple(payloads))


class RecordLayer:
    def __init__(self, transport: Transport):
        self.transport = transport
        self._send_keys: SymmetricKeys | None = None
        self._recv_keys: SymmetricKeys | None = None
        self._send_seq = 0
        self._recv_seq = 0
        self.records_sent = 0
        self.records_received = 0
        self.writes = 0
        self._queue: list[bytes] = []

    def enable_send_protection(self, keys: SymmetricKeys) -> None:
        self._send_keys = keys
        self._send_seq = 0

    def enable_recv_protection(self, keys: SymmetricKeys) -> None:
        self._recv_keys = keys
        self._recv_seq = 0

    def frame(self, content_type: ContentType, data: bytes) -> None:
        """Queue ``data`` as records of MAX_RECORD_PLAINTEXT bytes each
        (the last one shorter), sealed if send protection is on; empty
        ``data`` queues nothing.  Sealing consumes a sequence number, so
        records reach the transport in the order they were framed."""
        view = memoryview(data)
        mac_header = struct.pack(">BH", content_type, TLS_VERSION)
        for start in range(0, len(view), MAX_RECORD_PLAINTEXT):
            fragment = view[start : start + MAX_RECORD_PLAINTEXT]
            if self._send_keys is not None:
                fragment = seal_record(self._send_keys, self._send_seq, mac_header, fragment)
                self._send_seq += 1
            self._queue.append(_HEADER.pack(content_type, TLS_VERSION, len(fragment)) + fragment)
            self.records_sent += 1

    def reuse(self, records: ClearRecords) -> None:
        """Queue the wire bytes of ``records``, counted as framed by this
        layer.  They are plaintext, so they belong before send protection
        is on."""
        self._queue.append(records.wire)
        self.records_sent += len(records.payloads)

    def flush(self) -> None:
        """Hand every queued record to the transport in one write.  The
        queue is emptied first, so a failed write leaves nothing to be
        sent again."""
        if self._queue:
            wire = b"".join(self._queue)
            self._queue.clear()
            self.transport.write(wire)
            self.writes += 1

    def send(self, content_type: ContentType, data: bytes) -> None:
        """Queue ``data`` and flush, behind any records already queued."""
        self.frame(content_type, data)
        self.flush()

    def stream(self, content_type: ContentType, data: bytes) -> None:
        """Frame ``data`` a record at a time and flush after each, so each
        record is written as soon as it is sealed."""
        view = memoryview(data)
        for start in range(0, len(view), MAX_RECORD_PLAINTEXT):
            self.frame(content_type, view[start : start + MAX_RECORD_PLAINTEXT])
            self.flush()

    def recv(self) -> tuple[ContentType, bytes]:
        header = self.transport.read_exact(_HEADER.size)
        ctype_raw, version, length = _HEADER.unpack(header)
        if self._recv_keys is not None:
            return self._recv_protected(header, ctype_raw, version, length)
        content_type = _content_type(ctype_raw, version)
        if length > _MAX_WIRE_FRAGMENT:
            raise MalformedEncoding(f"record length {length} exceeds limit", offset=3)
        fragment = self.transport.read_exact(length)
        self.records_received += 1
        return content_type, fragment

    def _recv_protected(
        self, header: bytes, ctype_raw: int, version: int, length: int
    ) -> tuple[ContentType, bytes]:
        """Receive one sealed record.

        The type and version bytes are authenticated, so their validation
        is deferred to the MAC: the raw header bytes feed open_record and
        any deviation surfaces as BadMac rather than through a parser
        path.  Framing damage gets the sealed-record error model too: a
        length no sealed record can have is BadPadding, and a fragment
        the peer never finishes delivering fails authentication, exactly
        as a truncated ciphertext would.
        """
        if length > _MAX_WIRE_FRAGMENT:
            raise BadPadding(
                f"claimed fragment length {length} cannot hold a sealed record"
            )
        try:
            fragment = self.transport.read_exact(length)
        except ConnectionClosed as exc:
            raise BadMac(f"protected record truncated: {exc}") from exc
        payload = open_record(self._recv_keys, self._recv_seq, header[:3], fragment)
        self._recv_seq += 1
        self.records_received += 1
        return _content_type(ctype_raw, version), payload
