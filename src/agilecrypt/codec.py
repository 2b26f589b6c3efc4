"""The one strict byte codec behind every agilecrypt format.

All integers are big-endian; ``vecN(x)`` is a ``uN`` length prefix
followed by the bytes of ``x`` (docs/formats.md, docs/wire-formats.md).
Both directions are strict and raise ``MalformedEncoding``: decoding on a
read past the end, trailing bytes or text outside its encoding (with the
failing byte offset, counted from the start of the decoder's input even
in a nested reader), encoding on a value, vector or text that does not
fit its field.  A caller with its own error type (the keystore's
``MalformedStore``) translates at one boundary.
"""

from __future__ import annotations

import struct

from .errors import MalformedEncoding


class Reader:
    """Reads ``data`` front to back.  Over a memoryview every read is a
    view too, so a parser copies only the fields it keeps."""

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self._data, self._off = data, start
        self._end = len(data) if end is None else end

    @property
    def offset(self) -> int:
        return self._off

    def at_end(self) -> bool:
        return self._off == self._end

    def take(self, n: int) -> bytes:
        if self._off + n > self._end:
            raise MalformedEncoding("input truncated", offset=self._off)
        self._off += n
        return self._data[self._off - n : self._off]

    def nested(self, n: int) -> Reader:
        """A reader of the next ``n`` bytes; its offsets count from this input's start."""
        self.take(n)
        return Reader(self._data, self._off - n, self._off)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u24(self) -> int:
        high, low = struct.unpack(">BH", self.take(3))
        return (high << 16) | low

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def vec8(self) -> bytes:
        return self.take(self.u8())

    def vec16(self) -> bytes:
        return self.take(self.u16())

    def vec24(self) -> bytes:
        return self.take(self.u24())

    def vec32(self) -> bytes:
        return self.take(self.u32())

    def expect_end(self) -> None:
        if not self.at_end():
            raise MalformedEncoding(f"{self._end - self._off} trailing bytes", offset=self._off)


def decode_text(raw: bytes, encoding: str, offset: int) -> str:
    """``raw`` (bytes or a view) as text; ``offset`` is where the field ends."""
    try:
        return str(raw, encoding)
    except UnicodeDecodeError as exc:
        raise MalformedEncoding(f"text field is not {encoding}", offset=offset) from exc


def encode_text(value: str, encoding: str) -> bytes:
    try:
        return value.encode(encoding)
    except UnicodeEncodeError as exc:
        raise MalformedEncoding(f"text field is not {encoding}") from exc


def uint(value: int, size: int) -> bytes:
    """``value`` as a ``size``-byte unsigned integer."""
    try:
        return value.to_bytes(size, "big")
    except OverflowError:
        raise MalformedEncoding(f"{value} does not fit in u{8 * size}") from None


def _vec(data: bytes, size: int) -> bytes:
    if len(data) >> (8 * size):
        raise MalformedEncoding(f"vector of {len(data)} bytes exceeds u{8 * size} length")
    return len(data).to_bytes(size, "big") + data


def vec8(data: bytes) -> bytes:
    return _vec(data, 1)


def vec16(data: bytes) -> bytes:
    return _vec(data, 2)


def vec32(data: bytes) -> bytes:
    return _vec(data, 4)
