"""Wire-level constants and codecs for the TLS-1.2-subset stack.

Framing follows TLS 1.2 conventions: big-endian integers, length-prefixed
vectors, 4-byte handshake headers (1-byte type, 3-byte length).  The
reader and vector writers are agilecrypt.codec's, whose strict-decoding
rules apply: trailing bytes and out-of-range values are rejected with the
failing byte offset.  Decoders take any bytes-like input, since the
handshake channel hands a message body over as views of the record
payloads it arrived in, and a body in one record reaches its decoder as
that memoryview; the small messages' decoders copy it to bytes first, so
every field they return is bytes, while decode_certificate_body returns a
view of its input.

The template-info extension (type 0xFD00, private-use range) carries the
sender's registry version, security level, and both resolved algorithm
identifiers, so a peer can classify template drift before any key
exchange happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..codec import Reader, decode_text, encode_text, uint, vec8, vec16
from ..errors import AgilecryptError, MalformedEncoding

TLS_VERSION = 0x0303
SUITE_0x1306 = 0x1306
SUITE_NAMES = {SUITE_0x1306: "TLS_CME_SPX_WITH_AES_256_CBC_SHA512"}
TEMPLATE_INFO_EXT = 0xFD00

MAX_HANDSHAKE_MESSAGE = 8 * 1024 * 1024  # generous cap above the largest certificate
FINISHED_LEN = 12  # verify_data bytes, RFC 5246 §7.4.9


class ContentType(IntEnum):
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class HandshakeType(IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    CERTIFICATE = 11
    SERVER_HELLO_DONE = 14
    CLIENT_KEY_EXCHANGE = 16
    FINISHED = 20

    @property
    def message_name(self) -> str:
        """The message name in reports: CLIENT_KEY_EXCHANGE is ClientKeyExchange."""
        return self.name.title().replace("_", "")


class AlertDescription(IntEnum):
    BAD_RECORD_MAC = 20
    HANDSHAKE_FAILURE = 40
    BAD_CERTIFICATE = 42
    DECRYPT_ERROR = 51
    TEMPLATE_MISMATCH = 112
    INVALID_CIPHERTEXT = 113


class TlsError(AgilecryptError):
    """Base class for protocol-level failures."""


class TlsAlertSent(TlsError):
    """This side detected a fatal condition and sent the alert."""

    def __init__(self, description: AlertDescription, reason: str):
        super().__init__(f"sent fatal alert {description.name}: {reason}")
        self.description = description
        self.reason = reason


class TlsAlertReceived(TlsError):
    """The peer sent a fatal alert."""

    def __init__(self, description: int):
        name = alert_name(description)
        super().__init__(f"received fatal alert {name.upper() if name else f'code {description}'}")
        self.description = description


def alert_name(code: int) -> str | None:
    """Lowercase name of a known alert code, None for any other code."""
    try:
        return AlertDescription(code).name.lower()
    except ValueError:
        return None


def alert_label(code: int) -> str:
    """``alert_name``, or ``alert_<code>`` for a code with no name."""
    return alert_name(code) or f"alert_{code}"


# ---------------------------------------------------------------------------
# Handshake message framing
# ---------------------------------------------------------------------------

def encode_handshake_message(hs_type: HandshakeType, *body_parts: bytes) -> bytes:
    """The message whose body is ``body_parts`` joined, made in one join."""
    return b"".join([uint(hs_type, 1), uint(sum(map(len, body_parts)), 3), *body_parts])


def decode_handshake_header(header: bytes) -> tuple[HandshakeType, int]:
    r = Reader(header)
    raw_type, length = r.u8(), r.u24()
    r.expect_end()
    try:
        hs_type = HandshakeType(raw_type)
    except ValueError:
        raise MalformedEncoding(f"unknown handshake type {raw_type}", offset=0) from None
    return hs_type, length


# ---------------------------------------------------------------------------
# Template-info extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateInfo:
    registry_version: int
    level: int
    sig_id: str
    enc_id: str

    def encode(self) -> bytes:
        return (
            uint(self.registry_version, 4)
            + uint(self.level, 1)
            + vec8(encode_text(self.sig_id, "ascii"))
            + vec8(encode_text(self.enc_id, "ascii"))
        )

    @classmethod
    def decode(cls, data: bytes) -> TemplateInfo:
        return _read_template_info(Reader(data))


def _read_template_info(r: Reader) -> TemplateInfo:
    """The template info that fills the rest of ``r``."""
    version, level = r.u32(), r.u8()
    sig_id = decode_text(r.vec8(), "ascii", r.offset)
    enc_id = decode_text(r.vec8(), "ascii", r.offset)
    r.expect_end()
    return TemplateInfo(registry_version=version, level=level, sig_id=sig_id, enc_id=enc_id)


# ---------------------------------------------------------------------------
# Hello messages
# ---------------------------------------------------------------------------

# Both hellos are a prefix (version, random, session_id), their own
# suite and compression fields, and an optional extension tail.

def _encode_hello_prefix(random: bytes, session_id: bytes) -> bytes:
    return uint(TLS_VERSION, 2) + random + vec8(session_id)


def _encode_extension_tail(info: TemplateInfo | None) -> bytes:
    if info is None:
        return b""
    return vec16(uint(TEMPLATE_INFO_EXT, 2) + vec16(info.encode()))


def _decode_hello_prefix(r: Reader) -> tuple[bytes, bytes]:
    """The random and session_id of a hello whose version is ours."""
    version = r.u16()
    if version != TLS_VERSION:
        raise MalformedEncoding(f"unsupported version 0x{version:04x}", offset=0)
    return r.take(32), r.vec8()


def _decode_extension_tail(r: Reader) -> TemplateInfo | None:
    """The template info in the rest of a hello; the extensions block is
    optional in TLS 1.2, and nothing may follow it."""
    if r.at_end():
        return None
    block = r.nested(r.u16())
    info = None
    while not block.at_end():
        ext_type = block.u16()
        ext_data = block.nested(block.u16())
        if ext_type == TEMPLATE_INFO_EXT:
            if info is not None:
                raise MalformedEncoding("duplicate template-info extension", offset=ext_data.offset)
            info = _read_template_info(ext_data)
    r.expect_end()
    return info


@dataclass(frozen=True)
class ClientHello:
    random: bytes
    cipher_suites: tuple[int, ...]
    template_info: TemplateInfo | None
    session_id: bytes = b""
    compression_methods: tuple[int, ...] = (0,)

    def encode(self) -> bytes:
        suites = b"".join(uint(s, 2) for s in self.cipher_suites)
        return (
            _encode_hello_prefix(self.random, self.session_id)
            + vec16(suites)
            + vec8(bytes(self.compression_methods))
            + _encode_extension_tail(self.template_info)
        )

    @classmethod
    def decode(cls, data: bytes) -> ClientHello:
        r = Reader(bytes(data))
        random, session_id = _decode_hello_prefix(r)
        suites_raw = r.vec16()
        if len(suites_raw) == 0 or len(suites_raw) % 2:
            raise MalformedEncoding("cipher suite list invalid", offset=r.offset)
        suites = tuple(
            int.from_bytes(suites_raw[i : i + 2], "big") for i in range(0, len(suites_raw), 2)
        )
        compression = tuple(r.vec8())
        info = _decode_extension_tail(r)
        return cls(
            random=random,
            cipher_suites=suites,
            template_info=info,
            session_id=session_id,
            compression_methods=compression,
        )


@dataclass(frozen=True)
class ServerHello:
    random: bytes
    cipher_suite: int
    template_info: TemplateInfo | None
    session_id: bytes = b""

    def encode(self) -> bytes:
        return (
            _encode_hello_prefix(self.random, self.session_id)
            + uint(self.cipher_suite, 2)
            + b"\x00"  # null compression
            + _encode_extension_tail(self.template_info)
        )

    @classmethod
    def decode(cls, data: bytes) -> ServerHello:
        r = Reader(bytes(data))
        random, session_id = _decode_hello_prefix(r)
        suite = r.u16()
        compression = r.u8()
        if compression != 0:
            raise MalformedEncoding("compression must be null", offset=r.offset - 1)
        info = _decode_extension_tail(r)
        return cls(random=random, cipher_suite=suite, template_info=info, session_id=session_id)


# ---------------------------------------------------------------------------
# Remaining handshake bodies
# ---------------------------------------------------------------------------

def certificate_chain_header(cert_size: int) -> bytes:
    """The 6 bytes that open the body of a chain of one certificate of
    ``cert_size`` bytes: the chain's length, then the certificate's."""
    return uint(cert_size + 3, 3) + uint(cert_size, 3)


def encode_certificate_body(cert_bytes: bytes) -> bytes:
    """A chain of one certificate: vec24(vec24(cert_bytes)), with the
    certificate copied once."""
    return certificate_chain_header(len(cert_bytes)) + cert_bytes


def decode_certificate_body(data: bytes) -> memoryview:
    """The one certificate in the chain, as a view of ``data``: the
    megabyte-scale bytes are not copied."""
    r = Reader(memoryview(data))
    chain = r.nested(r.u24())
    r.expect_end()
    cert = chain.vec24()
    chain.expect_end()
    return cert


def encode_client_key_exchange_body(ct_bytes: bytes) -> bytes:
    return vec16(ct_bytes)


def decode_client_key_exchange_body(data: bytes) -> bytes:
    r = Reader(bytes(data))
    ct = r.vec16()
    if len(ct) == 0:
        raise MalformedEncoding("empty key exchange payload", offset=0)
    r.expect_end()
    return ct


def encode_finished_body(verify_data: bytes) -> bytes:
    if len(verify_data) != FINISHED_LEN:
        raise MalformedEncoding(f"verify_data must be {FINISHED_LEN} bytes")
    return verify_data


def decode_finished_body(data: bytes) -> bytes:
    if len(data) != FINISHED_LEN:
        raise MalformedEncoding(f"finished body is {len(data)} bytes, expected {FINISHED_LEN}")
    return data


def decode_server_hello_done_body(data: bytes) -> None:
    if data != b"":
        raise MalformedEncoding("ServerHelloDone carries no body", offset=0)


def encode_alert(description: AlertDescription) -> bytes:
    return bytes([2, description])  # level 2 = fatal; the subset knows no warnings


def decode_alert(data: bytes) -> int:
    if len(data) != 2:
        raise MalformedEncoding(f"alert record is {len(data)} bytes, expected 2")
    if data[0] != 2:
        raise MalformedEncoding(f"alert level {data[0]} unknown, only fatal exists here")
    return data[1]
