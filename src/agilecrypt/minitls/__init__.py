"""A purpose-built TLS-1.2-style stack for exercising the post-quantum
stand-ins end to end.

Exactly one cipher suite exists (0x1306: KEM key exchange, AES-256-CBC,
HMAC-SHA512 records) plus a hello extension carrying each side's
security-level template so that registry drift aborts the handshake
early.  The interesting artifact is the handshake size report: the
server certificate embeds the full KEM public key, so Certificate is a
multi-megabyte message at the largest parameter set.
"""

from __future__ import annotations

from .certificate import (
    Certificate,
    issue_certificate,
    parse_certificate,
    verify_certificate,
)
from .handshake import (
    ClientTlsConfig,
    ServerTlsConfig,
    TlsSession,
    client_handshake,
    derive_session_keys,
    finished_verify_data,
    server_handshake,
    template_divergence,
)
from .record import RecordLayer
from .transcript import HandshakeTranscript, transcript_report
from .transport import (
    BufferTransport,
    SocketTransport,
    Transport,
    connect_tcp,
    listen_tcp,
    transport_pair,
)
from .wire import (
    AlertDescription,
    ClientHello,
    ContentType,
    HandshakeType,
    ServerHello,
    TemplateInfo,
    TlsAlertReceived,
    TlsAlertSent,
    TlsError,
)

__all__ = [
    "AlertDescription",
    "BufferTransport",
    "Certificate",
    "ClientHello",
    "ClientTlsConfig",
    "ContentType",
    "HandshakeTranscript",
    "HandshakeType",
    "RecordLayer",
    "ServerHello",
    "ServerTlsConfig",
    "SocketTransport",
    "TemplateInfo",
    "TlsAlertReceived",
    "TlsAlertSent",
    "TlsError",
    "TlsSession",
    "Transport",
    "client_handshake",
    "connect_tcp",
    "derive_session_keys",
    "finished_verify_data",
    "issue_certificate",
    "listen_tcp",
    "parse_certificate",
    "server_handshake",
    "template_divergence",
    "transcript_report",
    "transport_pair",
    "verify_certificate",
]
