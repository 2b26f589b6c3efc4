"""The handshake state machine and the resulting protected session.

One cipher suite (0x1306), server-auth only, no resumption and no
renegotiation.  Key exchange is the code-based KEM: the client
encapsulates against the public key from the server certificate and the
shared secret becomes the premaster.  Both sides advertise their
security-level template in a hello extension; any divergence aborts the
handshake before a single key-exchange byte is sent.

The message order is written once, in ``FLOW``: one row per message in
wire order, ChangeCipherSpec included, naming its sender, the sender's
write and the receiver's read.  One driver, ``_handshake``, walks it for
either role, so the roles cannot disagree on what comes next.  One
function reads every record (``_recv_payload``) and one maps a failure
to the alert this side sends (``_alert_for``), for the handshake and the
session alike.  A row refuses by raising ``TlsAlertSent``;
``_handshake`` alone sends a handshake's alert, the refusal's own or the
one ``_alert_for`` gives a decoding or record failure, and finishes the
transcript on every outcome.

Each flight goes to the transport in one write.  The record layer queues
the records of every message a side sends (sealed after its
ChangeCipherSpec) and writes them together when the side next reads,
when the handshake returns, and ahead of a fatal alert, which takes the
same queue.  Application data is different: ``TlsSession.send`` is one
``RecordLayer.stream``, which writes each record as soon as it is sealed,
so the peer opens, and an echo peer answers, one record while the next
is sealed.  The byte stream is the same as one write per record; only
the number of writes changes.  ``TlsSession.recv_exact`` joins the
payloads of the records it reads once.

The messages a flight carries enter the transcript hash after it is
written, so the server hashes its certificate while the client reads
it.  The server queues its certificate as the records
``Certificate.records`` framed once, and hashes views of their
payloads.  A received message is kept as the record payloads it arrived
in and hashed part by part; a row joins it only when its decoder needs
contiguous bytes, which the Certificate row does only when
``remembered_certificate`` does not already hold those bytes.

Received messages are cut from one pending view, the unread rest of the
last handshake record, and the next record is read only once it is used
up.  So a message may span records and several may share one (RFC 5246
§6.2.1), and handshake bytes still pending when the peer's
ChangeCipherSpec is due are refused.

At most one alert is ever sent per connection and every alert is fatal,
so close_notify does not exist here.
"""

from __future__ import annotations

import hmac
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NoReturn

from ..cbkem import KemPublicKey, KemSecretKey, kem_decap, kem_encap
from ..easyapi import SecurityLevel, TemplateKind, TemplateRegistry
from ..errors import (
    AgilecryptError,
    BadMac,
    BadPadding,
    ConnectionClosed,
    InvalidCiphertext,
    MalformedEncoding,
)
from ..primitives import HashId, Rng, SymmetricKeys, SystemRng, prf
from .certificate import (
    Certificate,
    parse_certificate,
    remembered_certificate,
    verify_certificate,
)
from .record import ClearRecords, RecordLayer
from .transcript import HandshakeTranscript
from .transport import Transport
from .wire import (
    FINISHED_LEN,
    MAX_HANDSHAKE_MESSAGE,
    SUITE_0x1306,
    AlertDescription,
    ClientHello,
    ContentType,
    HandshakeType,
    ServerHello,
    TemplateInfo,
    TlsAlertReceived,
    TlsAlertSent,
    decode_alert,
    decode_certificate_body,
    decode_client_key_exchange_body,
    decode_finished_body,
    decode_handshake_header,
    decode_server_hello_done_body,
    encode_alert,
    encode_client_key_exchange_body,
    encode_finished_body,
    encode_handshake_message,
)

_MASTER_SECRET_LEN = 48
_KEY_BLOCK_LEN = 64 + 64 + 32 + 32 + 16 + 16


# ---------------------------------------------------------------------------
# Key schedule
# ---------------------------------------------------------------------------

@dataclass
class SessionKeys:
    """Master secret plus both directions' record keys."""

    master_secret: bytearray
    client: SymmetricKeys
    server: SymmetricKeys

    def zeroize(self) -> None:
        for i in range(len(self.master_secret)):
            self.master_secret[i] = 0
        self.client.zeroize()
        self.server.zeroize()


def derive_session_keys(
    premaster: bytes, client_random: bytes, server_random: bytes
) -> SessionKeys:
    master = prf(
        HashId.H512,
        premaster,
        "master secret",
        client_random + server_random,
        _MASTER_SECRET_LEN,
    )
    block = prf(
        HashId.H512,
        master,
        "key expansion",
        server_random + client_random,
        _KEY_BLOCK_LEN,
    )
    client_mac, server_mac = block[0:64], block[64:128]
    client_key, server_key = block[128:160], block[160:192]
    client_iv, server_iv = block[192:208], block[208:224]
    return SessionKeys(
        master_secret=bytearray(master),
        client=SymmetricKeys(enc_key=client_key, mac_key=client_mac, iv_seed=client_iv),
        server=SymmetricKeys(enc_key=server_key, mac_key=server_mac, iv_seed=server_iv),
    )


def finished_verify_data(master_secret: bytes, label: str, transcript_hash: bytes) -> bytes:
    return prf(HashId.H512, bytes(master_secret), label, transcript_hash, FINISHED_LEN)


# ---------------------------------------------------------------------------
# Template negotiation
# ---------------------------------------------------------------------------

def build_template_info(registry: TemplateRegistry, level: SecurityLevel) -> TemplateInfo:
    """This side's template view at ``level``; TemplateRegistry checked
    each entry's family when it was made, so the ids are taken as read."""
    return TemplateInfo(
        registry_version=registry.version,
        level=int(level),
        sig_id=registry.entries[(TemplateKind.SIGNATURE, level)],
        enc_id=registry.entries[(TemplateKind.ENCRYPTION, level)],
    )


def template_divergence(local: TemplateInfo, remote: TemplateInfo) -> str | None:
    """None when both algorithm ids and the level line up, otherwise a
    reason string classifying the drift: a differing level is a template
    mismatch, and differing ids are a version drift when the registry
    versions differ, otherwise a genuine template conflict."""
    problems = []
    if remote.level != local.level:
        problems.append(f"level template_mismatch: local {local.level} vs remote {remote.level}")
    if local.registry_version != remote.registry_version:
        verdict = "version_mismatch"
    else:
        verdict = "template_mismatch"
    for label, local_id, remote_id in (
        ("signature", local.sig_id, remote.sig_id),
        ("encryption", local.enc_id, remote.enc_id),
    ):
        if local_id != remote_id:
            problems.append(
                f"{label} {verdict}: local {local_id!r} "
                f"(registry v{local.registry_version}) vs remote {remote_id!r} "
                f"(registry v{remote.registry_version})"
            )
    if not problems:
        return None
    return "; ".join(problems)


# ---------------------------------------------------------------------------
# Handshake plumbing
# ---------------------------------------------------------------------------

def _joined(parts: Sequence[memoryview]) -> bytes:
    """``parts`` as one bytes-like object: the only part itself, else
    one join."""
    return parts[0] if len(parts) == 1 else b"".join(parts)


def _recv_payload(record: RecordLayer, expected: ContentType) -> bytes:
    """The payload of the next record if it is of type ``expected``; a peer
    alert raises TlsAlertReceived and any other record MalformedEncoding."""
    content_type, payload = record.recv()
    if content_type == expected:
        return payload
    if content_type == ContentType.ALERT:
        raise TlsAlertReceived(decode_alert(payload))
    raise MalformedEncoding(f"expected {expected.name} record, got content type {content_type}")


def _alert_for(exc: AgilecryptError) -> AlertDescription | None:
    """The fatal alert this side sends when ``exc`` ends a connection."""
    if isinstance(exc, TlsAlertSent):
        return exc.description
    if isinstance(exc, (BadMac, BadPadding)):
        return AlertDescription.BAD_RECORD_MAC
    if isinstance(exc, MalformedEncoding):
        return AlertDescription.HANDSHAKE_FAILURE
    return None


def _send_fatal_alert(record: RecordLayer, description: AlertDescription) -> None:
    """Best effort: the connection is going down either way.  Records
    still queued go out first, in the same write."""
    try:
        record.send(ContentType.ALERT, encode_alert(description))
    except (AgilecryptError, OSError):
        pass


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ClientTlsConfig:
    registry: TemplateRegistry
    level: SecurityLevel
    trusted_roots: tuple[bytes, ...]
    rng: Rng | None = None


@dataclass
class ServerTlsConfig:
    registry: TemplateRegistry
    level: SecurityLevel
    certificate: Certificate
    kem_secret: KemSecretKey
    rng: Rng | None = None


# ---------------------------------------------------------------------------
# Protected session
# ---------------------------------------------------------------------------

class TlsSession:
    """Application-data channel after a completed handshake.

    Every failed ``send``, ``recv`` or ``recv_exact`` tears the connection
    down before a byte of the offending record is surfaced to the caller.
    """

    def __init__(self, record: RecordLayer, keys: SessionKeys, transcript: HandshakeTranscript):
        self.record = record
        self.keys = keys
        self.transcript = transcript
        self._open = True

    def send(self, data: bytes) -> None:
        try:
            if not self._open:
                raise ConnectionClosed("session is closed")
            self.record.stream(ContentType.APPLICATION_DATA, data)
        except AgilecryptError as exc:
            self._fail(exc)

    def recv(self) -> bytes:
        """One record's worth of application data."""
        try:
            if not self._open:
                raise ConnectionClosed("session is closed")
            return _recv_payload(self.record, ContentType.APPLICATION_DATA)
        except AgilecryptError as exc:
            self._fail(exc)

    def recv_exact(self, n: int) -> bytes:
        """``n`` bytes of application data from as many records as carry
        them, joined once; a record that runs past ``n`` is a failure."""
        parts, received = [], 0
        while received < n:
            parts.append(self.recv())
            received += len(parts[-1])
        if received != n:
            self._fail(MalformedEncoding(f"peer sent {received} bytes, expected {n}"))
        return b"".join(parts)

    def _fail(self, exc: AgilecryptError) -> NoReturn:
        """Tear down with the alert that answers ``exc``, then raise it."""
        self._teardown(_alert_for(exc))
        raise exc

    def _teardown(self, alert: AlertDescription | None) -> None:
        if self._open and alert is not None:
            _send_fatal_alert(self.record, alert)
        self._open = False
        self.keys.zeroize()
        try:
            self.record.transport.close()
        except OSError:
            pass

    def close(self) -> None:
        self._teardown(None)

    def __enter__(self) -> TlsSession:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The message flow
# ---------------------------------------------------------------------------

def client_handshake(transport: Transport, config: ClientTlsConfig) -> TlsSession:
    return _handshake(transport, config, "client")


def server_handshake(transport: Transport, config: ServerTlsConfig) -> TlsSession:
    return _handshake(transport, config, "server")


def _handshake(
    transport: Transport, config: ClientTlsConfig | ServerTlsConfig, role: str
) -> TlsSession:
    """Walk FLOW as ``role``: send this side's rows, expect the peer's.  A
    refusal, or a decoding or record-protection failure, sends its fatal
    alert here and is raised as TlsAlertSent; the last flight is written
    before returning, and the transcript is finished on every outcome."""
    side = _Side(RecordLayer(transport), config, role)
    record, transcript = side.record, side.transcript
    try:
        for message, sender, write, read in FLOW:
            if sender == role:
                side.send(message, write(side))
            else:
                read(side, side.receive(message))
        side.flush()
    except AgilecryptError as exc:
        failure = exc
        description = _alert_for(exc)
        if description is not None:
            _send_fatal_alert(record, description)
            if not isinstance(exc, TlsAlertSent):
                failure = TlsAlertSent(description, str(exc))
        # Only the alert exceptions carry a description.
        alert = getattr(failure, "description", None)
        transcript.finish(record, aborted=True, alert=None if alert is None else int(alert))
        failure.transcript = transcript
        raise failure
    transcript.finish(record, suite=SUITE_0x1306, aborted=False)
    return TlsSession(record, side.keys, transcript)


class _Side:
    """One side of one handshake: what its messages have told it so far,
    and the channel they travel.  The channel queues outgoing messages on
    the record layer, cuts incoming ones out of ``_pending``, a view of
    the unread rest of the last handshake record, and feeds the
    transcript; ``flush``, which runs before every read, writes
    the queue.  The ``write_*`` and ``read_*`` methods are FLOW's: a
    write returns the message body, or the message already framed as
    ClearRecords, and a read gets the body as the views it arrived in."""

    def __init__(self, record: RecordLayer, config: ClientTlsConfig | ServerTlsConfig, role: str):
        self.record = record
        self.transcript = HandshakeTranscript()
        self.transcript.local_template = build_template_info(config.registry, config.level)
        self.config = config
        self.rng = config.rng if config.rng is not None else SystemRng()
        self.role = role
        self.peer = "server" if role == "client" else "client"
        self.client_random = b""
        self.server_random = b""
        self.kem_pk: KemPublicKey | None = None  # the client's, from the certificate
        self.keys: SessionKeys | None = None
        self.peer_hash = b""  # what the peer's Finished covers
        self._pending = memoryview(b"")  # the unread rest of the last handshake record

    def send(self, hs_type: HandshakeType | None, body: bytes | ClearRecords) -> None:
        """Queue message ``hs_type``, whose body or framed records ``body``
        is; for None, a ChangeCipherSpec of ``body``."""
        if hs_type is None:
            self.record.frame(ContentType.CHANGE_CIPHER_SPEC, body)
            self.transcript.note_ccs("sent")
            return
        if isinstance(body, ClearRecords):
            self.transcript.add_message(hs_type.message_name, "sent", *body.payloads)
            self.record.reuse(body)
            return
        msg = encode_handshake_message(hs_type, body)
        self.transcript.add_message(hs_type.message_name, "sent", msg)
        self.record.frame(ContentType.HANDSHAKE, msg)

    def flush(self) -> None:
        """Write the queued records, then hash the messages they carry."""
        self.record.flush()
        self.transcript.absorb()

    def _take(self, n: int) -> list[memoryview]:
        """The next ``n`` received handshake bytes, as views of the record
        payloads that hold them; nothing is copied.  The next record is
        read, after a flush, only once ``_pending`` is used up.  An empty
        handshake record is refused (RFC 5246 §6.2.1 forbids sending
        one), so a peer cannot keep a handshake reading them."""
        parts = []
        while n:
            if not self._pending:
                self.flush()
                self._pending = memoryview(_recv_payload(self.record, ContentType.HANDSHAKE))
                if not self._pending:
                    raise MalformedEncoding("empty handshake record")
            part, self._pending = self._pending[:n], self._pending[n:]
            parts.append(part)
            n -= len(part)
        return parts

    def receive(self, expected: HandshakeType | None) -> list[memoryview]:
        """The body of the next message, as read-only views of the record
        payloads it arrived in, which must be of type ``expected``; None
        expects a ChangeCipherSpec and first takes the transcript hash
        that the peer's Finished covers."""
        if expected is None:
            self.peer_hash = self.transcript.transcript_hash()
            if self._pending:
                raise MalformedEncoding("handshake data buffered across ChangeCipherSpec")
            self.flush()
            if _recv_payload(self.record, ContentType.CHANGE_CIPHER_SPEC) != b"\x01":
                raise MalformedEncoding("expected ChangeCipherSpec")
            self.transcript.note_ccs("received")
            return [memoryview(b"\x01")]
        header = b"".join(self._take(4))
        hs_type, length = decode_handshake_header(header)
        if length > MAX_HANDSHAKE_MESSAGE:
            raise MalformedEncoding(
                f"handshake message of {length} bytes exceeds {MAX_HANDSHAKE_MESSAGE}"
            )
        if hs_type != expected:
            # Refused before its body is read; the transcript lists the header.
            self.transcript.add_message(hs_type.message_name, "received", header)
            raise MalformedEncoding(f"expected {expected.message_name}, got {hs_type.message_name}")
        body = self._take(length)
        self.transcript.add_message(hs_type.message_name, "received", header, *body)
        self.transcript.absorb()
        return body

    def accept_remote_template(self, remote: TemplateInfo | None) -> None:
        if remote is None:
            reason = f"{self.peer} sent no template info"
            raise TlsAlertSent(AlertDescription.HANDSHAKE_FAILURE, reason)
        self.transcript.remote_template = remote
        reason = template_divergence(self.transcript.local_template, remote)
        if reason is not None:
            raise TlsAlertSent(AlertDescription.TEMPLATE_MISMATCH, reason)

    def write_client_hello(self) -> bytes:
        self.client_random = self.rng.random_bytes(32)
        hello = ClientHello(self.client_random, (SUITE_0x1306,), self.transcript.local_template)
        return hello.encode()

    def read_client_hello(self, body: list[memoryview]) -> None:
        hello = ClientHello.decode(_joined(body))
        if SUITE_0x1306 not in hello.cipher_suites:
            raise TlsAlertSent(AlertDescription.HANDSHAKE_FAILURE, "no common cipher suite")
        # RFC 5246 §7.4.1.2: every ClientHello offers null compression.
        if 0 not in hello.compression_methods:
            reason = "client offered no null compression"
            raise TlsAlertSent(AlertDescription.HANDSHAKE_FAILURE, reason)
        self.accept_remote_template(hello.template_info)
        self.client_random = hello.random

    def write_server_hello(self) -> bytes:
        self.server_random = self.rng.random_bytes(32)
        hello = ServerHello(self.server_random, SUITE_0x1306, self.transcript.local_template)
        return hello.encode()

    def read_server_hello(self, body: list[memoryview]) -> None:
        hello = ServerHello.decode(_joined(body))
        if hello.cipher_suite != SUITE_0x1306:
            reason = f"server chose unoffered suite 0x{hello.cipher_suite:04X}"
            raise TlsAlertSent(AlertDescription.HANDSHAKE_FAILURE, reason)
        self.accept_remote_template(hello.template_info)
        self.server_random = hello.random

    def write_certificate(self) -> ClearRecords:
        return self.config.certificate.records

    def read_certificate(self, body: list[memoryview]) -> None:
        # A remembered certificate takes the same checks below as a
        # parsed one, and verify_certificate then serves its key.
        certificate = remembered_certificate(body)
        if certificate is None:
            try:
                certificate = parse_certificate(decode_certificate_body(_joined(body)))
            except MalformedEncoding as exc:
                reason = f"unparseable certificate: {exc}"
                raise TlsAlertSent(AlertDescription.BAD_CERTIFICATE, reason)
        for label, cert_id, template_id in (
            ("key", certificate.kem_algorithm_id, self.transcript.local_template.enc_id),
            ("signature", certificate.hbs_algorithm_id, self.transcript.local_template.sig_id),
        ):
            if cert_id != template_id:
                reason = f"certificate {label} algorithm differs from negotiated template"
                raise TlsAlertSent(AlertDescription.BAD_CERTIFICATE, reason)
        self.kem_pk = verify_certificate(certificate, self.config.trusted_roots)
        if self.kem_pk is None:
            reason = "certificate verification failed"
            raise TlsAlertSent(AlertDescription.BAD_CERTIFICATE, reason)

    def write_hello_done(self) -> bytes:
        return b""

    def read_hello_done(self, body: list[memoryview]) -> None:
        decode_server_hello_done_body(_joined(body))

    def write_key_exchange(self) -> bytes:
        ciphertext, premaster = kem_encap(self.kem_pk, self.rng)
        self.keys = derive_session_keys(premaster, self.client_random, self.server_random)
        return encode_client_key_exchange_body(ciphertext)

    def read_key_exchange(self, body: list[memoryview]) -> None:
        ct = decode_client_key_exchange_body(_joined(body))
        try:
            premaster = kem_decap(self.config.kem_secret, ct)
        except InvalidCiphertext as exc:
            raise TlsAlertSent(AlertDescription.INVALID_CIPHERTEXT, f"key exchange rejected: {exc}")
        self.keys = derive_session_keys(premaster, self.client_random, self.server_random)

    # RFC 5246 §7.4.9: both Finished messages are the PRF over the
    # transcript up to the sender's ChangeCipherSpec, told apart by the
    # sender's label and sent under its keys.

    def write_change_cipher_spec(self) -> bytes:
        return b"\x01"

    def read_change_cipher_spec(self, body: list[memoryview]) -> None:
        self.record.enable_recv_protection(getattr(self.keys, self.peer))

    def write_finished(self) -> bytes:
        # Finished is the first record under this side's keys.
        self.record.enable_send_protection(getattr(self.keys, self.role))
        own_hash = self.transcript.transcript_hash()
        label = f"{self.role} finished"
        return encode_finished_body(finished_verify_data(self.keys.master_secret, label, own_hash))

    def read_finished(self, body: list[memoryview]) -> None:
        label = f"{self.peer} finished"
        expected = finished_verify_data(self.keys.master_secret, label, self.peer_hash)
        if not hmac.compare_digest(decode_finished_body(_joined(body)), expected):
            reason = f"{self.peer} Finished verification failed"
            raise TlsAlertSent(AlertDescription.DECRYPT_ERROR, reason)


# RFC 5246 §7.3, one row per message in wire order: (message type, None
# for ChangeCipherSpec; its sender; the sender's write(side) -> body or
# framed records; the receiver's read(side, body parts)).
FLOW = (
    (HandshakeType.CLIENT_HELLO, "client", _Side.write_client_hello, _Side.read_client_hello),
    (HandshakeType.SERVER_HELLO, "server", _Side.write_server_hello, _Side.read_server_hello),
    (HandshakeType.CERTIFICATE, "server", _Side.write_certificate, _Side.read_certificate),
    (HandshakeType.SERVER_HELLO_DONE, "server", _Side.write_hello_done, _Side.read_hello_done),
    (HandshakeType.CLIENT_KEY_EXCHANGE, "client",
     _Side.write_key_exchange, _Side.read_key_exchange),
    (None, "client", _Side.write_change_cipher_spec, _Side.read_change_cipher_spec),
    (HandshakeType.FINISHED, "client", _Side.write_finished, _Side.read_finished),
    (None, "server", _Side.write_change_cipher_spec, _Side.read_change_cipher_spec),
    (HandshakeType.FINISHED, "server", _Side.write_finished, _Side.read_finished),
)
