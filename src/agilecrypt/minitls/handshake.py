"""The handshake state machines and the resulting protected session.

One cipher suite (0x1306), server-auth only, no resumption and no
renegotiation.  Key exchange is the code-based KEM: the client
encapsulates against the public key from the server certificate and the
shared secret becomes the premaster.  Both sides advertise their
security-level template in a hello extension; any divergence aborts the
handshake before a single key-exchange byte is sent.

At most one alert is ever sent per connection and every alert is fatal,
so close_notify does not exist here.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from ..cbkem import (
    KemParams,
    KemSecretKey,
    kem_decap,
    kem_encap,
    kem_parse_ct,
    kem_parse_pk,
    kem_serialize_ct,
)
from ..easyapi import (
    AlgorithmParameters,
    CompatibilityResult,
    SecurityLevel,
    TemplateKind,
    TemplateRegistry,
    compatibility_check,
    template_resolve,
)
from ..errors import (
    AgilecryptError,
    BadMac,
    BadPadding,
    ConnectionClosed,
    InvalidCiphertext,
    MalformedEncoding,
)
from ..primitives import (
    MAX_RECORD_PLAINTEXT,
    HashId,
    Rng,
    SymmetricKeys,
    SystemRng,
    prf,
)
from .certificate import Certificate, encode_certificate, parse_certificate, verify_certificate
from .record import RecordLayer
from .transcript import HandshakeTranscript
from .transport import Transport
from .wire import (
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
    TlsError,
    decode_alert,
    decode_certificate_body,
    decode_client_key_exchange_body,
    decode_finished_body,
    decode_handshake_header,
    decode_server_hello_done_body,
    encode_alert,
    encode_certificate_body,
    encode_client_key_exchange_body,
    encode_finished_body,
    encode_handshake_message,
)

_HS_NAMES = {
    HandshakeType.CLIENT_HELLO: "ClientHello",
    HandshakeType.SERVER_HELLO: "ServerHello",
    HandshakeType.CERTIFICATE: "Certificate",
    HandshakeType.SERVER_HELLO_DONE: "ServerHelloDone",
    HandshakeType.CLIENT_KEY_EXCHANGE: "ClientKeyExchange",
    HandshakeType.FINISHED: "Finished",
}

_MASTER_SECRET_LEN = 48
_KEY_BLOCK_LEN = 64 + 64 + 32 + 32 + 16 + 16
_FINISHED_LEN = 12


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
    return prf(HashId.H512, bytes(master_secret), label, transcript_hash, _FINISHED_LEN)


# ---------------------------------------------------------------------------
# Template negotiation
# ---------------------------------------------------------------------------

def build_template_info(registry: TemplateRegistry, level: SecurityLevel) -> TemplateInfo:
    sig = template_resolve(registry, TemplateKind.SIGNATURE, level)
    enc = template_resolve(registry, TemplateKind.ENCRYPTION, level)
    return TemplateInfo(
        registry_version=registry.version,
        level=int(level),
        sig_id=sig.algorithm_id,
        enc_id=enc.algorithm_id,
    )


def _local_templates(
    registry: TemplateRegistry, level: SecurityLevel
) -> tuple[AlgorithmParameters, AlgorithmParameters]:
    return (
        template_resolve(registry, TemplateKind.SIGNATURE, level),
        template_resolve(registry, TemplateKind.ENCRYPTION, level),
    )


def template_divergence(
    registry: TemplateRegistry, level: SecurityLevel, remote: TemplateInfo
) -> str | None:
    """None when both algorithm choices line up, otherwise a reason
    string classifying the drift."""
    local_sig, local_enc = _local_templates(registry, level)
    problems = []
    for label, local in (("signature", local_sig), ("encryption", local_enc)):
        remote_id = remote.sig_id if label == "signature" else remote.enc_id
        verdict = compatibility_check(local, remote_id, remote.registry_version)
        if verdict is not CompatibilityResult.COMPATIBLE:
            problems.append(
                f"{label} {verdict.value}: local {local.algorithm_id!r} "
                f"(registry v{local.registry_version}) vs remote {remote_id!r} "
                f"(registry v{remote.registry_version})"
            )
    if not problems:
        return None
    return "; ".join(problems)


# ---------------------------------------------------------------------------
# Handshake plumbing
# ---------------------------------------------------------------------------

class HandshakeChannel:
    """Fragments outgoing handshake messages, reassembles incoming ones,
    and feeds the transcript."""

    def __init__(self, record: RecordLayer, transcript: HandshakeTranscript):
        self.record = record
        self.transcript = transcript
        self._buffer = bytearray()

    def send_message(self, hs_type: HandshakeType, body: bytes) -> None:
        msg = encode_handshake_message(hs_type, body)
        self.transcript.add_message(_HS_NAMES[hs_type], "sent", msg)
        for start in range(0, len(msg), MAX_RECORD_PLAINTEXT):
            self.record.send(ContentType.HANDSHAKE, msg[start : start + MAX_RECORD_PLAINTEXT])

    def _fill(self, needed: int) -> None:
        while len(self._buffer) < needed:
            content_type, payload = self.record.recv()
            if content_type == ContentType.ALERT:
                raise TlsAlertReceived(decode_alert(payload))
            if content_type != ContentType.HANDSHAKE:
                raise MalformedEncoding(
                    f"expected handshake record, got content type {content_type}"
                )
            self._buffer.extend(payload)

    def recv_message(self) -> tuple[HandshakeType, bytes]:
        self._fill(4)
        hs_type, length = decode_handshake_header(bytes(self._buffer[:4]))
        if length > MAX_HANDSHAKE_MESSAGE:
            raise MalformedEncoding(
                f"handshake message of {length} bytes exceeds {MAX_HANDSHAKE_MESSAGE}"
            )
        self._fill(4 + length)
        msg = bytes(self._buffer[: 4 + length])
        del self._buffer[: 4 + length]
        self.transcript.add_message(_HS_NAMES[hs_type], "received", msg)
        return hs_type, msg[4:]

    def send_ccs(self) -> None:
        self.record.send(ContentType.CHANGE_CIPHER_SPEC, b"\x01")
        self.transcript.note_ccs("sent")

    def recv_ccs(self) -> None:
        if self._buffer:
            raise MalformedEncoding("handshake data buffered across ChangeCipherSpec")
        content_type, payload = self.record.recv()
        if content_type == ContentType.ALERT:
            raise TlsAlertReceived(decode_alert(payload))
        if content_type != ContentType.CHANGE_CIPHER_SPEC or payload != b"\x01":
            raise MalformedEncoding("expected ChangeCipherSpec")
        self.transcript.note_ccs("received")


def _abort(channel: HandshakeChannel, description: AlertDescription, reason: str) -> None:
    """Send the fatal alert (best effort) and raise."""
    try:
        channel.record.send(ContentType.ALERT, encode_alert(description))
    except (AgilecryptError, OSError):
        pass
    raise TlsAlertSent(description, reason)


def _expect(
    channel: HandshakeChannel, expected: HandshakeType
) -> bytes:
    hs_type, body = channel.recv_message()
    if hs_type != expected:
        _abort(
            channel,
            AlertDescription.HANDSHAKE_FAILURE,
            f"expected {_HS_NAMES[expected]}, got {_HS_NAMES[hs_type]}",
        )
    return body


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ClientTlsConfig:
    registry: TemplateRegistry
    level: SecurityLevel
    trusted_roots: tuple[bytes, ...]
    offered_suites: tuple[int, ...] = (SUITE_0x1306,)
    rng: Rng | None = None


@dataclass
class ServerTlsConfig:
    registry: TemplateRegistry
    level: SecurityLevel
    certificate: Certificate
    kem_secret: KemSecretKey
    supported_suites: tuple[int, ...] = (SUITE_0x1306,)
    rng: Rng | None = None


# ---------------------------------------------------------------------------
# Protected session
# ---------------------------------------------------------------------------

class TlsSession:
    """Application-data channel after a completed handshake.

    Any record-authentication failure tears the connection down before a
    byte of the offending record is surfaced to the caller.
    """

    def __init__(
        self,
        role: str,
        record: RecordLayer,
        keys: SessionKeys,
        transcript: HandshakeTranscript,
        suite: int,
    ):
        self.role = role
        self.record = record
        self.keys = keys
        self.transcript = transcript
        self.suite = suite
        self._open = True

    def send(self, data: bytes) -> None:
        if not self._open:
            raise ConnectionClosed("session is closed")
        for start in range(0, len(data), MAX_RECORD_PLAINTEXT):
            self.record.send(
                ContentType.APPLICATION_DATA, data[start : start + MAX_RECORD_PLAINTEXT]
            )

    def recv(self) -> bytes:
        """One record's worth of application data."""
        if not self._open:
            raise ConnectionClosed("session is closed")
        try:
            content_type, payload = self.record.recv()
        except (BadMac, BadPadding):
            self._teardown(AlertDescription.BAD_RECORD_MAC)
            raise
        except MalformedEncoding:
            self._teardown(AlertDescription.HANDSHAKE_FAILURE)
            raise
        except ConnectionClosed:
            self._teardown(None)
            raise
        if content_type == ContentType.APPLICATION_DATA:
            return payload
        if content_type == ContentType.ALERT:
            code = decode_alert(payload)
            self._teardown(None)
            raise TlsAlertReceived(code)
        self._teardown(AlertDescription.HANDSHAKE_FAILURE)
        raise MalformedEncoding(
            f"unexpected content type {content_type} after handshake"
        )

    def recv_exact(self, n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            chunks.extend(self.recv())
        if len(chunks) != n:
            raise MalformedEncoding(f"peer sent {len(chunks)} bytes, expected {n}")
        return bytes(chunks)

    def _teardown(self, alert: AlertDescription | None) -> None:
        if self._open and alert is not None:
            try:
                self.record.send(ContentType.ALERT, encode_alert(alert))
            except (AgilecryptError, OSError):
                pass
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
# Client and server state machines
# ---------------------------------------------------------------------------

def client_handshake(transport: Transport, config: ClientTlsConfig) -> TlsSession:
    rng = config.rng if config.rng is not None else SystemRng()
    record = RecordLayer(transport)
    transcript = HandshakeTranscript()
    channel = HandshakeChannel(record, transcript)
    local_info = build_template_info(config.registry, config.level)
    transcript.local_template = local_info
    try:
        try:
            suite, keys = _client_flow(channel, config, rng, local_info)
        except MalformedEncoding as exc:
            _abort(channel, AlertDescription.HANDSHAKE_FAILURE, str(exc))
        except (BadMac, BadPadding) as exc:
            _abort(channel, AlertDescription.BAD_RECORD_MAC, str(exc))
    except TlsError as exc:
        transcript.finish(aborted=True, alert=_alert_code(exc))
        exc.transcript = transcript
        raise
    except ConnectionClosed as exc:
        transcript.finish(aborted=True)
        exc.transcript = transcript
        raise
    transcript.finish(suite=suite, aborted=False)
    return TlsSession("client", record, keys, transcript, suite)


def _client_flow(
    channel: HandshakeChannel,
    config: ClientTlsConfig,
    rng: Rng,
    local_info: TemplateInfo,
) -> tuple[int, SessionKeys]:
    transcript = channel.transcript
    client_random = rng.random_bytes(32)
    hello = ClientHello(
        random=client_random,
        cipher_suites=tuple(config.offered_suites),
        template_info=local_info,
    )
    channel.send_message(HandshakeType.CLIENT_HELLO, hello.encode())

    body = _expect(channel, HandshakeType.SERVER_HELLO)
    server_hello = ServerHello.decode(body)
    if server_hello.cipher_suite not in config.offered_suites:
        _abort(
            channel,
            AlertDescription.HANDSHAKE_FAILURE,
            f"server chose unoffered suite 0x{server_hello.cipher_suite:04X}",
        )
    if server_hello.template_info is None:
        _abort(channel, AlertDescription.HANDSHAKE_FAILURE, "server sent no template info")
    transcript.remote_template = server_hello.template_info
    reason = template_divergence(config.registry, config.level, server_hello.template_info)
    if reason is not None:
        _abort(channel, AlertDescription.TEMPLATE_MISMATCH, reason)
    local_sig, local_enc = _local_templates(config.registry, config.level)

    body = _expect(channel, HandshakeType.CERTIFICATE)
    try:
        certificate = parse_certificate(decode_certificate_body(body))
    except MalformedEncoding as exc:
        _abort(channel, AlertDescription.BAD_CERTIFICATE, f"unparseable certificate: {exc}")
    if certificate.kem_algorithm_id != local_enc.algorithm_id:
        _abort(
            channel,
            AlertDescription.BAD_CERTIFICATE,
            "certificate key algorithm differs from negotiated template",
        )
    if certificate.hbs_algorithm_id != local_sig.algorithm_id:
        _abort(
            channel,
            AlertDescription.BAD_CERTIFICATE,
            "certificate signature algorithm differs from negotiated template",
        )
    if not verify_certificate(certificate, config.trusted_roots):
        _abort(channel, AlertDescription.BAD_CERTIFICATE, "certificate verification failed")
    kem_params = KemParams.from_algorithm_id(certificate.kem_algorithm_id)
    kem_pk = kem_parse_pk(kem_params, certificate.kem_public_key)

    body = _expect(channel, HandshakeType.SERVER_HELLO_DONE)
    decode_server_hello_done_body(body)

    ciphertext, premaster = kem_encap(kem_pk, kem_params, rng)
    channel.send_message(
        HandshakeType.CLIENT_KEY_EXCHANGE,
        encode_client_key_exchange_body(kem_serialize_ct(kem_params, ciphertext)),
    )
    keys = derive_session_keys(premaster, client_random, server_hello.random)

    channel.send_ccs()
    channel.record.enable_send_protection(keys.client)
    own_hash = transcript.transcript_hash()
    channel.send_message(
        HandshakeType.FINISHED,
        encode_finished_body(
            finished_verify_data(keys.master_secret, "client finished", own_hash)
        ),
    )

    peer_hash = transcript.transcript_hash()
    channel.recv_ccs()
    channel.record.enable_recv_protection(keys.server)
    body = _expect(channel, HandshakeType.FINISHED)
    expected = finished_verify_data(keys.master_secret, "server finished", peer_hash)
    if not hmac.compare_digest(decode_finished_body(body), expected):
        _abort(channel, AlertDescription.DECRYPT_ERROR, "server Finished verification failed")
    return server_hello.cipher_suite, keys


def server_handshake(transport: Transport, config: ServerTlsConfig) -> TlsSession:
    rng = config.rng if config.rng is not None else SystemRng()
    record = RecordLayer(transport)
    transcript = HandshakeTranscript()
    channel = HandshakeChannel(record, transcript)
    local_info = build_template_info(config.registry, config.level)
    transcript.local_template = local_info
    try:
        try:
            suite, keys = _server_flow(channel, config, rng, local_info)
        except MalformedEncoding as exc:
            _abort(channel, AlertDescription.HANDSHAKE_FAILURE, str(exc))
        except (BadMac, BadPadding) as exc:
            _abort(channel, AlertDescription.BAD_RECORD_MAC, str(exc))
    except TlsError as exc:
        transcript.finish(aborted=True, alert=_alert_code(exc))
        exc.transcript = transcript
        raise
    except ConnectionClosed as exc:
        transcript.finish(aborted=True)
        exc.transcript = transcript
        raise
    transcript.finish(suite=suite, aborted=False)
    return TlsSession("server", record, keys, transcript, suite)


def _server_flow(
    channel: HandshakeChannel,
    config: ServerTlsConfig,
    rng: Rng,
    local_info: TemplateInfo,
) -> tuple[int, SessionKeys]:
    transcript = channel.transcript
    body = _expect(channel, HandshakeType.CLIENT_HELLO)
    hello = ClientHello.decode(body)
    suite = next((s for s in hello.cipher_suites if s in config.supported_suites), None)
    if suite is None:
        _abort(channel, AlertDescription.HANDSHAKE_FAILURE, "no common cipher suite")
    if hello.template_info is None:
        _abort(channel, AlertDescription.HANDSHAKE_FAILURE, "client sent no template info")
    transcript.remote_template = hello.template_info
    reason = template_divergence(config.registry, config.level, hello.template_info)
    if reason is not None:
        _abort(channel, AlertDescription.TEMPLATE_MISMATCH, reason)

    server_random = rng.random_bytes(32)
    channel.send_message(
        HandshakeType.SERVER_HELLO,
        ServerHello(
            random=server_random, cipher_suite=suite, template_info=local_info
        ).encode(),
    )
    channel.send_message(
        HandshakeType.CERTIFICATE,
        encode_certificate_body(encode_certificate(config.certificate)),
    )
    channel.send_message(HandshakeType.SERVER_HELLO_DONE, b"")

    body = _expect(channel, HandshakeType.CLIENT_KEY_EXCHANGE)
    ct_bytes = decode_client_key_exchange_body(body)
    kem_params = KemParams.from_algorithm_id(config.certificate.kem_algorithm_id)
    try:
        ciphertext = kem_parse_ct(kem_params, ct_bytes)
        premaster = kem_decap(config.kem_secret, kem_params, ciphertext)
    except (MalformedEncoding, InvalidCiphertext) as exc:
        _abort(channel, AlertDescription.INVALID_CIPHERTEXT, f"key exchange rejected: {exc}")
    keys = derive_session_keys(premaster, hello.random, server_random)

    peer_hash = transcript.transcript_hash()
    channel.recv_ccs()
    channel.record.enable_recv_protection(keys.client)
    body = _expect(channel, HandshakeType.FINISHED)
    expected = finished_verify_data(keys.master_secret, "client finished", peer_hash)
    if not hmac.compare_digest(decode_finished_body(body), expected):
        _abort(channel, AlertDescription.DECRYPT_ERROR, "client Finished verification failed")

    channel.send_ccs()
    channel.record.enable_send_protection(keys.server)
    own_hash = transcript.transcript_hash()
    channel.send_message(
        HandshakeType.FINISHED,
        encode_finished_body(
            finished_verify_data(keys.master_secret, "server finished", own_hash)
        ),
    )
    return suite, keys


def _alert_code(exc: TlsError) -> int | None:
    description = getattr(exc, "description", None)
    return int(description) if description is not None else None
