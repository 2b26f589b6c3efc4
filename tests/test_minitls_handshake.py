"""Full handshakes over in-process transports: success paths, template
drift, negotiation failures, and wire-level fault injection."""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import socket
import struct
import threading

import pytest

from agilecrypt.cbkem import KemParams, kem_keygen, kem_serialize_pk
from agilecrypt.easyapi import (
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    parse_registry_text,
    template_resolve,
)
from agilecrypt.errors import AgilecryptError, BadMac, BadPadding, ConnectionClosed
from agilecrypt.hbs import HbsParams, hbs_keygen
from agilecrypt.minitls import (
    AlertDescription,
    BufferTransport,
    ClientTlsConfig,
    ContentType,
    HandshakeTranscript,
    RecordLayer,
    ServerTlsConfig,
    SocketTransport,
    TlsAlertReceived,
    TlsAlertSent,
    Transport,
    client_handshake,
    connect_tcp,
    derive_session_keys,
    finished_verify_data,
    issue_certificate,
    server_handshake,
    template_divergence,
    transcript_report,
    transport_pair,
)
from agilecrypt.minitls.handshake import build_template_info
from agilecrypt.primitives import DeterministicRng

_JOIN_TIMEOUT = 60.0
_IO_TIMEOUT = 5.0  # converts would-be deadlocks into ConnectionClosed


# ---------------------------------------------------------------------------
# Shared material and loopback driver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def low_material():
    rng = DeterministicRng(seed=b"handshake-material")
    reg = builtin_registry(1)
    sig = template_resolve(reg, TemplateKind.SIGNATURE, SecurityLevel.LOW)
    enc = template_resolve(reg, TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    ca = hbs_keygen(HbsParams.from_algorithm_id(sig.algorithm_id), rng)
    kem_kp = kem_keygen(KemParams.from_algorithm_id(enc.algorithm_id), rng)
    cert = issue_certificate(
        ca, "server.test", enc.algorithm_id, kem_serialize_pk(kem_kp.pk), rng
    )
    return {"registry": reg, "ca": ca, "cert": cert, "kem": kem_kp, "enc_id": enc.algorithm_id}


def _server_cfg(material, seed=b"srv", **overrides):
    base = dict(
        registry=material["registry"],
        level=SecurityLevel.LOW,
        certificate=material["cert"],
        kem_secret=material["kem"].sk,
        rng=DeterministicRng(seed=seed),
    )
    base.update(overrides)
    return ServerTlsConfig(**base)


def _client_cfg(material, seed=b"cli", **overrides):
    base = dict(
        registry=material["registry"],
        level=SecurityLevel.LOW,
        trusted_roots=(material["ca"].root,),
        rng=DeterministicRng(seed=seed),
    )
    base.update(overrides)
    return ClientTlsConfig(**base)


def _loopback(client_cfg, server_cfg, *, transports=None, server_app=None, client_app=None):
    """Run both handshake halves, server side in a thread.  Sessions or
    exceptions land in the returned dict under client/server keys."""
    client_t, server_t = (
        transports if transports is not None else transport_pair(timeout=_IO_TIMEOUT)
    )
    results: dict = {}

    def serve():
        try:
            session = server_handshake(server_t, server_cfg)
            results["server"] = session
            if server_app is not None:
                server_app(session, results)
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            results["server_exc"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        session = client_handshake(client_t, client_cfg)
        results["client"] = session
        if client_app is not None:
            client_app(session, results)
    except Exception as exc:  # noqa: BLE001
        results["client_exc"] = exc
    thread.join(timeout=_JOIN_TIMEOUT)
    assert not thread.is_alive(), "server thread deadlocked"
    for transport in (client_t, server_t):
        try:
            transport.close()
        except OSError:
            pass
    return results


# ---------------------------------------------------------------------------
# Success path
# ---------------------------------------------------------------------------

def test_loopback_handshake_and_echo(low_material):
    payload = b"Hallo Welt!"

    def echo_once(session, results):
        session.send(session.recv())

    def talk(session, results):
        session.send(payload)
        results["echo"] = session.recv()

    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        server_app=echo_once,
        client_app=talk,
    )
    assert "client_exc" not in results and "server_exc" not in results
    assert results["echo"] == payload
    client, server = results["client"], results["server"]
    assert (client.role, server.role) == ("client", "server")
    assert client.suite == server.suite == 0x1306

    report = transcript_report(client.transcript)
    assert not report["aborted"]
    assert report["suite"] == "0x1306"
    assert report["suite_name"] == "TLS_CME_SPX_WITH_AES_256_CBC_SHA512"
    sequence = [(e["message"], e["direction"]) for e in report["messages"]]
    assert sequence == [
        ("ClientHello", "sent"),
        ("ServerHello", "received"),
        ("Certificate", "received"),
        ("ServerHelloDone", "received"),
        ("ClientKeyExchange", "sent"),
        ("ChangeCipherSpec", "sent"),
        ("Finished", "sent"),
        ("ChangeCipherSpec", "received"),
        ("Finished", "received"),
    ]
    assert report["total_bytes"] == sum(e["bytes"] for e in report["messages"])
    assert report["duration_ms"] > 0
    # Certificate dominates: it carries the whole KEM public key.
    cert_bytes = next(e["bytes"] for e in report["messages"] if e["message"] == "Certificate")
    assert cert_bytes >= KemParams.from_algorithm_id(low_material["enc_id"]).pk_bytes
    # Mirror image on the server side.
    server_seq = [
        (e["message"], e["direction"]) for e in transcript_report(server.transcript)["messages"]
    ]
    assert server_seq == [
        (m, "sent" if d == "received" else "received") for m, d in sequence
    ]


def test_loopback_one_megabyte_transfer(low_material):
    blob = DeterministicRng(seed=b"blob").random_bytes(1 << 20)

    def pump(session, results):
        session.send(session.recv_exact(len(blob)))

    def talk(session, results):
        session.send(blob)
        results["back"] = session.recv_exact(len(blob))

    results = _loopback(
        _client_cfg(low_material), _server_cfg(low_material), server_app=pump, client_app=talk
    )
    assert "client_exc" not in results and "server_exc" not in results
    assert results["back"] == blob


def test_handshake_over_real_tcp(low_material):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    results: dict = {}

    def serve():
        conn, _ = listener.accept()
        try:
            session = server_handshake(SocketTransport(conn), _server_cfg(low_material))
            session.send(session.recv())
            results["ok"] = True
        except Exception as exc:  # noqa: BLE001
            results["server_exc"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    transport = connect_tcp("127.0.0.1", port, timeout=10.0)
    session = client_handshake(transport, _client_cfg(low_material))
    session.send(b"over tcp")
    assert session.recv() == b"over tcp"
    thread.join(timeout=_JOIN_TIMEOUT)
    listener.close()
    session.close()
    assert results.get("ok") is True, results.get("server_exc")


# ---------------------------------------------------------------------------
# Key schedule against an independent reference
# ---------------------------------------------------------------------------

def _reference_phash(secret: bytes, label_seed: bytes, out_len: int) -> bytes:
    out = b""
    a = label_seed
    while len(out) < out_len:
        a = hmac_mod.new(secret, a, hashlib.sha512).digest()
        out += hmac_mod.new(secret, a + label_seed, hashlib.sha512).digest()
    return out[:out_len]


def test_key_schedule_matches_reference():
    rng = DeterministicRng(seed=b"schedule")
    premaster = rng.random_bytes(32)
    client_random = rng.random_bytes(32)
    server_random = rng.random_bytes(32)

    master = _reference_phash(
        premaster, b"master secret" + client_random + server_random, 48
    )
    block = _reference_phash(master, b"key expansion" + server_random + client_random, 224)

    keys = derive_session_keys(premaster, client_random, server_random)
    assert bytes(keys.master_secret) == master
    assert bytes(keys.client.mac_key) == block[0:64]
    assert bytes(keys.server.mac_key) == block[64:128]
    assert bytes(keys.client.enc_key) == block[128:160]
    assert bytes(keys.server.enc_key) == block[160:192]
    assert bytes(keys.client.iv_seed) == block[192:208]
    assert bytes(keys.server.iv_seed) == block[208:224]

    transcript = b"some transcript bytes"
    digest = hashlib.sha512(transcript).digest()
    assert finished_verify_data(master, "client finished", digest) == _reference_phash(
        master, b"client finished" + digest, 12
    )


def test_transcript_hash_excludes_ccs():
    t = HandshakeTranscript()
    t.add_message("ClientHello", "sent", b"AAA")
    t.note_ccs("sent")
    t.add_message("Finished", "sent", b"BBB")
    assert t.transcript_hash() == hashlib.sha512(b"AAABBB").digest()
    assert [e.message for e in t.entries] == ["ClientHello", "ChangeCipherSpec", "Finished"]


# ---------------------------------------------------------------------------
# Template drift and negotiation failures
# ---------------------------------------------------------------------------

def test_registry_drift_aborts_before_key_exchange(low_material):
    """v1 client against v2 server at HIGH: the signature template
    diverged between registry versions, so both sides bail out with the
    template-mismatch alert and no key-exchange bytes ever move."""
    client_cfg = ClientTlsConfig(
        registry=builtin_registry(1),
        level=SecurityLevel.HIGH,
        trusted_roots=(low_material["ca"].root,),
        rng=DeterministicRng(seed=b"c"),
    )
    server_cfg = _server_cfg(
        low_material, registry=builtin_registry(2), level=SecurityLevel.HIGH
    )
    results = _loopback(client_cfg, server_cfg)
    assert "client" not in results and "server" not in results

    server_exc = results["server_exc"]
    assert isinstance(server_exc, TlsAlertSent)
    assert server_exc.description == AlertDescription.TEMPLATE_MISMATCH
    assert "version_mismatch" in server_exc.reason

    client_exc = results["client_exc"]
    assert isinstance(client_exc, TlsAlertReceived)
    assert client_exc.description == AlertDescription.TEMPLATE_MISMATCH

    for exc in (server_exc, client_exc):
        report = transcript_report(exc.transcript)
        assert report["aborted"]
        assert report["alert"] == 112
        assert report["alert_name"] == "template_mismatch"
        names = {e["message"] for e in report["messages"]}
        assert "ClientKeyExchange" not in names
        assert "Certificate" not in names
        assert report["total_bytes"] > 0  # partial sizes still reported


def test_same_version_template_conflict_classified(low_material):
    """Registries that disagree while claiming the same version number
    are a template conflict, not version drift."""
    doctored = parse_registry_text(
        builtin_registry(2).canonical_text().replace("version 2", "version 1")
    )
    local = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    remote = build_template_info(doctored, SecurityLevel.HIGH)
    reason = template_divergence(builtin_registry(1), SecurityLevel.HIGH, remote)
    assert reason is not None and "template_mismatch" in reason
    assert local.algorithm_id in reason

    server_cfg = _server_cfg(low_material, registry=doctored, level=SecurityLevel.HIGH)
    client_cfg = ClientTlsConfig(
        registry=builtin_registry(1),
        level=SecurityLevel.HIGH,
        trusted_roots=(low_material["ca"].root,),
        rng=DeterministicRng(seed=b"c"),
    )
    results = _loopback(client_cfg, server_cfg)
    exc = results["server_exc"]
    assert isinstance(exc, TlsAlertSent)
    assert exc.description == AlertDescription.TEMPLATE_MISMATCH
    assert "template_mismatch" in exc.reason


def test_matching_levels_other_than_low(low_material):
    divergence = template_divergence(
        builtin_registry(1),
        SecurityLevel.MEDIUM,
        build_template_info(builtin_registry(2), SecurityLevel.MEDIUM),
    )
    assert divergence is None  # v1 and v2 only drifted at HIGH


def test_no_common_suite_aborts(low_material):
    results = _loopback(
        _client_cfg(low_material, offered_suites=(0x4A4A,)),
        _server_cfg(low_material),
    )
    server_exc = results["server_exc"]
    assert isinstance(server_exc, TlsAlertSent)
    assert server_exc.description == AlertDescription.HANDSHAKE_FAILURE
    client_exc = results["client_exc"]
    assert isinstance(client_exc, TlsAlertReceived)
    assert client_exc.description == AlertDescription.HANDSHAKE_FAILURE


def test_untrusted_root_aborts(low_material):
    results = _loopback(
        _client_cfg(low_material, trusted_roots=(b"\xee" * 16,)),
        _server_cfg(low_material),
    )
    client_exc = results["client_exc"]
    assert isinstance(client_exc, TlsAlertSent)
    assert client_exc.description == AlertDescription.BAD_CERTIFICATE
    server_exc = results["server_exc"]
    assert isinstance(server_exc, TlsAlertReceived)
    assert server_exc.description == AlertDescription.BAD_CERTIFICATE


def test_certificate_algorithm_must_match_template(low_material):
    """Server presents a valid certificate for the wrong KEM: the client
    rejects it because it differs from the negotiated template."""
    rng = DeterministicRng(seed=b"wrong-alg")
    other_params = KemParams.from_algorithm_id("CME-TOY-13-16")
    other_kp = kem_keygen(other_params, rng)
    wrong_cert = issue_certificate(
        low_material["ca"],
        "server.test",
        other_params.algorithm_id,
        kem_serialize_pk(other_kp.pk),
        rng,
    )
    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material, certificate=wrong_cert, kem_secret=other_kp.sk),
    )
    client_exc = results["client_exc"]
    assert isinstance(client_exc, TlsAlertSent)
    assert client_exc.description == AlertDescription.BAD_CERTIFICATE
    assert "negotiated" in client_exc.reason


def test_certificate_signature_algorithm_must_match_template(low_material):
    """A trusted CA whose key is a different SPX row than the negotiated
    signature template: its certificate verifies, but the client rejects
    it because the signature algorithm differs from the template."""
    rng = DeterministicRng(seed=b"wrong-sig-alg")
    other_ca = hbs_keygen(HbsParams.from_algorithm_id("SPX-TOY-16-16-4-S"), rng)
    cert = issue_certificate(
        other_ca,
        "server.test",
        low_material["enc_id"],
        kem_serialize_pk(low_material["kem"].pk),
        rng,
    )
    results = _loopback(
        _client_cfg(low_material, trusted_roots=(other_ca.root,)),
        _server_cfg(low_material, certificate=cert),
    )
    client_exc = results["client_exc"]
    assert isinstance(client_exc, TlsAlertSent)
    assert client_exc.description == AlertDescription.BAD_CERTIFICATE
    assert "signature algorithm" in client_exc.reason
    server_exc = results["server_exc"]
    assert isinstance(server_exc, TlsAlertReceived)
    assert server_exc.description == AlertDescription.BAD_CERTIFICATE


# ---------------------------------------------------------------------------
# Wire-level fault injection
# ---------------------------------------------------------------------------

class _RecordingTransport(Transport):
    def __init__(self, inner: Transport):
        self.inner = inner
        self.sent = bytearray()

    def read_exact(self, n: int) -> bytes:
        return self.inner.read_exact(n)

    def write(self, data: bytes) -> None:
        self.sent.extend(data)
        self.inner.write(data)

    def close(self) -> None:
        self.inner.close()


class _BitFlipTransport(Transport):
    """Flips one bit at an absolute offset of the outgoing stream."""

    def __init__(self, inner: Transport, offset: int, bit: int):
        self.inner = inner
        self.offset = offset
        self.bit = bit
        self._written = 0

    def read_exact(self, n: int) -> bytes:
        return self.inner.read_exact(n)

    def write(self, data: bytes) -> None:
        start, end = self._written, self._written + len(data)
        if start <= self.offset < end:
            buf = bytearray(data)
            buf[self.offset - start] ^= 1 << self.bit
            data = bytes(buf)
        self._written = end
        self.inner.write(data)

    def close(self) -> None:
        self.inner.close()


def _split_records(stream: bytes) -> list[tuple[int, int]]:
    """(start, fragment_length) for each record in a captured stream."""
    records = []
    offset = 0
    while offset < len(stream):
        (length,) = struct.unpack(">H", stream[offset + 3 : offset + 5])
        records.append((offset, length))
        offset += 5 + length
    assert offset == len(stream)
    return records


def test_fault_injection_across_every_handshake_message(low_material):
    """Flip one bit inside each handshake record, one run per record:
    no tampered run may complete on the client, deliver data, or crash
    with anything but a clean protocol failure."""
    echo = lambda session, results: session.send(session.recv())  # noqa: E731

    def talk(session, results):
        session.send(b"?")
        results["echo"] = session.recv()

    # Clean run with recorders to learn the exact wire layout.
    a, b = transport_pair(timeout=_IO_TIMEOUT)
    rec_client, rec_server = _RecordingTransport(a), _RecordingTransport(b)
    clean = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=(rec_client, rec_server),
        server_app=echo,
        client_app=talk,
    )
    assert clean.get("echo") == b"?"
    client_records = _split_records(bytes(rec_client.sent))
    server_records = _split_records(bytes(rec_server.sent))
    assert len(client_records) == 5  # CH, CKE, CCS, Finished, app data
    assert len(server_records) == 6  # SH, Certificate, SHDone, CCS, Finished, app data

    cases = [("client", i) for i in range(4)] + [("server", i) for i in range(5)]
    for side, index in cases:
        records = client_records if side == "client" else server_records
        start, frag_len = records[index]
        offset = start + 5 + frag_len // 2  # inside the fragment
        a, b = transport_pair(timeout=_IO_TIMEOUT)
        client_t: Transport = a
        server_t: Transport = b
        if side == "client":
            client_t = _BitFlipTransport(a, offset, bit=3)
        else:
            server_t = _BitFlipTransport(b, offset, bit=3)
        results = _loopback(
            _client_cfg(low_material),
            _server_cfg(low_material),
            transports=(client_t, server_t),
            server_app=echo,
            client_app=talk,
        )
        label = f"{side} record {index}"
        assert "echo" not in results, label
        assert "client_exc" in results, label
        assert isinstance(
            results["client_exc"], (AgilecryptError, ConnectionClosed)
        ), f"{label}: {results['client_exc']!r}"
        if "server" not in results:
            assert isinstance(
                results["server_exc"], (AgilecryptError, ConnectionClosed)
            ), f"{label}: {results['server_exc']!r}"


def test_tampered_client_key_exchange_alerts(low_material):
    """Target the KEM ciphertext specifically; the server answers with
    invalid_ciphertext or a record-MAC failure, never a session."""
    a, b = transport_pair(timeout=_IO_TIMEOUT)
    rec_client = _RecordingTransport(a)
    clean = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=(rec_client, b),
    )
    assert "client" in clean
    records = _split_records(bytes(rec_client.sent))
    start, frag_len = records[1]  # ClientKeyExchange
    observed = set()
    for rel in range(8, frag_len, max(1, frag_len // 6)):
        a, b = transport_pair(timeout=_IO_TIMEOUT)
        flipped = _BitFlipTransport(a, start + 5 + rel, bit=0)
        results = _loopback(
            _client_cfg(low_material), _server_cfg(low_material), transports=(flipped, b)
        )
        assert "client" not in results
        exc = results["server_exc"]
        assert isinstance(exc, (TlsAlertSent, TlsAlertReceived, ConnectionClosed, BadMac))
        if isinstance(exc, TlsAlertSent):
            observed.add(int(exc.description))
            assert exc.description in (
                AlertDescription.INVALID_CIPHERTEXT,
                AlertDescription.BAD_RECORD_MAC,
                AlertDescription.DECRYPT_ERROR,
            )
    assert observed, "no server-side alerts captured"


# ---------------------------------------------------------------------------
# Post-handshake tampering and teardown
# ---------------------------------------------------------------------------

def test_record_tamper_tears_down_session(low_material):
    def hold(session, results):
        try:
            results["delivered"] = session.recv()
        except Exception as exc:  # noqa: BLE001
            results["server_recv_exc"] = exc

    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        server_app=hold,
        client_app=lambda session, results: _send_tampered(session),
    )
    assert "delivered" not in results
    exc = results["server_recv_exc"]
    assert isinstance(exc, (BadMac, BadPadding))
    assert not results["server"]._open


def _send_tampered(session):
    """Seal a record with the session's own keys, flip a ciphertext bit,
    and push it down the raw transport."""
    capture, sink = BufferTransport.pair()
    shadow = RecordLayer(capture)
    shadow.enable_send_protection(session.keys.client)
    shadow._send_seq = session.record._send_seq
    shadow.send(ContentType.APPLICATION_DATA, b"tamper me")
    wire = bytearray(sink._incoming)
    wire[len(wire) // 2] ^= 0x10
    session.record.transport.write(bytes(wire))


def test_session_closed_after_teardown(low_material):
    results = _loopback(
        _client_cfg(low_material), _server_cfg(low_material), server_app=None
    )
    client = results["client"]
    client.close()
    with pytest.raises(ConnectionClosed):
        client.send(b"late")
    with pytest.raises(ConnectionClosed):
        client.recv()
