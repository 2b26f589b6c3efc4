"""Full handshakes over in-process transports: success paths, template
drift, wire-level fault injection, and refusals.

Every way a handshake refuses is a row of one case table, REFUSALS: the
side that refuses, the alert it sends, the text of its reason, whether
it refuses at hello time, and a run against a real or a scripted peer.
Every row checks the same contract, and every alert the stack can send
answers at least one row.  The transports and the two-thread driver come
from tests/tls_harness.py."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import hmac as hmac_mod
import json
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agilecrypt import cbkem
from agilecrypt.cbkem import KemParams, kem_decap, kem_keygen
from agilecrypt.easyapi import (
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    parse_registry_text,
    template_resolve,
)
from agilecrypt.errors import (
    BadMac,
    BadPadding,
    ConnectionClosed,
    MalformedEncoding,
    ParameterError,
)
from agilecrypt.hbs import HbsParams, hbs_keygen
from agilecrypt.minitls import (
    AlertDescription,
    BufferTransport,
    ClientHello,
    ClientTlsConfig,
    ContentType,
    HandshakeTranscript,
    HandshakeType,
    RecordLayer,
    ServerHello,
    ServerTlsConfig,
    SocketTransport,
    TlsAlertReceived,
    TlsAlertSent,
    TlsSession,
    client_handshake,
    connect_tcp,
    derive_session_keys,
    finished_verify_data,
    issue_certificate,
    listen_tcp,
    parse_certificate,
    server_handshake,
    template_divergence,
    transcript_report,
    transport_pair,
)
from agilecrypt.minitls import certificate, handshake, measure
from agilecrypt.minitls import record as record_module
from agilecrypt.minitls.certificate import issue_server_material
from agilecrypt.minitls.handshake import build_template_info
from agilecrypt.minitls.measure import (
    echo_probe,
    echo_until_closed,
    paramset_level,
    run_measurement,
    serve,
    serve_connection,
)
from agilecrypt.minitls.record import MAX_RECORD_PLAINTEXT
from agilecrypt.minitls.transcript import aggregate_reports
from agilecrypt.minitls.wire import (
    MAX_HANDSHAKE_MESSAGE,
    decode_client_key_exchange_body,
    encode_alert,
    encode_certificate_body,
    encode_handshake_message,
)
from agilecrypt.primitives import DeterministicRng, open_record
from tls_harness import JOIN_TIMEOUT, Tap, bit_flip, reframe, run_pair

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
        ca, "server.test", enc.algorithm_id, kem_kp.pk.encoding, rng
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


def _half(role, transport, config, app=None):
    """The ``role`` handshake half for run_pair.  ``app`` then runs on the
    session, which is already in the results under ``role``."""
    handshake = client_handshake if role == "client" else server_handshake

    def half(results):
        results[role] = session = handshake(transport, config)
        if app is not None:
            app(session, results)
        return session

    return role, half


def _loopback(client_cfg, server_cfg, *, transports=None, server_app=None, client_app=None):
    """Run both handshake halves, server side in a thread.  Sessions or
    exceptions land in the returned dict under client/server keys, and
    the seconds both halves took under "elapsed"."""
    client_t, server_t = transports or transport_pair(timeout=_IO_TIMEOUT)
    return run_pair(
        _half("server", server_t, server_cfg, server_app),
        _half("client", client_t, client_cfg, client_app),
        transports=(client_t, server_t),
    )


def _echo(session, results):
    session.send(session.recv())


def _talk(payload):
    """A client app that sends ``payload`` and keeps the answer under "echo"."""

    def talk(session, results):
        session.send(payload)
        results["echo"] = session.recv()

    return talk


# ---------------------------------------------------------------------------
# Success path
# ---------------------------------------------------------------------------

def test_loopback_handshake_and_echo(low_material):
    payload = b"Hallo Welt!"
    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        server_app=_echo,
        client_app=_talk(payload),
    )
    assert "client_exc" not in results and "server_exc" not in results
    assert results["echo"] == payload
    client, server = results["client"], results["server"]

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


@pytest.fixture
def empty_certificate_memo():
    """verify_certificate's memo, emptied, so the test starts as a fresh
    process does whatever earlier tests verified."""
    with certificate._verified_lock:
        certificate._verified.clear()
    return certificate._verified


def _counted(monkeypatch, function_name, *modules):
    """Patch ``function_name`` in each of ``modules`` to log the calling
    thread before it runs; returns the log."""
    calls = []
    original = getattr(modules[0], function_name)

    def counting(*args):
        calls.append(threading.get_ident())
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, function_name, counting)
    return calls


def _count_kem_parses(monkeypatch):
    # Certificates read their key through the facade, which calls the KEM
    # module's attribute; patch it there and wherever minitls binds it.
    return _counted(
        monkeypatch,
        "kem_parse_pk",
        cbkem,
        *(
            module for name, module in list(sys.modules.items())
            if name.startswith("agilecrypt.minitls") and hasattr(module, "kem_parse_pk")
        ),
    )


def _assert_certificate_refused(results):
    refused = results.get("client_exc")
    assert isinstance(refused, TlsAlertSent), results
    assert refused.description == AlertDescription.BAD_CERTIFICATE
    assert refused.reason == "certificate verification failed"


def test_client_parses_the_certificate_kem_key_once(
    low_material, monkeypatch, empty_certificate_memo
):
    """The key verify_certificate parsed is the one the client encapsulates to."""
    calls = _count_kem_parses(monkeypatch)
    results = _loopback(_client_cfg(low_material), _server_cfg(low_material))
    assert "client_exc" not in results and "server_exc" not in results
    assert calls == [threading.get_ident()]


def test_repeat_handshakes_verify_and_parse_the_certificate_once(
    low_material, monkeypatch, empty_certificate_memo
):
    """Each handshake parses a fresh Certificate object off the wire; the
    second and third equal the first and are served from the memo."""
    verifies = _counted(monkeypatch, "hbs_verify", certificate)
    parses = _count_kem_parses(monkeypatch)
    for seed in (b"cli-1", b"cli-2", b"cli-3"):
        results = _loopback(
            _client_cfg(low_material, seed=seed), _server_cfg(low_material),
            server_app=_echo, client_app=_talk(seed),
        )
        assert results.get("echo") == seed, results
    assert (len(verifies), len(parses)) == (1, 1)
    [(cert, kem_pk)] = empty_certificate_memo.values()
    assert cert == low_material["cert"] and kem_pk.encoding == cert.kem_public_key


def test_a_certificate_one_key_bit_off_a_remembered_one_is_refused(
    low_material, monkeypatch, empty_certificate_memo
):
    """Same root and signature, so the same memo key: only the equality
    check tells it from the remembered certificate."""
    cert = low_material["cert"]
    results = _loopback(_client_cfg(low_material), _server_cfg(low_material))
    assert "client_exc" not in results, results
    key = bytearray(cert.kem_public_key)
    key[7] ^= 0x40
    forged = dataclasses.replace(cert, kem_public_key=bytes(key))
    verifies = _counted(monkeypatch, "hbs_verify", certificate)
    _assert_certificate_refused(
        _loopback(_client_cfg(low_material), _server_cfg(low_material, certificate=forged))
    )
    assert len(verifies) == 1
    assert [c for c, _ in empty_certificate_memo.values()] == [cert]


def test_a_remembered_certificate_is_refused_once_its_root_is_not_trusted(
    low_material, monkeypatch, empty_certificate_memo
):
    results = _loopback(_client_cfg(low_material), _server_cfg(low_material))
    assert "client_exc" not in results, results
    verifies = _counted(monkeypatch, "hbs_verify", certificate)
    for roots in ((), (b"\xee" * 16,)):
        _assert_certificate_refused(
            _loopback(_client_cfg(low_material, trusted_roots=roots), _server_cfg(low_material))
        )
    assert verifies == []


def test_refused_certificates_are_not_remembered_and_the_memo_holds_eight(
    low_material, monkeypatch, empty_certificate_memo
):
    forged = dataclasses.replace(low_material["cert"], subject="server.evil")
    verifies = _counted(monkeypatch, "hbs_verify", certificate)
    for _ in range(2):
        _assert_certificate_refused(
            _loopback(_client_cfg(low_material), _server_cfg(low_material, certificate=forged))
        )
    assert len(verifies) == 2 and empty_certificate_memo == {}
    rng = DeterministicRng(seed=b"memo-bound")
    issued = [
        issue_certificate(
            low_material["ca"], f"server-{i}.test", low_material["enc_id"],
            low_material["kem"].pk.encoding, rng,
        )
        for i in range(10)
    ]
    for cert in issued:
        assert certificate.verify_certificate(cert, (low_material["ca"].root,))
    assert [c for c, _ in empty_certificate_memo.values()] == issued[2:]


_MEDIUM = SecurityLevel.MEDIUM


@pytest.fixture(scope="module")
def medium_material():
    """A MEDIUM certificate, 213 KB: its Certificate message takes 14
    records, where LOW's fits in one."""
    reg = builtin_registry(1)
    rng = DeterministicRng(seed=b"medium-material")
    ca, kem_kp, cert = issue_server_material(reg, _MEDIUM, "server.test", rng)
    return {"registry": reg, "ca": ca, "cert": cert, "kem": kem_kp}


def _certificate_records(body):
    """The Certificate message of ``body`` as a server frames it, one
    record per MAX_RECORD_PLAINTEXT bytes."""
    message = encode_handshake_message(HandshakeType.CERTIFICATE, body)
    return [
        (ContentType.HANDSHAKE, message[start : start + MAX_RECORD_PLAINTEXT])
        for start in range(0, len(message), MAX_RECORD_PLAINTEXT)
    ]


def _assert_framed_by_a_record_layer(cert):
    """``cert.records.wire`` is what a record layer writes when it sends
    the Certificate message of ``cert`` record by record."""
    tap = Tap(BufferTransport.pair()[0])
    layer = RecordLayer(tap)
    for record in _certificate_records(encode_certificate_body(cert.encoding)):
        layer.send(*record)
    assert cert.records.wire == b"".join(tap.writes)


def _flipped(data, index):
    damaged = bytearray(data)
    damaged[index] ^= 0x01
    return bytes(damaged)


def _medium_client_refusal(material, body, registry=None):
    """(alert, reason) of a MEDIUM client, over ``registry`` (by default
    the material's), that reads a Certificate message of ``body`` from a
    scripted server agreeing with its template."""
    config = _client_cfg(material, level=_MEDIUM, registry=registry or material["registry"])
    info = build_template_info(config.registry, _MEDIUM)
    records = _certificate_records(body)
    assert len(records) == 14
    results = _against_script(
        "client", config, _scripted_server(_server_hello(template_info=info), *records)
    )
    refused = results.get("client_exc")
    assert isinstance(refused, TlsAlertSent), results
    assert results["script"] == (ContentType.ALERT, encode_alert(refused.description))
    return refused.description, refused.reason


def _medium_enc_id_elsewhere():
    """Registry v1 with LOW's KEM as its MEDIUM encryption template."""
    text = builtin_registry(1).canonical_text()
    return parse_registry_text(
        text.replace("ENCRYPTION MEDIUM CME-TOY-13-16", "ENCRYPTION MEDIUM CME-TOY-10-8")
    )


# Inputs a MEDIUM client refuses while the genuine certificate is
# remembered: each takes the body of a one-certificate chain and gives
# (body, client registry or None).  The first six damage one of the 6
# chain-length bytes in front of the remembered bytes, the seventh flips
# a byte of the last record (inside the signature), and the last sends
# the remembered certificate to a client whose template names another KEM.
_HIT_PATH_REFUSALS = [
    *(
        pytest.param(lambda body, i=i: (_flipped(body, i), None), id=f"chain-length-byte-{i}")
        for i in range(6)
    ),
    pytest.param(lambda body: (_flipped(body, len(body) - 100), None), id="last-record-byte"),
    pytest.param(lambda body: (body, _medium_enc_id_elsewhere()), id="client-enc-id-differs"),
]


@pytest.mark.parametrize("damage", _HIT_PATH_REFUSALS)
def test_a_refusal_reads_the_same_with_the_certificate_remembered(
    medium_material, empty_certificate_memo, damage
):
    """The client sends the same alert with the same reason whether the
    genuine certificate is remembered or the memo is empty."""
    cert = medium_material["cert"]
    body, registry = damage(encode_certificate_body(cert.encoding))
    assert certificate.verify_certificate(cert, (medium_material["ca"].root,))
    remembered = _medium_client_refusal(medium_material, body, registry)
    assert [c for c, _ in empty_certificate_memo.values()] == [cert]
    empty_certificate_memo.clear()
    assert remembered == _medium_client_refusal(medium_material, body, registry)
    assert remembered[0] == AlertDescription.BAD_CERTIFICATE


def test_a_repeat_handshake_neither_parses_nor_joins_the_certificate(
    medium_material, monkeypatch, empty_certificate_memo
):
    """Two MEDIUM handshakes: the first client joins the 14 record
    payloads of the Certificate and parses it; the second finds the
    received bytes remembered and does neither.  Both take the same
    records, and the server's are the ones a record layer frames."""
    parses = _counted(monkeypatch, "parse_certificate", handshake)
    joins = []  # (thread, parts) per join of a received message
    joined = handshake._joined

    def logged_joined(parts):
        joins.append((threading.get_ident(), len(parts)))
        return joined(parts)

    monkeypatch.setattr(handshake, "_joined", logged_joined)
    server_cfg = _server_cfg(medium_material, level=_MEDIUM)
    per_handshake = []
    for seed in (b"first client", b"second client"):
        joins.clear()
        results = _loopback(
            _client_cfg(medium_material, seed=seed, level=_MEDIUM), server_cfg,
            server_app=_echo, client_app=_talk(seed),
        )
        assert results.get("echo") == seed, results
        client_joins = [n for thread, n in joins if thread == threading.get_ident()]
        per_handshake.append(
            (
                len(parses),
                max(client_joins),
                transcript_report(results["client"].transcript)["records"],
                transcript_report(results["server"].transcript)["records"],
            )
        )
        parses.clear()
    client_records = {"sent": 4, "received": 18, "writes": 2}
    server_records = {"sent": 18, "received": 4, "writes": 2}
    assert per_handshake == [
        (1, 14, client_records, server_records),
        (0, 1, client_records, server_records),
    ]
    _assert_framed_by_a_record_layer(medium_material["cert"])


def test_every_queued_record_is_bytes(medium_material, monkeypatch):
    """Every item either side's record layer joins at a flush, over a
    MEDIUM handshake and an echo of three records each way, is exactly
    ``bytes``, the server's cached Certificate wire included: CPython
    releases the GIL for a large join only then (see record.py)."""
    flushed = []  # the type of every item queued at a flush, in order
    flush = RecordLayer.flush

    def logged_flush(layer):
        flushed.extend(type(item) for item in layer._queue)
        flush(layer)

    monkeypatch.setattr(RecordLayer, "flush", logged_flush)
    payload = DeterministicRng(seed=b"queued").random_bytes(2 * MAX_RECORD_PLAINTEXT + 1)

    def talk(session, results):
        session.send(payload)
        results["echo"] = session.recv_exact(len(payload))

    results = _loopback(
        _client_cfg(medium_material, level=_MEDIUM),
        _server_cfg(medium_material, level=_MEDIUM),
        server_app=lambda session, results: session.send(session.recv_exact(len(payload))),
        client_app=talk,
    )
    assert results.get("echo") == payload, results
    # Client: 4 handshake records; server: 4 and the Certificate's
    # records as one item; then 3 application records each way.
    assert flushed == [bytes] * 15


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


def test_an_echo_far_larger_than_the_socket_buffers_completes(low_material):
    """echo_probe reads the echo back whenever more than two records are
    owed, so an 8 MiB probe, far more than a socket pair buffers, comes
    back whole from the server's record-by-record echo, with a 2 s
    timeout on each receive and each write."""
    probe = bytes(range(256)) * (8 << 12)

    def talk(session, results):
        results["back"] = echo_probe(session, probe)
        session.close()

    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=transport_pair(timeout=2.0),
        server_app=lambda session, results: echo_until_closed(session),
        client_app=talk,
    )
    assert "client_exc" not in results and "server_exc" not in results, results
    assert results["back"] == probe


def test_handshake_over_real_tcp(low_material):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client_t = connect_tcp("127.0.0.1", listener.getsockname()[1], timeout=10.0)
        server_t = SocketTransport(listener.accept()[0])
    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=(client_t, server_t),
        server_app=_echo,
        client_app=_talk(b"over tcp"),
    )
    assert results.get("echo") == b"over tcp", results


# ---------------------------------------------------------------------------
# Flights and transport writes
# ---------------------------------------------------------------------------

def test_each_flight_is_one_write(low_material):
    """Client: ClientHello, then ClientKeyExchange + ChangeCipherSpec +
    Finished.  Server: ServerHello + Certificate + ServerHelloDone, then
    ChangeCipherSpec + Finished.  A 1 MiB send is 64 writes of one record
    each: application records leave as they are sealed."""
    blob = DeterministicRng(seed=b"flight blob").random_bytes(1 << 20)
    client_t, server_t = (Tap(t) for t in transport_pair(timeout=_IO_TIMEOUT))

    def pump(session, results):
        results["server_writes"] = list(server_t.writes)
        results["received"] = session.recv_exact(len(blob))

    def talk(session, results):
        results["client_writes"] = list(client_t.writes)
        session.send(blob)
        results["send_writes"] = client_t.writes[len(results["client_writes"]) :]

    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=(client_t, server_t),
        server_app=pump,
        client_app=talk,
    )
    assert "client_exc" not in results and "server_exc" not in results
    records_per_write = lambda writes: [len(_split_records(w)) for w in writes]  # noqa: E731
    assert records_per_write(results["client_writes"]) == [1, 3]
    assert records_per_write(results["server_writes"]) == [3, 2]
    assert records_per_write(results["send_writes"]) == [1] * 64
    assert results["received"] == blob

    client_records = transcript_report(results["client"].transcript)["records"]
    server_records = transcript_report(results["server"].transcript)["records"]
    assert client_records == {"sent": 4, "received": 5, "writes": 2}
    assert server_records == {"sent": 5, "received": 4, "writes": 2}


def test_each_side_walks_every_flow_row_once(low_material):
    """A clean handshake logs, on each side, one transcript entry per FLOW
    row in table order: its own rows as sent, the peer's as received.  So
    each row is written once by its sender and read once by its receiver."""
    results = _loopback(_client_cfg(low_material), _server_cfg(low_material))
    for role in ("client", "server"):
        entries = [(e.message, e.direction) for e in results[role].transcript.entries]
        assert entries == [
            (
                "ChangeCipherSpec" if message is None else message.message_name,
                "sent" if sender == role else "received",
            )
            for message, sender, _, _ in handshake.FLOW
        ]


# ---------------------------------------------------------------------------
# Re-framed, re-cut and cut-short streams
# ---------------------------------------------------------------------------

_FRAMED_ECHO = b"any framing"


def _tapped_run(material, tap):
    """A clean LOW handshake and an echo of _FRAMED_ECHO, each side's
    transport wrapped by ``tap``.  Returns the results and both wrapped
    transports, client first."""
    client_t, server_t = (tap(t) for t in transport_pair(timeout=_IO_TIMEOUT))
    results = _loopback(
        _client_cfg(material),
        _server_cfg(material),
        transports=(client_t, server_t),
        server_app=_echo,
        client_app=_talk(_FRAMED_ECHO),
    )
    assert "client_exc" not in results and "server_exc" not in results, results
    return results, client_t, server_t


def _outcome(results):
    """The echo, and per side the final transcript hash and the report
    without its duration: what no framing or cut of the stream may change."""
    sides = {}
    for role in ("client", "server"):
        transcript = results[role].transcript
        report = transcript_report(transcript)
        del report["duration_ms"]
        sides[role] = (transcript.transcript_hash(), report)
    return results["echo"], sides


@pytest.fixture(scope="module")
def uncut_run(low_material):
    """The outcome of a run with every write as the record layer made it,
    and the server's whole stream."""
    results, _, server_t = _tapped_run(low_material, Tap)
    return _outcome(results), b"".join(server_t.writes)


@settings(max_examples=30)
@example(cuts=[1])
@given(cuts=st.lists(st.integers(1, MAX_RECORD_PLAINTEXT), min_size=1, max_size=6))
def test_handshake_records_framed_any_way_give_the_same_handshake(
    low_material, uncut_run, cuts
):
    """RFC 5246 §6.2.1 lets a sender split a handshake message across
    records, or put several in one.  With both sides' plaintext handshake
    records re-framed at ``cuts``, both sides complete with the uncut
    run's transcript hashes, message lists and echo, and each counts as
    received the records its peer's two handshake writes carried."""
    results, client_t, server_t = _tapped_run(low_material, lambda t: Tap(t, reframe(cuts)))
    echo, sides = _outcome(results)
    uncut_echo, uncut_sides = uncut_run[0]
    assert echo == uncut_echo
    for role, peer in (("client", server_t), ("server", client_t)):
        (digest, report), (uncut_digest, uncut_report) = sides[role], uncut_sides[role]
        assert digest == uncut_digest
        assert report["messages"] == uncut_report["messages"]
        assert report["records"]["received"] == len(_split_records(b"".join(peer.writes[:2])))


@settings(max_examples=30)
@example(pieces=[1])
@given(pieces=st.lists(st.integers(1, 2 * MAX_RECORD_PLAINTEXT), min_size=1, max_size=6))
def test_writes_sent_in_any_pieces_leave_the_session_as_it_was(low_material, uncut_run, pieces):
    """Every write of both sides reaches the socket as ``pieces``: the
    echo, both transcript hashes and both reports, records blocks
    included, are the uncut run's."""
    results, _, _ = _tapped_run(low_material, lambda t: Tap(t, pieces=pieces))
    assert _outcome(results) == uncut_run[0]


def _cut_ending(stream, cut):
    """How a client ends when the server's ``stream`` stops after ``cut``
    bytes: bad_record_mac when the cut falls inside the fragment of a
    record after the server's ChangeCipherSpec, else a closed connection."""
    protected = False
    for start, length in _split_records(stream):
        if protected and start + 5 <= cut < start + 5 + length:
            return "bad_record_mac"
        protected |= stream[start] == ContentType.CHANGE_CIPHER_SPEC
    return "closed"


@settings(max_examples=30)
@given(data=st.data())
def test_a_stream_cut_short_ends_the_client_as_the_docs_say(low_material, uncut_run, data):
    """The uncut run's server stream, stopped at a chosen byte of a chosen
    record, to a client with the same seeds: the client's handshake or
    echo ends in ConnectionClosed, or with bad_record_mac (a handshake's
    alert, a session's BadMac) when the cut falls inside a protected
    fragment."""
    stream = uncut_run[1]
    start, length = data.draw(st.sampled_from(_split_records(stream)), label="record")
    cut = start + data.draw(st.integers(0, 4 + length), label="offset")
    client_t, server_t = BufferTransport.pair()
    server_t.write(stream[:cut])
    with pytest.raises((ConnectionClosed, BadMac, TlsAlertSent)) as ended:
        _talk(_FRAMED_ECHO)(client_handshake(client_t, _client_cfg(low_material)), {})
    exc = ended.value
    if isinstance(exc, ConnectionClosed):
        ending = "closed"
    elif isinstance(exc, BadMac) or exc.description == AlertDescription.BAD_RECORD_MAC:
        ending = "bad_record_mac"
    else:
        ending = repr(exc)
    assert ending == _cut_ending(stream, cut)


# ---------------------------------------------------------------------------
# Transcript hashing and the certificate's encoding
# ---------------------------------------------------------------------------

def _handshake_payloads(writes: list[bytes], send_keys) -> list[bytes]:
    """Per write, the joined payloads of its handshake records: the
    plaintext ones as they are, the protected ones opened with the
    writer's ``send_keys`` (sequence numbers from 0).  ChangeCipherSpec
    records are skipped."""
    payloads, seq = [], None
    for write in writes:
        joined = b""
        for start, length in _split_records(write):
            header, fragment = write[start : start + 5], write[start + 5 : start + 5 + length]
            if header[0] == ContentType.CHANGE_CIPHER_SPEC:
                seq = 0
                continue
            if seq is not None:
                fragment = open_record(send_keys, seq, header[:3], fragment)
                seq += 1
            joined += fragment
        payloads.append(joined)
    return payloads


def test_transcript_hash_covers_every_message_in_wire_order(low_material, monkeypatch):
    """Each side's final hash is SHA-512 over every handshake message in
    wire order, ChangeCipherSpec excluded.  The client's Finished covers
    its ClientKeyExchange, still queued when the client asks for the
    hash.  The server's Certificate enters its hash only after the write
    that carries it."""
    events: list = []  # (thread, "hash" or "write", bytes) in the order they happen
    absorb = HandshakeTranscript.absorb

    def logged_absorb(transcript):
        events.extend((threading.get_ident(), "hash", data) for data in transcript._unhashed)
        absorb(transcript)

    def logged_write(data):
        events.append((threading.get_ident(), "write", data))
        return data

    monkeypatch.setattr(HandshakeTranscript, "absorb", logged_absorb)
    client_t, server_t = (Tap(t, logged_write) for t in transport_pair(timeout=_IO_TIMEOUT))
    results = _loopback(
        _client_cfg(low_material), _server_cfg(low_material), transports=(client_t, server_t)
    )
    assert "client_exc" not in results and "server_exc" not in results
    client, server = results["client"], results["server"]
    hello, client_flight = _handshake_payloads(client_t.writes, client.keys.client)
    server_flight, server_finished = _handshake_payloads(server_t.writes, server.keys.server)
    wire = hello + server_flight + client_flight + server_finished
    assert client.transcript.transcript_hash() == hashlib.sha512(wire).digest()
    assert server.transcript.transcript_hash() == hashlib.sha512(wire).digest()

    assert client_flight[0] == HandshakeType.CLIENT_KEY_EXCHANGE
    before_finished, client_finished = client_flight[:-16], client_flight[-16:]
    assert client_finished[:4] == encode_handshake_message(HandshakeType.FINISHED, bytes(12))[:4]
    covered = hashlib.sha512(hello + server_flight + before_finished).digest()
    assert client_finished[4:] == finished_verify_data(
        client.keys.master_secret, "client finished", covered
    )

    server_thread = next(t for t, kind, data in events if data == server_t.writes[0])
    server_events = [(kind, data) for t, kind, data in events if t == server_thread]
    flight_written = server_events.index(("write", server_t.writes[0]))
    certificate_hashed = next(
        i
        for i, (kind, data) in enumerate(server_events)
        if kind == "hash" and data[0] == HandshakeType.CERTIFICATE
    )
    assert flight_written < certificate_hashed


def test_a_certificate_is_encoded_once(low_material, monkeypatch):
    """A server config's certificate is encoded and framed into records
    for its first handshake, and the records reused for the next, which
    still counts them as sent; the served certificate keeps the records
    but not the encoding they were framed from.  A replaced certificate
    encodes afresh, and the kept encoding takes no part in equality."""
    cert = dataclasses.replace(low_material["cert"])
    encoded = []
    signed_parts = certificate._signed_parts

    def counting_signed_parts(cert):
        encoded.append(cert)
        return signed_parts(cert)

    monkeypatch.setattr(certificate, "_signed_parts", counting_signed_parts)
    framed = _counted(monkeypatch, "frame_clear", certificate)
    config = _server_cfg(low_material, certificate=cert)
    for seed in (b"first client", b"second client"):
        results = _loopback(_client_cfg(low_material, seed=seed), config)
        assert "client" in results and "server" in results
        assert transcript_report(results["server"].transcript)["records"] == {
            "sent": 5, "received": 4, "writes": 2,
        }
    assert sum(c is cert for c in encoded) == 1
    assert len(framed) == 1
    assert "encoding" not in vars(cert)
    _assert_framed_by_a_record_layer(cert)

    same = dataclasses.replace(cert)
    assert same == cert and hash(same) == hash(cert)
    assert same.encoding == cert.encoding
    assert sum(c is same for c in encoded) == 1
    renamed = dataclasses.replace(cert, subject="other.test")
    assert parse_certificate(renamed.encoding) == renamed != cert


def test_framing_a_certificate_peaks_near_twice_its_wire(medium_material):
    """Certificate.records joins the message once from the certificate's
    field parts and frames it, so its new allocations peak at the message
    and the wire, not at a copy per encoding layer."""
    cert = dataclasses.replace(medium_material["cert"])
    tracemalloc.start()
    try:
        records = cert.records
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(records.wire)


def _nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_tcp_transports_disable_nagle():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = connect_tcp("127.0.0.1", listener.getsockname()[1], timeout=10.0)
        conn, _ = listener.accept()
        server = SocketTransport(conn, timeout=10.0)
    try:
        assert _nodelay(client._sock)
        assert _nodelay(server._sock)
        client.write(b"ping")
        assert server.read_exact(4) == b"ping"
    finally:
        client.close()
        server.close()

    # A socketpair has no TCP options and still carries bytes.
    left, right = transport_pair(timeout=10.0)
    try:
        left.write(b"pong")
        assert right.read_exact(4) == b"pong"
        assert (left.bytes_sent, right.bytes_received) == (4, 4)
    finally:
        left.close()
        right.close()


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


@settings(max_examples=150)
@given(st.lists(st.tuples(st.binary(max_size=64), st.booleans()), max_size=12))
def test_transcript_hash_tracks_the_concatenation(steps):
    """After every message the hash is SHA-512 of all messages so far;
    ChangeCipherSpec never moves it."""
    t = HandshakeTranscript()
    so_far = b""
    assert t.transcript_hash() == hashlib.sha512(b"").digest()
    for data, ccs_after in steps:
        t.add_message("Finished", "sent", data)
        so_far += data
        expected = hashlib.sha512(so_far).digest()
        assert t.transcript_hash() == expected
        if ccs_after:
            t.note_ccs("received")
            assert t.transcript_hash() == expected


# ---------------------------------------------------------------------------
# Template drift and the connection log
# ---------------------------------------------------------------------------

def test_serve_connection_closes_and_logs_a_failed_handshake(low_material):
    """A drifted client against the connection routine of tls-serve and
    measure: the server's socket ends up closed and the returned log
    record names the alert."""
    server_cfg = _server_cfg(low_material, registry=builtin_registry(2), level=SecurityLevel.HIGH)
    client_cfg = _client_cfg(low_material, seed=b"c", level=SecurityLevel.HIGH)
    client_t, server_t = transport_pair(timeout=_IO_TIMEOUT)
    # Only the client's end is closed here: serve_connection closes its own.
    results = run_pair(
        ("served", lambda _: serve_connection(server_t, server_cfg)),
        ("client", lambda _: client_handshake(client_t, client_cfg)),
        transports=(client_t,),
    )
    assert isinstance(results.get("client_exc"), TlsAlertReceived), results

    line, failure = results["served"]
    assert isinstance(failure, TlsAlertSent)
    assert server_t._sock.fileno() == -1
    assert sorted(line) == ["alert", "bytes_received", "bytes_sent", "ms", "outcome"]
    assert line["outcome"] == "alert_sent"
    assert line["alert"] == "template_mismatch"
    assert line["bytes_received"] > 0 and line["bytes_sent"] > 0
    assert line["ms"] >= 0


@pytest.mark.parametrize("code, label", [(51, "decrypt_error"), (99, "alert_99")])
def test_serve_connection_logs_the_name_of_a_received_alert(low_material, code, label):
    """A peer that answers with a fatal alert instead of a ClientHello:
    the log record names a known code and spells out an unknown one."""
    server_sock, client_sock = socket.socketpair()
    client_sock.sendall(bytes([ContentType.ALERT, 3, 3, 0, 2, 2, code]))
    try:
        line, failure = serve_connection(
            SocketTransport(server_sock, timeout=_IO_TIMEOUT), _server_cfg(low_material)
        )
    finally:
        client_sock.close()
    assert isinstance(failure, TlsAlertReceived)
    assert (line["outcome"], line["alert"]) == ("alert_received", label)


def test_serve_connection_reports_a_peer_that_closes_before_its_hello(low_material):
    client_t, server_t = transport_pair(timeout=_IO_TIMEOUT)
    client_t.close()
    line, failure = serve_connection(server_t, _server_cfg(low_material))
    assert isinstance(failure, ConnectionClosed)
    assert (line["outcome"], line["alert"]) == ("closed", None)
    assert line["bytes_sent"] == line["bytes_received"] == 0
    assert server_t._sock.fileno() == -1


def _served_lines(capsys, count: int) -> list[dict]:
    """The first ``count`` JSON lines serve writes to standard error,
    waiting up to JOIN_TIMEOUT for workers that are still writing."""
    text, deadline = "", time.monotonic() + JOIN_TIMEOUT
    while text.count("\n") < count and time.monotonic() < deadline:
        time.sleep(0.01)
        text += capsys.readouterr().err
    return [json.loads(line) for line in text.splitlines()]


def test_serve_once_serves_one_connection_in_the_calling_thread(low_material, capsys):
    with listen_tcp(0) as listener:
        host, port = listener.getsockname()

        def client(_):
            transport = connect_tcp(host, port, timeout=_IO_TIMEOUT)
            with client_handshake(transport, _client_cfg(low_material)) as session:
                return echo_probe(session, b"once")

        results = run_pair(
            ("served", lambda _: serve(listener, _server_cfg(low_material), _IO_TIMEOUT, True)),
            ("client", client),
        )
    assert results.get("client") == b"once" and "served_exc" not in results, results
    [line] = _served_lines(capsys, 1)
    assert line["outcome"] == "ok"


def test_serve_once_reraises_what_ended_its_connection(low_material, capsys):
    with listen_tcp(0) as listener:
        socket.create_connection(listener.getsockname(), timeout=_IO_TIMEOUT).close()
        with pytest.raises(ConnectionClosed):
            serve(listener, _server_cfg(low_material), _IO_TIMEOUT, True)
    [line] = _served_lines(capsys, 1)
    assert line["outcome"] == "closed"


def test_serve_forever_gives_each_connection_its_own_thread(low_material, capsys):
    """A second client handshakes and echoes while the first holds its
    session open, which a server that served connections in turn could
    not answer in time.  Shutting the listener down wakes the blocked
    accept (on Linux closing it alone does not), and serve raises."""
    listener = listen_tcp(0)
    host, port = listener.getsockname()

    def clients(_):
        try:
            sessions = [
                client_handshake(connect_tcp(host, port, _IO_TIMEOUT), _client_cfg(low_material))
                for _ in range(2)
            ]
            echoes = []
            for session in reversed(sessions):
                with session:
                    echoes.append(echo_probe(session, b"forever"))
            return echoes, _served_lines(capsys, 2)
        finally:
            listener.shutdown(socket.SHUT_RDWR)

    try:
        results = run_pair(
            ("served", lambda _: serve(listener, _server_cfg(low_material), _IO_TIMEOUT, False)),
            ("clients", clients),
        )
    finally:
        listener.close()
    assert "clients" in results, results
    echoes, lines = results["clients"]
    assert echoes == [b"forever"] * 2
    assert [line["outcome"] for line in lines] == ["ok", "ok"]
    assert isinstance(results.get("served_exc"), OSError), results


class _FailingListener:
    """A listener whose accept() raises each of ``errors`` in turn."""

    def __init__(self, *errors: int):
        self.errors = list(errors)

    def accept(self):
        code = self.errors.pop(0)
        raise OSError(code, errno.errorcode[code])


def test_serve_forever_logs_a_passing_accept_failure_and_accepts_again(low_material, capsys):
    """A process out of descriptors (EMFILE) logs one line and pauses; the
    next accept's error (EBADF, as from a closed listener) ends the loop."""
    started = time.monotonic()
    with pytest.raises(OSError) as caught:
        serve(_FailingListener(errno.EMFILE, errno.EBADF), _server_cfg(low_material), 1.0, False)
    assert caught.value.errno == errno.EBADF
    assert time.monotonic() - started >= measure._ACCEPT_PAUSE_S
    assert _served_lines(capsys, 1) == [{"error": "EMFILE", "outcome": "accept_failed"}]


def _same_version_conflict():
    """Registry v2's templates under registry v1's version number."""
    return parse_registry_text(
        builtin_registry(2).canonical_text().replace("version 2", "version 1")
    )


@pytest.mark.parametrize(
    "local_level, remote_registry, remote_level, reason",
    [
        pytest.param(SecurityLevel.HIGH, builtin_registry(1), SecurityLevel.HIGH, None,
                     id="same-templates"),
        pytest.param(
            SecurityLevel.HIGH, builtin_registry(2), SecurityLevel.HIGH,
            "signature version_mismatch: local 'SPX-TOY-32-16-12-SL' (registry v1) "
            "vs remote 'SPX-TOY-32-16-14-SL' (registry v2)",
            id="version-drift",
        ),
        pytest.param(
            SecurityLevel.HIGH, _same_version_conflict(), SecurityLevel.HIGH,
            "signature template_mismatch: local 'SPX-TOY-32-16-12-SL' (registry v1) "
            "vs remote 'SPX-TOY-32-16-14-SL' (registry v1)",
            id="same-version-conflict",
        ),
        # Equal ids pass across registry versions.
        pytest.param(SecurityLevel.MEDIUM, builtin_registry(2), SecurityLevel.MEDIUM, None,
                     id="equal-ids-across-versions"),
        pytest.param(
            SecurityLevel.LOW, builtin_registry(1), SecurityLevel.HIGH,
            "level template_mismatch: local 1 vs remote 3; "
            "signature template_mismatch: local 'SPX-TOY-16-16-8-S' (registry v1) "
            "vs remote 'SPX-TOY-32-16-12-SL' (registry v1); "
            "encryption template_mismatch: local 'CME-TOY-10-8' (registry v1) "
            "vs remote 'CME-TOY-16-10' (registry v1)",
            id="level-and-templates",
        ),
        pytest.param(
            SecurityLevel.LOW, builtin_registry(2), SecurityLevel.HIGH,
            "level template_mismatch: local 1 vs remote 3; "
            "signature version_mismatch: local 'SPX-TOY-16-16-8-S' (registry v1) "
            "vs remote 'SPX-TOY-32-16-14-SL' (registry v2); "
            "encryption version_mismatch: local 'CME-TOY-10-8' (registry v1) "
            "vs remote 'CME-TOY-16-10' (registry v2)",
            id="level-and-versions",
        ),
    ],
)
def test_template_divergence_reasons(local_level, remote_registry, remote_level, reason):
    """The one drift classifier, from a registry v1 side's template info
    and the peer's, with every reason text in full."""
    local = build_template_info(builtin_registry(1), local_level)
    remote = build_template_info(remote_registry, remote_level)
    assert template_divergence(local, remote) == reason


# ---------------------------------------------------------------------------
# Wire-level fault injection
# ---------------------------------------------------------------------------

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


def _assert_handshake_failed_cleanly(results, label):
    """Each side whose handshake call failed raised an alert exception or
    ConnectionClosed, with an aborted transcript.  A side that completed
    its handshake may still fail later; that is the session's error."""
    for side in ("client", "server"):
        if side not in results:
            exc = results[f"{side}_exc"]
            assert isinstance(exc, (TlsAlertSent, TlsAlertReceived, ConnectionClosed)), (
                f"{label}: {exc!r}"
            )
            assert transcript_report(exc.transcript)["aborted"], label


def _clean_records(material):
    """(start, fragment_length) of each record the client, then the
    server, sends in a clean run that echoes one byte."""
    client_t, server_t = (Tap(t) for t in transport_pair(timeout=_IO_TIMEOUT))
    clean = _loopback(
        _client_cfg(material),
        _server_cfg(material),
        transports=(client_t, server_t),
        server_app=_echo,
        client_app=_talk(b"?"),
    )
    assert clean.get("echo") == b"?"
    return [_split_records(b"".join(t.writes)) for t in (client_t, server_t)]


def test_fault_injection_across_every_handshake_message(low_material):
    """Flip one bit inside each handshake record, one run per record:
    no tampered run may complete on the client, deliver data, or end a
    handshake with anything but an alert or a closed connection."""
    client_records, server_records = _clean_records(low_material)
    assert len(client_records) == 5  # CH, CKE, CCS, Finished, app data
    assert len(server_records) == 6  # SH, Certificate, SHDone, CCS, Finished, app data

    cases = [("client", i) for i in range(4)] + [("server", i) for i in range(5)]
    for side, index in cases:
        records = client_records if side == "client" else server_records
        start, frag_len = records[index]
        offset = start + 5 + frag_len // 2  # inside the fragment
        client_t, server_t = transport_pair(timeout=_IO_TIMEOUT)
        if side == "client":
            client_t = Tap(client_t, bit_flip(offset, bit=3))
        else:
            server_t = Tap(server_t, bit_flip(offset, bit=3))
        results = _loopback(
            _client_cfg(low_material),
            _server_cfg(low_material),
            transports=(client_t, server_t),
            server_app=_echo,
            client_app=_talk(b"?"),
        )
        label = f"{side} record {index}"
        assert "echo" not in results, label
        assert "client_exc" in results, label
        _assert_handshake_failed_cleanly(results, label)


def _flipped_client_stream(material, offset, bit):
    """Both real halves, one bit of the client's stream flipped in flight."""
    a, b = transport_pair(timeout=_IO_TIMEOUT)
    return _loopback(
        _client_cfg(material),
        _server_cfg(material),
        transports=(Tap(a, bit_flip(offset, bit)), b),
    )


def test_tampered_client_key_exchange_alerts(low_material):
    """Target the KEM ciphertext specifically; the server answers with
    invalid_ciphertext or a record-MAC failure, never a session."""
    start, frag_len = _clean_records(low_material)[0][1]  # ClientKeyExchange
    observed = set()
    for rel in range(8, frag_len, max(1, frag_len // 6)):
        results = _flipped_client_stream(low_material, start + 5 + rel, bit=0)
        assert "client" not in results and "server" not in results
        _assert_handshake_failed_cleanly(results, f"ClientKeyExchange byte {rel}")
        exc = results["server_exc"]
        if isinstance(exc, TlsAlertSent):
            observed.add(int(exc.description))
            assert exc.description in (
                AlertDescription.INVALID_CIPHERTEXT,
                AlertDescription.BAD_RECORD_MAC,
                AlertDescription.DECRYPT_ERROR,
            )
    assert observed, "no server-side alerts captured"


# ---------------------------------------------------------------------------
# Refusals: one case table for every alert a handshake sends
# ---------------------------------------------------------------------------

_LOW_INFO = build_template_info(builtin_registry(1), SecurityLevel.LOW)
_LOW_HELLO = ClientHello(random=bytes(32), cipher_suites=(0x1306,), template_info=_LOW_INFO)


def _against_script(side, config, script):
    """Run the ``side`` handshake half in a thread while ``script`` plays
    its peer over a bare record layer.  Returns what _loopback returns for
    the half, and what ``script`` returned under "script"."""
    ours, theirs = transport_pair(timeout=_IO_TIMEOUT)
    results = run_pair(
        _half(side, ours, config),
        ("script", lambda _: script(RecordLayer(theirs))),
        transports=(ours, theirs),
    )
    if "script_exc" in results:
        raise results["script_exc"]
    return results


def _handshake_record(hs_type, body):
    return ContentType.HANDSHAKE, encode_handshake_message(hs_type, body)


def _scripted_client(hello):
    """A client that sends ``hello`` and reads one record."""

    def script(record):
        record.send(*_handshake_record(HandshakeType.CLIENT_HELLO, hello.encode()))
        return record.recv()

    return script


def _scripted_client_records(*records):
    """A client that sends ``records`` and reads up to the first alert
    record, past any flight the server writes before it refuses."""

    def script(record):
        for content_type, payload in records:
            record.send(content_type, payload)
        while (received := record.recv())[0] != ContentType.ALERT:
            pass
        return received

    return script


def _scripted_server(*records):
    """A server that reads the ClientHello, which must offer 0x1306 alone,
    sends ``records`` and reads one record."""

    def script(record):
        content_type, payload = record.recv()
        assert content_type == ContentType.HANDSHAKE
        assert ClientHello.decode(payload[4:]).cipher_suites == (0x1306,)
        for content_type, payload in records:
            record.send(content_type, payload)
        return record.recv()

    return script


def _scripted_server_after_an_empty_record(*records):
    """_scripted_server(*records), which first writes one empty HANDSHAKE
    record: a bare 5-byte header, which RecordLayer.frame never makes."""

    def script(record):
        content_type, _ = record.recv()
        assert content_type == ContentType.HANDSHAKE
        record.transport.write(struct.pack(">BHH", ContentType.HANDSHAKE, 0x0303, 0))
        for content_type, payload in records:
            record.send(content_type, payload)
        return record.recv()

    return script


def _server_hello(**fields):
    hello = dict(random=bytes(32), cipher_suite=0x1306, template_info=_LOW_INFO) | fields
    return _handshake_record(HandshakeType.SERVER_HELLO, ServerHello(**hello).encode())


def _server_flight(material, *records):
    """_server_hello(), the material's Certificate, then ``records``."""
    certificate = encode_certificate_body(material["cert"].encoding)
    return (
        _server_hello(), _handshake_record(HandshakeType.CERTIFICATE, certificate), *records
    )


def _keyed_server(material, *records):
    """A server that reads the ClientHello, sends ``records``, which
    begin with _server_hello()'s zero random, and reads the client's
    ClientKeyExchange, ChangeCipherSpec, Finished and one record more.
    It decapsulates the key exchange with the material's KEM key, so it
    opens the records after the ChangeCipherSpec, and returns the last."""

    def script(record):
        hello = record.recv()[1]
        for content_type, payload in records:
            record.send(content_type, payload)
        exchange = decode_client_key_exchange_body(record.recv()[1][4:])
        premaster = kem_decap(material["kem"].sk, exchange)
        keys = derive_session_keys(premaster, ClientHello.decode(hello[4:]).random, bytes(32))
        assert record.recv() == (ContentType.CHANGE_CIPHER_SPEC, b"\x01")
        record.enable_recv_protection(keys.client)
        assert record.recv()[0] == ContentType.HANDSHAKE  # the client's Finished
        return record.recv()

    return script


def _hello_flip(altered):
    """(stream offset, bit) of the one bit in which ``altered`` differs
    from the ClientHello a LOW client sends, which is the first record
    of its stream: a 5-byte record header, a 4-byte handshake header and
    the body."""
    [(index, diff)] = [
        (i, a ^ b) for i, (a, b) in enumerate(zip(_LOW_HELLO.encode(), altered.encode())) if a != b
    ]
    assert diff & (diff - 1) == 0, "more than one bit differs"
    return 5 + 4 + index, diff.bit_length() - 1


def _flipped_client_finished(material):
    """One bit flipped in the middle of the client's sealed Finished."""
    start, length = _clean_records(material)[0][3]
    return _flipped_client_stream(material, start + 5 + length // 2, bit=3)


def _other_kem_certificate(material):
    """A valid certificate from the trusted CA for a KEM other than the
    template's, served with that KEM's secret key."""
    rng = DeterministicRng(seed=b"wrong-alg")
    params = KemParams.from_algorithm_id("CME-TOY-13-16")
    kem = kem_keygen(params, rng)
    cert = issue_certificate(
        material["ca"], "server.test", params.algorithm_id, kem.pk.encoding, rng
    )
    return _loopback(
        _client_cfg(material), _server_cfg(material, certificate=cert, kem_secret=kem.sk)
    )


def _other_signature_ca(material):
    """A certificate for the template's KEM key from a trusted CA whose key
    is another SPX row than the signature template: it verifies, but its
    signature algorithm differs from the template."""
    rng = DeterministicRng(seed=b"wrong-sig-alg")
    ca = hbs_keygen(HbsParams.from_algorithm_id("SPX-TOY-16-16-4-S"), rng)
    cert = issue_certificate(
        ca, "server.test", material["enc_id"], material["kem"].pk.encoding, rng
    )
    return _loopback(
        _client_cfg(material, trusted_roots=(ca.root,)), _server_cfg(material, certificate=cert)
    )


def _reads_one_record(results):
    """``results``, once the refusing client's report shows that it read
    one record."""
    report = transcript_report(results["client_exc"].transcript)
    assert report["records"]["received"] == 1, report["records"]
    return results


_HIGH = SecurityLevel.HIGH

# Each row: the side that refuses, the alert it sends, a text of its
# reason, whether it refuses at hello time (before a Certificate or a
# ClientKeyExchange moves), and the run, which takes the LOW material
# and returns _loopback's results (both halves real) or _against_script's
# (the peer scripted).  Rows with HIGH on one side resolve templates at
# HIGH but never reach the certificate.
REFUSALS = [
    # v1 against v2 at HIGH: the signature template drifted between
    # registry versions.
    ("registry-drift", "server", AlertDescription.TEMPLATE_MISMATCH, "version_mismatch", True,
     lambda m: _loopback(
         _client_cfg(m, level=_HIGH),
         _server_cfg(m, registry=builtin_registry(2), level=_HIGH),
     )),
    ("same-version-template-conflict", "server", AlertDescription.TEMPLATE_MISMATCH,
     "template_mismatch", True,
     lambda m: _loopback(
         _client_cfg(m, level=_HIGH),
         _server_cfg(m, registry=_same_version_conflict(), level=_HIGH),
     )),
    ("no-common-suite", "server", AlertDescription.HANDSHAKE_FAILURE,
     "no common cipher suite", True,
     lambda m: _against_script(
         "server", _server_cfg(m),
         _scripted_client(dataclasses.replace(_LOW_HELLO, cipher_suites=(0x4A4A,))),
     )),
    ("client-hello-without-template-info", "server", AlertDescription.HANDSHAKE_FAILURE,
     "client sent no template info", True,
     lambda m: _against_script(
         "server", _server_cfg(m),
         _scripted_client(dataclasses.replace(_LOW_HELLO, template_info=None)),
     )),
    # Bit 3 of the compression byte: the client offers (8,).
    ("client-hello-without-null-compression", "server", AlertDescription.HANDSHAKE_FAILURE,
     "client offered no null compression", True,
     lambda m: _flipped_client_stream(
         m, *_hello_flip(dataclasses.replace(_LOW_HELLO, compression_methods=(8,)))
     )),
    ("client-refuses-a-suite-it-did-not-offer", "client", AlertDescription.HANDSHAKE_FAILURE,
     "server chose unoffered suite 0x4A4A", True,
     lambda m: _against_script(
         "client", _client_cfg(m), _scripted_server(_server_hello(cipher_suite=0x4A4A))
     )),
    ("server-hello-without-template-info", "client", AlertDescription.HANDSHAKE_FAILURE,
     "server sent no template info", True,
     lambda m: _against_script(
         "client", _client_cfg(m), _scripted_server(_server_hello(template_info=None))
     )),
    # An alert record of one byte where two belong.
    ("malformed-alert-during-handshake", "client", AlertDescription.HANDSHAKE_FAILURE,
     "alert record is 1 bytes, expected 2", True,
     lambda m: _against_script(
         "client", _client_cfg(m), _scripted_server((ContentType.ALERT, b"\x02"))
     )),
    ("garbage-certificate-body", "client", AlertDescription.BAD_CERTIFICATE,
     "unparseable certificate", False,
     lambda m: _against_script(
         "client", _client_cfg(m),
         _scripted_server(
             _server_hello(), _handshake_record(HandshakeType.CERTIFICATE, b"garbage")
         ),
     )),
    ("untrusted-root", "client", AlertDescription.BAD_CERTIFICATE,
     "certificate verification failed", False,
     lambda m: _loopback(_client_cfg(m, trusted_roots=(b"\xee" * 16,)), _server_cfg(m))),
    ("certificate-key-algorithm-must-match-template", "client",
     AlertDescription.BAD_CERTIFICATE,
     "certificate key algorithm differs from negotiated template", False,
     _other_kem_certificate),
    ("certificate-signature-algorithm-must-match-template", "client",
     AlertDescription.BAD_CERTIFICATE,
     "certificate signature algorithm differs from negotiated template", False,
     _other_signature_ca),
    # A server whose secret key is for other parameters than its
    # certificate's KEM key reads the ClientKeyExchange with its own key's
    # parameters.
    ("server-key-for-other-parameters", "server", AlertDescription.INVALID_CIPHERTEXT,
     "key exchange rejected", False,
     lambda m: _loopback(
         _client_cfg(m),
         _server_cfg(
             m, kem_secret=kem_keygen(KemParams(m=10, b=4), DeterministicRng(b"other-params")).sk
         ),
     )),
    # A LOW hello that claims HIGH: the hello check compares the level too.
    ("client-hello-level-disagrees", "server", AlertDescription.TEMPLATE_MISMATCH,
     "level template_mismatch: local 1 vs remote 3", True,
     lambda m: _against_script(
         "server", _server_cfg(m),
         _scripted_client(
             dataclasses.replace(_LOW_HELLO, template_info=dataclasses.replace(_LOW_INFO, level=3))
         ),
     )),
    # Registry version 1 read as 0: the ids still match, so the hello
    # check passes, but both Finished messages cover the ClientHello as
    # each side saw it.
    ("client-hello-altered-in-flight", "server", AlertDescription.DECRYPT_ERROR,
     "client Finished verification failed", False,
     lambda m: _flipped_client_stream(
         m,
         *_hello_flip(
             dataclasses.replace(
                 _LOW_HELLO, template_info=dataclasses.replace(_LOW_INFO, registry_version=0)
             )
         ),
     )),
    ("client-finished-bit-flipped", "server", AlertDescription.BAD_RECORD_MAC,
     "record MAC mismatch", False, _flipped_client_finished),
    # Well-formed messages out of order.  A message's type is checked
    # before its body is read, so the bodies below are never decoded.
    ("server-certificate-before-hello", "client", AlertDescription.HANDSHAKE_FAILURE,
     "expected ServerHello, got Certificate", False,
     lambda m: _against_script(
         "client", _client_cfg(m),
         _scripted_server(_handshake_record(HandshakeType.CERTIFICATE, b"")),
     )),
    ("server-hello-repeated", "client", AlertDescription.HANDSHAKE_FAILURE,
     "expected Certificate, got ServerHello", True,
     lambda m: _against_script(
         "client", _client_cfg(m), _scripted_server(_server_hello(), _server_hello())
     )),
    ("client-opens-with-key-exchange", "server", AlertDescription.HANDSHAKE_FAILURE,
     "expected ClientHello, got ClientKeyExchange", False,
     lambda m: _against_script(
         "server", _server_cfg(m),
         _scripted_client_records(_handshake_record(HandshakeType.CLIENT_KEY_EXCHANGE, b"")),
     )),
    # Handshake bytes left in a record when the peer's ChangeCipherSpec
    # is due: one byte past the ServerHelloDone in its record.  The
    # client refuses after sending its own Finished, so its alert is
    # sealed.
    ("handshake-data-before-change-cipher-spec", "client", AlertDescription.HANDSHAKE_FAILURE,
     "handshake data buffered across ChangeCipherSpec", False,
     lambda m: _against_script(
         "client", _client_cfg(m),
         _keyed_server(m, *_server_flight(
             m,
             (ContentType.HANDSHAKE,
              encode_handshake_message(HandshakeType.SERVER_HELLO_DONE, b"") + b"\x00"),
         )),
     )),
    ("change-cipher-spec-body-not-one", "client", AlertDescription.HANDSHAKE_FAILURE,
     "expected ChangeCipherSpec", False,
     lambda m: _against_script(
         "client", _client_cfg(m),
         _keyed_server(m, *_server_flight(
             m,
             _handshake_record(HandshakeType.SERVER_HELLO_DONE, b""),
             (ContentType.CHANGE_CIPHER_SPEC, b"\x02"),
         )),
     )),
    # A header claiming one byte past the cap, in a record of its own:
    # refused on the header, before any body record is read, so the
    # scripted server sends none.
    ("handshake-message-over-the-cap", "client", AlertDescription.HANDSHAKE_FAILURE,
     f"handshake message of {MAX_HANDSHAKE_MESSAGE + 1} bytes exceeds {MAX_HANDSHAKE_MESSAGE}",
     True,
     lambda m: _against_script(
         "client", _client_cfg(m),
         _scripted_server(
             (ContentType.HANDSHAKE,
              bytes([HandshakeType.SERVER_HELLO]) + (MAX_HANDSHAKE_MESSAGE + 1).to_bytes(3, "big")),
         ),
     )),
    # RFC 5246 §6.2.1: no empty HANDSHAKE record, which a peer could
    # otherwise send without end.  The client refuses the first record
    # it reads, before the ServerHello behind it.
    ("empty-handshake-record", "client", AlertDescription.HANDSHAKE_FAILURE,
     "empty handshake record", True,
     lambda m: _reads_one_record(_against_script(
         "client", _client_cfg(m), _scripted_server_after_an_empty_record(_server_hello())
     ))),
    # CVE-2014-0224: ChangeCipherSpec before any key exists.  The server
    # has written its flight by then, so the script reads past it.
    ("early-change-cipher-spec", "server", AlertDescription.HANDSHAKE_FAILURE,
     "expected HANDSHAKE record, got content type 20", False,
     lambda m: _against_script(
         "server", _server_cfg(m),
         _scripted_client_records(
             _handshake_record(HandshakeType.CLIENT_HELLO, _LOW_HELLO.encode()),
             (ContentType.CHANGE_CIPHER_SPEC, b"\x01"),
         ),
     )),
]


@pytest.mark.parametrize(
    "refuser, alert, reason, at_hello, run",
    [pytest.param(*row[1:], id=row[0]) for row in REFUSALS],
)
def test_a_refused_handshake_ends_in_one_alert(
    low_material, refuser, alert, reason, at_hello, run
):
    """The refusing side raises TlsAlertSent with the row's alert and
    reason; its peer receives exactly that alert; no side returns a
    session; every handshake exception carries an aborted transcript
    naming the alert; and the refusal comes well before any I/O timeout."""
    results = run(low_material)
    assert "client" not in results and "server" not in results
    refused = results[f"{refuser}_exc"]
    assert isinstance(refused, TlsAlertSent), repr(refused)
    assert refused.description == alert
    assert reason in refused.reason
    if "script" in results:
        assert results["script"] == (ContentType.ALERT, encode_alert(alert))
    else:
        peer = results["server_exc" if refuser == "client" else "client_exc"]
        assert isinstance(peer, TlsAlertReceived), repr(peer)
        assert peer.description == alert
    for exc in (results.get("client_exc"), results.get("server_exc")):
        if exc is None:
            continue
        report = transcript_report(exc.transcript)
        assert report["aborted"]
        assert (report["alert"], report["alert_name"]) == (int(alert), alert.name.lower())
        assert report["total_bytes"] > 0  # partial sizes still reported
        if at_hello:
            names = {e["message"] for e in report["messages"]}
            assert not names & {"Certificate", "ClientKeyExchange"}
    assert results["elapsed"] < _IO_TIMEOUT / 2


def test_every_alert_answers_some_refusal():
    assert {row[2] for row in REFUSALS} == set(AlertDescription)


def test_an_out_of_order_message_is_refused_on_its_header(low_material):
    """A message of the wrong type is refused on its 4-byte header, before
    its body is read: a 1 MiB Certificate where ServerHello belongs costs
    the client one of its 65 records, and the aborted transcript lists
    the 4 bytes read of it."""
    client_t, server_t = BufferTransport.pair()
    server = RecordLayer(server_t)
    message = encode_handshake_message(HandshakeType.CERTIFICATE, bytes(1 << 20))
    for start in range(0, len(message), MAX_RECORD_PLAINTEXT):
        server.send(ContentType.HANDSHAKE, message[start : start + MAX_RECORD_PLAINTEXT])
    with pytest.raises(TlsAlertSent) as refused:
        client_handshake(client_t, _client_cfg(low_material))
    assert refused.value.description == AlertDescription.HANDSHAKE_FAILURE
    assert "expected ServerHello, got Certificate" in refused.value.reason
    report = transcript_report(refused.value.transcript)
    assert report["records"]["received"] == 1
    assert report["messages"][-1] == {"message": "Certificate", "direction": "received", "bytes": 4}
    assert server.recv()[0] == ContentType.HANDSHAKE  # the ClientHello
    assert server.recv() == (ContentType.ALERT, encode_alert(AlertDescription.HANDSHAKE_FAILURE))


# ---------------------------------------------------------------------------
# Post-handshake tampering and teardown
# ---------------------------------------------------------------------------

def test_record_tamper_tears_down_session(low_material):
    def send_tampered(session, results):
        """Flip bit 4 of the middle byte of the one record ``send`` writes."""
        session.record.transport.on_write = lambda data: bit_flip(len(data) // 2, 4)(data)
        session.send(b"tamper me")

    client_t, server_t = transport_pair(timeout=_IO_TIMEOUT)
    results = _loopback(
        _client_cfg(low_material),
        _server_cfg(low_material),
        transports=(Tap(client_t), server_t),
        server_app=lambda session, results: results.update(delivered=session.recv()),
        client_app=send_tampered,
    )
    assert "delivered" not in results
    exc = results["server_exc"]
    assert isinstance(exc, (BadMac, BadPadding))
    assert not results["server"]._open


def test_session_closed_after_teardown(low_material):
    results = _loopback(_client_cfg(low_material), _server_cfg(low_material))
    client = results["client"]
    client.close()
    with pytest.raises(ConnectionClosed):
        client.send(b"late")
    with pytest.raises(ConnectionClosed):
        client.recv()


def _session_and_peer():
    """A server session over a logged buffer pipe, and a record layer
    holding the client's copy of the same keys at the other end."""
    ours, theirs = BufferTransport.pair()
    keys, peer_keys = (
        derive_session_keys(b"\x07" * 20, b"\x01" * 32, b"\x02" * 32) for _ in range(2)
    )
    record = RecordLayer(Tap(ours))  # keeps every write attempt, the failed ones included
    record.enable_send_protection(keys.server)
    record.enable_recv_protection(keys.client)
    peer = RecordLayer(theirs)
    peer.enable_send_protection(peer_keys.client)
    peer.enable_recv_protection(peer_keys.server)
    return TlsSession(record, keys, HandshakeTranscript()), peer


def _assert_torn_down(session):
    """Closed, every key byte zero, and nothing more to read."""
    assert not session._open
    keys = session.keys
    buffers = [keys.master_secret]
    for side in (keys.client, keys.server):
        buffers += [side.enc_key, side.mac_key, side.iv_seed]
    assert not any(any(buf) for buf in buffers)
    with pytest.raises(ConnectionClosed):
        session.recv()


def test_malformed_alert_after_handshake_tears_down_session():
    session, peer = _session_and_peer()
    peer.send(ContentType.ALERT, b"\x02\x28\x00")
    peer.send(ContentType.APPLICATION_DATA, b"after")
    with pytest.raises(MalformedEncoding):
        session.recv()
    _assert_torn_down(session)
    assert peer.recv() == (ContentType.ALERT, encode_alert(AlertDescription.HANDSHAKE_FAILURE))


def test_failed_write_tears_down_session_without_an_alert():
    session, peer = _session_and_peer()
    session.send(b"first")
    assert peer.recv() == (ContentType.APPLICATION_DATA, b"first")
    peer.transport.close()
    with pytest.raises(ConnectionClosed):
        session.send(b"second")
    _assert_torn_down(session)
    # The two application writes and nothing after them.
    writes = session.record.transport.writes
    assert len(writes) == 2
    # The failed write left nothing queued: a later alert goes out alone.
    handshake._send_fatal_alert(session.record, AlertDescription.HANDSHAKE_FAILURE)
    assert len(writes) == 3 and len(_split_records(writes[2])) == 1


def test_an_empty_send_makes_no_write():
    session, peer = _session_and_peer()
    session.send(b"")
    assert session.record.transport.writes == []
    # Nor did it take a sequence number: the next record opens as the first.
    session.send(b"after")
    assert peer.recv() == (ContentType.APPLICATION_DATA, b"after")


def test_each_application_record_is_written_before_the_next_is_sealed(monkeypatch):
    """A send longer than one record seals a record, writes it, and only
    then seals the next, so the peer can open each record while the
    sender seals the one after it."""
    session, peer = _session_and_peer()
    events = []
    seal = record_module.seal_record

    def logged_seal(*args):
        events.append("seal")
        return seal(*args)

    def logged_write(data):
        events.append("write")
        return data

    monkeypatch.setattr(record_module, "seal_record", logged_seal)
    session.record.transport.on_write = logged_write
    payload = bytes(range(256)) * 128 + b"!"  # two full records and one byte
    session.send(payload)
    assert events == ["seal", "write"] * 3
    received = [peer.recv() for _ in range(3)]
    assert b"".join(data for _, data in received) == payload


def test_recv_exact_surplus_tears_down_session():
    session, peer = _session_and_peer()
    peer.send(ContentType.APPLICATION_DATA, b"0123456789")
    with pytest.raises(MalformedEncoding):
        session.recv_exact(4)
    _assert_torn_down(session)
    assert peer.recv() == (ContentType.ALERT, encode_alert(AlertDescription.HANDSHAKE_FAILURE))


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("version", [1, 2])
def test_paramsets_resolve_to_the_level_of_their_kem(version):
    registry = builtin_registry(version)
    levels = {name: paramset_level(registry, name) for name in ("toy-64", "toy-128", "mce-emu")}
    assert levels == {
        "toy-64": SecurityLevel.LOW,
        "toy-128": SecurityLevel.MEDIUM,
        "mce-emu": SecurityLevel.HIGH,
    }
    with pytest.raises(ParameterError):
        paramset_level(registry, "toy-999")


def test_aggregate_reports_refuses_runs_whose_message_sequences_differ():
    first = {"messages": [{"message": "ClientHello", "direction": "sent", "bytes": 85}]}
    other = {"messages": [{"message": "ClientHello", "direction": "received", "bytes": 85}]}
    with pytest.raises(ParameterError, match="handshake runs diverged in message sequence"):
        aggregate_reports([first, other])


def test_measurement_rejects_bad_arguments_before_building_keys():
    for paramset, reps in (("toy-999", 1), ("toy-64", 0), ("toy-64", -1)):
        with pytest.raises(ParameterError):
            run_measurement(paramset, reps)
