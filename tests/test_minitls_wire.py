"""Wire codecs, the record layer, and certificates.  Each refusal of a
decoder is a row of DECODER_REFUSALS in test_decoder_refusals.py."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import os
import random
import socket
import struct
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agilecrypt.cbkem import KemParams, kem_decap, kem_encap, kem_keygen
from agilecrypt.codec import Reader
from agilecrypt.easyapi import SecurityLevel, builtin_registry, frame_blob, kem_public_key
from agilecrypt.errors import (
    AlgorithmMismatch,
    BadMac,
    BadPadding,
    ConnectionClosed,
    MalformedEncoding,
    ParameterError,
)
from agilecrypt.hbs import HbsMode, HbsParams, hbs_keygen
from agilecrypt.minitls import (
    BufferTransport,
    ClientHello,
    ContentType,
    HandshakeTranscript,
    HandshakeType,
    RecordLayer,
    SocketTransport,
    TlsAlertReceived,
    issue_certificate,
    parse_certificate,
    transcript_report,
    transport_pair,
    verify_certificate,
)
from agilecrypt.minitls.certificate import (
    CA_ROOT_FILE,
    SERVER_CERT_FILE,
    SERVER_SEED_FILE,
    issue_server_material,
    load_server_material,
    write_server_material,
)
from agilecrypt.minitls.transport import READ_BUFFER_SIZE
from agilecrypt.minitls.wire import (
    TLS_VERSION,
    AlertDescription,
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
from agilecrypt.primitives import DeterministicRng, SymmetricKeys
from tls_harness import Tap

# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

def test_reader_scalars_and_vectors():
    data = (
        bytes([0xAB])
        + (0x1234).to_bytes(2, "big")
        + (0x0BCDEF).to_bytes(3, "big")
        + (0xDEADBEEF).to_bytes(4, "big")
        + bytes([3]) + b"abc"
        + (5).to_bytes(2, "big") + b"hello"
    )
    r = Reader(data)
    assert r.u8() == 0xAB
    assert r.u16() == 0x1234
    assert r.u24() == 0x0BCDEF
    assert r.u32() == 0xDEADBEEF
    assert r.vec8() == b"abc"
    assert r.vec16() == b"hello"
    r.expect_end()


# ---------------------------------------------------------------------------
# Handshake framing
# ---------------------------------------------------------------------------

def test_handshake_frame_roundtrip():
    body = b"x" * 300
    msg = encode_handshake_message(HandshakeType.CERTIFICATE, body)
    assert msg[0] == 11
    hs_type, length = decode_handshake_header(msg[:4])
    assert hs_type == HandshakeType.CERTIFICATE
    assert length == 300
    assert msg[4:] == body


def test_handshake_frame_rejects_oversized_body():
    header = encode_handshake_message(HandshakeType.FINISHED, b"")[:4]
    assert decode_handshake_header(header) == (HandshakeType.FINISHED, 0)
    with pytest.raises(MalformedEncoding):
        encode_handshake_message(HandshakeType.FINISHED, bytes(1) * 0x1000000)


# ---------------------------------------------------------------------------
# Template info and hellos
# ---------------------------------------------------------------------------

def test_client_hello_without_extension():
    hello = ClientHello(random=bytes(32), cipher_suites=(0x1306,), template_info=None)
    assert ClientHello.decode(hello.encode()).template_info is None


# ---------------------------------------------------------------------------
# Remaining bodies and alerts
# ---------------------------------------------------------------------------

def test_certificate_body_roundtrip():
    assert decode_certificate_body(encode_certificate_body(b"cert")) == b"cert"


def test_client_key_exchange_body():
    assert decode_client_key_exchange_body(encode_client_key_exchange_body(b"ct")) == b"ct"


def test_finished_body():
    vd = bytes(range(12))
    assert decode_finished_body(encode_finished_body(vd)) == vd
    with pytest.raises(MalformedEncoding):
        encode_finished_body(b"short")


def test_server_hello_done_body():
    decode_server_hello_done_body(b"")


def test_alert_codec():
    raw = encode_alert(AlertDescription.TEMPLATE_MISMATCH)
    assert raw == bytes([2, 112])  # always fatal level
    assert decode_alert(raw) == 112


@pytest.mark.parametrize(
    "code, message, report_name",
    [
        (112, "received fatal alert TEMPLATE_MISMATCH", "template_mismatch"),
        (99, "received fatal alert code 99", None),
    ],
)
def test_alert_names_in_exception_and_report(code, message, report_name):
    assert str(TlsAlertReceived(code)) == message
    report = transcript_report(HandshakeTranscript(aborted=True, alert=code))
    assert (report["alert"], report["alert_name"]) == (code, report_name)


# ---------------------------------------------------------------------------
# Record layer
# ---------------------------------------------------------------------------

def _keys(tag: bytes) -> SymmetricKeys:
    rng = DeterministicRng(seed=tag)
    return SymmetricKeys(
        enc_key=rng.random_bytes(32),
        mac_key=rng.random_bytes(64),
        iv_seed=rng.random_bytes(16),
    )


def _record_pair(protect: bool) -> tuple[RecordLayer, RecordLayer]:
    a, b = BufferTransport.pair()
    sender, receiver = RecordLayer(a), RecordLayer(b)
    if protect:
        sender.enable_send_protection(_keys(b"k"))
        receiver.enable_recv_protection(_keys(b"k"))
    return sender, receiver


def test_record_plaintext_roundtrip():
    sender, receiver = _record_pair(protect=False)
    sender.send(ContentType.HANDSHAKE, b"hello")
    assert receiver.recv() == (ContentType.HANDSHAKE, b"hello")


def test_record_protected_roundtrip_and_seq():
    sender, receiver = _record_pair(protect=True)
    for i in range(5):
        sender.send(ContentType.APPLICATION_DATA, b"msg%d" % i)
    for i in range(5):
        assert receiver.recv() == (ContentType.APPLICATION_DATA, b"msg%d" % i)


def test_record_same_payload_encrypts_differently():
    a, b = BufferTransport.pair()
    sender = RecordLayer(a)
    sender.enable_send_protection(_keys(b"k"))
    sender.send(ContentType.APPLICATION_DATA, b"repeat")
    first = bytes(b._incoming)
    b._incoming.clear()
    sender.send(ContentType.APPLICATION_DATA, b"repeat")
    second = bytes(b._incoming)
    assert first != second  # sequence-derived IV


@pytest.mark.parametrize("protect", [False, True], ids=["plaintext", "protected"])
def test_record_cuts_an_oversized_send_into_two_records_in_one_write(protect):
    sender, receiver = _record_pair(protect)
    sender.transport = tap = Tap(sender.transport)
    payload = bytes(range(256)) * 64 + b"!"
    assert len(payload) == 2**14 + 1
    sender.send(ContentType.APPLICATION_DATA, payload)
    assert len(tap.writes) == 1
    assert (sender.records_sent, sender.writes) == (2, 1)
    assert receiver.recv() == (ContentType.APPLICATION_DATA, payload[: 2**14])
    assert receiver.recv() == (ContentType.APPLICATION_DATA, b"!")


def test_record_wrong_keys_rejected():
    a, b = BufferTransport.pair()
    sender, receiver = RecordLayer(a), RecordLayer(b)
    sender.enable_send_protection(_keys(b"one"))
    receiver.enable_recv_protection(_keys(b"two"))
    sender.send(ContentType.APPLICATION_DATA, b"secret")
    with pytest.raises((BadMac, BadPadding)):
        receiver.recv()


def test_record_tamper_never_yields_plaintext():
    """Flip one bit at every byte position of a sealed record, header
    included: recv must fail with an authentication-family error every
    time, and the plaintext must never surface.  Header bytes are covered
    because the raw type and version feed the MAC, and framing damage is
    classified like un-openable ciphertext."""
    plaintext = b"attack at dawn"
    rng = DeterministicRng(seed=b"tamper-wire")
    a, b = BufferTransport.pair()
    sender, receiver = RecordLayer(a), RecordLayer(b)
    sender.enable_send_protection(_keys(b"k"))
    sender.send(ContentType.APPLICATION_DATA, plaintext)
    wire = bytes(b._incoming)
    b._incoming.clear()
    for pos in range(len(wire)):
        mutated = bytearray(wire)
        mutated[pos] ^= 1 << rng.randints_below(8, 1)[0]
        fresh_a, fresh_b = BufferTransport.pair()
        layer = RecordLayer(fresh_b)
        layer.enable_recv_protection(_keys(b"k"))
        fresh_b.feed(bytes(mutated))
        with pytest.raises((BadMac, BadPadding)):
            result = layer.recv()
            assert plaintext not in result[1]  # pragma: no cover - must not be reached


# ---------------------------------------------------------------------------
# Socket reads
# ---------------------------------------------------------------------------

class _CountingSocket:
    """Stands in for a transport's socket and counts its receive calls,
    each of which hands over at most ``most`` bytes."""

    def __init__(self, sock, most: int = 1 << 30):
        self.sock = sock
        self.most = most
        self.receives = 0

    def recv_into(self, buffer):
        self.receives += 1
        return self.sock.recv_into(buffer, min(len(buffer), self.most))

    def recv(self, size):
        self.receives += 1
        return self.sock.recv(min(size, self.most))

    def __getattr__(self, name):
        return getattr(self.sock, name)


@contextlib.contextmanager
def _closing(*transports):
    try:
        yield
    finally:
        for transport in transports:
            transport.close()


def _counted_pair(most: int = 1 << 30):
    """A socket transport pair whose reading end counts its receives."""
    writer, reader = transport_pair(timeout=10.0)
    reader._sock = counter = _CountingSocket(reader._sock, most)
    return writer, reader, counter


def _plain_record(payload: bytes) -> bytes:
    return struct.pack(">BHH", ContentType.APPLICATION_DATA, TLS_VERSION, len(payload)) + payload


def test_socket_read_takes_header_and_fragment_in_one_receive():
    writer, reader, counter = _counted_pair()
    with _closing(writer, reader):
        writer.write(_plain_record(b"one segment"))
        assert RecordLayer(reader).recv() == (ContentType.APPLICATION_DATA, b"one segment")
        assert counter.receives == 1
        assert reader.bytes_received == 5 + len(b"one segment")


def test_socket_read_assembles_a_record_trickled_a_byte_at_a_time():
    writer, reader = transport_pair(timeout=10.0)
    wire = _plain_record(b"trickled")

    def trickle():
        for i in range(len(wire)):
            writer.write(wire[i : i + 1])
            time.sleep(0.002)

    with _closing(writer, reader):
        thread = threading.Thread(target=trickle)
        thread.start()
        try:
            assert RecordLayer(reader).recv() == (ContentType.APPLICATION_DATA, b"trickled")
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()


def test_socket_read_names_the_bytes_missing_at_end_of_stream():
    writer, reader = transport_pair(timeout=10.0)
    with _closing(reader):
        writer.write(_plain_record(bytes(100))[:45])
        writer.close()
        assert reader.read_exact(5)[3:] == (100).to_bytes(2, "big")
        with pytest.raises(ConnectionClosed, match="stream ended with 60 bytes missing"):
            reader.read_exact(100)


def test_socket_read_longer_than_the_buffer_names_the_bytes_missing():
    writer, reader = transport_pair(timeout=10.0)
    sent = 2 * READ_BUFFER_SIZE + 100

    def write_and_close():
        writer.write(bytes(sent))
        writer.close()

    with _closing(reader):
        thread = threading.Thread(target=write_and_close)
        thread.start()
        try:
            assert reader.read_exact(50) == bytes(50)
            missing = READ_BUFFER_SIZE + 123  # more than the read's last piece
            with pytest.raises(ConnectionClosed, match=f"stream ended with {missing} bytes"):
                reader.read_exact(sent - 50 + missing)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()


def test_socket_read_timeout_is_connection_closed():
    writer, reader = transport_pair(timeout=0.05)
    with _closing(writer, reader):
        writer.write(b"abc")
        with pytest.raises(ConnectionClosed, match="socket error while reading"):
            reader.read_exact(4)


def test_socket_reads_a_flight_in_fewer_receives_than_records():
    writer, reader, counter = _counted_pair()
    payloads = [bytes([i]) * (1000 + i) for i in range(8)]
    sender = RecordLayer(writer)
    for payload in payloads:
        sender.frame(ContentType.APPLICATION_DATA, payload)
    with _closing(writer, reader):
        sender.flush()
        receiver = RecordLayer(reader)
        assert [receiver.recv()[1] for _ in payloads] == payloads
        assert counter.receives < len(payloads)


def test_socket_reads_records_across_the_buffer_end_and_past_its_size():
    """Records of the largest sealed size, received 7000 bytes at a time,
    run past the read buffer's end many times, so its unread tail moves to
    the front, and a read longer than the buffer still returns the exact
    bytes."""
    rng = DeterministicRng(seed=b"wrap")
    writer, reader, _ = _counted_pair(most=7000)
    fragments = [rng.random_bytes(2**14 + 2048 - i) for i in range(12)]
    longer = rng.random_bytes(READ_BUFFER_SIZE + 12345)

    def write_all():
        for fragment in fragments:
            writer.write(_plain_record(fragment))
        writer.write(b"x" + longer)

    with _closing(writer, reader):
        thread = threading.Thread(target=write_all)
        thread.start()
        try:
            receiver = RecordLayer(reader)
            assert [receiver.recv()[1] for _ in fragments] == fragments
            assert reader.read_exact(1) == b"x"
            assert reader.read_exact(len(longer)) == longer
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert reader.bytes_received == writer.bytes_sent


class _ScriptedSocket:
    """Stands in for a socket with no thread and no real socket:
    ``recv_into`` hands over ``stream`` in pieces of the ``cuts`` sizes,
    taken in turn (fewer when the buffer is shorter; a cut of 0 fills the
    buffer), then reports end of stream; ``handed`` counts the bytes
    handed over."""

    family = socket.AF_UNIX

    def __init__(self, stream: bytes, cuts: list[int]):
        self.stream = stream
        self.cuts = itertools.cycle(cuts)
        self.handed = 0

    def settimeout(self, timeout):
        pass

    def recv_into(self, buffer):
        start = self.handed
        count = min(len(buffer), next(self.cuts) or len(buffer), len(self.stream) - start)
        buffer[:count] = self.stream[start : start + count]
        self.handed += count
        return count

    def sendall(self, data):
        pass

    def shutdown(self, how):
        pass

    def close(self):
        pass


_CUT = st.one_of(st.integers(0, 2 * READ_BUFFER_SIZE), st.integers(1, 64))
_READ = st.one_of(
    st.integers(0, 64),
    st.integers(0, 2**14 + 2048 + 5),
    st.integers(READ_BUFFER_SIZE - 64, 2 * READ_BUFFER_SIZE + 64),
)


@settings(max_examples=150)
@given(
    length=st.integers(0, 3 * READ_BUFFER_SIZE),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(_CUT, min_size=1, max_size=6),
    reads=st.lists(_READ, max_size=30),
)
def test_socket_reads_return_the_stream_under_any_cut_and_read_sizes(length, seed, cuts, reads):
    """Model property: whatever the stream, however the socket cuts it
    and whatever the read sizes (some longer than the read buffer), each
    read returns the next bytes of the stream, the first read the stream
    cannot fill raises ConnectionClosed naming its own shortfall, and
    ``bytes_received`` counts every byte the socket handed over."""
    stream = random.Random(seed).randbytes(length)
    sock = _ScriptedSocket(stream, cuts)
    transport = SocketTransport(sock)
    at = 0
    for n in reads:
        if at + n > length:
            with pytest.raises(ConnectionClosed) as ended:
                transport.read_exact(n)
            assert str(ended.value) == f"stream ended with {at + n - length} bytes missing"
            break
        assert transport.read_exact(n) == stream[at : at + n]
        at += n
    assert transport.bytes_received == sock.handed


def test_a_dropped_socket_transport_is_freed_without_the_cycle_collector():
    """A transport and its read buffer hold no reference cycle, so
    dropping a closed one frees its buffer at once."""
    writer, reader = transport_pair()
    writer.write(b"abc")
    assert reader.read_exact(1) == b"a"
    dropped = weakref.ref(reader)
    gc.disable()
    try:
        writer.close()
        reader.close()
        del writer, reader
        assert dropped() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cert_material():
    rng = DeterministicRng(seed=b"cert-tests")
    issuer = hbs_keygen(HbsParams(n_h=16, w=16, h=4, mode=HbsMode.STATEFUL), rng)
    kem_params = KemParams(m=10, b=8)
    kem_kp = kem_keygen(kem_params, rng)
    cert = issue_certificate(
        issuer, "server.example", kem_params.algorithm_id, kem_kp.pk.encoding, rng
    )
    return issuer, cert


def test_certificate_roundtrip_and_verify(cert_material):
    issuer, cert = cert_material
    parsed = parse_certificate(cert.encoding)
    assert parsed.subject == cert.subject
    assert parsed.kem_algorithm_id == cert.kem_algorithm_id
    assert parsed.kem_public_key == cert.kem_public_key
    assert parsed.issuer_root == cert.issuer_root
    assert verify_certificate(parsed, (issuer.root,))


@pytest.fixture(scope="module")
def server_files():
    """An issuer, a LOW KEM key pair, and the rng that issues their certificates."""
    rng = DeterministicRng(seed=b"server-files")
    issuer = hbs_keygen(HbsParams(n_h=16, w=16, h=4, mode=HbsMode.STATEFUL), rng)
    kem_kp = kem_keygen(KemParams(m=10, b=8), rng)
    return issuer, kem_kp, rng


@pytest.mark.parametrize(
    "fault, error, text",
    [
        ({"seed_id": "CME-TOY-13-16"}, AlgorithmMismatch, "server seed holds a CME-TOY-13-16 key"),
        ({"kem_id": "SPX-TOY-16-16-4-S"}, AlgorithmMismatch, "'SPX-TOY-16-16-4-S' is no"),
        ({"kem_id": "RSA-2048"}, AlgorithmMismatch, "'RSA-2048' is no"),
        ({"public": b"\x00" * 100}, MalformedEncoding, "public key length 100"),
        ({"seed": b"\x00" * 31}, MalformedEncoding, "server seed holds 31 bytes, not 32"),
        ({"mode": 0o644}, ParameterError, "has mode 0644, not private to its owner: chmod 600"),
        ({}, None, None),
    ],
    ids=[
        "seed-for-another-kem", "signature-id", "rsa-id", "key-length", "seed-length",
        "open-seed", "honest",
    ],
)
def test_load_server_material(server_files, tmp_path, fault, error, text):
    """The two files tls-setup writes, read back from the directory."""
    issuer, kem_kp, rng = server_files
    fields = {"kem_id": "CME-TOY-10-8", "public": kem_kp.pk.encoding, **fault}
    cert = issue_certificate(issuer, "server.example", fields["kem_id"], fields["public"], rng)
    seed = fields.get("seed", kem_kp.seed)
    (tmp_path / SERVER_CERT_FILE).write_bytes(cert.encoding)
    seed_file = tmp_path / SERVER_SEED_FILE
    seed_file.write_bytes(frame_blob(fields.get("seed_id", fields["kem_id"]), 1, seed))
    seed_file.chmod(fields.get("mode", 0o600))
    if error is not None:
        with pytest.raises(error) as caught:
            load_server_material(str(tmp_path))
        assert caught.type is error and text in str(caught.value)
        return
    loaded_cert, kp = load_server_material(str(tmp_path))
    assert loaded_cert == cert
    pk = kem_public_key(cert.kem_algorithm_id, cert.kem_public_key)
    ct, secret = kem_encap(pk, DeterministicRng(seed=b"encap"))
    assert kem_decap(kp.sk, ct) == secret


def test_write_server_material_lands_what_load_server_material_reads(tmp_path):
    """tls-setup's three files, written in-process under umask 0 into a
    directory that does not exist yet: the CA root, the certificate and
    the key pair read back are the issued ones, server.seed is still
    private to its owner, and no <file>.tmp is left."""
    registry, low, directory = builtin_registry(1), SecurityLevel.LOW, tmp_path / "tls"
    issuer, _, cert = issue_server_material(registry, low, "server.test", DeterministicRng(b"w"))
    umask = os.umask(0)
    try:
        write_server_material(str(directory), registry, low, "server.test", DeterministicRng(b"w"))
    finally:
        os.umask(umask)
    loaded_cert, kp = load_server_material(str(directory))
    assert loaded_cert == cert
    assert kp.pk.encoding == cert.kem_public_key
    assert (directory / CA_ROOT_FILE).read_bytes() == issuer.root
    assert (directory / SERVER_SEED_FILE).stat().st_mode & 0o077 == 0
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        [CA_ROOT_FILE, SERVER_CERT_FILE, SERVER_SEED_FILE]
    )


def test_certificate_issuing_consumes_a_leaf(cert_material):
    issuer, _ = cert_material
    before = issuer.next_leaf
    rng = DeterministicRng(seed=b"leaf-consume")
    kem_params = KemParams(m=3, b=1)
    kp = kem_keygen(kem_params, rng)
    issue_certificate(issuer, "x", kem_params.algorithm_id, kp.pk.encoding, rng)
    assert issuer.next_leaf == before + 1


def test_certificate_untrusted_root_rejected(cert_material):
    _, cert = cert_material
    assert not verify_certificate(cert, (b"\x00" * 16,))
    assert not verify_certificate(cert, ())


def test_certificate_tampered_fields_rejected(cert_material):
    issuer, cert = cert_material
    roots = (issuer.root,)
    assert not verify_certificate(
        dataclasses.replace(cert, subject="server.evil"), roots
    )
    pk = bytearray(cert.kem_public_key)
    pk[7] ^= 0x40
    assert not verify_certificate(
        dataclasses.replace(cert, kem_public_key=bytes(pk)), roots
    )
    assert not verify_certificate(
        dataclasses.replace(cert, kem_algorithm_id="CME-TOY-13-16"), roots
    )


def test_certificate_signature_covers_algorithm_id():
    """Swap in a different KEM id whose key happens to have the same
    byte length, so only the signature can catch the substitution."""
    rng = DeterministicRng(seed=b"same-size-ids")
    issuer = hbs_keygen(HbsParams(n_h=16, w=16, h=4, mode=HbsMode.STATEFUL), rng)
    small, same_size = KemParams(m=3, b=1), KemParams(m=2, b=8)
    assert small.pk_bytes == same_size.pk_bytes
    kp = kem_keygen(small, rng)
    cert = issue_certificate(issuer, "s", small.algorithm_id, kp.pk.encoding, rng)
    assert verify_certificate(cert, (issuer.root,))
    swapped = dataclasses.replace(cert, kem_algorithm_id=same_size.algorithm_id)
    assert not verify_certificate(swapped, (issuer.root,))


