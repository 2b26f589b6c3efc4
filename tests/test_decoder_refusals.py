"""Every refusal of a decoder of outside input, one row each of
DECODER_REFUSALS: (id, decode, data, error, offset, text) says decode(data)
raises exactly error, with text in its message and the offset of its
MalformedEncoding (or of the one a MalformedStore wraps) counted from the
start of data, as docs/formats.md and docs/wire-formats.md § Decoding
failures state.  Rows are hand-built bytes; no key is made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import tempfile

import pytest

import agilecrypt
from agilecrypt.cbkem import KemParams, KemSecretKey, kem_decap, kem_parse_pk
from agilecrypt.codec import Reader, decode_text, uint, vec16, vec32
from agilecrypt.easyapi import (
    builtin_registry, frame_blob, load_registry, parse_blob, parse_registry_text, recipient_key,
    sender_key,
)
from agilecrypt.errors import (
    BadMac, BadPadding, BadPassword, InvalidCiphertext, MalformedEncoding, MalformedStore
)
from agilecrypt.hbs import hbs_parse_public
from agilecrypt.keystore import KeystoreParameters, _decode_table, keystore_open
from agilecrypt.mailenv import Envelope, EnvelopeHeader, envelope_decode, envelope_encode
from agilecrypt.minitls import (
    BufferTransport, Certificate, ClientHello, RecordLayer, ServerHello, TemplateInfo,
    parse_certificate, wire,
)
from agilecrypt.primitives import SymmetricKeys
from store_images import store_image

_ME, _MS, _IC = MalformedEncoding, MalformedStore, InvalidCiphertext
_CUT, _TRAILING, _ASCII = "input truncated", "1 trailing bytes", "text field is not ascii"

_TEMPLATE = TemplateInfo(1, 2, "SPX-TOY-16-16-10-S", "CME-TOY-13-16")
_INFO = _TEMPLATE.encode()  # 38 bytes
_EXTENSION = uint(0xFD00, 2) + vec16(_INFO)
# 85 bytes: 41 of hello, then the extensions; the template info's signature
# id fills bytes 53-70.
_HELLO = ClientHello(bytes(32), (0x1306,), _TEMPLATE).encode()
_SERVER_HELLO = ServerHello(bytes(32), 0x1306, None).encode()  # 38 bytes, compression last
_ENVELOPE = envelope_encode(  # 61 bytes; the sender id ends at byte 9
    Envelope(EnvelopeHeader("a", "b", "SPX-TOY-16-16-8-S", "CME-TOY-10-8", 1), b"ct", b"body")
)
_HBS_PK = bytes([16, 0, 16, 4, 0]) + bytes(16)  # SPX-TOY-16-16-4-S
_LOW_SIG, _LOW_HBS_PK = "SPX-TOY-16-16-8-S", bytes([16, 0, 16, 8, 0]) + bytes(16)
# A 17-byte public key and a 2-byte ciphertext, 4 pad bits each; with no
# inverse tables, decapsulation gets only as far as refusing a ciphertext.
_KEM = KemParams(m=4, b=3)
_kem_pk = functools.partial(kem_parse_pk, _KEM)
_decap = functools.partial(kem_decap, KemSecretKey(_KEM, []))


def _cert(signature=bytes(660), sig_id="SPX-TOY-16-16-4-S") -> bytes:
    """740 bytes as it stands; the signature's length prefix is at byte 76."""
    fields = ("server.example", "CME-TOY-10-8", bytes(8), sig_id, bytes(16), signature)
    return Certificate(*fields).encoding


def _replaced(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new) :]


def _store(magic=b"AGKS", version=1, iterations=1, generation=None) -> bytes:
    header = magic + uint(version, 2) + bytes(16) + uint(iterations, 4)
    return header if generation is None else header + uint(generation, 8)


def _table(alias=b"enc", algorithm=b"CME-TOY-10-8", count=1) -> bytes:
    """As it stands an entry is 30 bytes, and its state flag is byte 33."""
    entry = vec16(alias) + vec16(algorithm) + vec32(b"s") + vec32(b"p") + b"\x00"
    return uint(count, 4) + entry * count


def _on(decoder, medium):
    """``decoder`` run on what ``medium`` makes of the row's bytes."""
    return functools.wraps(decoder)(lambda data: medium(decoder, data))


def _file(decoder, data):
    with tempfile.NamedTemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        if decoder is keystore_open:
            return keystore_open(KeystoreParameters(fh.name, "pw"), read_only=True)
        return decoder(fh.name)


def _transport(decoder, data, sealed=False):
    layer = RecordLayer(BufferTransport())
    if sealed:
        layer.enable_recv_protection(SymmetricKeys.from_material(bytes(112)))
    layer.transport.feed(data)
    return decoder(layer)


_open, _record = _on(keystore_open, _file), _on(RecordLayer.recv, _transport)
_sealed = _on(RecordLayer.recv, functools.partial(_transport, sealed=True))
_REGISTRY = [  # (id, replaced, replacement, text)
    ("missing-line", "ENCRYPTION HIGH CME-TOY-16-10\n", "", "8 content lines, found 7"),
    ("no-issued-line", "issued 2026-01-05\n", "", "8 content lines, found 7"),
    ("extra-line", "version 1\n", "version 1\nSIGNATURE LOW SPX-TOY-16-16-8-S\n", "found 9"),
    ("signature-id-for-kem", "CME-TOY-10-8", "SPX-TOY-16-16-8-S", "is no encryption algorithm"),
    ("id-spelled-twice", "CME-TOY-10-8", "CME-TOY-010-8", "is not spelled 'CME-TOY-10-8'"),
    ("version-above-u32", "version 1", "version 4294967296", "4294967296 is outside u32"),
    ("version-negative", "version 1", "version -1", "version -1 is outside u32"),
    ("version-underscore", "version 1", "version 1_0", "version '1_0' is not spelled '10'"),
    ("version-plus", "version 1", "version +1", "version '+1' is not spelled '1'"),
    ("version-leading-zero", "version 1", "version 01", "version '01' is not spelled '1'"),
    ("version-two-spaces", "version 1", "version  1", "version ' 1' is not spelled '1'"),
    # Only the quoted spelling is in both of Python 3.10's and 3.11's messages.
    ("issued-basic-format", "2026-01-05", "20260105", "'20260105'"),
    ("issued-week-date", "2026-01-05", "2026-W02-1", "'2026-W02-1'"),
    ("issued-one-digit-day", "2026-01-05", "2026-01-5", "'2026-01-5'"),
    ("issued-plus-sign", "2026-01-05", "+2026-01-05", "'+2026-01-05'"),
    # A line is named by its number, never by a byte offset.
    ("line-3-not-issued", "issued", "# comment\nissue", "line 3: expected `issued"),
    ("line-8-two-spaces", "HIGH CME", "HIGH  CME", "line 8: mapping line needs"),
    ("line-8-unknown-kind", "ENCRYPTION HIGH", "DECRYPTION HIGH", "line 8: bad kind/level"),
    ("line-8-duplicate", "ENCRYPTION HIGH", "ENCRYPTION LOW", "line 8: duplicate entry"),
]

DECODER_REFUSALS = [
    ("reader-truncated", lambda d: Reader(d).vec16(), b"\x00\x05ab", _ME, 2, _CUT),
    ("reader-trailing-bytes", lambda d: Reader(d).expect_end(), b"\x01", _ME, 0, _TRAILING),
    ("text-not-ascii", functools.partial(decode_text, encoding="ascii", offset=1), b"\xff",
     _ME, 1, _ASCII),
    ("record-unknown-type", _record, bytes([99, 3, 3, 0, 1, 0]), _ME, 0, "content type 99"),
    ("record-wrong-version", _record, bytes([23, 3, 1, 0, 1, 0]), _ME, 1, "version 0x0301"),
    ("record-too-long", _record, bytes([22, 3, 3, 0x48, 0x01]), _ME, 3,
     "record length 18433 exceeds limit"),
    ("sealed-record-too-long", _sealed, bytes([23, 3, 3, 255, 255]), BadPadding, None,
     "claimed fragment length 65535"),
    ("sealed-record-cut", _sealed, bytes([23, 3, 3, 0, 96]), BadMac, None, "record truncated"),
    ("handshake-unknown-type", wire.decode_handshake_header, bytes([99, 0, 0, 0]), _ME, 0,
     "unknown handshake type 99"),
    ("template-info-trailing-byte", TemplateInfo.decode, _INFO + b"\x00", _ME, 38, _TRAILING),
    ("client-hello-wrong-version", ClientHello.decode, _replaced(_HELLO, 1, b"\x01"), _ME, 0,
     "unsupported version 0x0301"),
    ("client-hello-empty-suite-list", ClientHello.decode,
     ClientHello(bytes(32), (), None).encode(), _ME, 37, "cipher suite list invalid"),
    ("client-hello-template-id-not-ascii", ClientHello.decode, _replaced(_HELLO, 60, b"\xc3"),
     _ME, 71, _ASCII),
    ("server-hello-compression", ServerHello.decode, _replaced(_SERVER_HELLO, 37, b"\x01"), _ME,
     37, "compression must be null"),
    ("server-hello-duplicate-template-info", ServerHello.decode,
     _SERVER_HELLO + vec16(_EXTENSION * 2), _ME, 86, "duplicate template-info extension"),
    ("server-hello-template-info-trailing-byte", ServerHello.decode,
     _SERVER_HELLO + vec16(_EXTENSION[:2] + vec16(_INFO + b"\x00")), _ME, 82, _TRAILING),
    ("certificate-body-cut", wire.decode_certificate_body, b"\x00\x00", _ME, 0, _CUT),
    ("certificate-body-chain-trailing-bytes", wire.decode_certificate_body,
     bytes([0, 0, 6, 0, 0, 1, 9, 8, 7]), _ME, 7, "2 trailing bytes"),
    ("key-exchange-cut", wire.decode_client_key_exchange_body, b"\x00\x02c", _ME, 2, _CUT),
    ("key-exchange-empty", wire.decode_client_key_exchange_body, bytes(2), _ME, 0,
     "empty key exchange payload"),
    ("finished-short", wire.decode_finished_body, bytes(11), _ME, None, "body is 11 bytes"),
    ("server-hello-done-with-body", wire.decode_server_hello_done_body, b"\x00", _ME, 0,
     "ServerHelloDone carries no body"),
    ("alert-cut", wire.decode_alert, b"\x02", _ME, None, "alert record is 1 bytes"),
    ("alert-warning-level", wire.decode_alert, bytes([1, 112]), _ME, None, "alert level 1"),
    ("certificate-trailing-byte", parse_certificate, _cert() + b"\x00", _ME, 740, _TRAILING),
    ("certificate-short-signature", parse_certificate, _cert(bytes(10)), _ME, 90,
     "signature length 10, expected 660"),
    ("certificate-long-signature", parse_certificate, _cert(bytes(661)), _ME, 740,
     "signature length 661, expected 660"),
    ("certificate-rsa-signature", parse_certificate, _cert(sig_id="RSA-2048"), _ME, None,
     "certificate signature algorithm: 'RSA-2048' is no signature algorithm"),
    ("envelope-bad-magic", envelope_decode, _replaced(_ENVELOPE, 0, b"X"), _ME, 0,
     "not an envelope file"),
    ("envelope-unknown-version", envelope_decode, b"AGEV\x00\x02", _ME, 4,
     "unknown envelope format version 2"),
    ("envelope-sender-not-utf8", envelope_decode, _replaced(_ENVELOPE, 8, b"\xff"), _ME, 9,
     "text field is not utf-8"),
    ("envelope-trailing-byte", envelope_decode, _ENVELOPE + b"\x00", _ME, 61, _TRAILING),
    ("blob-empty-identifier", parse_blob, bytes(5), _ME, 0, "empty algorithm identifier"),
    # The key starts at byte 17 of this blob and at byte 22 of the next.
    ("recipient-key-short", recipient_key, frame_blob("CME-TOY-10-8", 1, bytes(3)), _ME, 20,
     "public key length 3, expected 10130"),
    ("sender-key-trailing-byte", functools.partial(sender_key, algorithm_id=_LOW_SIG),
     frame_blob(_LOW_SIG, 1, _LOW_HBS_PK + b"\x00"), _ME, 43, _TRAILING),
    ("hbs-key-unknown-mode", hbs_parse_public, _replaced(_HBS_PK, 4, b"\x02"), _ME, 4,
     "unknown mode byte"),
    ("hbs-key-trailing-byte", hbs_parse_public, _HBS_PK + b"\x00", _ME, 21, _TRAILING),
    ("kem-key-short", _kem_pk, bytes(16), _ME, 16, "public key length 16, expected 17"),
    ("kem-key-long", _kem_pk, bytes(18), _ME, 17, "public key length 18, expected 17"),
    ("kem-key-padding-bits", _kem_pk, bytes(16) + b"\x01", _ME, 16, "nonzero padding bits"),
    ("kem-ciphertext-short", _decap, b"\x00", _IC, None, "ciphertext length 1, expected 2"),
    ("kem-ciphertext-long", _decap, bytes(3), _IC, None, "ciphertext length 3, expected 2"),
    ("kem-ciphertext-padding-bits", _decap, b"\x00\x01", _IC, None, "nonzero padding bits"),
    ("kem-ciphertext-zero-syndrome", _decap, bytes(2), _IC, None, "syndrome 0 maps to no"),
    ("keystore-empty-file", _open, b"", _MS, 0, "header: input truncated"),
    ("keystore-cut-header", _open, _store()[:25], _MS, 22, "header: input truncated"),
    ("keystore-bad-magic", _open, _store(magic=b"AGKT"), _MS, 0, "header: bad magic"),
    ("keystore-unknown-version", _open, _store(version=3), _MS, 4, "format version 3"),
    ("keystore-cut-generation", _open, _store(version=2, generation=0)[:30], _MS, 26,
     "header: input truncated"),
    ("keystore-zero-iterations", _open, _store(iterations=0), _MS, 22, "zero iteration count"),
    ("keystore-unauthentic-table", _open, _store() + bytes(96), BadPassword, None,
     "wrong password or tampered file"),
    # The table was sealed as generation 1; the header says 2.
    ("keystore-generation-not-sealed", _open,
     store_image("pw", bytes(16), 1, _table(), generation=2, sequence=1), BadPassword, None,
     "wrong password or tampered file"),
    ("table-alias-not-utf8", _decode_table, _table(alias=b"\xff\xfe"), _MS, 8,
     "entry table: text field is not utf-8"),
    ("table-algorithm-not-ascii", _decode_table, _table(algorithm=b"CME-\xc3\xa9"), _MS, 17,
     "entry table: text field is not ascii"),
    ("table-unknown-state-flag", _decode_table, _replaced(_table(), 33, b"\x02"), _MS, 33,
     "entry table: unknown state flag 2"),
    ("table-duplicate-alias", _decode_table, _table(count=2), _MS, 64, "duplicate alias 'enc'"),
    ("registry-line-1-not-version", parse_registry_text, "x\n" * 8, _ME, None,
     "line 1: expected `version N`"),
    *[(f"registry-{name}", parse_registry_text, builtin_registry(1).canonical_text()
       .replace(old, new, 1), _ME, None, text) for name, old, new, text in _REGISTRY],
    ("registry-file-not-ascii", _on(load_registry, _file), b"caf\xc3\xa9", _ME, 5, _ASCII),
]


@pytest.mark.parametrize(
    "decode, data, error, offset, text",
    [pytest.param(*row[1:], id=row[0]) for row in DECODER_REFUSALS],
)
def test_a_decoder_refuses(decode, data, error, offset, text):
    with pytest.raises(error) as caught:
        decode(data)
    assert caught.type is error, repr(caught.value)
    assert text in str(caught.value)
    exc = caught.value if error is MalformedEncoding else caught.value.__cause__
    assert getattr(exc, "offset", None) == offset
    assert offset is None or 0 <= offset <= len(data)


@pytest.mark.parametrize(
    "decode, data, legal",
    [
        pytest.param(envelope_decode, _ENVELOPE, None, id="envelope"),
        pytest.param(parse_certificate, _cert(), None, id="certificate"),
        pytest.param(hbs_parse_public, _HBS_PK, None, id="hbs-public-key"),
        pytest.param(_kem_pk, bytes(17), None, id="kem-public-key"),
        pytest.param(parse_blob, frame_blob("CME-TOY-10-8", 1, b""), None, id="blob-header"),
        pytest.param(TemplateInfo.decode, _INFO, None, id="template-info"),
        # The extension block is optional: the bare hello decodes.
        pytest.param(ClientHello.decode, _HELLO, 41, id="client-hello"),
    ],
)
def test_every_proper_prefix_is_refused(decode, data, legal):
    decode(data)
    for cut in range(len(data)):
        if cut == legal:
            decode(data[:cut])
            continue
        with pytest.raises(MalformedEncoding) as caught:
            decode(data[:cut])
        assert caught.type is MalformedEncoding and 0 <= caught.value.offset <= cut, cut


# Every public decoder of outside input, and the errors it documents.
DECODERS = dict.fromkeys(
    [decode_text, wire.decode_handshake_header, TemplateInfo.decode, ClientHello.decode,
     ServerHello.decode, wire.decode_certificate_body, wire.decode_client_key_exchange_body,
     wire.decode_finished_body, wire.decode_server_hello_done_body, wire.decode_alert,
     parse_certificate, envelope_decode, parse_blob, hbs_parse_public, kem_parse_pk,
     parse_registry_text, load_registry],
    {MalformedEncoding},
) | {
    RecordLayer.recv: {MalformedEncoding, BadMac, BadPadding}, kem_decap: {InvalidCiphertext},
    keystore_open: {MalformedStore, BadPassword},
}


def test_every_decoder_has_a_row():
    named = set()  # every public function named *decode* or *parse*, and every class's decode
    for info in pkgutil.walk_packages(agilecrypt.__path__, "agilecrypt."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isfunction(obj) and {"decode", "parse"} & set(name.split("_")):
                named.add(obj)
            elif inspect.isclass(obj) and "decode" in vars(obj):
                named.add(obj.decode)
    assert named <= DECODERS.keys()
    rows = {
        (getattr(decode, "__wrapped__", getattr(decode, "func", decode)), error)
        for _, decode, _, error, _, _ in DECODER_REFUSALS
    }
    assert {(decoder, error) for decoder, errors in DECODERS.items() for error in errors} <= rows
