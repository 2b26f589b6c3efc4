"""Property tests for every decoder of a byte or text format.

For each format: encoding a value and decoding the bytes gives the value
back, and any byte string (random, or a valid encoding truncated, with a
byte replaced, or extended) either decodes or raises the one documented
error: MalformedEncoding, MalformedStore for the keystore entry table, or
InvalidCiphertext for a KEM ciphertext; a keystore file opens or raises
MalformedStore or BadPassword.  kem_decap, the public reader of
a KEM ciphertext, runs on one fixed small key: it returns a 32-byte
secret or raises InvalidCiphertext.  A signature has no decoder:
hbs_verify reads its bytes in place and returns a bool for any of them.
The registry text gets the same treatment with strings instead of bytes.
Hypothesis runs derandomized with a fixed example budget, so every run
checks the same inputs.
"""

from __future__ import annotations

import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agilecrypt import keystore
from agilecrypt.cbkem import (
    KemParams,
    KemPublicKey,
    _decode_ct,
    _encode_ct,
    _pack_columns,
    _unpack_columns,
    kem_decap,
    kem_encap,
    kem_keygen,
    kem_parse_pk,
)
from agilecrypt.codec import uint
from agilecrypt.easyapi import (
    SecurityLevel,
    TemplateKind,
    TemplateRegistry,
    frame_blob,
    parse_blob,
    parse_registry_text,
)
from agilecrypt.errors import BadPassword, InvalidCiphertext, MalformedEncoding, MalformedStore
from agilecrypt.hbs import (
    HbsKeyPair,
    HbsMode,
    HbsParams,
    hbs_export_public,
    hbs_keygen,
    hbs_parse_public,
    hbs_sign_with_leaf,
    hbs_verify,
)
from agilecrypt.keystore import (
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    _decode_table,
    _encode_table,
    keystore_open,
)
from agilecrypt.mailenv import Envelope, EnvelopeHeader, envelope_decode, envelope_encode
from agilecrypt.minitls import (
    Certificate,
    ClientHello,
    HandshakeType,
    ServerHello,
    TemplateInfo,
    parse_certificate,
)
from agilecrypt.minitls.wire import (
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
)
from agilecrypt.primitives import DeterministicRng
from store_images import store_image

_PROPERTY = settings(max_examples=150)

_U8 = st.integers(0, 0xFF)
_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)
_ASCII = st.characters(max_codepoint=0x7F)


def _ascii(min_size: int = 0, max_size: int = 40):
    return st.text(_ASCII, min_size=min_size, max_size=max_size)


def _utf8(max_size: int = 20):
    # Hypothesis text excludes surrogates, so every draw encodes as UTF-8.
    return st.text(max_size=max_size)


@st.composite
def _mutated(draw, encodings):
    """A valid encoding, then truncated, one byte replaced, or extended."""
    return _mutate(draw, draw(encodings))


def _mutate(draw, encoding: bytes) -> bytes:
    raw = bytearray(encoding)
    how = draw(st.sampled_from(["truncate", "replace", "extend"]))
    if how == "truncate":
        return bytes(raw[: draw(st.integers(0, max(0, len(raw) - 1)))])
    if how == "replace" and raw:
        raw[draw(st.integers(0, len(raw) - 1))] = draw(_U8)
        return bytes(raw)
    return bytes(raw) + draw(st.binary(min_size=1, max_size=8))


def _inputs(encodings, prefix: bytes = b""):
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: prefix + tail),
        _mutated(encodings),
    )


# ---------------------------------------------------------------------------
# Strategies for each format's values
# ---------------------------------------------------------------------------

_TEMPLATE_INFO = st.builds(
    TemplateInfo,
    registry_version=_U32,
    level=_U8,
    sig_id=_ascii(max_size=255),
    enc_id=_ascii(max_size=255),
)

_CLIENT_HELLO = st.builds(
    ClientHello,
    random=st.binary(min_size=32, max_size=32),
    cipher_suites=st.lists(_U16, min_size=1, max_size=8).map(tuple),
    template_info=st.none() | _TEMPLATE_INFO,
    session_id=st.binary(max_size=32),
    compression_methods=st.lists(_U8, max_size=4).map(tuple),
)

_SERVER_HELLO = st.builds(
    ServerHello,
    random=st.binary(min_size=32, max_size=32),
    cipher_suite=_U16,
    template_info=st.none() | _TEMPLATE_INFO,
    session_id=st.binary(max_size=32),
)

_ENVELOPE = st.builds(
    Envelope,
    header=st.builds(
        EnvelopeHeader,
        sender_id=_utf8(),
        recipient_id=_utf8(),
        sig_algorithm_id=_ascii(max_size=255),
        enc_algorithm_id=_ascii(max_size=255),
        registry_version=_U32,
    ),
    kem_ct=st.binary(max_size=64),
    sealed_body=st.binary(max_size=128),
)


@st.composite
def _certificates(draw):
    sig_params = HbsParams.from_algorithm_id(
        draw(st.sampled_from(["SPX-TOY-16-16-4-S", "SPX-TOY-16-4-4-SL", "SPX-TOY-32-16-4-S"]))
    )
    size = sig_params.signature_size
    return Certificate(
        subject=draw(_utf8()),
        kem_algorithm_id=draw(_ascii(max_size=255)),
        kem_public_key=draw(st.binary(max_size=64)),
        hbs_algorithm_id=sig_params.algorithm_id,
        issuer_root=draw(st.binary(max_size=255)),
        issuer_signature=draw(st.binary(min_size=size, max_size=size)),
    )


@st.composite
def _entry_tables(draw):
    entries = {}
    for alias in draw(st.lists(_utf8(), max_size=4, unique=True)):
        state = draw(
            st.none() | st.builds(EntryState, next_leaf=_U32, reserved_until=_U32)
        )
        entries[alias] = KeystoreEntry(
            alias=alias,
            algorithm_id=draw(_ascii()),
            secret_material=draw(st.binary(max_size=40)),
            public_material=draw(st.binary(max_size=80)),
            state=state,
        )
    return entries


# One fixed 16-leaf key per mode.
_SIG_KEYS = [
    hbs_keygen(HbsParams(n_h=16, w=16, h=4, mode=mode), DeterministicRng(b"verify property key"))
    for mode in HbsMode
]

_BLOB = st.tuples(_ascii(min_size=1, max_size=255), _U32, st.binary(max_size=64))

# Small KEM and HBS parameter sets keep the keys and signatures short.
_KEM_PARAMS = st.builds(KemParams, m=st.integers(2, 6), b=st.integers(1, 4))
_SIG_PARAMS = st.builds(
    HbsParams,
    n_h=st.sampled_from([16, 32]),
    w=st.sampled_from([2, 4, 16, 256]),
    h=st.integers(4, 16),
    mode=st.sampled_from(list(HbsMode)),
)


@st.composite
def _kem_ciphertexts(draw):
    params = draw(_KEM_PARAMS)
    return params, draw(st.lists(st.integers(0, params.n), min_size=params.b, max_size=params.b))


@st.composite
def _kem_public_keys(draw):
    """A public key packed from arbitrary m-bit T columns, and the columns."""
    params = draw(_KEM_PARAMS)
    column = st.integers(0, (1 << params.m) - 1)
    blocks = [
        draw(st.lists(column, min_size=params.k, max_size=params.k)) for _ in range(params.b)
    ]
    return KemPublicKey(params=params, encoding=_pack_columns(params, blocks)), blocks


@st.composite
def _hbs_signatures(draw):
    """Parameters, a root and signature bytes of the signature's size:
    random for random parameters, or made over an empty message by one
    of two fixed small keys."""
    if draw(st.booleans()):
        params = draw(_SIG_PARAMS)
        size = params.signature_size
        root = draw(st.binary(min_size=params.n_h, max_size=params.n_h))
        return (params, root), draw(st.binary(min_size=size, max_size=size))
    kp = draw(st.sampled_from(_SIG_KEYS))
    rng = DeterministicRng(draw(st.binary(max_size=8)))
    return (kp.params, kp.root), hbs_sign_with_leaf(kp, draw(st.integers(0, 15)), b"", rng)


@st.composite
def _hbs_public_keys(draw):
    params = draw(_SIG_PARAMS)
    root = draw(st.binary(min_size=params.n_h, max_size=params.n_h))
    return HbsKeyPair(seed=bytes(32), root=root, params=params)


_REGISTRY = st.builds(
    TemplateRegistry,
    version=_U32,
    issued=st.dates(),
    entries=st.fixed_dictionaries(
        {
            (kind, level): st.sampled_from(
                ["SPX-TOY-16-16-4-S", "SPX-TOY-32-16-12-SL", "SPX-TOY-16-4-8-S"]
                if kind is TemplateKind.SIGNATURE
                else ["CME-TOY-10-8", "CME-TOY-13-16", "CME-TOY-16-10"]
            )
            for kind in TemplateKind
            for level in SecurityLevel
        }
    ),
)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@_PROPERTY
@given(_CLIENT_HELLO)
def test_client_hello_roundtrip(hello):
    assert ClientHello.decode(hello.encode()) == hello


@_PROPERTY
@given(_SERVER_HELLO)
def test_server_hello_roundtrip(hello):
    assert ServerHello.decode(hello.encode()) == hello


@_PROPERTY
@given(_ENVELOPE)
def test_envelope_roundtrip(env):
    assert envelope_decode(envelope_encode(env)) == env


@_PROPERTY
@given(_certificates())
def test_certificate_roundtrip(cert):
    assert parse_certificate(cert.encoding) == cert


@_PROPERTY
@given(_entry_tables())
def test_entry_table_roundtrip(entries):
    assert _decode_table(_encode_table(entries)) == entries


@_PROPERTY
@given(_BLOB)
def test_blob_roundtrip(parts):
    assert parse_blob(frame_blob(*parts)) == parts


@_PROPERTY
@given(_kem_ciphertexts())
def test_kem_ciphertext_roundtrip(case):
    params, syndromes = case
    assert _decode_ct(params, _encode_ct(params, syndromes)) == syndromes


@_PROPERTY
@given(_kem_public_keys())
def test_kem_public_key_roundtrip(case):
    pk, blocks = case
    params = pk.params
    parsed = kem_parse_pk(params, pk.encoding)
    assert parsed == pk
    assert [list(cols) for cols in _unpack_columns(parsed)] == blocks
    assert [
        [parsed.syndrome_for_position(i, j) for j in range(params.m, params.n)]
        for i in range(params.b)
    ] == blocks


@_PROPERTY
@given(_hbs_public_keys())
def test_hbs_public_key_roundtrip(kp):
    assert hbs_parse_public(hbs_export_public(kp)) == (kp.params, kp.root)


@_PROPERTY
@given(_REGISTRY)
def test_registry_text_roundtrip(registry):
    assert parse_registry_text(registry.canonical_text()) == registry


# ---------------------------------------------------------------------------
# Arbitrary input raises only the documented error
# ---------------------------------------------------------------------------

def _decodes_or_raises(decode, data: bytes, error: type[Exception]) -> None:
    try:
        decode(data)
    except error:
        pass


@_PROPERTY
@given(_inputs(_CLIENT_HELLO.map(ClientHello.encode), prefix=b"\x03\x03"))
def test_client_hello_decoder_raises_only_malformed_encoding(data):
    _decodes_or_raises(ClientHello.decode, data, MalformedEncoding)


@_PROPERTY
@given(_inputs(_SERVER_HELLO.map(ServerHello.encode), prefix=b"\x03\x03"))
def test_server_hello_decoder_raises_only_malformed_encoding(data):
    _decodes_or_raises(ServerHello.decode, data, MalformedEncoding)


@_PROPERTY
@given(_inputs(_ENVELOPE.map(envelope_encode), prefix=b"AGEV\x00\x01"))
def test_envelope_decoder_raises_only_malformed_encoding(data):
    _decodes_or_raises(envelope_decode, data, MalformedEncoding)


@_PROPERTY
@given(_inputs(_certificates().map(lambda cert: cert.encoding)))
def test_certificate_parser_raises_only_malformed_encoding(data):
    _decodes_or_raises(parse_certificate, data, MalformedEncoding)


@_PROPERTY
@given(_inputs(_entry_tables().map(_encode_table)))
def test_entry_table_decoder_raises_only_malformed_store(data):
    _decodes_or_raises(_decode_table, data, MalformedStore)


@_PROPERTY
@given(_inputs(_BLOB.map(lambda parts: frame_blob(*parts))))
def test_blob_parser_raises_only_malformed_encoding(data):
    _decodes_or_raises(parse_blob, data, MalformedEncoding)


@pytest.mark.parametrize(
    "decode, encodings",
    [
        pytest.param(
            decode_handshake_header,
            st.tuples(st.sampled_from(HandshakeType), st.integers(0, 0xFFFFFF)).map(
                lambda header: uint(header[0], 1) + uint(header[1], 3)
            ),
            id="handshake-header",
        ),
        pytest.param(
            TemplateInfo.decode, _TEMPLATE_INFO.map(TemplateInfo.encode), id="template-info"
        ),
        pytest.param(
            decode_certificate_body,
            st.binary(max_size=64).map(encode_certificate_body),
            id="certificate-body",
        ),
        pytest.param(
            decode_client_key_exchange_body,
            st.binary(min_size=1, max_size=64).map(encode_client_key_exchange_body),
            id="client-key-exchange",
        ),
        pytest.param(decode_finished_body, st.binary(min_size=12, max_size=12), id="finished"),
        pytest.param(decode_server_hello_done_body, st.just(b""), id="server-hello-done"),
        pytest.param(
            decode_alert, st.sampled_from(AlertDescription).map(encode_alert), id="alert"
        ),
    ],
)
@_PROPERTY
@given(data=st.data())
def test_handshake_body_decoder_raises_only_malformed_encoding(decode, encodings, data):
    _decodes_or_raises(decode, data.draw(_inputs(encodings)), MalformedEncoding)


def _store_file(case) -> bytes:
    """A store that opens with the password "pw": a format version, one
    iteration, a salt, a write generation and an entry table."""
    version, salt, generation, entries = case
    return store_image("pw", salt, 1, _encode_table(entries), version, generation)


_STORE_FILES = st.tuples(
    st.sampled_from((1, keystore.FORMAT_VERSION)),
    st.binary(min_size=16, max_size=16),
    st.integers(0, 2**64 - 1),
    _entry_tables(),
).map(_store_file)


@_PROPERTY
@given(
    st.one_of(
        _STORE_FILES,
        *[
            _inputs(_STORE_FILES, prefix=keystore.MAGIC + uint(version, 2))
            for version in (1, keystore.FORMAT_VERSION)
        ],
    )
)
def test_keystore_open_raises_only_malformed_store_or_bad_password(data):
    """Any file bytes open or raise MalformedStore or BadPassword; an
    intact file reaches the check of each entry.  The key derivation runs
    one iteration whatever count the header holds: the count sets its
    cost, not its outcome."""
    derive = keystore._derive_keys
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        keystore,
        "_derive_keys",
        lambda password, salt, _, version: derive(password, salt, 1, version),
    ):
        path = pathlib.Path(tmp, "store.agks")
        path.write_bytes(data)
        try:
            keystore_open(KeystoreParameters(str(path), "pw"), read_only=True).close()
        except (MalformedStore, BadPassword):
            pass


@st.composite
def _sized_inputs(draw, cases, encode, size):
    """(params, data): data is random of any length, random of the one
    valid length, or a mutated valid encoding, for params drawn with
    the case."""
    params, value = draw(cases)
    data = draw(
        st.one_of(
            st.binary(max_size=300),
            st.binary(min_size=size(params), max_size=size(params)),
            st.just(encode(params, value)),
        )
    )
    if draw(st.booleans()):
        data = _mutate(draw, data)
    return params, data


@_PROPERTY
@given(_sized_inputs(_kem_ciphertexts(), _encode_ct, lambda p: p.ct_bytes))
def test_kem_ciphertext_decoder_raises_only_invalid_ciphertext(case):
    params, data = case
    _decodes_or_raises(lambda raw: _decode_ct(params, raw), data, InvalidCiphertext)


# One fixed small key: 3 blocks of 4-bit syndromes, so a ciphertext is 2
# bytes with 4 pad bits.
_KEM_KEY = kem_keygen(KemParams(m=4, b=3), DeterministicRng(b"decap property key"))
_KEM_CTS = st.binary(max_size=8).map(lambda seed: kem_encap(_KEM_KEY.pk, DeterministicRng(seed))[0])


@_PROPERTY
@given(st.one_of(st.binary(min_size=2, max_size=2), _inputs(_KEM_CTS)))
def test_kem_decap_returns_a_secret_or_raises_only_invalid_ciphertext(ct):
    try:
        assert len(kem_decap(_KEM_KEY.sk, ct)) == 32
    except InvalidCiphertext:
        pass


@_PROPERTY
@given(
    _sized_inputs(
        _kem_public_keys().map(lambda case: (case[0].params, case[0])),
        lambda _, pk: pk.encoding,
        lambda p: p.pk_bytes,
    )
)
def test_kem_public_key_parser_raises_only_malformed_encoding(case):
    params, data = case
    _decodes_or_raises(lambda raw: kem_parse_pk(params, raw), data, MalformedEncoding)


@_PROPERTY
@given(_sized_inputs(_hbs_signatures(), lambda _, sig: sig, lambda key: key[0].signature_size))
def test_hbs_verify_returns_a_bool_and_raises_nothing(case):
    (params, root), data = case
    assert isinstance(hbs_verify(root, params, b"", data), bool)


@_PROPERTY
@given(_inputs(_hbs_public_keys().map(hbs_export_public)))
def test_hbs_public_key_parser_raises_only_malformed_encoding(data):
    _decodes_or_raises(hbs_parse_public, data, MalformedEncoding)


@st.composite
def _registry_texts(draw):
    """Arbitrary text, or a canonical registry text with one line
    dropped, one character replaced, or text appended."""
    if draw(st.booleans()):
        return draw(st.text(max_size=300))
    text = draw(_REGISTRY).canonical_text()
    how = draw(st.sampled_from(["drop", "replace", "extend"]))
    if how == "drop":
        lines = text.splitlines(keepends=True)
        del lines[draw(st.integers(0, len(lines) - 1))]
        return "".join(lines)
    if how == "replace":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.characters()) + text[at + 1 :]
    return text + draw(st.text(min_size=1, max_size=40))


@_PROPERTY
@given(_registry_texts())
def test_registry_text_parser_raises_only_malformed_encoding(text):
    _decodes_or_raises(parse_registry_text, text, MalformedEncoding)
