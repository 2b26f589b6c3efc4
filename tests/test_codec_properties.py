"""Property tests for the decoders built on agilecrypt.codec.

For each format: encoding a value and decoding the bytes gives the value
back, and any byte string (random, or a valid encoding truncated, with a
byte replaced, or extended) either decodes or raises the one documented
error: MalformedEncoding, or MalformedStore for the keystore entry table.
Hypothesis runs derandomized with a fixed example budget, so every run
checks the same inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from agilecrypt.easyapi import frame_blob, parse_blob
from agilecrypt.errors import MalformedEncoding, MalformedStore
from agilecrypt.hbs import HbsParams, hbs_parse_sig
from agilecrypt.keystore import EntryState, KeystoreEntry, _decode_table, _encode_table
from agilecrypt.mailenv import Envelope, EnvelopeHeader, envelope_decode, envelope_encode
from agilecrypt.minitls import (
    Certificate,
    ClientHello,
    ServerHello,
    TemplateInfo,
    encode_certificate,
    parse_certificate,
)

_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

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
    raw = bytearray(draw(encodings))
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
    raw_sig = draw(st.binary(min_size=size, max_size=size))
    return Certificate(
        subject=draw(_utf8()),
        kem_algorithm_id=draw(_ascii(max_size=255)),
        kem_public_key=draw(st.binary(max_size=64)),
        hbs_algorithm_id=sig_params.algorithm_id,
        issuer_root=draw(st.binary(max_size=255)),
        issuer_signature=hbs_parse_sig(sig_params, raw_sig),
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


_BLOB = st.tuples(_ascii(min_size=1, max_size=255), _U32, st.binary(max_size=64))


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
    assert parse_certificate(encode_certificate(cert)) == cert


@_PROPERTY
@given(_entry_tables())
def test_entry_table_roundtrip(entries):
    assert _decode_table(_encode_table(entries)) == entries


@_PROPERTY
@given(_BLOB)
def test_blob_roundtrip(parts):
    assert parse_blob(frame_blob(*parts)) == parts


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
@given(_inputs(_certificates().map(encode_certificate)))
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
