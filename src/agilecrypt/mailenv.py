"""Sign-then-encrypt message envelopes.

An envelope carries an authenticated plaintext header (who, to whom,
which algorithms, which registry generation), a KEM ciphertext, and a
sealed body whose plaintext is ``message || sender signature``.  The
signature is computed over ``header || message`` and then encrypted
along with the message, so nothing about the signer leaks from the
encoded envelope.

Opening reverses the layers strictly: authenticate and decrypt first,
then verify the signature, and release the message only if every check
passed.  KEM-stage rejections surface as ``BadMac`` because a caller
holding a damaged envelope cannot tell the regions apart.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .easyapi import (
    _DEFAULT_PROVIDERS,
    EasyEncrypter,
    EasySigner,
    ProviderRegistry,
    parse_blob,
)
from .cbkem import KemParams
from .errors import (
    AlgorithmMismatch,
    BadMac,
    BadPadding,
    BadSignature,
    InvalidCiphertext,
    MalformedEncoding,
    ParameterError,
)
from .hbs import HbsParams
from .easyapi import hybrid_record_keys
from .primitives import HashId, Rng, SystemRng, hash_data, open_record, seal_record

ENVELOPE_EXTENSION = ".agenv"

_MAGIC = b"AGEV"
_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Domain types and framing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeHeader:
    sender_id: str
    recipient_id: str
    sig_algorithm_id: str
    enc_algorithm_id: str
    registry_version: int


@dataclass(frozen=True)
class Envelope:
    header: EnvelopeHeader
    kem_ct: bytes
    sealed_body: bytes


def encode_header(header: EnvelopeHeader) -> bytes:
    """Canonical header bytes: the associated data for the seal and the
    prefix of the signed bytes."""
    sender = header.sender_id.encode("utf-8")
    recipient = header.recipient_id.encode("utf-8")
    sig_id = header.sig_algorithm_id.encode("ascii")
    enc_id = header.enc_algorithm_id.encode("ascii")
    return (
        struct.pack(">H", len(sender)) + sender
        + struct.pack(">H", len(recipient)) + recipient
        + struct.pack(">B", len(sig_id)) + sig_id
        + struct.pack(">B", len(enc_id)) + enc_id
        + struct.pack(">I", header.registry_version)
    )


class _Cursor:
    def __init__(self, data: bytes):
        self._data = data
        self._off = 0

    def take(self, n: int) -> bytes:
        if self._off + n > len(self._data):
            raise MalformedEncoding(
                f"envelope truncated: need {n} bytes at offset {self._off}",
                offset=self._off,
            )
        out = self._data[self._off : self._off + n]
        self._off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def text(self, length: int, what: str) -> str:
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding(f"{what} is not valid text", offset=self._off) from exc

    def expect_end(self) -> None:
        if self._off != len(self._data):
            raise MalformedEncoding(
                f"{len(self._data) - self._off} trailing bytes after envelope",
                offset=self._off,
            )


def envelope_encode(env: Envelope) -> bytes:
    return (
        _MAGIC
        + struct.pack(">H", _FORMAT_VERSION)
        + encode_header(env.header)
        + struct.pack(">I", len(env.kem_ct)) + env.kem_ct
        + struct.pack(">I", len(env.sealed_body)) + env.sealed_body
    )


def envelope_decode(data: bytes) -> Envelope:
    c = _Cursor(data)
    if c.take(4) != _MAGIC:
        raise MalformedEncoding("not an envelope file", offset=0)
    version = c.u16()
    if version != _FORMAT_VERSION:
        raise MalformedEncoding(f"unknown envelope format version {version}", offset=4)
    header = EnvelopeHeader(
        sender_id=c.text(c.u16(), "sender id"),
        recipient_id=c.text(c.u16(), "recipient id"),
        sig_algorithm_id=c.text(c.u8(), "signature algorithm id"),
        enc_algorithm_id=c.text(c.u8(), "encryption algorithm id"),
        registry_version=c.u32(),
    )
    kem_ct = c.take(c.u32())
    sealed_body = c.take(c.u32())
    c.expect_end()
    return Envelope(header=header, kem_ct=kem_ct, sealed_body=sealed_body)


# ---------------------------------------------------------------------------
# Seal and open
# ---------------------------------------------------------------------------

def _recipient_fingerprint(public_blob: bytes) -> str:
    return "key-" + hash_data(HashId.H256, public_blob)[:4].hex()


def envelope_seal(
    signer: EasySigner,
    recipient_public_blob: bytes,
    message: bytes,
    *,
    rng: Rng | None = None,
    sender_id: str | None = None,
    recipient_id: str | None = None,
    providers: ProviderRegistry | None = None,
) -> Envelope:
    """Sign ``header || message`` with the sender's key, then seal
    message and signature to the recipient.  Stateful signing keys go
    through their keystore reservation exactly as in a bare sign call."""
    rng = rng if rng is not None else SystemRng()
    providers = providers if providers is not None else _DEFAULT_PROVIDERS
    enc_id, enc_version, raw_pub = parse_blob(recipient_public_blob)
    try:
        kem_params = KemParams.from_algorithm_id(enc_id)
    except ParameterError as exc:
        raise AlgorithmMismatch(
            f"recipient key {enc_id!r} is not an encryption key"
        ) from exc
    if enc_version != signer.registry_version:
        raise AlgorithmMismatch(
            f"registry generations differ: sender v{signer.registry_version}, "
            f"recipient v{enc_version}"
        )
    header = EnvelopeHeader(
        sender_id=sender_id if sender_id is not None else signer.alias,
        recipient_id=(
            recipient_id
            if recipient_id is not None
            else _recipient_fingerprint(recipient_public_blob)
        ),
        sig_algorithm_id=signer.algorithm_id,
        enc_algorithm_id=enc_id,
        registry_version=signer.registry_version,
    )
    header_bytes = encode_header(header)
    _, _, raw_sig = parse_blob(signer.sign(header_bytes + message))
    backend = providers.resolve(enc_id)
    pk = backend.parse_pk(kem_params, raw_pub)
    ct, secret = backend.encap(pk, kem_params, rng)
    sealed = seal_record(hybrid_record_keys(secret), 0, header_bytes, message + raw_sig)
    return Envelope(
        header=header, kem_ct=backend.serialize_ct(kem_params, ct), sealed_body=sealed
    )


def envelope_open(
    recipient: EasyEncrypter,
    sender_public_blob: bytes,
    env: Envelope,
    providers: ProviderRegistry | None = None,
) -> bytes:
    providers = providers if providers is not None else _DEFAULT_PROVIDERS
    if env.header.enc_algorithm_id != recipient.algorithm_id:
        raise AlgorithmMismatch(
            f"envelope is for {env.header.enc_algorithm_id!r}, "
            f"this key is {recipient.algorithm_id!r}"
        )
    try:
        sig_params = HbsParams.from_algorithm_id(env.header.sig_algorithm_id)
    except ParameterError as exc:
        raise AlgorithmMismatch(
            f"unresolvable signature algorithm {env.header.sig_algorithm_id!r}"
        ) from exc
    pub_id, _, raw_sender_pub = parse_blob(sender_public_blob)
    if pub_id != env.header.sig_algorithm_id:
        raise AlgorithmMismatch(
            f"sender key is {pub_id!r}, envelope was signed with "
            f"{env.header.sig_algorithm_id!r}"
        )
    sig_backend = providers.resolve(pub_id)
    _, sender_root = sig_backend.parse_public(raw_sender_pub)

    header_bytes = encode_header(env.header)
    try:
        secret = recipient.decap_bytes(env.kem_ct)
    except InvalidCiphertext as exc:
        raise BadMac("envelope ciphertext region failed decapsulation") from exc
    try:
        plaintext = open_record(
            hybrid_record_keys(secret), 0, header_bytes, env.sealed_body
        )
    except BadPadding as exc:
        raise BadMac("sealed body failed authentication") from exc

    sig_size = sig_params.signature_size
    if len(plaintext) < sig_size:
        raise BadSignature("sealed body too short to hold a signature")
    message, raw_sig = plaintext[:-sig_size], plaintext[-sig_size:]
    try:
        signature = sig_backend.parse_sig(sig_params, raw_sig)
    except MalformedEncoding as exc:
        raise BadSignature("embedded signature unreadable") from exc
    if not sig_backend.verify(sender_root, sig_params, header_bytes + message, signature):
        raise BadSignature("sender signature does not verify")
    return message
