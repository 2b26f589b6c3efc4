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

Key reading and the KEM-then-seal step are easyapi's, shared with
EasyEncrypter; the envelope differs only in its associated data (the
header, without the KEM ciphertext).  The recipient's key and its
default recipient id are read once per key, not once per envelope:
both are remembered for the last RECIPIENT_KEY_MEMO distinct blobs.
The sender's key is read once per key too: sender_key remembers the
last 8 distinct pairs of key blob and signature algorithm.
The signature is the last signature_size bytes of the opened body, and
hbs_verify reads them as they are: a body too short to hold one fails
the check like a damaged one.  Framing uses agilecrypt.codec, whose strict-decoding rules apply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .codec import Reader, decode_text, encode_text, uint, vec8, vec16, vec32
from .easyapi import (
    RECIPIENT_KEY_MEMO,
    EasyEncrypter,
    EasySigner,
    hybrid_encap,
    hybrid_open,
    parse_blob,
    recipient_key,
    sender_key,
)
from .errors import AlgorithmMismatch, BadMac, BadSignature, InvalidCiphertext, MalformedEncoding
from .hbs import hbs_verify
from .primitives import HashId, Rng, SystemRng, hash_data, seal_record

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
    return (
        vec16(encode_text(header.sender_id, "utf-8"))
        + vec16(encode_text(header.recipient_id, "utf-8"))
        + vec8(encode_text(header.sig_algorithm_id, "ascii"))
        + vec8(encode_text(header.enc_algorithm_id, "ascii"))
        + uint(header.registry_version, 4)
    )


def envelope_encode(env: Envelope) -> bytes:
    return (
        _MAGIC
        + uint(_FORMAT_VERSION, 2)
        + encode_header(env.header)
        + vec32(env.kem_ct)
        + vec32(env.sealed_body)
    )


def envelope_decode(data: bytes) -> Envelope:
    r = Reader(data)
    if r.take(4) != _MAGIC:
        raise MalformedEncoding("not an envelope file", offset=0)
    version = r.u16()
    if version != _FORMAT_VERSION:
        raise MalformedEncoding(f"unknown envelope format version {version}", offset=4)
    header = EnvelopeHeader(
        sender_id=decode_text(r.vec16(), "utf-8", r.offset),
        recipient_id=decode_text(r.vec16(), "utf-8", r.offset),
        sig_algorithm_id=decode_text(r.vec8(), "ascii", r.offset),
        enc_algorithm_id=decode_text(r.vec8(), "ascii", r.offset),
        registry_version=r.u32(),
    )
    kem_ct = r.vec32()
    sealed_body = r.vec32()
    r.expect_end()
    return Envelope(header=header, kem_ct=kem_ct, sealed_body=sealed_body)


# ---------------------------------------------------------------------------
# Seal and open
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=RECIPIENT_KEY_MEMO)
def _recipient_fingerprint(public_blob: bytes) -> str:
    """The default recipient id, remembered like recipient_key's result
    for the last RECIPIENT_KEY_MEMO (8) distinct blobs, so a repeat seal
    does not hash the key again."""
    return "key-" + hash_data(HashId.H256, public_blob)[:4].hex()


def envelope_seal(
    signer: EasySigner,
    recipient_public_blob: bytes,
    message: bytes,
    *,
    rng: Rng | None = None,
    sender_id: str | None = None,
    recipient_id: str | None = None,
) -> Envelope:
    """Sign ``header || message`` with the sender's key, then seal
    message and signature to the recipient.  Stateful signing keys go
    through their keystore reservation exactly as in a bare sign call."""
    rng = rng if rng is not None else SystemRng()
    # Both reads of the recipient's key below are remembered on its bytes.
    recipient_public_blob = bytes(recipient_public_blob)
    # A damaged recipient key must fail before signing uses a leaf.
    enc_id, enc_version, kem_pk = recipient_key(recipient_public_blob)
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
    kem_ct, keys = hybrid_encap(kem_pk, rng)
    sealed = seal_record(keys, 0, header_bytes, message + raw_sig)
    return Envelope(header=header, kem_ct=kem_ct, sealed_body=sealed)


def envelope_open(recipient: EasyEncrypter, sender_public_blob: bytes, env: Envelope) -> bytes:
    recipient.store.check_open()
    if env.header.enc_algorithm_id != recipient.algorithm_id:
        raise AlgorithmMismatch(
            f"envelope is for {env.header.enc_algorithm_id!r}, "
            f"this key is {recipient.algorithm_id!r}"
        )
    sig_params, sender_root = sender_key(sender_public_blob, env.header.sig_algorithm_id)
    header_bytes = encode_header(env.header)
    try:
        plaintext = hybrid_open(recipient, env.kem_ct, header_bytes, env.sealed_body)
    except InvalidCiphertext as exc:
        raise BadMac("envelope ciphertext region failed decapsulation") from exc

    sig_size = sig_params.signature_size
    message, raw_sig = plaintext[:-sig_size], plaintext[-sig_size:]
    if not hbs_verify(sender_root, sig_params, header_bytes + message, raw_sig):
        raise BadSignature("sender signature does not verify")
    return message
