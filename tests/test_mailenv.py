"""Sign-then-encrypt envelopes: sealing, opening, tampering.

Each single refused call of envelope_seal and envelope_open is a row of
the REFUSED table in test_facade_refusals.py, and each refusal of
envelope_decode one of DECODER_REFUSALS in test_decoder_refusals.py; the
sweeps over every byte of a sealed body and a KEM ciphertext stay here."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from agilecrypt import cbkem, mailenv
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    frame_blob,
    parse_blob,
    recipient_key,
    template_resolve,
)
from agilecrypt.errors import BadMac
from agilecrypt.keystore import KeystoreParameters
from agilecrypt.mailenv import (
    ENVELOPE_EXTENSION,
    Envelope,
    EnvelopeHeader,
    encode_header,
    envelope_decode,
    envelope_encode,
    envelope_open,
    envelope_seal,
)
from agilecrypt.primitives import DeterministicRng

_PASSWORD = "envelope-test-password"


def _ksp(tmp_path, name):
    return KeystoreParameters(
        path=str(tmp_path / name), password=_PASSWORD, iterations=2_000
    )


def _parties(tmp_path, level=SecurityLevel.LOW, seed=b"mail"):
    reg = builtin_registry(1)
    rng = DeterministicRng(seed=seed)
    signer = EasySigner.with_new_key(
        template_resolve(reg, TemplateKind.SIGNATURE, level), _ksp(tmp_path, "sender.ks"), rng
    )
    recipient = EasyEncrypter.with_new_key(
        template_resolve(reg, TemplateKind.ENCRYPTION, level),
        _ksp(tmp_path, "recipient.ks"),
        rng,
    )
    return signer, recipient, rng


_HEADER = EnvelopeHeader(
    sender_id="alice",
    recipient_id="bob",
    sig_algorithm_id="SPX-TOY-16-16-8-S",
    enc_algorithm_id="CME-TOY-10-8",
    registry_version=1,
)


def test_envelope_codec_roundtrip():
    env = Envelope(header=_HEADER, kem_ct=b"\x01\x02\x03", sealed_body=b"\x04" * 40)
    raw = envelope_encode(env)
    assert envelope_decode(raw) == env
    assert raw.startswith(b"AGEV")


def test_extension_constant():
    assert ENVELOPE_EXTENSION == ".agenv"


# ---------------------------------------------------------------------------
# Seal / open
# ---------------------------------------------------------------------------

def test_roundtrip_low(tmp_path):
    signer, recipient, rng = _parties(tmp_path)
    for message in (b"", b"Hallo Welt!", b"x" * 5000):
        env = envelope_seal(signer, recipient.public_blob, message, rng=rng)
        assert envelope_open(recipient, signer.public_blob, env) == message
    signer.close()
    recipient.close()


def test_roundtrip_high_sample_message(tmp_path):
    """The canonical sample message through the largest templates."""
    signer, recipient, rng = _parties(tmp_path, level=SecurityLevel.HIGH, seed=b"high")
    env = envelope_seal(signer, recipient.public_blob, b"Hallo Welt!", rng=rng)
    assert env.header.sig_algorithm_id == "SPX-TOY-32-16-12-SL"
    assert env.header.enc_algorithm_id == "CME-TOY-16-10"
    assert envelope_open(recipient, signer.public_blob, env) == b"Hallo Welt!"
    signer.close()
    recipient.close()


def test_roundtrip_one_megabyte(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"mega")
    message = rng.random_bytes(1 << 20)
    env = envelope_seal(signer, recipient.public_blob, message, rng=rng)
    assert envelope_open(recipient, signer.public_blob, env) == message
    signer.close()
    recipient.close()


def test_roundtrip_through_encoding(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"fileform")
    env = envelope_seal(signer, recipient.public_blob, b"ueber die Leitung", rng=rng)
    again = envelope_decode(envelope_encode(env))
    assert envelope_open(recipient, signer.public_blob, again) == b"ueber die Leitung"
    signer.close()
    recipient.close()


def test_header_identities_and_defaults(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"ids")
    env = envelope_seal(signer, recipient.public_blob, b"m", rng=rng)
    assert env.header.sender_id == signer.alias
    fingerprint = hashlib.sha256(recipient.public_blob).digest()[:4].hex()
    assert env.header.recipient_id == "key-" + fingerprint
    named = envelope_seal(
        signer, recipient.public_blob, b"m", rng=rng, sender_id="alice", recipient_id="bob"
    )
    assert (named.header.sender_id, named.header.recipient_id) == ("alice", "bob")
    assert envelope_open(recipient, signer.public_blob, named) == b"m"
    signer.close()
    recipient.close()


def test_stateful_signer_consumes_leaves(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"leaves")
    state_before = signer.store.get_entry(signer.alias).state.next_leaf
    envelope_seal(signer, recipient.public_blob, b"one", rng=rng)
    envelope_seal(signer, recipient.public_blob, b"two", rng=rng)
    assert signer.store.get_entry(signer.alias).state.next_leaf == state_before + 2
    signer.close()
    recipient.close()


# ---------------------------------------------------------------------------
# Repeat traffic to one recipient
# ---------------------------------------------------------------------------

def test_repeat_traffic_to_one_key_parses_and_hashes_it_once(tmp_path, monkeypatch):
    """Two envelopes and two encrypted blobs to one recipient, its public
    blob passed as bytes, a bytearray and a memoryview, parse its KEM key
    once and hash the blob once, for the default recipient id.  The key
    is new, so no earlier call can have read it."""
    signer, recipient, rng = _parties(tmp_path, seed=b"one key, four messages")
    blob = recipient.public_blob
    parses, hashes = [], []
    parse, sha256 = cbkem.kem_parse_pk, hashlib.sha256

    def counting_parse(params, data):
        parses.append(len(data))
        return parse(params, data)

    def counting_sha256(*args, **kwargs):
        if args and args[0] == blob:
            hashes.append(len(blob))
        return sha256(*args, **kwargs)

    monkeypatch.setattr(cbkem, "kem_parse_pk", counting_parse)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    envelopes = [
        envelope_seal(signer, blob, b"one", rng=rng),
        envelope_seal(signer, bytearray(blob), b"two", rng=rng),
    ]
    blobs = [recipient.encrypt(blob, b"three"), recipient.encrypt(memoryview(blob), b"four")]
    assert (len(parses), len(hashes)) == (1, 1)
    assert [envelope_open(recipient, signer.public_blob, env) for env in envelopes] == [
        b"one", b"two"
    ]
    assert [recipient.decrypt(b) for b in blobs] == [b"three", b"four"]
    signer.close()
    recipient.close()


def test_blobs_one_key_byte_apart_are_read_apart():
    first = frame_blob("CME-TOY-10-8", 1, random.Random(404).randbytes(10130))
    second = first[:-1] + bytes([first[-1] ^ 0x01])
    for _ in range(2):  # the second round reads what the first remembered
        keys = [recipient_key(b)[2].encoding for b in (first, second)]
        ids = [mailenv._recipient_fingerprint(b) for b in (first, second)]
        assert keys == [parse_blob(first)[2], parse_blob(second)[2]]
        assert ids == ["key-" + hashlib.sha256(b).digest()[:4].hex() for b in (first, second)]
        assert keys[0] != keys[1] and ids[0] != ids[1]


# ---------------------------------------------------------------------------
# Tampering
# ---------------------------------------------------------------------------

def test_tampered_body_rejected_everywhere(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"tamper")
    message = b"the contents must never leak"
    env = envelope_seal(signer, recipient.public_blob, message, rng=rng)
    step = max(1, len(env.sealed_body) // 100)
    for pos in range(0, len(env.sealed_body), step):
        body = bytearray(env.sealed_body)
        body[pos] ^= 1 << rng.randints_below(8, 1)[0]
        broken = dataclasses.replace(env, sealed_body=bytes(body))
        with pytest.raises(BadMac):
            envelope_open(recipient, signer.public_blob, broken)
    signer.close()
    recipient.close()


def test_tampered_kem_ciphertext_rejected(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"tamper-ct")
    env = envelope_seal(signer, recipient.public_blob, b"secret", rng=rng)
    for pos in range(len(env.kem_ct)):
        ct = bytearray(env.kem_ct)
        ct[pos] ^= 1 << rng.randints_below(8, 1)[0]
        broken = dataclasses.replace(env, kem_ct=bytes(ct))
        with pytest.raises(BadMac):
            envelope_open(recipient, signer.public_blob, broken)
    signer.close()
    recipient.close()


# ---------------------------------------------------------------------------
# Ordering property
# ---------------------------------------------------------------------------

def test_signature_and_message_never_visible(tmp_path):
    """Sign-then-encrypt, externally checkable: neither the message nor
    any 16-byte window of the signature appears in the encoded envelope."""
    signer, recipient, rng = _parties(tmp_path, seed=b"opaque")
    message = b"this exact phrase must stay hidden"
    env = envelope_seal(signer, recipient.public_blob, message, rng=rng)
    raw = envelope_encode(env)
    assert message not in raw
    # Recover the true signature via a legitimate open, then scan.
    opened = envelope_open(recipient, signer.public_blob, env)
    assert opened == message
    sig_blob = signer.sign(encode_header(env.header) + message)
    _, _, some_sig = parse_blob(sig_blob)
    for start in range(0, len(some_sig) - 16, 16):
        assert some_sig[start : start + 16] not in raw
    signer.close()
    recipient.close()
