"""Sign-then-encrypt envelopes: sealing, opening, tampering, framing."""

from __future__ import annotations

import dataclasses

import pytest

from agilecrypt.cbkem import KemParams, kem_encap, kem_parse_pk
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    easysigner_verify,
    frame_blob,
    hybrid_record_keys,
    parse_blob,
    template_resolve,
)
from agilecrypt.errors import (
    AlgorithmMismatch,
    BadMac,
    BadSignature,
    MalformedEncoding,
)
from agilecrypt.hbs import hbs_export_public, hbs_keygen
from agilecrypt.keystore import EntryState, KeystoreParameters, keystore_open
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
from agilecrypt.primitives import DeterministicRng, seal_record

_PASSWORD = "envelope-test-password"


def _ksp(tmp_path, name):
    return KeystoreParameters(
        path=str(tmp_path / name), password=_PASSWORD, iterations=2_000
    )


def _parties(tmp_path, level=SecurityLevel.LOW, seed=b"mail", version=1):
    reg = builtin_registry(version)
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


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

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


def test_envelope_codec_rejects_all_truncations():
    env = Envelope(header=_HEADER, kem_ct=b"ct-bytes", sealed_body=b"body" * 10)
    raw = envelope_encode(env)
    for cut in range(len(raw)):
        with pytest.raises(MalformedEncoding):
            envelope_decode(raw[:cut])
    with pytest.raises(MalformedEncoding):
        envelope_decode(raw + b"\x00")


def test_envelope_codec_rejects_bad_magic():
    raw = bytearray(envelope_encode(Envelope(_HEADER, b"x", b"y")))
    raw[0] ^= 0xFF
    with pytest.raises(MalformedEncoding):
        envelope_decode(bytes(raw))


def test_envelope_codec_random_roundtrips():
    rng = DeterministicRng(seed=b"codec-fuzz")
    for i in range(100):
        header = EnvelopeHeader(
            sender_id=rng.random_bytes(rng.randint_below(12)).hex(),
            recipient_id=rng.random_bytes(rng.randint_below(12)).hex(),
            sig_algorithm_id="SPX-TOY-16-16-8-S",
            enc_algorithm_id="CME-TOY-10-8",
            registry_version=1 + rng.randint_below(9),
        )
        env = Envelope(
            header=header,
            kem_ct=rng.random_bytes(1 + rng.randint_below(64)),
            sealed_body=rng.random_bytes(48 + rng.randint_below(200)),
        )
        assert envelope_decode(envelope_encode(env)) == env


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
    assert env.header.recipient_id  # derived fingerprint, never empty
    named = envelope_seal(
        signer, recipient.public_blob, b"m", rng=rng, sender_id="alice", recipient_id="bob"
    )
    assert (named.header.sender_id, named.header.recipient_id) == ("alice", "bob")
    assert envelope_open(recipient, signer.public_blob, named) == b"m"
    signer.close()
    recipient.close()


@pytest.mark.parametrize("field", ["sender_id", "recipient_id"])
def test_oversize_header_id_rejected_before_signing(tmp_path, field):
    signer, recipient, rng = _parties(tmp_path, seed=b"oversize")
    before = signer.store.get_entry(signer.alias).state
    with pytest.raises(MalformedEncoding):
        envelope_seal(signer, recipient.public_blob, b"m", rng=rng, **{field: "x" * 70_000})
    assert signer.store.get_entry(signer.alias).state == before
    with keystore_open(_ksp(tmp_path, "sender.ks"), read_only=True) as stored:
        assert stored.get_entry(signer.alias).state == before
    signer.close()
    recipient.close()


def test_damaged_recipient_key_rejected_before_signing(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"cut-key")
    cut_blob = recipient.public_blob[:-1]
    with pytest.raises(MalformedEncoding):
        envelope_seal(signer, cut_blob, b"m", rng=rng)
    unused = EntryState(next_leaf=0, reserved_until=0)
    assert signer.store.get_entry(signer.alias).state == unused
    with keystore_open(_ksp(tmp_path, "sender.ks"), read_only=True) as stored:
        assert stored.get_entry(signer.alias).state == unused
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
# Tampering
# ---------------------------------------------------------------------------

def test_tampered_body_rejected_everywhere(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"tamper")
    message = b"the contents must never leak"
    env = envelope_seal(signer, recipient.public_blob, message, rng=rng)
    step = max(1, len(env.sealed_body) // 100)
    for pos in range(0, len(env.sealed_body), step):
        body = bytearray(env.sealed_body)
        body[pos] ^= 1 << rng.randint_below(8)
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
        ct[pos] ^= 1 << rng.randint_below(8)
        broken = dataclasses.replace(env, kem_ct=bytes(ct))
        with pytest.raises(BadMac):
            envelope_open(recipient, signer.public_blob, broken)
    signer.close()
    recipient.close()


def test_tampered_header_rejected(tmp_path):
    """The header rides outside the ciphertext but is authenticated."""
    signer, recipient, rng = _parties(tmp_path, seed=b"tamper-hdr")
    env = envelope_seal(signer, recipient.public_blob, b"payload", rng=rng)
    renamed = dataclasses.replace(
        env, header=dataclasses.replace(env.header, sender_id="mallory")
    )
    with pytest.raises(BadMac):
        envelope_open(recipient, signer.public_blob, renamed)
    signer.close()
    recipient.close()


def _manual_envelope(signer, recipient, inner_plaintext, rng):
    """Build an envelope with correct record keys but an arbitrary inner
    layout, bypassing envelope_seal."""
    enc_id, enc_version, raw_pub = parse_blob(recipient.public_blob)
    params = KemParams.from_algorithm_id(enc_id)
    pk = kem_parse_pk(params, raw_pub)
    ct, secret = kem_encap(pk, rng)
    header = EnvelopeHeader(
        sender_id=signer.alias,
        recipient_id="bob",
        sig_algorithm_id=signer.algorithm_id,
        enc_algorithm_id=enc_id,
        registry_version=signer.registry_version,
    )
    sealed = seal_record(hybrid_record_keys(secret), 0, encode_header(header), inner_plaintext)
    return Envelope(header=header, kem_ct=ct, sealed_body=sealed)


def test_stripped_signature_rejected(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"strip")
    env = _manual_envelope(signer, recipient, b"message without any signature", rng)
    with pytest.raises(BadSignature):
        envelope_open(recipient, signer.public_blob, env)
    signer.close()
    recipient.close()


def test_replaced_signature_rejected(tmp_path):
    """A signature from a different key over the same bytes: MAC passes,
    signature check must not."""
    signer, recipient, rng = _parties(tmp_path, seed=b"swap")
    reg = builtin_registry(1)
    imposter = EasySigner.with_new_key(
        template_resolve(reg, TemplateKind.SIGNATURE, SecurityLevel.LOW),
        _ksp(tmp_path, "imposter.ks"),
        DeterministicRng(seed=b"imposter"),
    )
    message = b"pay 100 coins to the bearer"
    header = EnvelopeHeader(
        sender_id=signer.alias,
        recipient_id="bob",
        sig_algorithm_id=signer.algorithm_id,
        enc_algorithm_id=recipient.algorithm_id,
        registry_version=signer.registry_version,
    )
    _, _, forged_sig = parse_blob(imposter.sign(encode_header(header) + message))
    env = _manual_envelope(signer, recipient, message + forged_sig, rng)
    with pytest.raises(BadSignature):
        envelope_open(recipient, signer.public_blob, env)
    # Prove the signature is the only thing failing: the same inner
    # bytes check out against the key that actually produced them.
    env2 = _manual_envelope(signer, recipient, message + forged_sig, rng)
    assert envelope_open(recipient, imposter.public_blob, env2) == message
    signer.close()
    recipient.close()
    imposter.close()


# ---------------------------------------------------------------------------
# Algorithm agreement
# ---------------------------------------------------------------------------

def test_wrong_recipient_key_rejected(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"wrongkey")
    reg = builtin_registry(1)
    other = EasyEncrypter.with_new_key(
        template_resolve(reg, TemplateKind.ENCRYPTION, SecurityLevel.MEDIUM),
        _ksp(tmp_path, "other.ks"),
        DeterministicRng(seed=b"other"),
    )
    env = envelope_seal(signer, recipient.public_blob, b"m", rng=rng)
    with pytest.raises(AlgorithmMismatch):
        envelope_open(other, signer.public_blob, env)
    signer.close()
    recipient.close()
    other.close()


def test_wrong_sender_key_type_rejected(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"wrongsender")
    env = envelope_seal(signer, recipient.public_blob, b"m", rng=rng)
    with pytest.raises(AlgorithmMismatch):
        envelope_open(recipient, recipient.public_blob, env)  # KEM key as sender
    rsa = frame_blob("RSA-2048", 1, bytes(256))
    with pytest.raises(AlgorithmMismatch):
        envelope_open(recipient, rsa, env)
    rsa_env = dataclasses.replace(
        env, header=dataclasses.replace(env.header, sig_algorithm_id="RSA-2048")
    )
    with pytest.raises(AlgorithmMismatch):
        envelope_open(recipient, rsa, rsa_env)
    signer.close()
    recipient.close()


def test_sender_key_bytes_of_another_row_rejected(tmp_path):
    """A sender blob framed as the LOW signature id around a MEDIUM key."""
    signer, recipient, rng = _parties(tmp_path, seed=b"otherrow")
    medium = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.MEDIUM)
    raw = hbs_export_public(hbs_keygen(medium.params, rng))
    forged = frame_blob(signer.algorithm_id, signer.registry_version, raw)
    env = envelope_seal(signer, recipient.public_blob, b"m", rng=rng)
    with pytest.raises(AlgorithmMismatch):
        envelope_open(recipient, forged, env)
    assert not easysigner_verify(forged, b"m", signer.sign(b"m"))
    signer.close()
    recipient.close()


def test_seal_requires_kem_recipient(tmp_path):
    signer, recipient, rng = _parties(tmp_path, seed=b"notakem")
    with pytest.raises(AlgorithmMismatch):
        envelope_seal(signer, signer.public_blob, b"m", rng=rng)
    signer.close()
    recipient.close()


def test_seal_rejects_mixed_registry_versions(tmp_path):
    signer, _, rng = _parties(tmp_path, seed=b"mixver")
    v2 = EasyEncrypter.with_new_key(
        template_resolve(builtin_registry(2), TemplateKind.ENCRYPTION, SecurityLevel.LOW),
        _ksp(tmp_path, "v2.ks"),
        DeterministicRng(seed=b"v2"),
    )
    with pytest.raises(AlgorithmMismatch):
        envelope_seal(signer, v2.public_blob, b"m", rng=rng)
    signer.close()
    v2.close()


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
