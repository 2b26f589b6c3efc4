"""Every refusal of the signing, encryption and envelope facade: one case
table, REFUSED.

Each row is (id, call, error, text).  ``call`` makes one refused call on
the LOW handles of the module fixture ``facade`` and raises exactly
``error`` with ``text`` in its message; a row whose error is None is an
easysigner_verify that returns False and raises nothing.  Every row
checks the same contract: the refusal spends no leaf of a stateful
signer, in memory or on disk; it leaves no store locked and adds no
entry; and the fixture's handles still seal and open an envelope and
still encrypt and decrypt a blob.

The sweeps over every byte of a blob or an envelope stay in
test_easyapi.py and test_mailenv.py, one exception type per region."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    easysigner_verify,
    frame_blob,
    hybrid_encap,
    parse_blob,
    recipient_key,
    template_resolve,
)
from agilecrypt.errors import (
    AlgorithmMismatch,
    BadMac,
    BadPassword,
    BadSignature,
    DuplicateAlias,
    InvalidCiphertext,
    KeystoreIoError,
    MalformedEncoding,
)
from agilecrypt.hbs import hbs_export_public, hbs_keygen
from agilecrypt.keystore import KeystoreEntry, KeystoreParameters, keystore_open
from agilecrypt.mailenv import Envelope, encode_header, envelope_open, envelope_seal
from agilecrypt.primitives import DeterministicRng, seal_record

_SIG, _ENC = TemplateKind.SIGNATURE, TemplateKind.ENCRYPTION
_RSA = frame_blob("RSA-2048", 1, bytes(256))
_FORGED_MESSAGE = b"pay 100 coins to the bearer"


def _ap(kind, level=SecurityLevel.LOW, version=1):
    return template_resolve(builtin_registry(version), kind, level)


@pytest.fixture(scope="module")
def facade(tmp_path_factory):
    root = tmp_path_factory.mktemp("facade")

    def ksp(name, password="refusal-test-password"):
        return KeystoreParameters(path=str(root / name), password=password, iterations=1000)

    rng = DeterministicRng(b"facade refusals")
    f = SimpleNamespace(ksp=ksp, rng=rng)
    f.signer = EasySigner.with_new_key(_ap(_SIG), ksp("signer.ks"), rng)
    f.recipient = EasyEncrypter.with_new_key(_ap(_ENC), ksp("recipient.ks"), rng)
    f.medium_recipient = EasyEncrypter.with_new_key(
        _ap(_ENC, SecurityLevel.MEDIUM), ksp("medium.ks"), rng
    )
    f.v2_recipient = EasyEncrypter.with_new_key(_ap(_ENC, version=2), ksp("v2.ks"), rng)
    f.imposter = EasySigner.with_new_key(_ap(_SIG), ksp("imposter.ks"), rng)
    # The spare store: no handle holds it.  Its keys come from named seeds,
    # so the same seed makes the same alias again.
    spare = ksp("spare.ks")
    with EasySigner.with_new_key(_ap(_SIG), spare, DeterministicRng(b"spare sig")) as s:
        f.spare_sig = s.alias
        s.store.put_entry(KeystoreEntry("rsa", "RSA-2048", bytes(32), bytes(256), None))
    with EasyEncrypter.with_new_key(_ap(_ENC), spare, DeterministicRng(b"spare kem")) as e:
        f.spare_kem = e.alias
    f.spare_aliases = sorted([f.spare_sig, f.spare_kem, "rsa"])

    f.envelope = envelope_seal(f.signer, f.recipient.public_blob, b"m", rng=rng)
    f.blob = f.recipient.encrypt(f.recipient.public_blob, b"m")
    f.signature = f.signer.sign(b"Hallo Welt!")
    _, _, forged_sig = parse_blob(
        f.imposter.sign(encode_header(f.envelope.header) + _FORGED_MESSAGE)
    )
    f.forged = _FORGED_MESSAGE + forged_sig
    # A MEDIUM signature key framed as the LOW signature identifier.
    medium = hbs_keygen(_ap(_SIG, SecurityLevel.MEDIUM).params, rng)
    f.other_row_key = frame_blob(f.signer.algorithm_id, 1, hbs_export_public(medium))

    # Closed handles.  Two signatures leave the signer's window a leaf.
    f.closed_signer = EasySigner.with_new_key(_ap(_SIG), ksp("closed.ks"), rng)
    f.closed_signer.sign(b"one")
    f.closed_signer.sign(b"two")
    f.closed_signer.close()
    f.closed_recipient = EasyEncrypter.open(ksp("recipient.ks"), f.recipient.alias, 1, rng)
    f.closed_recipient.close()
    yield f
    for handle in (f.signer, f.recipient, f.medium_recipient, f.v2_recipient, f.imposter):
        handle.close()


def _hand_built(f, inner):
    """The fixture envelope's header over a body sealed with the right keys
    around ``inner``: an envelope that envelope_seal would never make."""
    _, _, pk = recipient_key(f.recipient.public_blob)
    kem_ct, keys = hybrid_encap(pk, f.rng)
    header = f.envelope.header
    return Envelope(header, kem_ct, seal_record(keys, 0, encode_header(header), inner))


def _renamed(f, **fields):
    return dataclasses.replace(f.envelope, header=dataclasses.replace(f.envelope.header, **fields))


def _seal(f, blob, **ids):
    return envelope_seal(f.signer, blob, b"m", rng=f.rng, **ids)


def _open(f, sender_blob, env=None, recipient=None):
    return envelope_open(recipient or f.recipient, sender_blob, env or f.envelope)


_WIDE = 2**32  # a registry version outside the u32 that frames a blob
_ALREADY = "already exists"
_CLOSED = "store handle is closed"
_NOT_SIG = "is no signature algorithm"

REFUSED = [
    # Opening and making keys: each row works on the spare store.
    ("signer-new-key-wrong-password", lambda f: EasySigner.with_new_key(
        _ap(_SIG), f.ksp("spare.ks", password="other"), DeterministicRng(b"pw")),
     BadPassword, "wrong password or tampered file"),
    ("signer-open-kem-entry", lambda f: EasySigner.open(f.ksp("spare.ks"), f.spare_kem, 1),
     AlgorithmMismatch, _NOT_SIG),
    ("signer-open-rsa-entry", lambda f: EasySigner.open(f.ksp("spare.ks"), "rsa", 1),
     AlgorithmMismatch, _NOT_SIG),
    ("encrypter-open-spx-entry", lambda f: EasyEncrypter.open(f.ksp("spare.ks"), f.spare_sig, 1),
     AlgorithmMismatch, "is no encryption algorithm"),
    ("encrypter-open-rsa-entry", lambda f: EasyEncrypter.open(f.ksp("spare.ks"), "rsa", 1),
     AlgorithmMismatch, "is no encryption algorithm"),
    ("signer-same-key-twice", lambda f: EasySigner.with_new_key(
        _ap(_SIG), f.ksp("spare.ks"), DeterministicRng(b"spare sig")),
     DuplicateAlias, _ALREADY),
    ("encrypter-same-key-twice", lambda f: EasyEncrypter.with_new_key(
        _ap(_ENC), f.ksp("spare.ks"), DeterministicRng(b"spare kem")),
     DuplicateAlias, _ALREADY),
    ("signer-new-key-version-outside-u32", lambda f: EasySigner.with_new_key(
        dataclasses.replace(_ap(_SIG), registry_version=_WIDE), f.ksp("spare.ks"),
        DeterministicRng(b"wide")),
     MalformedEncoding, "does not fit in u32"),
    ("signer-open-version-outside-u32",
     lambda f: EasySigner.open(f.ksp("spare.ks"), f.spare_sig, _WIDE),
     MalformedEncoding, "does not fit in u32"),
    # Signing, encrypting and verifying.
    ("encrypt-to-signature-key", lambda f: f.recipient.encrypt(f.signer.public_blob, b"m"),
     AlgorithmMismatch, "is no encryption algorithm"),
    ("encrypt-to-rsa-key", lambda f: f.recipient.encrypt(_RSA, b"m"),
     AlgorithmMismatch, "is no encryption algorithm"),
    ("decrypt-blob-of-another-key", lambda f: f.medium_recipient.decrypt(f.blob),
     AlgorithmMismatch, "blob is for 'CME-TOY-10-8'"),
    ("decrypt-cut-kem-ciphertext", lambda f: f.recipient.decrypt(f.blob[:20]),
     InvalidCiphertext, "ciphertext length 3, expected 10"),
    ("decrypt-cut-sealed-body", lambda f: f.recipient.decrypt(f.blob[:-1]),
     BadMac, "sealed payload failed authentication"),
    ("verify-other-message",
     lambda f: easysigner_verify(f.signer.public_blob, b"Hallo Welt?", f.signature), None, None),
    ("verify-cut-signature",
     lambda f: easysigner_verify(f.signer.public_blob, b"Hallo Welt!", f.signature[:-1]),
     None, None),
    ("verify-empty-signature",
     lambda f: easysigner_verify(f.signer.public_blob, b"Hallo Welt!", b""), None, None),
    ("verify-kem-blobs",
     lambda f: easysigner_verify(f.recipient.public_blob, b"m", f.recipient.public_blob),
     None, None),
    ("verify-rsa-blobs", lambda f: easysigner_verify(_RSA, b"m", _RSA), None, None),
    ("verify-sender-key-of-another-row",
     lambda f: easysigner_verify(f.other_row_key, b"Hallo Welt!", f.signature), None, None),
    # Sealing: every refusal comes before the signer spends a leaf.
    ("seal-oversize-sender-id",
     lambda f: _seal(f, f.recipient.public_blob, sender_id="x" * 70_000),
     MalformedEncoding, "70000 bytes exceeds u16"),
    ("seal-oversize-recipient-id",
     lambda f: _seal(f, f.recipient.public_blob, recipient_id="x" * 70_000),
     MalformedEncoding, "70000 bytes exceeds u16"),
    ("seal-cut-recipient-key", lambda f: _seal(f, f.recipient.public_blob[:-1]),
     MalformedEncoding, "public key length 10129, expected 10130"),
    ("seal-to-signature-key", lambda f: _seal(f, f.signer.public_blob),
     AlgorithmMismatch, "is no encryption algorithm"),
    ("seal-across-registry-versions", lambda f: _seal(f, f.v2_recipient.public_blob),
     AlgorithmMismatch, "registry generations differ: sender v1, recipient v2"),
    # Opening.
    ("open-tampered-header",
     lambda f: _open(f, f.signer.public_blob, _renamed(f, sender_id="mallory")),
     BadMac, "record MAC mismatch"),
    ("open-stripped-signature",
     lambda f: _open(f, f.signer.public_blob, _hand_built(f, b"message without any signature")),
     BadSignature, "sender signature does not verify"),
    # The imposter's signature over the same header and message.
    ("open-replaced-signature", lambda f: _open(f, f.signer.public_blob, _hand_built(f, f.forged)),
     BadSignature, "sender signature does not verify"),
    ("open-with-another-level-key",
     lambda f: _open(f, f.signer.public_blob, recipient=f.medium_recipient),
     AlgorithmMismatch, "envelope is for 'CME-TOY-10-8'"),
    ("open-kem-key-as-sender", lambda f: _open(f, f.recipient.public_blob),
     AlgorithmMismatch, "key is 'CME-TOY-10-8'"),
    ("open-rsa-key-as-sender", lambda f: _open(f, _RSA),
     AlgorithmMismatch, "key is 'RSA-2048'"),
    ("open-rsa-envelope", lambda f: _open(f, _RSA, _renamed(f, sig_algorithm_id="RSA-2048")),
     AlgorithmMismatch, _NOT_SIG),
    ("open-sender-key-of-another-row", lambda f: _open(f, f.other_row_key),
     AlgorithmMismatch, "key bytes are not for 'SPX-TOY-16-16-8-S'"),
    # Closed handles refuse before any work.
    ("sign-after-close", lambda f: f.closed_signer.sign(b"m"), KeystoreIoError, _CLOSED),
    ("envelope-seal-after-close",
     lambda f: envelope_seal(f.closed_signer, f.recipient.public_blob, b"m", rng=f.rng),
     KeystoreIoError, _CLOSED),
    ("encrypt-after-close", lambda f: f.closed_recipient.encrypt(f.recipient.public_blob, b"m"),
     KeystoreIoError, _CLOSED),
    ("decrypt-after-close", lambda f: f.closed_recipient.decrypt(f.blob),
     KeystoreIoError, _CLOSED),
    ("envelope-open-after-close",
     lambda f: _open(f, f.signer.public_blob, recipient=f.closed_recipient),
     KeystoreIoError, _CLOSED),
]


def _leaves(f):
    """Each stateful signer's (next_leaf, reserved_until), in memory and on disk."""

    def on_disk(signer):
        with keystore_open(signer.store.params, read_only=True) as store:
            state = store.get_entry(signer.alias).state
        return state.next_leaf, state.reserved_until

    return [
        ((signer._kp.next_leaf, signer._window_end), on_disk(signer))
        for signer in (f.signer, f.imposter, f.closed_signer)
    ]


@pytest.mark.parametrize(
    "call, error, text", [pytest.param(*row[1:], id=row[0]) for row in REFUSED]
)
def test_a_refused_call_changes_nothing(facade, call, error, text):
    before = _leaves(facade)
    if error is None:
        assert call(facade) is False
    else:
        with pytest.raises(error) as caught:
            call(facade)
        assert caught.type is error, repr(caught.value)
        assert text in str(caught.value)
    assert _leaves(facade) == before
    with keystore_open(facade.ksp("spare.ks")) as spare:
        assert spare.aliases() == facade.spare_aliases
    signer, recipient = facade.signer, facade.recipient
    env = envelope_seal(signer, recipient.public_blob, b"still works", rng=facade.rng)
    assert envelope_open(recipient, signer.public_blob, env) == b"still works"
    blob = recipient.encrypt(recipient.public_blob, b"still works")
    assert recipient.decrypt(blob) == b"still works"


def test_every_refusal_type_has_a_row():
    assert {row[2] for row in REFUSED} == {
        AlgorithmMismatch,
        MalformedEncoding,
        BadMac,
        BadSignature,
        InvalidCiphertext,
        DuplicateAlias,
        BadPassword,
        KeystoreIoError,
        None,
    }


def test_the_replaced_signature_opens_under_the_imposters_key(facade):
    """open-replaced-signature fails at the signature alone: the same inner
    bytes open under the key that made them."""
    env = _hand_built(facade, facade.forged)
    assert envelope_open(facade.recipient, facade.imposter.public_blob, env) == _FORGED_MESSAGE
