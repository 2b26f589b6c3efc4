"""Byte-exact outputs for fixed seeds at LOW.

Each case hashes the bytes one encoder produces from a fixed
``DeterministicRng`` seed.  Refactoring the codecs, the key-material
split or the hybrid step must leave every digest as it is: a changed
digest means a documented byte layout changed.
"""

from __future__ import annotations

import hashlib

import pytest

from agilecrypt import cbkem, hbs
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    template_resolve,
)
from agilecrypt.keystore import (
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
)
from agilecrypt.mailenv import envelope_encode, envelope_open, envelope_seal
from agilecrypt.minitls import ClientHello, TemplateInfo, encode_certificate, issue_certificate
from agilecrypt.minitls.wire import SUITE_0x1306, HandshakeType, encode_handshake_message
from agilecrypt.primitives import DeterministicRng

_REGISTRY = builtin_registry(1)
_SIG_AP = template_resolve(_REGISTRY, TemplateKind.SIGNATURE, SecurityLevel.LOW)
_ENC_AP = template_resolve(_REGISTRY, TemplateKind.ENCRYPTION, SecurityLevel.LOW)


_PINNED = {
    "encrypter": "0cb7613725d746ac9717e41bb642bcc40e7f15c92603dfd208bbf2ef16df4cae",
    "envelope": "4c45e6c5a5f42a5c8518175d30f443d8ce9b7591c4567f83c5ed82c5432d6a5b",
    "keystore": "2a03dbb077a851ef026d3ae17e18a68e1c372c73038bf9110c68a0c2c4eb1a11",
    "certificate": "23dc00281f00f087fd59f33040fd521483b9fa0ed7f5c0c87b1870ff30896595",
    "client_hello": "082ddfc235f7b27208ab0a80ff95f21ba0d246c9063cb73c2598abd151b9a750",
}


def _rng(label: str) -> DeterministicRng:
    return DeterministicRng(b"byte-pinning/" + label.encode("ascii"))


def _ksp(tmp_path, name: str) -> KeystoreParameters:
    return KeystoreParameters(path=str(tmp_path / name), password="pin", iterations=1)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def recipient(tmp_path):
    ksp = _ksp(tmp_path, "recipient.agks")
    with EasyEncrypter.with_new_key(_ENC_AP, ksp, rng=_rng("recipient")) as enc:
        yield enc


def test_encrypter_blob_is_pinned(recipient):
    blob = recipient.encrypt(recipient.public_blob, b"pinned hybrid message")
    assert recipient.decrypt(blob) == b"pinned hybrid message"
    assert _digest(blob) == _PINNED["encrypter"]


def test_envelope_is_pinned(tmp_path, recipient):
    ksp = _ksp(tmp_path, "sender.agks")
    with EasySigner.with_new_key(_SIG_AP, ksp, rng=_rng("sender")) as signer:
        env = envelope_seal(
            signer, recipient.public_blob, b"pinned envelope", rng=_rng("envelope")
        )
        assert envelope_open(recipient, signer.public_blob, env) == b"pinned envelope"
    assert _digest(envelope_encode(env)) == _PINNED["envelope"]


def test_keystore_image_is_pinned(tmp_path):
    ksp = _ksp(tmp_path, "pinned.agks")
    with keystore_create(ksp, _rng("keystore")) as store:
        store.put_entry(
            KeystoreEntry(
                alias="enc-pinned",
                algorithm_id=_ENC_AP.algorithm_id,
                secret_material=bytes(range(32)),
                public_material=b"\x5a" * 300,
                state=None,
            )
        )
        store.put_entry(
            KeystoreEntry(
                alias="sig-pinned-é",
                algorithm_id=_SIG_AP.algorithm_id,
                secret_material=bytes(32),
                public_material=b"\xa5" * 21,
                state=EntryState(next_leaf=3, reserved_until=7),
            )
        )
    with open(ksp.path, "rb") as fh:
        assert _digest(fh.read()) == _PINNED["keystore"]


def test_certificate_is_pinned():
    rng = _rng("certificate")
    issuer = hbs.hbs_keygen(_SIG_AP.params, rng)
    kem = cbkem.kem_keygen(_ENC_AP.params, rng)
    cert = issue_certificate(
        issuer, "pinned.example", _ENC_AP.algorithm_id, cbkem.kem_serialize_pk(kem.pk), rng
    )
    assert _digest(encode_certificate(cert)) == _PINNED["certificate"]


def test_client_hello_is_pinned():
    hello = ClientHello(
        random=_rng("hello").random_bytes(32),
        cipher_suites=(SUITE_0x1306,),
        template_info=TemplateInfo(
            registry_version=_REGISTRY.version,
            level=int(SecurityLevel.LOW),
            sig_id=_SIG_AP.algorithm_id,
            enc_id=_ENC_AP.algorithm_id,
        ),
    )
    wire = encode_handshake_message(HandshakeType.CLIENT_HELLO, hello.encode())
    assert _digest(wire) == _PINNED["client_hello"]
