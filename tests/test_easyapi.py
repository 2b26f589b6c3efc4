"""Tests for the template/facade layer.

The facade-equivalence checks here are the unit-scale version of the
dual-route oracle: everything the facade produces must verify through
direct calls into the underlying scheme modules, and vice versa.  Each
single refused call of the facade is a row of the REFUSED table in
test_facade_refusals.py, and each refusal of a decoder is a row of
DECODER_REFUSALS in test_decoder_refusals.py; the sweeps over every cut
and bit flip of an encrypted blob stay here.  The stateful signer's
leaf safety (windows, crashes, exhaustion, reopening) is the state
machine in test_leaf_safety.py.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from agilecrypt import cbkem, easyapi, hbs
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    easysigner_verify,
    frame_blob,
    parse_blob,
    parse_registry_text,
    template_resolve,
)
from agilecrypt.errors import (
    AlgorithmMismatch,
    BadMac,
    InvalidCiphertext,
    MalformedEncoding,
    ParameterError,
    StoreLocked,
)
from agilecrypt.keystore import KeystoreParameters, keystore_open
from agilecrypt.primitives import DeterministicRng


def _ksp(tmp_path):
    return KeystoreParameters(path=str(tmp_path / "facade.agks"), password="pw", iterations=1000)


# ---------------------------------------------------------------------------
# Levels, registries, templates
# ---------------------------------------------------------------------------

def test_security_level_total_order():
    assert SecurityLevel.LOW < SecurityLevel.MEDIUM < SecurityLevel.HIGH
    assert SecurityLevel.from_name("high") is SecurityLevel.HIGH
    with pytest.raises(ParameterError):
        SecurityLevel.from_name("extreme")


def test_builtin_v1_resolution():
    reg = builtin_registry(1)
    ap = template_resolve(reg, TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    assert ap.algorithm_id == "SPX-TOY-32-16-12-SL"
    assert ap.registry_version == 1
    assert isinstance(ap.params, hbs.HbsParams)
    ap2 = template_resolve(reg, TemplateKind.ENCRYPTION, SecurityLevel.HIGH)
    assert ap2.algorithm_id == "CME-TOY-16-10"
    assert isinstance(ap2.params, cbkem.KemParams)
    assert (
        template_resolve(reg, TemplateKind.ENCRYPTION, SecurityLevel.LOW).algorithm_id
        == "CME-TOY-10-8"
    )


def test_v2_diverges_only_at_signature_high():
    v1, v2 = builtin_registry(1), builtin_registry(2)
    assert v2.version == 2
    assert v1.digest() != v2.digest()
    for kind in TemplateKind:
        for level in SecurityLevel:
            a = template_resolve(v1, kind, level).algorithm_id
            b = template_resolve(v2, kind, level).algorithm_id
            if (kind, level) == (TemplateKind.SIGNATURE, SecurityLevel.HIGH):
                assert (a, b) == ("SPX-TOY-32-16-12-SL", "SPX-TOY-32-16-14-SL")
            else:
                assert a == b


def test_registry_canonical_roundtrip_and_digest():
    v1 = builtin_registry(1)
    text = v1.canonical_text()
    reparsed = parse_registry_text(text)
    assert reparsed.digest() == v1.digest()
    assert reparsed.canonical_text() == text
    # Comments and blank lines are tolerated on input, never emitted.
    noisy = "# comment\n\n" + text
    assert parse_registry_text(noisy).digest() == v1.digest()


def test_load_registry_raises_malformed_encoding_for_a_file_that_is_not_ascii(tmp_path):
    text = builtin_registry(1).canonical_text().encode("ascii")
    path = tmp_path / "registry.txt"
    path.write_bytes(text)
    assert easyapi.load_registry(str(path)).digest() == builtin_registry(1).digest()
    for data in (b"\xff", b"# caf\xc3\xa9\n" + text):
        path.write_bytes(data)
        with pytest.raises(MalformedEncoding):
            easyapi.load_registry(str(path))


def test_v1_monotone_sizes():
    reg = builtin_registry(1)
    sig_sizes = [
        template_resolve(reg, TemplateKind.SIGNATURE, lvl).params.signature_size
        for lvl in SecurityLevel
    ]
    enc_sizes = [
        template_resolve(reg, TemplateKind.ENCRYPTION, lvl).params.pk_bytes
        for lvl in SecurityLevel
    ]
    assert sig_sizes == sorted(sig_sizes)
    assert enc_sizes == sorted(enc_sizes)


# ---------------------------------------------------------------------------
# EasySigner
# ---------------------------------------------------------------------------

def test_signer_roundtrip_low(tmp_path):
    reg = builtin_registry(1)
    ap = template_resolve(reg, TemplateKind.SIGNATURE, SecurityLevel.LOW)
    rng = DeterministicRng(b"signer low")
    with EasySigner.with_new_key(ap, _ksp(tmp_path), rng=rng) as signer:
        pub = signer.public_blob
        sig = signer.sign(b"Hallo Welt!")
        assert easysigner_verify(pub, b"Hallo Welt!", sig)
        ident, version, _ = parse_blob(sig)
        assert ident == "SPX-TOY-16-16-8-S" and version == 1


def test_signer_high_hallo_welt(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    rng = DeterministicRng(b"signer high")
    with EasySigner.with_new_key(ap, _ksp(tmp_path), rng=rng) as signer:
        sig = signer.sign(b"Hallo Welt!")
        assert easysigner_verify(signer.public_blob, b"Hallo Welt!", sig)


def test_signer_agrees_with_direct_hbs(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    rng = DeterministicRng(b"facade vs direct")
    with EasySigner.with_new_key(ap, _ksp(tmp_path), rng=rng) as signer:
        blob = signer.sign(b"dual route")
        ident, _, raw = parse_blob(blob)
        params = hbs.HbsParams.from_algorithm_id(ident)
        _, _, raw_pub = parse_blob(signer.public_blob)
        pub_params, root = hbs.hbs_parse_public(raw_pub)
        assert pub_params == params
        # Direct route verifies the facade's signature...
        assert hbs.hbs_verify(root, params, b"dual route", raw)
        # ...and the facade verifies a directly built signature.
        kp = hbs.HbsKeyPair.from_seed(params, signer.store.get_entry(signer.alias).secret_material)
        kp.next_leaf = 100
        direct = hbs.hbs_sign(kp, b"other way", rng)
        framed = frame_blob(ident, 1, direct)
        assert easysigner_verify(signer.public_blob, b"other way", framed)


def test_family_params_names_the_canonical_spelling():
    """A KEM id in another spelling is refused as no encryption algorithm,
    and the message keeps the reason: the spelling it should have."""
    with pytest.raises(AlgorithmMismatch) as caught:
        easyapi.family_params(TemplateKind.ENCRYPTION, "CME-TOY-010-8")
    message = str(caught.value)
    assert message.startswith("'CME-TOY-010-8' is no encryption algorithm: ")
    assert "'CME-TOY-10-8'" in message


def test_racing_new_keys_both_land_in_the_store(tmp_path, monkeypatch):
    # The second call has decided to make the store when the first one
    # makes it and finishes: it must add its key instead of failing.
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    ksp = _ksp(tmp_path)
    create = easyapi.keystore_create
    aliases = []

    def first_finishes_first(*args, **kwargs):
        monkeypatch.setattr(easyapi, "keystore_create", create)
        with EasySigner.with_new_key(ap, ksp, rng=DeterministicRng(b"first")) as first:
            aliases.append(first.alias)
        return create(*args, **kwargs)

    monkeypatch.setattr(easyapi, "keystore_create", first_finishes_first)
    with EasySigner.with_new_key(ap, ksp, rng=DeterministicRng(b"second")) as second:
        aliases.append(second.alias)
    with keystore_open(ksp, read_only=True) as store:
        assert sorted(store.aliases()) == sorted(aliases)
    assert len(set(aliases)) == 2


# ---------------------------------------------------------------------------
# EasySigner reservation windows
# ---------------------------------------------------------------------------

def test_signer_whose_seed_misses_the_root_spends_one_reserved_leaf(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"wrong seed")
    with EasySigner.with_new_key(ap, ksp, rng=rng) as signer:
        alias = signer.alias
        entry = signer.store.get_entry(alias)
        entry = dataclasses.replace(entry, secret_material=bytes(32))
        signer.store.update_entry(entry)
    writes = []
    signer = EasySigner.open(ksp, alias, registry_version=1, rng=rng)
    signer.store.crash_hook = writes.append
    with pytest.raises(ParameterError, match="does not rebuild the stored root"):
        signer.sign(b"never made")
    assert writes.count("renamed") == 1  # the reservation
    signer.close()
    assert writes.count("renamed") == 1
    with keystore_open(ksp, read_only=True) as store:
        state = store.get_entry(alias).state
    assert (state.next_leaf, state.reserved_until) == (0, 1)


# ---------------------------------------------------------------------------
# EasyEncrypter
# ---------------------------------------------------------------------------

def test_encrypter_roundtrips_low(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    rng = DeterministicRng(b"encrypter low")
    trial_rng = random.Random(401)
    with EasyEncrypter.with_new_key(ap, _ksp(tmp_path), rng=rng) as enc:
        assert enc.decrypt(enc.encrypt(enc.public_blob, b"")) == b""
        for _ in range(100):
            msg = trial_rng.randbytes(trial_rng.randrange(0, 256))
            assert enc.decrypt(enc.encrypt(enc.public_blob, msg)) == msg


def test_encrypter_tamper_never_leaks(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    rng = DeterministicRng(b"encrypter tamper")
    trial_rng = random.Random(402)
    with EasyEncrypter.with_new_key(ap, _ksp(tmp_path), rng=rng) as enc:
        for _ in range(100):
            msg = trial_rng.randbytes(trial_rng.randrange(1, 128))
            blob = bytearray(enc.encrypt(enc.public_blob, msg))
            byte, bit = divmod(trial_rng.randrange(len(blob) * 8), 8)
            blob[byte] ^= 1 << bit
            # The identifier's length byte reads another identifier or leaves
            # ASCII, an identifier byte leaves ASCII in its top bit and names
            # another algorithm otherwise, and the seal authenticates the rest.
            region = (BadMac,)
            if byte == 0:
                region = (MalformedEncoding, AlgorithmMismatch)
            elif byte <= len(ap.algorithm_id):
                region = (MalformedEncoding,) if bit == 7 else (AlgorithmMismatch,)
            with pytest.raises(region) as caught:
                enc.decrypt(bytes(blob))
            assert caught.type in region, (byte, bit)


def test_encrypter_refuses_every_truncated_blob(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    with EasyEncrypter.with_new_key(ap, _ksp(tmp_path), rng=DeterministicRng(b"truncate")) as enc:
        blob = enc.encrypt(enc.public_blob, b"cut short at every length")
        frame_len = len(blob) - len(parse_blob(blob)[2])
        ct_end = frame_len + ap.params.ct_bytes
        # One type per region: the frame, the KEM ciphertext, the sealed body.
        for size in range(len(blob)):
            region = (
                MalformedEncoding if size < frame_len
                else InvalidCiphertext if size < ct_end
                else BadMac
            )
            with pytest.raises(region) as caught:
                enc.decrypt(blob[:size])
            assert caught.type is region, size


def test_encrypter_persists_and_reopens(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"encrypter reopen")
    with EasyEncrypter.with_new_key(ap, ksp, rng=rng) as enc:
        alias, pub = enc.alias, enc.public_blob
        blob = enc.encrypt(pub, b"across processes")
    with EasyEncrypter.open(ksp, alias, registry_version=1, rng=rng) as enc:
        assert enc.public_blob == pub
        assert enc.decrypt(blob) == b"across processes"


def test_encrypter_opens_while_a_signer_holds_the_store(tmp_path):
    """EasyEncrypter.open never writes: it reads the store read-only, so it
    decrypts while a signer holds the writer lock and leaves the lock held."""
    registry = builtin_registry(1)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"encrypter beside a signer")
    enc_ap = template_resolve(registry, TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    sig_ap = template_resolve(registry, TemplateKind.SIGNATURE, SecurityLevel.LOW)
    with EasyEncrypter.with_new_key(enc_ap, ksp, rng=rng) as enc:
        alias, blob = enc.alias, enc.encrypt(enc.public_blob, b"read beside a signer")
    with EasySigner.with_new_key(sig_ap, ksp, rng=rng):
        with EasyEncrypter.open(ksp, alias, registry_version=1, rng=rng) as enc:
            assert enc.decrypt(blob) == b"read beside a signer"
        with pytest.raises(StoreLocked):
            keystore_open(ksp)


def test_encrypter_agrees_with_direct_composition(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    rng = DeterministicRng(b"encrypter dual")
    with EasyEncrypter.with_new_key(ap, _ksp(tmp_path), rng=rng) as enc:
        blob = enc.encrypt(enc.public_blob, b"dual route")
        # Direct route: parse the frame, decap with cbkem, open with primitives.
        ident, version, payload = parse_blob(blob)
        params = cbkem.KemParams.from_algorithm_id(ident)
        kp = cbkem.KemKeyPair.from_seed(params, enc.store.get_entry(enc.alias).secret_material)
        secret = cbkem.kem_decap(kp.sk, payload[: params.ct_bytes])
        from agilecrypt.primitives import HashId, SymmetricKeys, open_record, prf

        material = prf(HashId.H512, secret, "hybrid record keys", b"", 112)
        keys = SymmetricKeys(
            enc_key=material[:32], mac_key=material[32:96], iv_seed=material[96:112]
        )
        header = blob[: len(blob) - len(payload)] + payload[: params.ct_bytes]
        assert open_record(keys, 0, header, payload[params.ct_bytes :]) == b"dual route"


# ---------------------------------------------------------------------------
# Reading a recipient's key
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "blob, offset, text",
    [
        # The DECODER_REFUSALS row recipient-key-short.
        pytest.param(
            frame_blob("CME-TOY-10-8", 1, bytes(3)), 20, "public key length 3, expected 10130",
            id="short-key",
        ),
        # A 17-byte key with 4 padding bits; the key starts at byte 16.
        pytest.param(
            frame_blob("CME-TOY-4-3", 1, bytes(16) + b"\x01"), 32, "nonzero padding bits",
            id="padding-bit",
        ),
    ],
)
def test_recipient_key_refuses_a_damaged_blob_on_every_call(blob, offset, text):
    """recipient_key remembers what it read, never what it refused."""
    for _ in range(2):
        with pytest.raises(MalformedEncoding) as caught:
            easyapi.recipient_key(blob)
        assert caught.type is MalformedEncoding
        assert (caught.value.offset, caught.value.message) == (offset, text)


def test_recipient_key_reads_a_bytes_like_blob_as_its_bytes():
    blob = frame_blob("CME-TOY-10-8", 1, random.Random(403).randbytes(10130))
    want = easyapi.recipient_key(blob)
    assert easyapi.recipient_key(bytearray(blob)) == want
    assert easyapi.recipient_key(memoryview(blob)) == want
    # A buffer changed after a call reads as its new bytes.
    held = bytearray(blob)
    easyapi.recipient_key(held)
    held[len(held) // 2] ^= 0x10
    changed = easyapi.recipient_key(held)
    assert changed == easyapi.recipient_key(bytes(held))
    assert changed[2].encoding == parse_blob(bytes(held))[2] != want[2].encoding


# ---------------------------------------------------------------------------
# Reading a sender's key
# ---------------------------------------------------------------------------

def test_sender_key_is_remembered_per_blob_and_identifier():
    """sender_key remembers what it read for each (blob, identifier)
    pair, never what it refused: a LOW key read for its own identifier
    is still refused for MEDIUM's, and a damaged blob on every call."""
    low, medium = (
        template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, level).algorithm_id
        for level in (SecurityLevel.LOW, SecurityLevel.MEDIUM)
    )
    params = hbs.HbsParams.from_algorithm_id(low)
    root = random.Random(404).randbytes(params.n_h)
    blob = frame_blob(low, 1, hbs.hbs_export_public(hbs.HbsKeyPair(bytes(32), root, params)))
    assert easyapi.sender_key(blob, low) == (params, root)
    assert easyapi.sender_key(memoryview(blob), low) == (params, root)
    for _ in range(2):
        with pytest.raises(AlgorithmMismatch):
            easyapi.sender_key(blob, medium)
        with pytest.raises(MalformedEncoding):
            easyapi.sender_key(blob + b"\0", low)
