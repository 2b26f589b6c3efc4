"""Tests for the template/facade layer.

The facade-equivalence checks here are the unit-scale version of the
dual-route oracle: everything the facade produces must verify through
direct calls into the underlying scheme modules, and vice versa.
"""

from __future__ import annotations

import random

import pytest

from agilecrypt import cbkem, hbs
from agilecrypt.easyapi import (
    AlgorithmParameters,
    CompatibilityResult,
    EasyEncrypter,
    EasySigner,
    Provider,
    ProviderRegistry,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    compatibility_check,
    default_provider_registry,
    easysigner_verify,
    frame_blob,
    parse_blob,
    parse_registry_text,
    template_resolve,
)
from agilecrypt.errors import (
    AgilecryptError,
    BadPassword,
    KeyExhausted,
    MalformedEncoding,
    ParameterError,
)
from agilecrypt.keystore import CRASH_POINTS, KeystoreParameters, keystore_open
from agilecrypt.primitives import DeterministicRng


def _ksp(tmp_path, name="facade.agks", password="pw"):
    return KeystoreParameters(path=str(tmp_path / name), password=password, iterations=1000)


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


def test_registry_parse_rejects_incomplete_and_garbage():
    v1_text = builtin_registry(1).canonical_text()
    lines = v1_text.strip().splitlines()
    with pytest.raises(MalformedEncoding):
        parse_registry_text("\n".join(lines[:-1]) + "\n")  # missing pair
    with pytest.raises(MalformedEncoding):
        parse_registry_text(v1_text + "SIGNATURE LOW SPX-TOY-16-16-8-S\n")  # dup
    with pytest.raises(MalformedEncoding):
        parse_registry_text(v1_text.replace("issued 2026-01-05\n", ""))
    with pytest.raises(MalformedEncoding):
        parse_registry_text(v1_text.replace("CME-TOY-10-8", "SPX-TOY-16-16-8-S"))


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
# Provider selection
# ---------------------------------------------------------------------------

def test_default_providers_resolve_both_families():
    reg = default_provider_registry()
    assert reg.resolve("SPX-TOY-16-16-8-S") is not None
    assert reg.resolve("CME-TOY-10-8") is not None
    with pytest.raises(ParameterError):
        reg.resolve("RSA-2048")


def test_provider_priority_is_deterministic():
    reg = default_provider_registry()
    special = object()
    reg.register(
        Provider(name="fast32", priority=1, prefixes=("SPX-TOY-32",), implementation=special)
    )
    assert reg.resolve("SPX-TOY-32-16-12-SL") is special
    assert reg.resolve("SPX-TOY-16-16-8-S") is not special


def test_ambiguous_registration_rejected():
    reg = default_provider_registry()
    reg.register(Provider(name="a", priority=5, prefixes=("XYZ-1",), implementation=object()))
    with pytest.raises(ParameterError):
        reg.register(
            Provider(name="b", priority=5, prefixes=("XYZ-",), implementation=object())
        )
    # Same overlap at a different priority is fine.
    reg.register(Provider(name="c", priority=6, prefixes=("XYZ-",), implementation=object()))


# ---------------------------------------------------------------------------
# Blob framing
# ---------------------------------------------------------------------------

def test_frame_roundtrip_and_truncation():
    blob = frame_blob("SPX-TOY-16-16-8-S", 1, b"payload")
    ident, version, payload = parse_blob(blob)
    assert (ident, version, payload) == ("SPX-TOY-16-16-8-S", 1, b"payload")
    for cut in (0, 1, 5, len(blob) - len(b"payload") - 1):
        with pytest.raises(MalformedEncoding):
            parse_blob(blob[:cut])


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
        assert not easysigner_verify(pub, b"Hallo Welt?", sig)
        assert not easysigner_verify(pub, b"Hallo Welt!", sig[:-1])
        assert not easysigner_verify(pub, b"Hallo Welt!", b"")
        ident, version, _ = parse_blob(sig)
        assert ident == "SPX-TOY-16-16-8-S" and version == 1


def test_signer_high_hallo_welt(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    rng = DeterministicRng(b"signer high")
    with EasySigner.with_new_key(ap, _ksp(tmp_path), rng=rng) as signer:
        sig = signer.sign(b"Hallo Welt!")
        assert easysigner_verify(signer.public_blob, b"Hallo Welt!", sig)


def test_signer_persists_and_reopens(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"signer reopen")
    with EasySigner.with_new_key(ap, ksp, rng=rng) as signer:
        alias, pub = signer.alias, signer.public_blob
        first = signer.sign(b"before")
    with EasySigner.open(ksp, alias, registry_version=1, rng=rng) as signer:
        assert signer.public_blob == pub
        second = signer.sign(b"after")
    assert easysigner_verify(pub, b"before", first)
    assert easysigner_verify(pub, b"after", second)
    # Stateful leaves advanced across the reopen, never reused.
    _, _, raw1 = parse_blob(first)
    _, _, raw2 = parse_blob(second)
    p = hbs.HbsParams.from_algorithm_id("SPX-TOY-16-16-8-S")
    assert hbs.hbs_parse_sig(p, raw1).leaf_index != hbs.hbs_parse_sig(p, raw2).leaf_index


def test_signer_wrong_password_propagates(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"signer pw")
    EasySigner.with_new_key(ap, ksp, rng=rng).close()
    with pytest.raises(BadPassword):
        EasySigner.with_new_key(
            ap, KeystoreParameters(path=ksp.path, password="other", iterations=1000), rng=rng
        )


def test_signer_low_exhausts_at_257(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    rng = DeterministicRng(b"signer exhaustion")
    with EasySigner.with_new_key(ap, _ksp(tmp_path), rng=rng) as signer:
        for _ in range(256):
            signer.sign(b"x")
        with pytest.raises(KeyExhausted):
            signer.sign(b"one too many")


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
        assert hbs.hbs_verify(root, params, b"dual route", hbs.hbs_parse_sig(params, raw))
        # ...and the facade verifies a directly built signature.
        kp = hbs.HbsKeyPair.from_seed(params, signer.key_seed, next_leaf=100)
        direct = hbs.hbs_sign(kp, b"other way", rng)
        framed = frame_blob(ident, 1, hbs.hbs_serialize_sig(direct))
        assert easysigner_verify(signer.public_blob, b"other way", framed)


# ---------------------------------------------------------------------------
# EasySigner reservation windows
# ---------------------------------------------------------------------------

class SimulatedCrash(Exception):
    pass


def _stored_state(ksp, alias):
    with keystore_open(ksp, read_only=True) as store:
        return store.get_entry(alias).state


def _leaf_of(sig_blob: bytes) -> int:
    ident, _, raw = parse_blob(sig_blob)
    return hbs.hbs_parse_sig(hbs.HbsParams.from_algorithm_id(ident), raw).leaf_index


def test_signer_crash_during_refill_never_repeats_a_leaf(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, SecurityLevel.LOW)
    cap = min(64, ap.params.leaf_count // 16)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"signer refill crash")
    leaves: list[int] = []
    with EasySigner.with_new_key(ap, ksp, rng=rng) as signer:
        alias, pub = signer.alias, signer.public_blob
        leaves += [_leaf_of(signer.sign(b"first %d" % i)) for i in range(3)]
    for point in CRASH_POINTS:
        signer = EasySigner.open(ksp, alias, registry_version=1, rng=rng)
        # Windows of 1, 2 and 4 leaves are used up; the next signature
        # must refill, and the store dies during that write.
        leaves += [_leaf_of(signer.sign(b"%s %d" % (point.encode(), i))) for i in range(7)]

        def hook(name, stop=point):
            if name == stop:
                raise SimulatedCrash(name)

        signer.store.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            signer.sign(b"lost")
        signer.store.abandon()
        made = max(leaves) + 1
        state = _stored_state(ksp, alias)
        assert state.reserved_until >= made
        assert state.reserved_until - made <= cap
        assert made - state.next_leaf <= cap
    with EasySigner.open(ksp, alias, registry_version=1, rng=rng) as signer:
        for i in range(5):
            sig = signer.sign(b"after %d" % i)
            assert easysigner_verify(pub, b"after %d" % i, sig)
            leaves.append(_leaf_of(sig))
    assert len(leaves) == len(set(leaves)) == 3 + 7 * len(CRASH_POINTS) + 5


@pytest.mark.parametrize(
    "level", [SecurityLevel.LOW, SecurityLevel.MEDIUM], ids=lambda level: level.name.lower()
)
def test_signer_writes_once_per_window(tmp_path, level):
    ap = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, level)
    cap = min(64, ap.params.leaf_count // 16)
    doublings = cap.bit_length() - 1
    signatures = 200
    writes = 0

    def count_writes(name):
        nonlocal writes
        writes += name == "renamed"

    signer = EasySigner.with_new_key(ap, _ksp(tmp_path), rng=DeterministicRng(b"writes"))
    signer.store.crash_hook = count_writes
    leaves = [_leaf_of(signer.sign(b"%d" % i)) for i in range(signatures)]
    signer.close()
    assert leaves == list(range(signatures))
    assert writes <= doublings + -(-signatures // cap) + 1


def test_one_shot_signers_waste_no_leaves(tmp_path):
    params = hbs.HbsParams(n_h=16, w=16, h=6, mode=hbs.HbsMode.STATEFUL)
    ap = AlgorithmParameters(algorithm_id=params.algorithm_id, params=params, registry_version=1)
    ksp = _ksp(tmp_path)
    rng = DeterministicRng(b"one shot")
    with EasySigner.with_new_key(ap, ksp, rng=rng) as signer:
        alias = signer.alias
    for i in range(20):
        with EasySigner.open(ksp, alias, registry_version=1, rng=rng) as signer:
            assert _leaf_of(signer.sign(b"one %d" % i)) == i
    state = _stored_state(ksp, alias)
    assert (state.next_leaf, state.reserved_until) == (20, 20)


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
            pos = trial_rng.randrange(len(blob) * 8)
            blob[pos // 8] ^= 1 << (pos % 8)
            try:
                out = enc.decrypt(bytes(blob))
            except AgilecryptError:
                continue
            assert out == msg  # bit flip in padding-irrelevant position is impossible;
            # reaching here would mean silent corruption, so fail loudly
            raise AssertionError("tampered blob decrypted without error")


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


def test_encrypter_agrees_with_direct_composition(tmp_path):
    ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    rng = DeterministicRng(b"encrypter dual")
    with EasyEncrypter.with_new_key(ap, _ksp(tmp_path), rng=rng) as enc:
        blob = enc.encrypt(enc.public_blob, b"dual route")
        # Direct route: parse the frame, decap with cbkem, open with primitives.
        ident, version, payload = parse_blob(blob)
        params = cbkem.KemParams.from_algorithm_id(ident)
        ct = cbkem.kem_parse_ct(params, payload[: params.ct_bytes])
        kp = cbkem.KemKeyPair.from_seed(params, enc.key_seed)
        secret = cbkem.kem_decap(kp.sk, params, ct)
        from agilecrypt.primitives import HashId, SymmetricKeys, open_record, prf

        material = prf(HashId.H512, secret, "hybrid record keys", b"", 112)
        keys = SymmetricKeys(
            enc_key=material[:32], mac_key=material[32:96], iv_seed=material[96:112]
        )
        header = blob[: len(blob) - len(payload)] + payload[: params.ct_bytes]
        assert open_record(keys, 0, header, payload[params.ct_bytes :]) == b"dual route"


# ---------------------------------------------------------------------------
# Drift classification
# ---------------------------------------------------------------------------

def test_compatibility_check_rules():
    v1 = builtin_registry(1)
    local = template_resolve(v1, TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    same = compatibility_check(local, "SPX-TOY-32-16-12-SL", 1)
    assert same is CompatibilityResult.COMPATIBLE
    # Same id, different version: ids rule.
    assert compatibility_check(local, "SPX-TOY-32-16-12-SL", 2) is CompatibilityResult.COMPATIBLE
    assert (
        compatibility_check(local, "SPX-TOY-32-16-14-SL", 2)
        is CompatibilityResult.VERSION_MISMATCH
    )
    assert (
        compatibility_check(local, "SPX-TOY-32-16-14-SL", 1)
        is CompatibilityResult.TEMPLATE_MISMATCH
    )
