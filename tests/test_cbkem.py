"""Tests for the code-based KEM.

The m=3 case is small enough to verify by brute force: every block's
column map is enumerated position by position and checked to be a
bijection onto the nonzero 3-bit syndromes.  That oracle anchors the
larger parameter sets, which are only checked via roundtrips and the
closed-form size formulas.  Each refusal of a decoder is a row of
DECODER_REFUSALS in test_decoder_refusals.py.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from agilecrypt.errors import InvalidCiphertext, MalformedEncoding, ParameterError
from agilecrypt.cbkem import (
    NAMED_PARAM_SETS,
    KemKeyPair,
    KemParams,
    _decode_ct,
    _encode_ct,
    _pack_columns,
    kem_decap,
    kem_encap,
    kem_keygen,
    kem_parse_pk,
)
from agilecrypt.primitives import DeterministicRng


def test_param_arithmetic():
    p = KemParams(m=3, b=1)
    assert (p.n, p.k) == (7, 4)
    assert p.pk_bits == 12 and p.pk_bytes == 2
    assert p.ct_bits == 3 and p.ct_bytes == 1
    emu = KemParams(m=16, b=10)
    assert emu.pk_bits == 10 * 65519 * 16
    assert emu.pk_bytes == 1_310_380
    assert emu.ct_bytes == 20


def test_named_sets():
    assert NAMED_PARAM_SETS["toy-64"] == KemParams(m=10, b=8)
    assert NAMED_PARAM_SETS["toy-128"] == KemParams(m=13, b=16)
    assert NAMED_PARAM_SETS["mce-emu"] == KemParams(m=16, b=10)
    assert NAMED_PARAM_SETS["toy-64"].pk_bytes == 10_130
    assert NAMED_PARAM_SETS["toy-128"].pk_bytes == 212_628


def test_invalid_params_rejected():
    with pytest.raises(ParameterError):
        KemParams(m=1, b=1)
    with pytest.raises(ParameterError):
        KemParams(m=21, b=1)
    with pytest.raises(ParameterError):
        KemParams(m=8, b=0)
    with pytest.raises(ParameterError):
        KemParams(m=8, b=65)


def test_algorithm_id_roundtrip():
    p = KemParams(m=13, b=16)
    assert p.algorithm_id == "CME-TOY-13-16"
    assert KemParams.from_algorithm_id("CME-TOY-13-16") == p
    # Only the spelling algorithm_id gives back names a parameter set.
    for identifier in (
        "SPX-TOY-16-16-8-S",
        "CME-TOY-010-8",
        "CME-TOY-1_0-8",
        "CME-TOY-+10-8",
        "CME-TOY- 10-8",
    ):
        with pytest.raises(ParameterError):
            KemParams.from_algorithm_id(identifier)


def test_keygen_deterministic():
    p = KemParams(m=6, b=2)
    kp1 = kem_keygen(p, DeterministicRng(b"kem determinism"))
    kp2 = kem_keygen(p, DeterministicRng(b"kem determinism"))
    assert kp1.pk.encoding == kp2.pk.encoding
    kp3 = kem_keygen(p, DeterministicRng(b"different"))
    assert kp1.pk.encoding != kp3.pk.encoding


def test_identity_column_convention():
    # Error position j inside the identity part must give the unit syndrome
    # with bit m-1-j set: m=3, j=1 -> 0b010.
    p = KemParams(m=3, b=1)
    kp = kem_keygen(p, DeterministicRng(b"identity"))
    assert kp.pk.syndrome_for_position(0, 1) == 0b010
    assert kp.pk.syndrome_for_position(0, 0) == 0b100
    assert kp.pk.syndrome_for_position(0, 2) == 0b001


def test_m3_brute_force_bijection():
    for trial in range(20):
        p = KemParams(m=3, b=2)
        kp = kem_keygen(p, DeterministicRng(b"bijection %d" % trial))
        for block in range(p.b):
            syndromes = [kp.pk.syndrome_for_position(block, j) for j in range(p.n)]
            # All 7 nonzero 3-bit values, each exactly once.
            assert sorted(syndromes) == list(range(1, 8))
            # The secret map inverts every one of them.
            for j, s in enumerate(syndromes):
                assert kp.sk.position_for_syndrome(block, s) == j


def test_column_multiset_invariant_m8():
    p = KemParams(m=8, b=1)
    for trial in range(20):
        kp = kem_keygen(p, DeterministicRng(b"multiset %d" % trial))
        vals = [kp.pk.syndrome_for_position(0, j) for j in range(p.n)]
        assert sorted(vals) == list(range(1, 256))


def test_encap_decap_roundtrip_grid():
    rng = DeterministicRng(b"roundtrip grid")
    for m, b in [(3, 1), (3, 4), (8, 1), (8, 4)]:
        p = KemParams(m=m, b=b)
        kp = kem_keygen(p, rng)
        for _ in range(250):
            ct, ss = kem_encap(kp.pk, rng)
            assert len(ss) == 32
            assert kem_decap(kp.sk, ct) == ss


def test_encap_secrets_do_not_collide():
    p = KemParams(m=8, b=4)
    rng = DeterministicRng(b"collisions")
    kp = kem_keygen(p, rng)
    secrets = {kem_encap(kp.pk, rng)[1] for _ in range(1000)}
    assert len(secrets) == 1000


def test_decap_rejects_zero_syndrome():
    p = KemParams(m=8, b=2)
    kp = kem_keygen(p, DeterministicRng(b"zero syndrome"))
    with pytest.raises(InvalidCiphertext):
        kem_decap(kp.sk, _encode_ct(p, [0, 5]))
    with pytest.raises(InvalidCiphertext):
        kem_decap(kp.sk, bytes([5]))


def test_cross_key_decap_differs():
    p = KemParams(m=8, b=4)
    rng = DeterministicRng(b"cross key")
    kp_a = kem_keygen(p, rng)
    kp_b = kem_keygen(p, rng)
    for _ in range(100):
        ct, ss = kem_encap(kp_a.pk, rng)
        try:
            other = kem_decap(kp_b.sk, ct)
        except InvalidCiphertext:
            continue
        assert other != ss


def test_pk_serialization_roundtrip_small():
    rng = DeterministicRng(b"pk serde")
    for m, b in [(3, 1), (3, 3), (6, 2), (8, 4), (10, 1)]:
        p = KemParams(m=m, b=b)
        kp = kem_keygen(p, rng)
        blob = kp.pk.encoding
        assert len(blob) == p.pk_bytes
        parsed = kem_parse_pk(p, blob)
        assert parsed == kp.pk
        ct, ss = kem_encap(parsed, rng)
        assert kem_decap(kp.sk, ct) == ss


def test_ct_serialization_roundtrip():
    rng = DeterministicRng(b"ct serde")
    for m, b in [(3, 1), (8, 4), (13, 2)]:
        p = KemParams(m=m, b=b)
        kp = kem_keygen(p, rng)
        for _ in range(20):
            ct, ss = kem_encap(kp.pk, rng)
            assert len(ct) == p.ct_bytes
            assert _encode_ct(p, _decode_ct(p, ct)) == ct
            assert kem_decap(kp.sk, ct) == ss


def test_from_seed_reconstruction():
    p = KemParams(m=8, b=2)
    rng = DeterministicRng(b"from seed")
    kp = kem_keygen(p, rng)
    rebuilt = KemKeyPair.from_seed(p, kp.seed)
    assert rebuilt.pk.encoding == kp.pk.encoding
    ct, ss = kem_encap(kp.pk, rng)
    assert kem_decap(rebuilt.sk, ct) == ss


def test_load_rejects_columns_that_are_not_a_permutation():
    p = KemParams(m=4, b=2)
    kp = kem_keygen(p, DeterministicRng(b"load malformed"))
    good = kp.pk.encoding
    assert KemKeyPair.load(p, kp.seed, good).pk == kp.pk
    for bad_value in (0, 1 << (p.m - 1), kp.pk.syndrome_for_position(1, p.m)):
        blocks = [
            [kp.pk.syndrome_for_position(i, j) for j in range(p.m, p.n)] for i in range(p.b)
        ]
        blocks[1][-1] = bad_value  # zero, a unit column, or a repeated T column
        bad = _pack_columns(p, blocks)
        with pytest.raises(MalformedEncoding):
            KemKeyPair.load(p, kp.seed, bad)
    with pytest.raises(MalformedEncoding):
        KemKeyPair.load(p, kp.seed, good[:-1])
    with pytest.raises(ParameterError):
        KemKeyPair.load(p, kp.seed[:31], good)


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import agilecrypt.cli
from agilecrypt import cbkem
from agilecrypt.easyapi import SecurityLevel, TemplateKind, builtin_registry, template_resolve
from agilecrypt.primitives import DeterministicRng

ap = template_resolve(builtin_registry(1), TemplateKind.ENCRYPTION, SecurityLevel.LOW)
params = cbkem.KemParams.from_algorithm_id(ap.algorithm_id)
rng = DeterministicRng(b"blocked import")
kp = cbkem.kem_keygen(params, rng)
loaded = cbkem.KemKeyPair.load(params, kp.seed, kp.pk.encoding)
ct, ss = cbkem.kem_encap(loaded.pk, rng)
assert cbkem.kem_decap(loaded.sk, ct) == ss
"""


def test_cli_and_kem_run_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
