"""Tests for the hash-based signature scheme.

Chain-count expectations below are hand-computed from the closed formulas
(l1 = ceil(8*n_h / log2 w), l2 = floor(log_w(l1*(w-1))) + 1) and frozen
here as an independent check on the implementation.  Each refusal of a
decoder is a row of DECODER_REFUSALS in test_decoder_refusals.py.
"""

from __future__ import annotations

import random
import struct
import subprocess
import sys

import pytest

from agilecrypt import hbs
from agilecrypt.easyapi import SecurityLevel, TemplateKind, builtin_registry, template_resolve
from agilecrypt.errors import KeyExhausted, MalformedEncoding, ParameterError
from agilecrypt.hbs import (
    HbsKeyPair,
    HbsMode,
    HbsParams,
    hbs_export_public,
    hbs_keygen,
    hbs_parse_public,
    hbs_sign,
    hbs_sign_with_leaf,
    hbs_verify,
)
from agilecrypt.primitives import DeterministicRng, hash_data, prf

# (n_h, w, h) -> hand-computed (l1, l2)
_CHAIN_COUNTS = {
    (16, 16, 4): (32, 3),
    (32, 16, 4): (64, 3),
    (16, 4, 4): (64, 4),
    (16, 256, 4): (16, 2),
    (16, 2, 4): (128, 8),
    (32, 2, 4): (256, 9),
    (32, 4, 4): (128, 5),
    (32, 256, 4): (32, 2),
    (16, 16, 6): (32, 3),
    (16, 16, 8): (32, 3),
}


def _params(n_h=16, w=16, h=4, mode=HbsMode.STATEFUL) -> HbsParams:
    return HbsParams(n_h=n_h, w=w, h=h, mode=mode)


def test_chain_count_formula():
    for (n_h, w, h), (l1, l2) in _CHAIN_COUNTS.items():
        p = _params(n_h=n_h, w=w, h=h)
        assert (p.l1, p.l2) == (l1, l2), (n_h, w, h)
        assert p.l == l1 + l2


def test_invalid_params_rejected():
    with pytest.raises(ParameterError):
        _params(n_h=24)
    with pytest.raises(ParameterError):
        _params(w=12)
    with pytest.raises(ParameterError):
        _params(h=3)
    with pytest.raises(ParameterError):
        _params(h=17)


def test_algorithm_id_roundtrip():
    p = _params(n_h=32, w=16, h=12, mode=HbsMode.STATELESS)
    assert p.algorithm_id == "SPX-TOY-32-16-12-SL"
    assert HbsParams.from_algorithm_id("SPX-TOY-32-16-12-SL") == p
    assert HbsParams.from_algorithm_id("SPX-TOY-16-16-8-S") == _params(n_h=16, h=8)
    with pytest.raises(ParameterError):
        HbsParams.from_algorithm_id("SPX-TOY-16-16-8")
    for identifier in ("CME-TOY-10-8", "SPX-TOY-16-16-08-S"):
        with pytest.raises(ParameterError):
            HbsParams.from_algorithm_id(identifier)


def test_keygen_deterministic_root():
    rng = DeterministicRng(b"keygen determinism")
    kp1 = hbs_keygen(_params(), rng)
    kp2 = hbs_keygen(_params(), DeterministicRng(b"keygen determinism"))
    assert kp1.seed == kp2.seed
    assert kp1.root == kp2.root
    assert kp1.next_leaf == 0
    # Root is a pure function of (seed, params).
    assert hbs_keygen(_params(), DeterministicRng(b"other")).root != kp1.root


def _leaf_index(sig: bytes) -> int:
    return struct.unpack(">I", sig[:4])[0]


def test_sign_verify_roundtrip_and_auth_path_len():
    rng = DeterministicRng(b"roundtrip")
    kp = hbs_keygen(_params(), rng)
    sig = hbs_sign(kp, b"Hallo Welt!", rng)
    n_h = kp.params.n_h
    # leaf u32 || randomizer || l chain values || a 4-node auth path,
    # which for leaf 0 is node 1 of each level.
    assert len(sig) == 4 + 32 + kp.params.l * n_h + 4 * n_h
    assert sig[-4 * n_h :] == b"".join(kp._levels[t][1] for t in range(4))
    assert hbs_verify(kp.root, kp.params, b"Hallo Welt!", sig)
    assert not hbs_verify(kp.root, kp.params, b"Hallo Welt?", sig)


def test_stateful_counter_semantics_and_exhaustion():
    rng = DeterministicRng(b"exhaustion")
    kp = hbs_keygen(_params(h=4), rng)
    indices = []
    for _ in range(16):
        sig = hbs_sign(kp, b"msg", rng)
        indices.append(_leaf_index(sig))
    assert indices == list(range(16))
    with pytest.raises(KeyExhausted):
        hbs_sign(kp, b"one too many", rng)


def test_stateful_signatures_all_verify():
    rng = DeterministicRng(b"all leaves")
    kp = hbs_keygen(_params(h=4), rng)
    for i in range(16):
        msg = b"message %d" % i
        sig = hbs_sign(kp, msg, rng)
        assert hbs_verify(kp.root, kp.params, msg, sig)


def test_stateless_mode_roundtrips():
    rng = DeterministicRng(b"stateless")
    kp = hbs_keygen(_params(h=6, mode=HbsMode.STATELESS), rng)
    for i in range(50):
        msg = b"stateless %d" % i
        sig = hbs_sign(kp, msg, rng)
        assert 0 <= _leaf_index(sig) < 64
        assert hbs_verify(kp.root, kp.params, msg, sig)
    # Stateless signing never touches the counter.
    assert kp.next_leaf == 0


def test_verify_rejects_mutations():
    rng = DeterministicRng(b"mutations")
    trial_rng = random.Random(201)
    kp = hbs_keygen(_params(h=4), rng)
    kp_sl = hbs_keygen(_params(h=4, mode=HbsMode.STATELESS), rng)
    for trial in range(1000):
        use_sl = trial_rng.random() < 0.5
        target = kp_sl if use_sl else kp
        if not use_sl and target.next_leaf == 16:
            target = kp_sl
            use_sl = True
        msg = trial_rng.randbytes(trial_rng.randrange(0, 64))
        sig = hbs_sign(target, msg, rng)
        blob = bytearray(sig)
        if trial_rng.random() < 0.2 and msg:
            mutated_msg = bytearray(msg)
            pos = trial_rng.randrange(len(mutated_msg) * 8)
            mutated_msg[pos // 8] ^= 1 << (pos % 8)
            assert not hbs_verify(target.root, target.params, bytes(mutated_msg), sig)
        else:
            pos = trial_rng.randrange(len(blob) * 8)
            blob[pos // 8] ^= 1 << (pos % 8)
            assert not hbs_verify(target.root, target.params, msg, bytes(blob))


def test_verify_rejects_wrong_root_and_bad_sizes():
    rng = DeterministicRng(b"wrong root")
    kp_a = hbs_keygen(_params(), rng)
    kp_b = hbs_keygen(_params(), rng)
    sig = hbs_sign(kp_a, b"msg", rng)
    assert hbs_verify(kp_a.root, kp_a.params, b"msg", sig)
    assert not hbs_verify(kp_b.root, kp_b.params, b"msg", sig)
    # Malformed sizes and a leaf index past 2^h reject instead of raising.
    n_h = kp_a.params.n_h
    bad = hbs_sign(kp_a, b"msg2", rng)
    assert hbs_verify(kp_a.root, kp_a.params, b"msg2", bad)
    assert not hbs_verify(kp_a.root, kp_a.params, b"msg2", bad[:-n_h])
    bad2 = hbs_sign(kp_a, b"msg3", rng)
    assert not hbs_verify(kp_a.root, kp_a.params, b"msg3", bad2 + bad2[-n_h:])
    bad3 = hbs_sign(kp_a, b"msg4", rng)
    assert not hbs_verify(kp_a.root, kp_a.params, b"msg4", struct.pack(">I", 16) + bad3[4:])


def test_signature_size_formula_exact_on_grid():
    rng = DeterministicRng(b"size grid")
    for (n_h, w, h) in _CHAIN_COUNTS:
        p = _params(n_h=n_h, w=w, h=h)
        kp = hbs_keygen(p, rng)
        sig = hbs_sign(kp, b"sized", rng)
        assert len(sig) == 4 + 32 + p.l * n_h + h * n_h
        assert len(sig) == p.signature_size
        assert hbs_verify(kp.root, p, b"sized", sig)


def test_signature_bytes_verify_and_resized_bytes_reject():
    rng = DeterministicRng(b"sig serde")
    trial_rng = random.Random(202)
    kp = hbs_keygen(_params(h=6, mode=HbsMode.STATELESS), rng)
    for _ in range(100):
        msg = trial_rng.randbytes(trial_rng.randrange(0, 32))
        sig = hbs_sign(kp, msg, rng)
        assert len(sig) == kp.params.signature_size
        assert hbs_verify(kp.root, kp.params, msg, sig)
    assert not hbs_verify(kp.root, kp.params, msg, b"")
    assert not hbs_verify(kp.root, kp.params, msg, sig[:-1])
    assert not hbs_verify(kp.root, kp.params, msg, sig + b"\0")


def test_public_key_export_roundtrip():
    rng = DeterministicRng(b"pub serde")
    for mode in (HbsMode.STATEFUL, HbsMode.STATELESS):
        kp = hbs_keygen(_params(mode=mode), rng)
        blob = hbs_export_public(kp)
        params, root = hbs_parse_public(blob)
        assert params == kp.params
        assert root == kp.root
    with pytest.raises(MalformedEncoding):
        hbs_parse_public(b"")
    with pytest.raises(MalformedEncoding):
        hbs_parse_public(blob[:-1])
    with pytest.raises(MalformedEncoding):
        hbs_parse_public(blob + b"\x00")


def _reference_chain(params: HbsParams, seed: bytes, leaf: int, chain: int) -> list[bytes]:
    """A chain's w values, its start and then its value after each step,
    spelled out from prf and hash_data, one hash at a time, as the key
    derivation paragraph of docs/formats.md states it."""
    n = params.n_h
    values = [prf(params.hash_id, seed, "wots-sk", struct.pack(">IH", leaf, chain), n)]
    for step in range(params.w - 1):
        step_input = b"ch" + struct.pack(">HH", chain, step) + values[-1]
        values.append(hash_data(params.hash_id, step_input)[:n])
    return values


def _reference_leaf(params: HbsParams, seed: bytes, leaf: int) -> bytes:
    """Leaf digest over the ends of the leaf's reference chains."""
    ends = [_reference_chain(params, seed, leaf, chain)[-1] for chain in range(params.l)]
    return hash_data(params.hash_id, b"leaf" + struct.pack(">I", leaf) + b"".join(ends))[
        : params.n_h
    ]


def _reference_tree(params: HbsParams, seed: bytes) -> list[list[bytes]]:
    """The tree spelled out from _reference_leaf and hash_data."""
    n = params.n_h
    levels = [[_reference_leaf(params, seed, leaf) for leaf in range(params.leaf_count)]]
    for level in range(1, params.h + 1):
        below = levels[-1]
        levels.append(
            [
                hash_data(
                    params.hash_id,
                    b"node" + struct.pack(">H", level) + below[2 * i] + below[2 * i + 1],
                )[:n]
                for i in range(len(below) // 2)
            ]
        )
    return levels


@pytest.mark.parametrize("n_h,w", [(16, 16), (32, 16), (16, 4), (32, 256)])
def test_tree_matches_the_reference_construction(n_h, w):
    params = _params(n_h=n_h, w=w, h=4)
    seed = bytes(range(32))
    levels, table = hbs._build_tree(params, seed)
    assert levels == _reference_tree(params, seed)
    assert table == b"".join(
        value
        for leaf in range(params.leaf_count)
        for chain in range(params.l)
        for value in _reference_chain(params, seed, leaf, chain)
    )
    plan = hbs._chain_plan(params)
    key = hbs._hmac_states(plan.ctor, seed)
    for leaf, chains in [(0, [0]), (15, range(params.l)), (2**32 - 1, [65535, 1])]:
        assert hbs._chain_starts(plan, key, leaf, chains) == [
            prf(params.hash_id, seed, "wots-sk", struct.pack(">IH", leaf, chain), n_h)
            for chain in chains
        ]


def _reference_signature(
    params: HbsParams,
    seed: bytes,
    tree: list[list[bytes]],
    leaf: int,
    randomizer: bytes,
    msg: bytes,
) -> bytes:
    """A signature spelled out from docs/formats.md alone: the digest, its
    base-w digits, the checksum digits, each chain's value after its
    digit's steps, and the auth path of the chosen leaf in ``tree``."""
    n, w = params.n_h, params.w
    log2w = w.bit_length() - 1
    digest = hash_data(params.hash_id, randomizer + tree[params.h][0] + msg)
    bits = "".join(f"{byte:08b}" for byte in digest[:n])
    l1 = -(-len(bits) // log2w)
    bits = bits.ljust(l1 * log2w, "0")
    digits = [int(bits[i : i + log2w], 2) for i in range(0, len(bits), log2w)]
    checksum = sum(w - 1 - d for d in digits)
    l2 = 1
    while w**l2 <= l1 * (w - 1):
        l2 += 1
    digits += [checksum // w**e % w for e in range(l2 - 1, -1, -1)]
    if params.mode is HbsMode.STATELESS:
        leaf = int.from_bytes(digest[:2], "big") >> (16 - params.h)
    values = []
    for chain, digit in enumerate(digits):
        value = prf(params.hash_id, seed, "wots-sk", struct.pack(">IH", leaf, chain), n)
        for step in range(digit):
            value = hash_data(params.hash_id, b"ch" + struct.pack(">HH", chain, step) + value)[:n]
        values.append(value)
    auth = [tree[t][(leaf >> t) ^ 1] for t in range(params.h)]
    return struct.pack(">I", leaf) + randomizer + b"".join(values + auth)


def _assert_reference_signatures(n_h: int, w: int) -> None:
    """Signatures of one (n_h, w) at h=4, in both modes, from a key that
    built its tree and from one opened with a deferred tree, equal the
    reference construction's."""
    seed = bytes(range(32))
    messages = [b"", b"reference", bytes(range(256)) * 5]
    tree = _reference_tree(_params(n_h=n_h, w=w, h=4), seed)
    for mode in HbsMode:
        params = _params(n_h=n_h, w=w, h=4, mode=mode)
        built = HbsKeyPair.from_seed(params, seed)
        deferred = HbsKeyPair.from_seed(params, seed, root=tree[params.h][0])
        for kp in (built, deferred):
            for i, (leaf, msg) in enumerate(zip([0, 9, 15], messages)):
                rng_seed = b"reference %d" % i
                sig = hbs_sign_with_leaf(kp, leaf, msg, DeterministicRng(rng_seed))
                randomizer = DeterministicRng(rng_seed).random_bytes(32)
                expected = _reference_signature(params, seed, tree, leaf, randomizer, msg)
                assert sig == expected, (n_h, w, mode, leaf)
                assert hbs_verify(kp.root, params, msg, sig), (n_h, w, mode, leaf)


def test_signatures_match_the_reference_construction():
    """Every (n_h, w) of the tree test above, in both modes, signed in one
    process, so a chain constant cached for the wrong parameter set shows.
    Each of these keys keeps its chain table and signs from it."""
    for n_h, w in [(16, 16), (32, 16), (16, 4), (32, 256)]:
        assert hbs._table_size(_params(n_h=n_h, w=w, h=4)) <= hbs._TABLE_CAP
        _assert_reference_signatures(n_h, w)


def test_a_key_over_the_table_cap_keeps_no_table_and_signs_from_its_seed(monkeypatch):
    """With the cap one byte below a key's table, the key keeps no table,
    whether it builds its tree at once or on its first signature, and
    still signs the reference construction's bytes."""
    params = _params()
    monkeypatch.setattr(hbs, "_TABLE_CAP", hbs._table_size(params) - 1)
    seed = bytes(range(32))
    built = HbsKeyPair.from_seed(params, seed)
    assert built._levels is not None and built._table is None
    deferred = HbsKeyPair.from_seed(params, seed, root=built.root)
    hbs_sign(deferred, b"first", DeterministicRng(b"sig"))
    assert deferred._levels is not None and deferred._table is None
    _assert_reference_signatures(16, 16)
    monkeypatch.setattr(hbs, "_TABLE_CAP", hbs._table_size(params))
    assert len(HbsKeyPair.from_seed(params, seed)._table) == hbs._TABLE_CAP


@pytest.mark.parametrize(
    "level, table_bytes",
    [(SecurityLevel.LOW, 2_293_760), (SecurityLevel.MEDIUM, 9_175_040), (SecurityLevel.HIGH, None)],
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_registry_rows_keep_tables_of_the_documented_size(level, table_bytes):
    """LOW and MEDIUM keys keep tables of the sizes the hbs docstring
    states; a HIGH key's table would be 140,509,184 bytes, over the
    16 MiB cap, so it keeps none.  Only the HIGH size is computed: its
    tree takes seconds to build."""
    assert hbs._TABLE_CAP == 16 << 20
    ident = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, level).algorithm_id
    params = HbsParams.from_algorithm_id(ident)
    if table_bytes is None:
        assert hbs._table_size(params) == 140_509_184
        assert hbs._leaf_range(params, bytes(32), 0, 1)[1] is None
        return
    assert hbs._table_size(params) == table_bytes
    assert len(HbsKeyPair.from_seed(params, bytes(32))._table) == table_bytes


@pytest.mark.parametrize("level", list(SecurityLevel), ids=lambda level: level.name)
def test_registry_leaves_match_the_documented_derivation(level):
    """The first two and the last leaf of each v1 signature row, built by
    the chain code, equal the leaves spelled out from the doc.  Whole
    h=4 trees are compared level by level above."""
    ident = template_resolve(builtin_registry(1), TemplateKind.SIGNATURE, level).algorithm_id
    params = HbsParams.from_algorithm_id(ident)
    seed = hash_data(params.hash_id, ident.encode("ascii"))[:32]
    for leaf in (0, 1, params.leaf_count - 1):
        assert hbs._leaf_range(params, seed, leaf, leaf + 1)[0] == [
            _reference_leaf(params, seed, leaf)
        ], (ident, leaf)


# Blocks the built-in SHA-2 modules, so hbs falls back to hashlib's
# constructors, and rebuilds the SPX-TOY-16-16-8-S root that
# test_byte_pinning.py pins.
_WITHOUT_BUILTIN_SHA2 = """
import sys
for name in ("_sha2", "_sha256", "_sha512"):
    sys.modules[name] = None  # any import of it now raises ImportError
import hashlib
from agilecrypt import hbs
from agilecrypt.primitives import DeterministicRng, HashId

assert hbs._SHORT_INPUT_HASH == {HashId.H256: hashlib.sha256, HashId.H512: hashlib.sha512}
params = hbs.HbsParams.from_algorithm_id("SPX-TOY-16-16-8-S")
kp = hbs.hbs_keygen(params, DeterministicRng(b"byte-pinning/hbs-root/SPX-TOY-16-16-8-S"))
assert kp.root.hex() == "1318fbacb3643a2ab4ccc208148dcd76", kp.root.hex()
sig = hbs.hbs_sign(kp, b"fallback", DeterministicRng(b"fallback signature"))
assert hbs.hbs_verify(kp.root, params, b"fallback", sig)
"""


def test_chains_without_the_builtin_sha2_modules():
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_BUILTIN_SHA2], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_deferred_tree_build_rejects_a_wrong_root():
    params = _params()
    kp = hbs_keygen(params, DeterministicRng(b"wrong-root"))
    wrong = bytes([kp.root[0] ^ 1]) + kp.root[1:]
    opened = HbsKeyPair.from_seed(params, kp.seed, root=wrong)
    result = None
    with pytest.raises(ParameterError):
        result = hbs_sign(opened, b"never signed", DeterministicRng(b"sig"))
    assert result is None
    assert opened._levels is None and opened._table is None
    with pytest.raises(ParameterError):
        hbs_sign(opened, b"still never signed", DeterministicRng(b"sig"))
    good = HbsKeyPair.from_seed(params, kp.seed, root=kp.root)
    sig = hbs_sign(good, b"signed", DeterministicRng(b"sig"))
    assert hbs_verify(kp.root, params, b"signed", sig)
    assert good._table == kp._table is not None
