"""Tests for the shared cryptographic building blocks.

The PRF check below uses an independent re-implementation of the TLS 1.2
P_hash expansion, written directly from the RFC definition before the
package implementation, so the two routes cannot share a bug.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import random
import struct

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from agilecrypt import primitives
from agilecrypt.cbkem import KemParams
from agilecrypt.easyapi import SecurityLevel, TemplateKind, builtin_registry, template_resolve
from agilecrypt.errors import BadMac, BadPadding, ParameterError
from agilecrypt.primitives import (
    DeterministicRng,
    HashId,
    Rng,
    SymmetricKeys,
    SystemRng,
    hash_data,
    open_record,
    prf,
    seal_record,
)

# ---------------------------------------------------------------------------
# Independent PRF oracle (reference route, kept deliberately naive)
# ---------------------------------------------------------------------------

_ORACLE_HASH = {HashId.H256: hashlib.sha256, HashId.H512: hashlib.sha512}


def _phash_reference(hash_id: HashId, secret: bytes, label: str, seed: bytes, out_len: int) -> bytes:
    """TLS 1.2 P_hash, transcribed from the RFC: A(0) = label+seed,
    A(i) = HMAC(secret, A(i-1)), output = HMAC(secret, A(1)+A(0)) || ..."""
    ctor = _ORACLE_HASH[hash_id]
    a0 = label.encode("ascii") + seed
    a = a0
    out = b""
    while len(out) < out_len:
        a = hmac_mod.new(secret, a, ctor).digest()
        out += hmac_mod.new(secret, a + a0, ctor).digest()
    return out[:out_len]


# ---------------------------------------------------------------------------
# Hash and HMAC against published standard vectors
# ---------------------------------------------------------------------------

def test_hash_empty_string_standard_vectors():
    assert hash_data(HashId.H256, b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert hash_data(HashId.H512, b"").hex() == (
        "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
        "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
    )


def test_hash_lengths_and_determinism():
    rng = random.Random(101)
    for _ in range(50):
        x = rng.randbytes(rng.randrange(0, 200))
        assert len(hash_data(HashId.H256, x)) == 32
        assert len(hash_data(HashId.H512, x)) == 64
        assert hash_data(HashId.H256, x) == hash_data(HashId.H256, x)


def test_hash_bit_flip_changes_digest():
    rng = random.Random(102)
    for _ in range(1000):
        x = bytearray(rng.randbytes(rng.randrange(1, 64)))
        d0 = hash_data(HashId.H256, bytes(x))
        pos = rng.randrange(len(x) * 8)
        x[pos // 8] ^= 1 << (pos % 8)
        assert hash_data(HashId.H256, bytes(x)) != d0


# ---------------------------------------------------------------------------
# PRF: dual-route agreement and prefix property
# ---------------------------------------------------------------------------

def test_prf_minimum_length():
    assert len(prf(HashId.H256, b"s", "label", b"seed", 1)) == 1


def test_prf_matches_independent_reference():
    rng = random.Random(104)
    for _ in range(100):
        hid = rng.choice([HashId.H256, HashId.H512])
        secret = rng.randbytes(rng.randrange(1, 64))
        label = "".join(rng.choice("abcdefgh ") for _ in range(rng.randrange(1, 16)))
        seed = rng.randbytes(rng.randrange(0, 64))
        out_len = rng.randrange(1, 200)
        assert prf(hid, secret, label, seed, out_len) == _phash_reference(
            hid, secret, label, seed, out_len
        )


# Secrets up to 300 bytes pass both HMAC block sizes (64 and 128 bytes),
# where the key schedule hashes the secret first.  The reference
# signature construction in test_hbs.py calls prf itself, so a key
# schedule bug would change both sides of that comparison; this property
# checks prf against the hmac module alone.
# The secret's length is drawn first, so lengths past both blocks are as
# common as short ones.
@settings(max_examples=200)
@given(
    hid=st.sampled_from(list(HashId)),
    secret=st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    label=st.text(alphabet=st.characters(max_codepoint=127)),
    seed=st.binary(max_size=100),
    out_len=st.integers(1, 300),
)
@example(hid=HashId.H512, secret=bytes(129), label="", seed=b"", out_len=1)
@example(hid=HashId.H256, secret=bytes(65), label="", seed=b"", out_len=1)
def test_prf_matches_the_hmac_module(hid, secret, label, seed, out_len):
    assert prf(hid, secret, label, seed, out_len) == _phash_reference(
        hid, secret, label, seed, out_len
    )


def test_prf_prefix_property():
    rng = random.Random(105)
    for _ in range(100):
        secret = rng.randbytes(16)
        seed = rng.randbytes(16)
        full = prf(HashId.H512, secret, "prefix check", seed, 64)
        n = rng.randrange(1, 65)
        assert prf(HashId.H512, secret, "prefix check", seed, n) == full[:n]


def test_prf_rejects_nonpositive_length():
    with pytest.raises(ParameterError):
        prf(HashId.H256, b"s", "label", b"seed", 0)


# ---------------------------------------------------------------------------
# Record sealing
# ---------------------------------------------------------------------------

def _fresh_keys(rng: random.Random) -> SymmetricKeys:
    return SymmetricKeys(
        enc_key=rng.randbytes(32),
        mac_key=rng.randbytes(64),
        iv_seed=rng.randbytes(16),
    )


def test_seal_open_empty_roundtrip():
    keys = _fresh_keys(random.Random(106))
    sealed = seal_record(keys, 0, b"\x17\x03\x03", b"")
    assert open_record(keys, 0, b"\x17\x03\x03", sealed) == b""


def test_seal_open_random_roundtrips():
    rng = random.Random(107)
    keys = _fresh_keys(rng)
    for seq in range(1000):
        plaintext = rng.randbytes(rng.randrange(0, 512))
        header = rng.randbytes(rng.randrange(0, 8))
        sealed = seal_record(keys, seq, header, plaintext)
        assert open_record(keys, seq, header, sealed) == plaintext


def test_seal_open_large_payloads():
    """The record-size cap lives in the TLS record layer; the sealing
    primitive itself must handle keystore tables and mail bodies far
    beyond one TLS fragment."""
    rng = random.Random(108)
    keys = _fresh_keys(rng)
    for size in (2**14, 2**14 + 1, 200_000):
        big = rng.randbytes(size)
        assert open_record(keys, 5, b"", seal_record(keys, 5, b"", big)) == big


def test_open_rejects_wrong_sequence_and_header():
    rng = random.Random(109)
    keys = _fresh_keys(rng)
    sealed = seal_record(keys, 7, b"\x17", b"payload")
    with pytest.raises((BadMac, BadPadding)):
        open_record(keys, 8, b"\x17", sealed)
    with pytest.raises((BadMac, BadPadding)):
        open_record(keys, 7, b"\x16", sealed)


def test_open_single_bit_tamper_never_leaks():
    rng = random.Random(110)
    keys = _fresh_keys(rng)
    for trial in range(1000):
        plaintext = rng.randbytes(rng.randrange(0, 128))
        sealed = bytearray(seal_record(keys, trial, b"hdr", plaintext))
        pos = rng.randrange(len(sealed) * 8)
        sealed[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises((BadMac, BadPadding)):
            open_record(keys, trial, b"hdr", bytes(sealed))


def test_open_record_computes_one_mac_whichever_check_fails(monkeypatch):
    """RFC 5246 §6.2.3.2: bad padding is MAC'd as if the pad were empty, so
    a bad pad length, bad pad bytes and a bad MAC each cost one MAC, over
    lengths within one AES block plus the pad of each other."""
    keys = _fresh_keys(random.Random(111))
    plaintext = b"ten bytes!"
    sealed = seal_record(keys, 3, b"hdr", plaintext)
    pad = len(sealed) - 16 - len(plaintext) - 64  # pad_len + 1 bytes

    def flipped(position: int, mask: int) -> bytes:
        out = bytearray(sealed)
        out[position] ^= mask
        return bytes(out)

    # A flip in the next-to-last ciphertext block flips the same byte of the
    # last plaintext block, which ends in the pad; one in the IV flips the
    # first plaintext byte.
    cases = [
        (flipped(-17, (pad - 1) ^ 0xFF), BadPadding, "padding length exceeds record"),
        (flipped(-18, 0x01), BadPadding, "padding bytes inconsistent"),
        (flipped(0, 0x01), BadMac, "record MAC mismatch"),
    ]
    record_mac = primitives._record_mac
    mac_lengths = []

    def counting_mac(keys, seq, header, data):
        mac_lengths.append(len(data))
        return record_mac(keys, seq, header, data)

    monkeypatch.setattr(primitives, "_record_mac", counting_mac)
    for tampered, error, text in cases:
        calls = len(mac_lengths)
        with pytest.raises(error, match=text):
            open_record(keys, 3, b"hdr", tampered)
        assert len(mac_lengths) == calls + 1, text
    assert max(mac_lengths) - min(mac_lengths) <= 16 + pad


def test_open_record_refuses_a_record_too_short_for_its_mac():
    """One block of valid padding (sixteen bytes of 15) leaves no room for
    the 64-byte MAC."""
    keys = _fresh_keys(random.Random(112))
    iv = bytes(16)
    encryptor = Cipher(algorithms.AES(bytes(keys.enc_key)), modes.CBC(iv)).encryptor()
    block = encryptor.update(bytes([15]) * 16) + encryptor.finalize()
    with pytest.raises(BadMac, match="record too short for MAC"):
        open_record(keys, 0, b"hdr", iv + block)


@pytest.mark.parametrize("sealed_len", [32, 48, 64])
def test_a_record_too_short_for_its_mac_costs_one_mac_whatever_its_padding(
    monkeypatch, sealed_len
):
    """A 32-79-byte record holds no 64-byte MAC.  With valid padding it is
    refused as too short and with invalid padding as badly padded; each
    pays one MAC, so the time does not tell the two apart."""
    keys = _fresh_keys(random.Random(113))
    iv = bytes(16)

    def sealed(last_block: bytes) -> bytes:
        body = bytes(sealed_len - 32) + last_block
        encryptor = Cipher(algorithms.AES(bytes(keys.enc_key)), modes.CBC(iv)).encryptor()
        return iv + encryptor.update(body) + encryptor.finalize()

    record_mac, calls = primitives._record_mac, []
    monkeypatch.setattr(
        primitives, "_record_mac", lambda *args: calls.append(args) or record_mac(*args)
    )
    cases = [
        (sealed(bytes([15]) * 16), BadMac, "record too short for MAC"),
        (sealed(bytes([1]) * 15 + bytes([15])), BadPadding, "padding bytes inconsistent"),
    ]
    for record, error, text in cases:
        calls.clear()
        with pytest.raises(error, match=text):
            open_record(keys, 0, b"hdr", record)
        assert len(calls) == 1, text


@pytest.mark.parametrize("width", [32, 63, 65])
def test_symmetric_keys_refuse_a_mac_key_that_is_not_64_bytes(width):
    with pytest.raises(ParameterError, match="mac_key"):
        SymmetricKeys(enc_key=b"\x11" * 32, mac_key=b"\x22" * width, iv_seed=b"\x33" * 16)


def test_symmetric_keys_zeroize():
    keys = SymmetricKeys(enc_key=b"\x11" * 32, mac_key=b"\x22" * 64, iv_seed=b"\x33" * 16)
    keys.zeroize()
    assert bytes(keys.enc_key) == b"\x00" * 32
    assert bytes(keys.mac_key) == b"\x00" * 64
    assert bytes(keys.iv_seed) == b"\x00" * 16


# ---------------------------------------------------------------------------
# Randomness contract
# ---------------------------------------------------------------------------

def test_system_rng_basic():
    rng = SystemRng()
    assert rng.random_bytes(0) == b""
    assert rng.random_bytes(32) != rng.random_bytes(32)
    assert len(rng.random_bytes(17)) == 17


def test_deterministic_rng_reproduces_stream():
    a = DeterministicRng(b"seed material")
    b = DeterministicRng(b"seed material")
    chunks_a = [a.random_bytes(n) for n in (1, 7, 32, 0, 64)]
    chunks_b = [b.random_bytes(n) for n in (1, 7, 32, 0, 64)]
    assert chunks_a == chunks_b
    assert DeterministicRng(b"other seed").random_bytes(32) != b"".join(chunks_a)[:32]
    # One read of several hundred blocks, after an odd-sized read that
    # leaves a partial block buffered, equals the same bytes read in
    # chunks and the hash-counter stream itself.
    size = 600 * 32 + 5
    whole = DeterministicRng(b"seed material")
    whole.random_bytes(3)
    chunked = DeterministicRng(b"seed material")
    chunked.random_bytes(3)
    pieces = [chunked.random_bytes(n) for n in (29, 100, 0, 7) * 40]
    pieces.append(chunked.random_bytes(size - sum(map(len, pieces))))
    stream = b"".join(
        hashlib.sha256(b"drbg" + struct.pack(">Q", i) + b"seed material").digest()
        for i in range(602)
    )
    assert whole.random_bytes(size) == b"".join(pieces) == stream[3 : 3 + size]


def test_deterministic_rng_randints_below_uniform_range():
    rng = DeterministicRng(b"ints")
    assert set(rng.randints_below(10, 500)) == set(range(10))
    with pytest.raises(ParameterError):
        rng.randints_below(0, 1)


def _draws_one_at_a_time(rng: Rng, bound: int, count: int) -> list[int]:
    """Rejection sampling spelled out: one big-endian draw per try, as
    wide as bound needs, kept when below the largest multiple of bound
    that fits the width."""
    if bound == 1:
        return [0] * count
    width = (bound.bit_length() + 7) // 8
    values = []
    while len(values) < count:
        v = int.from_bytes(rng.random_bytes(width), "big")
        if v < 256**width // bound * bound:
            values.append(v % bound)
    return values


# The bounds around each draw width, and every registry KEM row's n,
# which kem_encap draws below; 129 and 32769 reject about half their
# draws, so a draw after a rejection is read in most examples.
_KEM_ROWS = [
    template_resolve(builtin_registry(version), TemplateKind.ENCRYPTION, level).algorithm_id
    for version in (1, 2)
    for level in SecurityLevel
]
_DRAW_BOUNDS = sorted(
    {1, 2, 129, 255, 256, 257, 32769, 65535, 65536}
    | {KemParams.from_algorithm_id(ident).n for ident in _KEM_ROWS}
)


@settings(max_examples=200)
@given(
    bound=st.sampled_from(_DRAW_BOUNDS),
    count=st.integers(0, 40),
    seed=st.binary(max_size=16),
    prefix=st.integers(0, 63),
)
def test_randints_below_reads_what_one_draw_at_a_time_reads(bound, count, seed, prefix):
    """randints_below(bound, count) returns what drawing count integers
    one try at a time returns, and leaves the stream where that leaves it."""
    bulk, reference = DeterministicRng(seed), DeterministicRng(seed)
    bulk.random_bytes(prefix)
    reference.random_bytes(prefix)
    assert bulk.randints_below(bound, count) == _draws_one_at_a_time(reference, bound, count)
    assert bulk.random_bytes(8) == reference.random_bytes(8)


def test_randints_below_refuses_bad_arguments():
    rng = DeterministicRng(b"ints")
    with pytest.raises(ParameterError):
        rng.randints_below(0, 1)
    with pytest.raises(ParameterError):
        rng.randints_below(2, -1)


def _one_draw_at_a_time(rng: Rng, n: int) -> list[int]:
    """Fisher-Yates with one spelled-out draw per position: the walk
    Rng.shuffled must match draw for draw."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        (j,) = _draws_one_at_a_time(rng, i + 1, 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _assert_same_walk(seed: bytes, prefix: int, n: int) -> None:
    """Rng.shuffled against the one-draw-at-a-time walk on a second
    handle: same permutation, same stream position after."""
    bulk, reference = DeterministicRng(seed), DeterministicRng(seed)
    bulk.random_bytes(prefix)
    reference.random_bytes(prefix)
    assert bulk.shuffled(n) == _one_draw_at_a_time(reference, n)
    assert bulk._counter == reference._counter
    assert bulk.random_bytes(64) == reference.random_bytes(64)


# Both sides of each draw-width boundary: 1 byte below position 255,
# 2 below 65535, 3 above.  Not shrunk: each example walks up to 65537
# positions, and a failure is reported as first found.
@pytest.mark.parametrize("n", [0, 1, 2, 3, 255, 256, 257, 1000, 65535, 65536, 65537])
@settings(max_examples=4, phases=(Phase.generate,))
@given(seed=st.binary(max_size=16), prefix=st.integers(0, 63))
def test_bulk_shuffle_matches_generic_walk(n, seed, prefix):
    _assert_same_walk(seed, prefix, n)


@settings(max_examples=100)
@given(seed=st.binary(max_size=16), prefix=st.integers(0, 63), n=st.integers(0, 700))
def test_bulk_shuffle_matches_generic_walk_small(seed, prefix, n):
    _assert_same_walk(seed, prefix, n)


def test_consecutive_shuffles_hash_no_stream_block_twice(monkeypatch):
    hashed = []
    blocks = DeterministicRng._blocks

    def recording(self, count):
        hashed.extend(range(self._counter, self._counter + count))
        return blocks(self, count)

    monkeypatch.setattr(DeterministicRng, "_blocks", recording)
    rng = DeterministicRng(b"rehash")
    for n in (300, 65535, 1000):
        rng.shuffled(n)
    assert hashed == list(range(rng._counter))


@pytest.mark.parametrize("n", [254, 255, 256, 257, 65534, 65535, 65536, 65537])
def test_system_rng_shuffle_is_a_permutation(n):
    assert sorted(SystemRng().shuffled(n)) == list(range(n))
