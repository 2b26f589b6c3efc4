"""Code-based KEM over b independently permuted Hamming codes.

Niederreiter shape: the public key is the non-identity half T of a
systematic parity-check matrix [I | T] per block, the ciphertext is one
m-bit syndrome per block, and decapsulation inverts the secret column
permutation.  Single-error decoding per block is a table lookup, which is
what makes a complete from-scratch implementation feasible at desk scale.

This is an interface and size emulation only.  A single-error code at
these sizes offers NO confidentiality; do not protect real data with it.
The module exists so key-size scaling, wire formats, and protocol flow
can be exercised honestly.

Parameter range: m in [2, 20] is accepted so the m=3 brute-force test
oracle can run; production-flavoured sets use m >= 8.

All public-key and ciphertext encodings are bit-packed MSB-first,
block-major, row-major within each T block, zero-padded to the final
byte.  Large keys are built and serialized block by block, never through
unbounded recursion or per-bit Python lists.  Each block draws from its
own seeded stream, so the blocks of a large key are built in parallel
worker processes with the same result.  A stored key is opened from its
public key: the secret tables are the inverse of its columns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .errors import AgilecryptError, InvalidCiphertext, MalformedEncoding, ParameterError
from .primitives import DeterministicRng, HashId, Rng, hash_data

__all__ = [
    "KemParams",
    "KemPublicKey",
    "KemSecretKey",
    "KemKeyPair",
    "KemCiphertext",
    "NAMED_PARAM_SETS",
    "kem_keygen",
    "kem_encap",
    "kem_decap",
    "kem_serialize_pk",
    "kem_parse_pk",
    "kem_serialize_ct",
    "kem_parse_ct",
]


@dataclass(frozen=True)
class KemParams:
    """m: syndrome bits per block; b: block count.  Derived per block:
    n = 2^m - 1 positions, k = n - m public columns."""

    m: int
    b: int

    def __post_init__(self) -> None:
        if not 2 <= self.m <= 20:
            raise ParameterError("m must be in [2, 20]")
        if not 1 <= self.b <= 64:
            raise ParameterError("b must be in [1, 64]")

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def pk_bits(self) -> int:
        return self.b * self.k * self.m

    @property
    def pk_bytes(self) -> int:
        return (self.pk_bits + 7) // 8

    @property
    def ct_bits(self) -> int:
        return self.b * self.m

    @property
    def ct_bytes(self) -> int:
        return (self.ct_bits + 7) // 8

    @property
    def algorithm_id(self) -> str:
        return f"CME-TOY-{self.m}-{self.b}"

    @classmethod
    def from_algorithm_id(cls, identifier: str) -> KemParams:
        parts = identifier.split("-")
        if len(parts) != 4 or parts[0] != "CME" or parts[1] != "TOY":
            raise ParameterError(f"not a code-based KEM identifier: {identifier!r}")
        try:
            return cls(m=int(parts[2]), b=int(parts[3]))
        except ValueError as exc:
            raise ParameterError(f"bad identifier {identifier!r}: {exc}") from exc


NAMED_PARAM_SETS: dict[str, KemParams] = {
    "toy-64": KemParams(m=10, b=8),
    "toy-128": KemParams(m=13, b=16),
    "mce-emu": KemParams(m=16, b=10),
}


@dataclass(eq=False)
class KemPublicKey:
    """Per-block T columns as m-bit values (numpy uint32 arrays of length k)."""

    params: KemParams
    blocks: list[np.ndarray]

    def syndrome_for_position(self, block: int, position: int) -> int:
        """Column value at an error position: unit vector inside the
        identity part, T column beyond it."""
        m = self.params.m
        if not 0 <= position < self.params.n:
            raise ParameterError("position out of range")
        if position < m:
            return 1 << (m - 1 - position)
        return int(self.blocks[block][position - m])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KemPublicKey):
            return NotImplemented
        return self.params == other.params and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )


@dataclass(eq=False)
class KemSecretKey:
    """Value-to-position inverse tables.  They are the inverse of the
    public key's columns, so they are rebuilt either from the 32-byte
    seed (KemKeyPair.from_seed, which also draws the public key) or,
    much faster, from the seed's public key (KemKeyPair.load)."""

    params: KemParams
    seed: bytes
    inverse: list[np.ndarray]

    def position_for_syndrome(self, block: int, syndrome: int) -> int:
        if not 0 < syndrome <= self.params.n:
            return -1
        return int(self.inverse[block][syndrome])


@dataclass(eq=False)
class KemKeyPair:
    params: KemParams
    seed: bytes
    pk: KemPublicKey
    sk: KemSecretKey

    @classmethod
    def from_seed(cls, params: KemParams, seed: bytes) -> KemKeyPair:
        """Draw the key pair a seed names: the key generation path."""
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        tasks = [(params, seed, i) for i in range(params.b)]
        hash_calls = params.b * params.n * _HASH_CALLS_PER_POSITION
        built = parallel_map(_seeded_block, tasks, hash_calls)
        return cls(
            params=params,
            seed=seed,
            pk=KemPublicKey(params=params, blocks=[cols for cols, _ in built]),
            sk=KemSecretKey(params=params, seed=seed, inverse=[inv for _, inv in built]),
        )

    @classmethod
    def load(cls, params: KemParams, seed: bytes, public: bytes) -> KemKeyPair:
        """Open a stored key from its seed and its serialized public key.
        The public key must come from an authenticated source (a MAC'd
        store entry, a signed certificate): decapsulation follows its
        columns, and the seed is kept, not checked against them."""
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        pk = kem_parse_pk(params, public)
        identity = _identity_columns(params.m)
        inverse = [
            _inverse_table(params, np.concatenate([identity, cols])) for cols in pk.blocks
        ]
        return cls(
            params=params,
            seed=seed,
            pk=pk,
            sk=KemSecretKey(params=params, seed=seed, inverse=inverse),
        )


@dataclass
class KemCiphertext:
    syndromes: list[int]


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------

def _invert_gf2(a_rows: list[int], m: int) -> list[int] | None:
    """Invert an m x m GF(2) matrix given as row bitmasks (bit m-1-c is
    column c).  Returns None if singular."""
    rows = [(a_rows[r] << m) | (1 << (m - 1 - r)) for r in range(m)]
    for c in range(m):
        pivot = 1 << (2 * m - 1 - c)
        pr = next((r for r in range(c, m) if rows[r] & pivot), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        for r in range(m):
            if r != c and rows[r] & pivot:
                rows[r] ^= rows[c]
    return [row & ((1 << m) - 1) for row in rows]


def _identity_columns(m: int) -> np.ndarray:
    return np.uint32(1) << np.arange(m - 1, -1, -1, dtype=np.uint32)


def _inverse_table(params: KemParams, columns: np.ndarray) -> np.ndarray:
    """Value-to-position table for one block's n column values, which
    must be a permutation of 1..n."""
    n = params.n
    counts = np.bincount(columns, minlength=n + 1)
    if counts[0] or not np.all(counts[1:] == 1):
        raise MalformedEncoding("public key block is not a permutation of 1..n")
    inverse = np.full(1 << params.m, -1, dtype=np.int32)
    inverse[columns] = np.arange(n, dtype=np.int32)
    return inverse


# In-process cost of one key position, in HBS hash calls: a block's
# Fisher-Yates draws (about 3.5 shuffles until the leading block is
# invertible) and its systematic form take 5-7 us a position, against
# 1.2-1.5 us a hash call, on a 2-core x86 VM with Python 3.11.
_HASH_CALLS_PER_POSITION = 5


def _seeded_block(params: KemParams, seed: bytes, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Block i of the key a seed names; each block has its own stream."""
    block_seed = hash_data(HashId.H256, b"kem-block" + seed + struct.pack(">H", i))
    return _build_block(params, DeterministicRng(block_seed))


def _build_block(params: KemParams, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """One block: permute the nonzero column values, bring the leading m
    columns to identity, return (T columns, value->position table)."""
    m, n = params.m, params.n
    for _ in range(100):
        order = rng.shuffled(n)
        values = np.array(order, dtype=np.uint32) + 1
        a_rows = [
            sum(((int(values[c]) >> (m - 1 - r)) & 1) << (m - 1 - c) for c in range(m))
            for r in range(m)
        ]
        u_rows = _invert_gf2(a_rows, m)
        if u_rows is None:
            continue
        # U applied to every m-bit value at once, by linearity.
        u_basis = [
            sum(((u_rows[r] >> p) & 1) << (m - 1 - r) for r in range(m)) for p in range(m)
        ]
        table = np.zeros(1, dtype=np.uint32)
        for p in range(m):
            table = np.concatenate([table, table ^ np.uint32(u_basis[p])])
        transformed = table[values]
        if not np.array_equal(transformed[:m], _identity_columns(m)):
            raise AgilecryptError("internal error: systematic form check failed")
        return transformed[m:].copy(), _inverse_table(params, transformed)
    raise AgilecryptError("internal error: no invertible leading block in 100 draws")


# ---------------------------------------------------------------------------
# KEM operations
# ---------------------------------------------------------------------------

def kem_keygen(params: KemParams, rng: Rng) -> KemKeyPair:
    return KemKeyPair.from_seed(params, rng.random_bytes(32))


def _shared_secret(params: KemParams, positions: list[int], ct: KemCiphertext) -> bytes:
    material = b"kem-ss" + b"".join(struct.pack(">I", j) for j in positions)
    return hash_data(HashId.H256, material + kem_serialize_ct(params, ct))


def kem_encap(pk: KemPublicKey, params: KemParams, rng: Rng) -> tuple[KemCiphertext, bytes]:
    """Pick one uniform error position per block; the ciphertext is the
    corresponding column values, the secret a digest of the positions."""
    positions = [rng.randint_below(params.n) for _ in range(params.b)]
    ct = KemCiphertext(
        syndromes=[pk.syndrome_for_position(i, j) for i, j in enumerate(positions)]
    )
    return ct, _shared_secret(params, positions, ct)


def kem_decap(sk: KemSecretKey, params: KemParams, ct: KemCiphertext) -> bytes:
    if len(ct.syndromes) != params.b:
        raise InvalidCiphertext(
            f"expected {params.b} syndromes, got {len(ct.syndromes)}"
        )
    positions = []
    for i, s in enumerate(ct.syndromes):
        if not 0 < s <= params.n:
            raise InvalidCiphertext(f"syndrome {i} out of range")
        j = sk.position_for_syndrome(i, s)
        if j < 0:
            raise InvalidCiphertext(f"syndrome {i} maps to no column")
        positions.append(j)
    return _shared_secret(params, positions, ct)


# ---------------------------------------------------------------------------
# Canonical encodings
# ---------------------------------------------------------------------------

def _pk_block_bits(params: KemParams, cols: np.ndarray) -> np.ndarray:
    """Row-major bit array (length k*m, uint8) for one T block."""
    m, k = params.m, params.k
    bits = np.empty((m, k), dtype=np.uint8)
    for r in range(m):
        bits[r] = ((cols >> np.uint32(m - 1 - r)) & np.uint32(1)).astype(np.uint8)
    return bits.reshape(-1)


def kem_serialize_pk(pk: KemPublicKey) -> bytes:
    params = pk.params
    packed = np.packbits(
        np.concatenate([_pk_block_bits(params, cols) for cols in pk.blocks])
    )
    out = packed.tobytes()
    if len(out) != params.pk_bytes:
        raise AgilecryptError("internal error: pk serialization length mismatch")
    return out


def kem_parse_pk(params: KemParams, data: bytes) -> KemPublicKey:
    if len(data) != params.pk_bytes:
        raise MalformedEncoding(
            f"public key length {len(data)}, expected {params.pk_bytes}",
            offset=min(len(data), params.pk_bytes),
        )
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits[params.pk_bits :].any():
        raise MalformedEncoding("nonzero padding bits", offset=params.pk_bits // 8)
    m, k = params.m, params.k
    blocks = []
    for i in range(params.b):
        rows = bits[i * k * m : (i + 1) * k * m].reshape(m, k)
        cols = np.zeros(k, dtype=np.uint32)
        for r in range(m):
            cols = (cols << np.uint32(1)) | rows[r]
        blocks.append(cols)
    return KemPublicKey(params=params, blocks=blocks)


def kem_serialize_ct(params: KemParams, ct: KemCiphertext) -> bytes:
    if len(ct.syndromes) != params.b:
        raise ParameterError("syndrome count does not match params")
    acc = 0
    for s in ct.syndromes:
        acc = (acc << params.m) | s
    acc <<= 8 * params.ct_bytes - params.ct_bits
    return acc.to_bytes(params.ct_bytes, "big")


def kem_parse_ct(params: KemParams, data: bytes) -> KemCiphertext:
    if len(data) != params.ct_bytes:
        raise MalformedEncoding(
            f"ciphertext length {len(data)}, expected {params.ct_bytes}",
            offset=min(len(data), params.ct_bytes),
        )
    acc = int.from_bytes(data, "big")
    pad = 8 * params.ct_bytes - params.ct_bits
    if acc & ((1 << pad) - 1):
        raise MalformedEncoding("nonzero padding bits", offset=params.ct_bytes - 1)
    acc >>= pad
    mask = (1 << params.m) - 1
    syndromes = [
        (acc >> ((params.b - 1 - i) * params.m)) & mask for i in range(params.b)
    ]
    return KemCiphertext(syndromes=syndromes)
