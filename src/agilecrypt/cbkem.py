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
byte.  A public key is held as that encoding and read in place: an
encapsulation reads m bits per block.  Each block draws from its own
seeded stream, so the blocks of a large key are built in parallel
worker processes with the same result.  The secret tables are the
inverse of a key's columns: key generation takes them from the columns
it draws, and a stored key is opened from the columns of its public key.

Each key carries its parameters.  kem_encap(pk, rng) returns the
ciphertext bytes with the secret, and kem_decap(sk, ct) reads those
bytes; a ciphertext of the wrong length, with pad bits set, or with a
syndrome that maps to no column raises InvalidCiphertext.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from ._parallel import parallel_map
from .errors import AgilecryptError, InvalidCiphertext, MalformedEncoding, ParameterError
from .primitives import DeterministicRng, HashId, Rng, hash_data

__all__ = [
    "KemParams",
    "KemPublicKey",
    "KemSecretKey",
    "KemKeyPair",
    "NAMED_PARAM_SETS",
    "kem_keygen",
    "kem_encap",
    "kem_decap",
    "kem_parse_pk",
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
            params = cls(m=int(parts[2]), b=int(parts[3]))
        except ValueError as exc:
            raise ParameterError(f"bad identifier {identifier!r}: {exc}") from exc
        if params.algorithm_id != identifier:
            raise ParameterError(f"{identifier!r} is not spelled {params.algorithm_id!r}")
        return params


NAMED_PARAM_SETS: dict[str, KemParams] = {
    "toy-64": KemParams(m=10, b=8),
    "toy-128": KemParams(m=13, b=16),
    "mce-emu": KemParams(m=16, b=10),
}


@dataclass(frozen=True)
class KemPublicKey:
    """The canonical encoding, read in place: row r of T column j of
    block i (bit m-1-r of its value) is bit (i*m + r)*k + j, MSB-first."""

    params: KemParams
    encoding: bytes

    def syndrome_for_position(self, block: int, position: int) -> int:
        """Column value at an error position: unit vector inside the
        identity part, T column beyond it."""
        m, k = self.params.m, self.params.k
        if not 0 <= position < self.params.n:
            raise ParameterError("position out of range")
        if position < m:
            return 1 << (m - 1 - position)
        value = 0
        for bit in range(block * m * k + position - m, (block + 1) * m * k, k):
            value = (value << 1) | ((self.encoding[bit >> 3] >> (7 - (bit & 7))) & 1)
        return value


@dataclass(eq=False)
class KemSecretKey:
    """Value-to-position tables, the inverse of the public key's columns:
    built from the columns key generation draws (KemKeyPair.from_seed)
    or from a stored public key (KemKeyPair.load)."""

    params: KemParams
    inverse: list[array]

    def position_for_syndrome(self, block: int, syndrome: int) -> int:
        if not 0 < syndrome <= self.params.n:
            return -1
        return self.inverse[block][syndrome]


@dataclass(eq=False)
class KemKeyPair:
    seed: bytes
    pk: KemPublicKey
    sk: KemSecretKey

    @property
    def params(self) -> KemParams:
        return self.pk.params

    @classmethod
    def from_seed(cls, params: KemParams, seed: bytes) -> KemKeyPair:
        """Draw the key pair a seed names: the key generation path."""
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        tasks = [(params, seed, i) for i in range(params.b)]
        built = parallel_map(_seeded_block, tasks, params.b * params.n * _HASH_CALLS_PER_POSITION)
        pk = KemPublicKey(params, _pack_columns(params, [cols for cols, _ in built]))
        return cls(seed, pk, KemSecretKey(params, [table for _, table in built]))

    @classmethod
    def load(cls, params: KemParams, seed: bytes, public: bytes) -> KemKeyPair:
        """Open a stored key from its seed and its serialized public key.
        The public key must come from an authenticated source (a MAC'd
        store entry, a signed certificate): decapsulation follows its
        columns, and the seed is kept, not checked against them."""
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        pk = kem_parse_pk(params, public)
        inverse = [_inverse_table(params, cols) for cols in _unpack_columns(pk)]
        return cls(seed, pk, KemSecretKey(params, inverse))


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


def _unit_columns(m: int) -> list[int]:
    return [1 << (m - 1 - p) for p in range(m)]


def _inverse_table(params: KemParams, t_columns: Sequence[int]) -> array:
    """Value-to-position table for one block: its unit columns and its T
    columns, n values that fill all n slots of 1..n only if they are a
    permutation of 1..n."""
    table = array("i", [-1]) * (params.n + 1)
    for position, value in enumerate(_unit_columns(params.m) + list(t_columns)):
        table[value] = position
    if -1 in table[1:]:
        raise MalformedEncoding("public key block is not a permutation of 1..n")
    return table


# In-process cost of one key position, in HBS hash calls: a block's
# Fisher-Yates draws (about 3.5 shuffles until the leading block is
# invertible) and its systematic form take 1.3-2.0 us a position, against
# 0.9-1.4 us a hash call, on a 2-core x86 VM with Python 3.11.  That is
# about 2 calls, rounded up to 3 so that every registry row stays on its
# side of the pool threshold: at 2, MEDIUM (16 x 8191 positions,
# 0.16-0.27 s in-process) would drop 32 calls below it.
_HASH_CALLS_PER_POSITION = 3


def _seeded_block(params: KemParams, seed: bytes, i: int) -> tuple[array, array]:
    """Block i of the key a seed names, as (T columns, inverse table);
    each block has its own stream."""
    block_seed = hash_data(HashId.H256, b"kem-block" + seed + struct.pack(">H", i))
    cols = _build_block(params, DeterministicRng(block_seed))
    return array("I", cols), _inverse_table(params, cols)


def _build_block(params: KemParams, rng: Rng) -> list[int]:
    """One block: permute the nonzero column values, bring the leading m
    columns to identity, return the k T columns."""
    m, n = params.m, params.n
    for _ in range(100):
        # Column c takes the value order[c] + 1; only the leading m
        # decide whether this draw is kept.
        order = rng.shuffled(n)
        # The leading values are the rows of A's transpose, so their
        # inverse has the columns of U = A^-1 as its rows.
        u_columns = _invert_gf2([v + 1 for v in order[:m]], m)
        if u_columns is None:
            continue
        # U applied to every m-bit value at once, by linearity: bit p of
        # a value selects column m-1-p.
        table = [0]
        for u_column in reversed(u_columns):
            table += [t ^ u_column for t in table]
        transformed = [table[v + 1] for v in order]
        if transformed[:m] != _unit_columns(m):
            raise AgilecryptError("internal error: systematic form check failed")
        return transformed[m:]
    raise AgilecryptError("internal error: no invertible leading block in 100 draws")


# ---------------------------------------------------------------------------
# KEM operations
# ---------------------------------------------------------------------------

def kem_keygen(params: KemParams, rng: Rng) -> KemKeyPair:
    return KemKeyPair.from_seed(params, rng.random_bytes(32))


def _shared_secret(positions: list[int], ct: bytes) -> bytes:
    material = b"kem-ss" + struct.pack(f">{len(positions)}I", *positions)
    return hash_data(HashId.H256, material + ct)


def kem_encap(pk: KemPublicKey, rng: Rng) -> tuple[bytes, bytes]:
    """Pick one uniform error position per block; the ciphertext encodes
    the corresponding column values, the secret is a digest of the
    positions.  Returns (ciphertext bytes, secret)."""
    params = pk.params
    positions = rng.randints_below(params.n, params.b)
    ct = _encode_ct(params, [pk.syndrome_for_position(i, j) for i, j in enumerate(positions)])
    return ct, _shared_secret(positions, ct)


def kem_decap(sk: KemSecretKey, ct: bytes) -> bytes:
    """The secret of a ciphertext; any bad ciphertext (wrong length, pad
    bits set, a syndrome that maps to no column) raises InvalidCiphertext."""
    positions = [
        sk.position_for_syndrome(i, s) for i, s in enumerate(_decode_ct(sk.params, ct))
    ]
    if -1 in positions:
        raise InvalidCiphertext(f"syndrome {positions.index(-1)} maps to no column")
    return _shared_secret(positions, ct)


# ---------------------------------------------------------------------------
# Canonical encodings
# ---------------------------------------------------------------------------

# Columns are handled as 4-byte big-endian words: bit s of a column value
# is bit s % 8 of byte 3 - s // 8.  Row r of a block is bit m-1-r of each
# of its columns, spelled below as one ASCII digit per column.
_BIT_TO_DIGIT = [bytes(0x30 | ((x >> s) & 1) for x in range(256)) for s in range(8)]
_DIGIT_TO_BIT = [bytes.maketrans(b"01", bytes([0, 1 << s])) for s in range(8)]


def _pack_columns(params: KemParams, blocks: Sequence[Sequence[int]]) -> bytes:
    """The public-key encoding of per-block T columns (k m-bit values each)."""
    m, k = params.m, params.k
    rows = []
    for cols in blocks:
        words = struct.pack(f">{k}I", *cols)
        for s in range(m - 1, -1, -1):
            rows.append(words[3 - s // 8 :: 4].translate(_BIT_TO_DIGIT[s % 8]))
    rows.append(b"0" * (8 * params.pk_bytes - params.pk_bits))
    return int(b"".join(rows), 2).to_bytes(params.pk_bytes, "big")


def _unpack_columns(pk: KemPublicKey) -> list[tuple[int, ...]]:
    """Per-block T columns of a public key; inverse of _pack_columns."""
    m, k = pk.params.m, pk.params.k
    digits = format(int.from_bytes(pk.encoding, "big"), f"0{8 * len(pk.encoding)}b").encode()
    blocks = []
    for i in range(pk.params.b):
        lanes = [0, 0, 0, 0]
        for r, s in enumerate(range(m - 1, -1, -1)):
            row = digits[(i * m + r) * k : (i * m + r + 1) * k]
            lanes[3 - s // 8] |= int.from_bytes(row.translate(_DIGIT_TO_BIT[s % 8]), "big")
        words = bytearray(4 * k)
        for q, lane in enumerate(lanes):
            words[q::4] = lane.to_bytes(k, "big")
        blocks.append(struct.unpack(f">{k}I", words))
    return blocks


def kem_parse_pk(params: KemParams, data: bytes) -> KemPublicKey:
    if len(data) != params.pk_bytes:
        raise MalformedEncoding(
            f"public key length {len(data)}, expected {params.pk_bytes}",
            offset=min(len(data), params.pk_bytes),
        )
    if data[-1] & ((1 << (8 * params.pk_bytes - params.pk_bits)) - 1):
        raise MalformedEncoding("nonzero padding bits", offset=params.pk_bits // 8)
    return KemPublicKey(params=params, encoding=bytes(data))


def _encode_ct(params: KemParams, syndromes: Sequence[int]) -> bytes:
    acc = 0
    for s in syndromes:
        acc = (acc << params.m) | s
    acc <<= 8 * params.ct_bytes - params.ct_bits
    return acc.to_bytes(params.ct_bytes, "big")


def _decode_ct(params: KemParams, data: bytes) -> list[int]:
    """The b syndromes of a ciphertext; inverse of _encode_ct."""
    if len(data) != params.ct_bytes:
        raise InvalidCiphertext(f"ciphertext length {len(data)}, expected {params.ct_bytes}")
    acc = int.from_bytes(data, "big")
    pad = 8 * params.ct_bytes - params.ct_bits
    if acc & ((1 << pad) - 1):
        raise InvalidCiphertext("nonzero padding bits")
    acc >>= pad
    mask = (1 << params.m) - 1
    return [(acc >> ((params.b - 1 - i) * params.m)) & mask for i in range(params.b)]
