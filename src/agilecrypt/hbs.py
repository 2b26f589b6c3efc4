"""Hash-based signatures: one-time Winternitz chains under a Merkle tree.

A key signs at most 2^h messages.  STATEFUL mode walks a leaf counter and
must never reuse an index; persisting the counter before a signature is
released is the caller's job (see keystore reservations).  STATELESS mode
picks the leaf pseudorandomly from the randomized message digest; at these
desk-scale heights leaf collisions are probable, so the mode is a
functional emulation of stateless signing, not a security claim.

A signature exists only as its bytes: hbs_sign returns them and
hbs_verify reads them in place, rejecting any other length.  All
integers in canonical encodings are big-endian with fixed widths.

Building a key's Merkle tree runs every chain of every leaf.  A key
keeps that build's chain table, and signs by slicing it instead of
running its leaf's chains again, when the table takes at most 16 MiB
(_TABLE_CAP).  The table is l * w * n_h bytes per leaf: 8,960 for the
LOW and MEDIUM rows, so 2.2 MiB for LOW's 256 leaves and 8.75 MiB for
MEDIUM's 1024.  HIGH's would take 134 MiB (34,304 bytes for each of
4096 leaves) and the largest parameter sets several GB, too much to hold
per open key, so those keys keep no table and derive each signature's
chain values from the seed.  The table is secret key material, as the
seed is: every one-time key is in it.  It is held as long as the key
pair is, and is never written out.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from ._parallel import parallel_map
from .codec import Reader, uint
from .errors import KeyExhausted, MalformedEncoding, ParameterError
from .primitives import _SHORT_INPUT_HASH, HashId, Rng, _hmac_states, hash_data

# Chain steps, chain starts and tree nodes hash inputs of at most 70
# bytes, about 4M times for a HIGH tree and about 600 times for a MEDIUM
# signature and its verification, so they use the short-input hash (see
# primitives); message digests and leaf digests (568 bytes or more) keep
# using hash_data.  With the hash that cheap, Python overhead per chain
# shows: the loops read every constant from the parameter set's
# _ChainPlan, which each public call looks up once, and make no lookup
# or property call per chain or step (a MEDIUM signature of 16 KiB,
# derived from the seed, took 0.19 ms with them and 0.15 ms without, on
# a 2-core x86 VM with Python 3.11).

__all__ = [
    "HbsMode",
    "HbsParams",
    "HbsKeyPair",
    "hbs_keygen",
    "hbs_sign",
    "hbs_sign_with_leaf",
    "hbs_verify",
    "hbs_export_public",
    "hbs_parse_public",
]


class HbsMode(Enum):
    STATEFUL = "S"
    STATELESS = "SL"


@dataclass(frozen=True)
class HbsParams:
    """Scheme parameters.  n_h is the per-node digest width in bytes, w the
    chain length base (power of two), h the tree height."""

    n_h: int
    w: int
    h: int
    mode: HbsMode

    def __post_init__(self) -> None:
        if self.n_h not in (16, 32):
            raise ParameterError("n_h must be 16 or 32")
        if self.w < 2 or self.w > 256 or self.w & (self.w - 1):
            raise ParameterError("w must be a power of two in [2, 256]")
        if not 4 <= self.h <= 16:
            raise ParameterError("h must be in [4, 16]")
        if not isinstance(self.mode, HbsMode):
            raise ParameterError("mode must be an HbsMode")

    @property
    def hash_id(self) -> HashId:
        return HashId.H256 if self.n_h == 16 else HashId.H512

    @property
    def log2w(self) -> int:
        return self.w.bit_length() - 1

    @property
    def l1(self) -> int:
        return -(-8 * self.n_h // self.log2w)

    @property
    def l2(self) -> int:
        # l2 = floor(log_w(l1*(w-1))) + 1, computed in exact integers.
        x = self.l1 * (self.w - 1)
        e, v = 0, 1
        while v * self.w <= x:
            v *= self.w
            e += 1
        return e + 1

    @property
    def l(self) -> int:
        return self.l1 + self.l2

    @property
    def leaf_count(self) -> int:
        return 1 << self.h

    @property
    def signature_size(self) -> int:
        return 4 + 32 + self.l * self.n_h + self.h * self.n_h

    @property
    def algorithm_id(self) -> str:
        return f"SPX-TOY-{self.n_h}-{self.w}-{self.h}-{self.mode.value}"

    @classmethod
    def from_algorithm_id(cls, identifier: str) -> HbsParams:
        parts = identifier.split("-")
        if len(parts) != 6 or parts[0] != "SPX" or parts[1] != "TOY":
            raise ParameterError(f"not a hash-based-signature identifier: {identifier!r}")
        try:
            n_h, w, h = int(parts[2]), int(parts[3]), int(parts[4])
            mode = HbsMode(parts[5])
        except ValueError as exc:
            raise ParameterError(f"bad identifier {identifier!r}: {exc}") from exc
        params = cls(n_h=n_h, w=w, h=h, mode=mode)
        if params.algorithm_id != identifier:
            raise ParameterError(f"{identifier!r} is not spelled {params.algorithm_id!r}")
        return params


@dataclass
class HbsKeyPair:
    seed: bytes
    root: bytes
    params: HbsParams
    next_leaf: int = 0
    _levels: list[list[bytes]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # The chain table _build_tree returns beside _levels; None for a key
    # over _TABLE_CAP, and until the tree is built.
    _table: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_seed(
        cls,
        params: HbsParams,
        seed: bytes,
        root: bytes | None = None,
    ) -> HbsKeyPair:
        """Rebuild a key pair from its master seed.  If root is supplied
        (e.g. from an authenticated store) the tree build is deferred to
        the first signing call."""
        if len(seed) != 32:
            raise ParameterError("seed must be 32 bytes")
        if root is not None and len(root) != params.n_h:
            raise ParameterError("root length does not match params")
        kp = cls(seed=seed, root=root, params=params)
        if root is None:
            kp._ensure_tree()
        return kp

    def _ensure_tree(self) -> None:
        """Build the Merkle tree on first use, and set the root from it
        when none was supplied.  A root supplied to from_seed must be the
        one the seed builds; otherwise no signature made with this key
        could verify, so none is made."""
        if self._levels is None:
            levels, table = _build_tree(self.params, self.seed)
            built = levels[self.params.h][0]
            if self.root is None:
                self.root = built
            elif built != self.root:
                raise ParameterError("seed does not rebuild the stored root")
            self._levels, self._table = levels, table


# ---------------------------------------------------------------------------
# Chain and tree internals
# ---------------------------------------------------------------------------

class _ChainPlan(NamedTuple):
    """A parameter set's chain constants, computed once by _chain_plan.
    The internals below read only these, so a signature, a verification
    or a run of leaves looks the plan up once, not per chain or step."""

    hash_id: HashId
    ctor: Callable  # the short-input hash constructor
    n: int  # n_h
    l1: int
    l2: int
    log2w: int
    mask: int  # w - 1, the largest digit
    # prefixes[j][s] is b"ch" || u16 j || u16 s, the input head of step s
    # of chain j.
    prefixes: tuple[tuple[bytes, ...], ...]


@functools.lru_cache(maxsize=16)
def _chain_plan(params: HbsParams) -> _ChainPlan:
    return _ChainPlan(
        params.hash_id,
        _SHORT_INPUT_HASH[params.hash_id],
        params.n_h,
        params.l1,
        params.l2,
        params.log2w,
        params.w - 1,
        tuple(
            tuple(b"ch" + struct.pack(">HH", chain, s) for s in range(params.w - 1))
            for chain in range(params.l)
        ),
    )


def _chain_starts(plan: _ChainPlan, key: tuple, leaf: int, chains: Iterable[int]) -> list[bytes]:
    """``prf(hash_id, seed, "wots-sk", leaf || chain, n_h)`` for each of
    ``chains``.  n_h never exceeds one digest, so the P_hash expansion is
    its first block: A(1) = HMAC(seed, label_seed), then
    HMAC(seed, A(1) || label_seed), where
    HMAC(seed, data) = H((K ^ opad) || H((K ^ ipad) || data))."""
    inner, outer = key
    n = plan.n
    head = b"wots-sk" + struct.pack(">I", leaf)
    starts = []
    for chain in chains:
        label_seed = head + struct.pack(">H", chain)
        h = inner.copy()
        h.update(label_seed)
        o = outer.copy()
        o.update(h.digest())
        h = inner.copy()
        h.update(o.digest() + label_seed)
        o = outer.copy()
        o.update(h.digest())
        starts.append(o.digest()[:n])
    return starts


def _advance(
    plan: _ChainPlan, values: Iterable[bytes], starts: Iterable[int], stops: Iterable[int | None]
) -> list[bytes]:
    """Each chain j's value in ``values`` run through steps ``starts[j]``
    to ``stops[j] - 1``, or to the chain's end where the stop is None."""
    ctor, n = plan.ctor, plan.n
    out = []
    for value, row, start, stop in zip(values, plan.prefixes, starts, stops):
        for prefix in row[start:stop]:
            value = ctor(prefix + value).digest()[:n]
        out.append(value)
    return out


def _leaf_digest(plan: _ChainPlan, leaf: int, chain_ends: list[bytes]) -> bytes:
    return hash_data(plan.hash_id, b"leaf" + struct.pack(">I", leaf) + b"".join(chain_ends))[
        : plan.n
    ]


def _parent(plan: _ChainPlan, level: int, left: bytes, right: bytes) -> bytes:
    return plan.ctor(b"node" + struct.pack(">H", level) + left + right).digest()[: plan.n]


# Leaves per task when the tree build is spread over worker processes.
_LEAVES_PER_TASK = 256

# A key keeps the chain table of its tree build, every value of every
# chain of every leaf, while the table takes at most this many bytes.
# It takes 2^h * l * w * n_h bytes: 2,293,760 for the LOW row
# (SPX-TOY-16-16-8-S) and 9,175,040 for MEDIUM (SPX-TOY-16-16-10-S).
# HIGH's would take 140,509,184 and the largest sets HbsParams allows
# several GB, held for as long as the key is, so those keys keep none
# and derive each signature's chain values from the seed.
_TABLE_CAP = 16 << 20


def _table_size(params: HbsParams) -> int:
    """Bytes of a key's chain table: w values of n_h bytes for each of
    the l chains of each of the 2^h leaves."""
    return params.leaf_count * params.l * params.w * params.n_h


def _leaf_range(
    params: HbsParams, seed: bytes, start: int, stop: int
) -> tuple[list[bytes], bytes | None]:
    """Leaf digests ``start`` to ``stop - 1``, every chain run to its
    end, and their chain table, or None for a key over _TABLE_CAP.  The
    table holds each chain's w values, its start and then its value
    after each step, laid out by leaf, then chain, then step; the last
    value of each chain is its end, which the leaf digest reads."""
    plan = _chain_plan(params)
    key = _hmac_states(plan.ctor, seed)
    chains = range(len(plan.prefixes))
    leaves = []
    if _table_size(params) > _TABLE_CAP:
        for leaf in range(start, stop):
            ends = _advance(plan, _chain_starts(plan, key, leaf, chains), repeat(0), repeat(None))
            leaves.append(_leaf_digest(plan, leaf, ends))
        return leaves, None
    ctor, n = plan.ctor, plan.n
    table = bytearray()
    for leaf in range(start, stop):
        ends = []
        for value, row in zip(_chain_starts(plan, key, leaf, chains), plan.prefixes):
            table += value
            for prefix in row:
                value = ctor(prefix + value).digest()[:n]
                table += value
            ends.append(value)
        leaves.append(_leaf_digest(plan, leaf, ends))
    return leaves, bytes(table)


def _build_tree(params: HbsParams, seed: bytes) -> tuple[list[list[bytes]], bytes | None]:
    """The tree's levels, leaves first and the root last, and the chain
    table of all its leaves (None for a key over _TABLE_CAP)."""
    tasks = [
        (params, seed, start, min(start + _LEAVES_PER_TASK, params.leaf_count))
        for start in range(0, params.leaf_count, _LEAVES_PER_TASK)
    ]
    # A chain costs about w hash calls: w - 1 steps and its start.
    hash_calls = params.leaf_count * params.l * params.w
    parts = parallel_map(_leaf_range, tasks, hash_calls)
    leaves = [leaf for part, _ in parts for leaf in part]
    table = None if parts[0][1] is None else b"".join(part for _, part in parts)
    plan = _chain_plan(params)
    levels = [leaves]
    for level in range(1, params.h + 1):
        below = levels[-1]
        levels.append(
            [
                _parent(plan, level, below[2 * i], below[2 * i + 1])
                for i in range(len(below) // 2)
            ]
        )
    return levels, table


def _message_digits(
    plan: _ChainPlan, randomizer: bytes, root: bytes, msg: bytes
) -> tuple[list[int], bytes]:
    """Base-w message digits plus checksum digits, and the raw digest the
    stateless leaf index is drawn from."""
    n, l1, l2, log2w, mask = plan.n, plan.l1, plan.l2, plan.log2w, plan.mask
    full = hash_data(plan.hash_id, randomizer, root, msg)
    value = int.from_bytes(full[:n], "big") << (l1 * log2w - 8 * n)
    digits = [(value >> shift) & mask for shift in range((l1 - 1) * log2w, -1, -log2w)]
    checksum = l1 * mask - sum(digits)
    digits.extend((checksum >> shift) & mask for shift in range((l2 - 1) * log2w, -1, -log2w))
    return digits, full


def _stateless_leaf(params: HbsParams, digest: bytes) -> int:
    return int.from_bytes(digest[:2], "big") >> (16 - params.h)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def hbs_keygen(params: HbsParams, rng: Rng) -> HbsKeyPair:
    """Fresh key pair; derives all 2^h one-time keys from a 32-byte seed
    and publishes only the Merkle root."""
    return HbsKeyPair.from_seed(params, rng.random_bytes(32))


def hbs_sign_with_leaf(kp: HbsKeyPair, leaf_index: int, msg: bytes, rng: Rng) -> bytes:
    """Sign using an explicitly chosen leaf; index-reuse discipline is
    then entirely the caller's responsibility.  hbs_sign signs through
    here, and so does the EasySigner facade: it points the key's
    next_leaf into its keystore reservation and calls hbs_sign.

    The signature is params.signature_size bytes: leaf u32 ||
    randomizer[32] || chain values[l * n_h] || auth path[h * n_h].  A
    key that keeps its chain table slices the chain values from it;
    any other derives them from the seed."""
    params = kp.params
    if not 0 <= leaf_index < params.leaf_count:
        raise ParameterError("leaf index out of range")
    kp._ensure_tree()
    plan = _chain_plan(params)
    randomizer = rng.random_bytes(32)
    digits, digest = _message_digits(plan, randomizer, kp.root, msg)
    if params.mode is HbsMode.STATELESS:
        # Stateless leaf choice and digits come from the same digest, so
        # the verifier can recompute both.
        leaf_index = _stateless_leaf(params, digest)
    table = kp._table
    if table is None:
        key = _hmac_states(plan.ctor, kp.seed)
        starts = _chain_starts(plan, key, leaf_index, range(len(digits)))
        wots = _advance(plan, starts, repeat(0), digits)
    else:
        # Chain j's value after digits[j] steps, from the leaf's table.
        n = plan.n
        stride = (plan.mask + 1) * n
        at = leaf_index * len(digits) * stride
        wots = [table[(o := at + j * stride + d * n) : o + n] for j, d in enumerate(digits)]
    auth = [kp._levels[t][(leaf_index >> t) ^ 1] for t in range(params.h)]
    return b"".join([uint(leaf_index, 4), randomizer, *wots, *auth])


def hbs_sign(kp: HbsKeyPair, msg: bytes, rng: Rng) -> bytes:
    """Sign msg.  STATEFUL keys consume the next leaf and advance the
    counter before the signature is released; STATELESS keys derive the
    leaf from the randomized digest."""
    params = kp.params
    if params.mode is HbsMode.STATEFUL:
        if kp.next_leaf >= params.leaf_count:
            raise KeyExhausted(
                f"all {params.leaf_count} one-time leaves of this key are spent"
            )
        leaf = kp.next_leaf
        kp.next_leaf = leaf + 1
        return hbs_sign_with_leaf(kp, leaf, msg, rng)
    return hbs_sign_with_leaf(kp, 0, msg, rng)


def hbs_verify(root: bytes, params: HbsParams, msg: bytes, sig: bytes) -> bool:
    """Read the signature bytes in place, complete the chains, fold the
    authentication path, compare roots.  A signature of any length but
    params.signature_size, a leaf index past 2^h, or a stateless leaf
    the digest does not pick rejects; no exception escapes."""
    n = params.n_h
    if len(sig) != params.signature_size or len(root) != n:
        return False
    leaf = int.from_bytes(sig[:4], "big")
    if leaf >= params.leaf_count:
        return False
    plan = _chain_plan(params)
    digits, digest = _message_digits(plan, sig[4:36], root, msg)
    if params.mode is HbsMode.STATELESS and leaf != _stateless_leaf(params, digest):
        return False
    path = 36 + len(digits) * n
    values = [sig[i : i + n] for i in range(36, path, n)]
    node = _leaf_digest(plan, leaf, _advance(plan, values, digits, repeat(None)))
    for t in range(params.h):
        sibling = sig[path + t * n : path + (t + 1) * n]
        if (leaf >> t) & 1:
            node = _parent(plan, t + 1, sibling, node)
        else:
            node = _parent(plan, t + 1, node, sibling)
    return node == root


# ---------------------------------------------------------------------------
# Canonical encodings
# ---------------------------------------------------------------------------

def hbs_export_public(kp: HbsKeyPair) -> bytes:
    """n_h u8 || w u16 || h u8 || mode u8 || root[n_h]."""
    p = kp.params
    mode_byte = 0 if p.mode is HbsMode.STATEFUL else 1
    return uint(p.n_h, 1) + uint(p.w, 2) + uint(p.h, 1) + uint(mode_byte, 1) + kp.root


def hbs_parse_public(data: bytes) -> tuple[HbsParams, bytes]:
    r = Reader(data)
    n_h, w, h, mode_byte = r.u8(), r.u16(), r.u8(), r.u8()
    if mode_byte not in (0, 1):
        raise MalformedEncoding("unknown mode byte", offset=4)
    try:
        params = HbsParams(
            n_h=n_h, w=w, h=h, mode=HbsMode.STATEFUL if mode_byte == 0 else HbsMode.STATELESS
        )
    except ParameterError as exc:
        raise MalformedEncoding(f"invalid parameters: {exc}", offset=0) from exc
    root = r.take(n_h)
    r.expect_end()
    return params, root
