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
from .primitives import HashId, Rng, hash_data

# Chain steps and chain starts hash inputs of a few dozen bytes, about 4M
# times for a HIGH tree and about 600 times for a MEDIUM signature and its
# verification.  At that size the cost is per call, and CPython's built-in
# SHA-2 is cheaper per call than OpenSSL's: a whole chain step, the
# prefix join and the cut included, takes 0.38 against 0.55 us with
# SHA-512 and 0.32 against 0.41 us with SHA-256 (2-core x86 VM, Python
# 3.11).  OpenSSL stays faster on bulk input, so message digests, leaf
# digests and tree nodes keep using hash_data.  The digests are the same
# either way.  With the hash that cheap, Python overhead per chain shows:
# the loops read every constant from the parameter set's _ChainPlan,
# which each public call looks up once, and make no lookup or property
# call per chain or step (a MEDIUM signature of 16 KiB took 0.19 ms with
# them and 0.15 ms without, on the same VM).
try:  # CPython 3.12+
    from _sha2 import sha256 as _short_sha256, sha512 as _short_sha512
except ImportError:
    try:  # CPython 3.10-3.11
        from _sha256 import sha256 as _short_sha256
        from _sha512 import sha512 as _short_sha512
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256 as _short_sha256, sha512 as _short_sha512

_SHORT_INPUT_HASH = {HashId.H256: _short_sha256, HashId.H512: _short_sha512}

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
        kp = cls(seed=seed, root=b"", params=params)
        if root is None:
            kp._levels = _build_tree(params, seed)
            kp.root = kp._levels[params.h][0]
        else:
            if len(root) != params.n_h:
                raise ParameterError("root length does not match params")
            kp.root = root
        return kp

    def _ensure_tree(self) -> None:
        """Build the Merkle tree on first use.  A root supplied to
        from_seed must be the one the seed builds; otherwise no signature
        made with this key could verify, so none is made."""
        if self._levels is None:
            levels = _build_tree(self.params, self.seed)
            if levels[self.params.h][0] != self.root:
                raise ParameterError("seed does not rebuild the stored root")
            self._levels = levels


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


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _prf_key(plan: _ChainPlan, seed: bytes) -> tuple:
    """The HMAC inner and outer hash states for ``seed``, each past its
    one key block; _chain_starts copies them per HMAC.  The 32-byte seed
    is shorter than any SHA-2 block, so the HMAC key is the zero-padded
    seed (RFC 2104).  Copying the states skips ``hmac.HMAC``'s Python
    wrapper, which takes 8-10% off a 256-leaf ``_leaf_range`` (2-core x86
    VM, Python 3.11)."""
    key = seed.ljust(plan.ctor().block_size, b"\0")
    return plan.ctor(key.translate(_IPAD)), plan.ctor(key.translate(_OPAD))


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
    return hash_data(plan.hash_id, b"node" + struct.pack(">H", level) + left + right)[: plan.n]


# Leaves per task when the tree build is spread over worker processes.
_LEAVES_PER_TASK = 256


def _leaf_range(params: HbsParams, seed: bytes, start: int, stop: int) -> list[bytes]:
    """Leaf digests ``start`` to ``stop - 1``: every chain run to its end."""
    plan = _chain_plan(params)
    key = _prf_key(plan, seed)
    chains = range(len(plan.prefixes))
    leaves = []
    for leaf in range(start, stop):
        ends = _advance(plan, _chain_starts(plan, key, leaf, chains), repeat(0), repeat(None))
        leaves.append(_leaf_digest(plan, leaf, ends))
    return leaves


def _build_tree(params: HbsParams, seed: bytes) -> list[list[bytes]]:
    tasks = [
        (params, seed, start, min(start + _LEAVES_PER_TASK, params.leaf_count))
        for start in range(0, params.leaf_count, _LEAVES_PER_TASK)
    ]
    # A chain costs about w hash calls: w - 1 steps and its start.
    hash_calls = params.leaf_count * params.l * params.w
    leaves = [leaf for part in parallel_map(_leaf_range, tasks, hash_calls) for leaf in part]
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
    return levels


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
    randomizer[32] || chain values[l * n_h] || auth path[h * n_h]."""
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
    key = _prf_key(plan, kp.seed)
    starts = _chain_starts(plan, key, leaf_index, range(len(digits)))
    wots = _advance(plan, starts, repeat(0), digits)
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
