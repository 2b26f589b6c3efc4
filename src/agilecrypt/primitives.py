"""Shared cryptographic building blocks.

Hashing, keyed MACs, the TLS-1.2-style P_hash expansion, MAC-then-encrypt
record protection (AES-256-CBC with an explicit per-record IV), and the
randomness contract used by every other module.  All operations are pure
given their inputs; only RNG handles carry state.

Constant-time behaviour beyond tag comparison is a documented non-goal,
though open_record computes one MAC whichever of its checks fails.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import struct
import sys
import threading
from array import array
from dataclasses import dataclass, field
from enum import Enum

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import (
    BadMac,
    BadPadding,
    EntropyError,
    ParameterError,
)

_AES_BLOCK = 16
# The record MAC is HMAC-SHA512: its key and its tag are both 64 bytes.
_MAC_BYTES = 64

# HMAC in prf and the hash-based signatures' chain steps, chain starts and
# tree nodes hash inputs of a few dozen bytes.  At that size the cost is
# per call, and CPython's built-in SHA-2 is cheaper per call than
# OpenSSL's: a whole chain step, the prefix join and the cut included,
# takes 0.38 against 0.55 us with SHA-512 and 0.32 against 0.41 us with
# SHA-256 (2-core x86 VM, Python 3.11).  OpenSSL stays faster on bulk
# input, so hash_data uses hashlib.  The digests are the same either way.
try:  # CPython 3.12+
    from _sha2 import sha256 as _short_sha256, sha512 as _short_sha512
except ImportError:
    try:  # CPython 3.10-3.11
        from _sha256 import sha256 as _short_sha256
        from _sha512 import sha512 as _short_sha512
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256 as _short_sha256, sha512 as _short_sha512


class HashId(Enum):
    """Identifier for the two hash functions compiled into the artifact."""

    H256 = "H256"
    H512 = "H512"

    @property
    def _ctor(self):
        return hashlib.sha256 if self is HashId.H256 else hashlib.sha512


_SHORT_INPUT_HASH = {HashId.H256: _short_sha256, HashId.H512: _short_sha512}


# ---------------------------------------------------------------------------
# Hash / HMAC / PRF
# ---------------------------------------------------------------------------

def hash_data(hash_id: HashId, data: bytes, *more: bytes) -> bytes:
    """Digest of fixed length: 32 bytes for H256, 64 for H512, over
    ``data`` followed by each of ``more``.  The parts are fed to one hash
    object in turn, so a megabyte-scale part is never copied to join it."""
    h = hash_id._ctor(data)
    for part in more:
        h.update(part)
    return h.digest()


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac_states(ctor, key: bytes) -> tuple:
    """HMAC's key schedule for ``key`` (RFC 2104): the inner and outer
    hash states, each past its one key block.  A key longer than the
    block is hashed first; the key is then zero-padded to the block.  An
    HMAC copies both states, so a key used for many HMACs is scheduled
    once, and the copies skip ``hmac.HMAC``'s Python wrapper."""
    block = ctor().block_size
    if len(key) > block:
        key = ctor(key).digest()
    key = key.ljust(block, b"\0")
    return ctor(key.translate(_IPAD)), ctor(key.translate(_OPAD))


def _hmac(states: tuple, data: bytes) -> bytes:
    """HMAC(K, data) = H((K ^ opad) || H((K ^ ipad) || data)), from the
    states _hmac_states made for K."""
    inner, outer = states
    h = inner.copy()
    h.update(data)
    o = outer.copy()
    o.update(h.digest())
    return o.digest()


def prf(hash_id: HashId, secret: bytes, label: str, seed: bytes, out_len: int) -> bytes:
    """TLS-1.2-style P_hash expansion of (secret, label, seed) to out_len bytes.

    Prefix-consistent: the n-byte output is a prefix of any longer output
    for the same inputs.  The HMAC key schedule of ``secret`` is made
    once per call.
    """
    if out_len < 1:
        raise ParameterError("prf output length must be >= 1")
    states = _hmac_states(_SHORT_INPUT_HASH[hash_id], secret)
    label_seed = label.encode("ascii") + seed
    a = label_seed
    blocks = []
    produced = 0
    while produced < out_len:
        a = _hmac(states, a)
        block = _hmac(states, a + label_seed)
        blocks.append(block)
        produced += len(block)
    return b"".join(blocks)[:out_len]


# ---------------------------------------------------------------------------
# Record protection: MAC-then-encrypt AES-256-CBC
# ---------------------------------------------------------------------------

@dataclass
class SymmetricKeys:
    """One direction's record-protection keys: a 32-byte AES key, a
    64-byte HMAC-SHA512 key and a 16-byte IV seed.

    Zeroization is best effort: Python cannot scrub copies made before
    zeroize() is called.
    """

    MATERIAL_BYTES = 112  # the length from_material splits

    enc_key: bytearray
    mac_key: bytearray
    iv_seed: bytearray

    def __post_init__(self) -> None:
        self.enc_key = bytearray(self.enc_key)
        self.mac_key = bytearray(self.mac_key)
        self.iv_seed = bytearray(self.iv_seed)
        if len(self.enc_key) != 32:
            raise ParameterError("enc_key must be 32 bytes")
        if len(self.mac_key) != _MAC_BYTES:
            raise ParameterError("mac_key must be 64 bytes")
        if len(self.iv_seed) != 16:
            raise ParameterError("iv_seed must be 16 bytes")

    @classmethod
    def from_material(cls, material: bytes) -> SymmetricKeys:
        """Split derived key material: enc key [0:32], mac key [32:96],
        iv seed [96:112]."""
        return cls(enc_key=material[:32], mac_key=material[32:96], iv_seed=material[96:112])

    def zeroize(self) -> None:
        for buf in (self.enc_key, self.mac_key, self.iv_seed):
            for i in range(len(buf)):
                buf[i] = 0


def _record_iv(keys: SymmetricKeys, seq: int) -> bytes:
    # Deterministic per-record IV; unpredictable to parties without iv_seed.
    return hmac.new(
        bytes(keys.iv_seed), b"record-iv" + struct.pack(">Q", seq), hashlib.sha256
    ).digest()[:_AES_BLOCK]


def _record_mac(keys: SymmetricKeys, seq: int, header: bytes, plaintext: bytes) -> bytes:
    authed = struct.pack(">Q", seq) + header + struct.pack(">I", len(plaintext)) + plaintext
    return hmac.new(bytes(keys.mac_key), authed, hashlib.sha512).digest()


def seal_record(keys: SymmetricKeys, seq: int, header: bytes, plaintext: bytes) -> bytes:
    """Protect one record: explicit IV || CBC(plaintext || MAC || padding).

    The MAC covers the 64-bit sequence number, the caller's header bytes,
    and the plaintext length, so replay and context confusion are caught
    by open_record.  Size limits are the transport's business: the TLS
    record layer cuts its payloads at the fragment cap before calling
    here, while keystores and envelopes seal payloads far past it.
    ``plaintext`` may be a view; it is copied once, into the body that is
    encrypted.
    """
    mac = _record_mac(keys, seq, header, plaintext)
    # Full CBC padding: pad_len+1 bytes, each holding the value pad_len.
    pad_len = _AES_BLOCK - 1 - ((len(plaintext) + len(mac)) % _AES_BLOCK)
    body = b"".join([plaintext, mac, bytes([pad_len]) * (pad_len + 1)])
    iv = _record_iv(keys, seq)
    enc = Cipher(algorithms.AES(bytes(keys.enc_key)), modes.CBC(iv)).encryptor()
    return iv + enc.update(body) + enc.finalize()


def open_record(keys: SymmetricKeys, seq: int, header: bytes, sealed: bytes) -> bytes:
    """Inverse of seal_record.  Raises BadPadding or BadMac on any tamper;
    never returns a value for modified input."""
    if len(sealed) < _AES_BLOCK * 2 or len(sealed) % _AES_BLOCK != 0:
        raise BadPadding("sealed record has invalid length")
    iv, ct = sealed[:_AES_BLOCK], sealed[_AES_BLOCK:]
    dec = Cipher(algorithms.AES(bytes(keys.enc_key)), modes.CBC(iv)).decryptor()
    body = dec.update(ct) + dec.finalize()
    pad_len = body[-1]
    failure = None
    if pad_len + 1 > len(body):
        failure = BadPadding("padding length exceeds record")
    elif any(b != pad_len for b in body[-(pad_len + 1):]):
        failure = BadPadding("padding bytes inconsistent")
    elif len(body) - pad_len - 1 < _MAC_BYTES:
        failure = BadMac("record too short for MAC")
    # RFC 5246 §6.2.3.2: a record that fails a check still pays for one MAC,
    # computed as if the pad were empty when the padding is bad, so every
    # failure costs what a MAC failure does.
    mac_end = len(body) if isinstance(failure, BadPadding) else len(body) - pad_len - 1
    mac_start = max(mac_end - _MAC_BYTES, 0)
    plaintext, tag = body[:mac_start], body[mac_start:mac_end]
    mac_matches = hmac.compare_digest(tag, _record_mac(keys, seq, header, plaintext))
    if failure is not None:
        raise failure
    if not mac_matches:
        raise BadMac("record MAC mismatch")
    return plaintext


# ---------------------------------------------------------------------------
# Randomness contract
# ---------------------------------------------------------------------------

class Rng:
    """Source of random bytes.  Subclasses must be safe for concurrent use."""

    def random_bytes(self, n: int) -> bytes:
        raise NotImplementedError

    def randints_below(self, bound: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, bound), by rejection sampling.

        Each try is one big-endian draw, as many bytes wide as bound
        needs; a draw at or past the largest multiple of bound that fits
        the width is used up and drawn again.  The draws are fetched in
        bulk, one per integer still owed, so the stream is read exactly
        as far as drawing the integers one at a time reads it.
        """
        if bound < 1:
            raise ParameterError("bound must be >= 1")
        if count < 0:
            raise ParameterError("count must be >= 0")
        if bound == 1:
            return [0] * count
        width = (bound.bit_length() + 7) // 8
        limit = 256**width - 256**width % bound
        values: list[int] = []
        while len(values) < count:
            data = self.random_bytes((count - len(values)) * width)
            draws = (int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width))
            values.extend(v % bound for v in draws if v < limit)
        return values

    def shuffled(self, n: int) -> list[int]:
        """Uniform permutation of range(n), Fisher-Yates.

        Position i, from n-1 down to 1, swaps with a uniform j <= i, drawn
        as randints_below draws: one big-endian draw per try, as wide as
        i + 1 needs, 3 bytes while i >= 65535, 2 while i >= 255, then 1.
        The draws are fetched in bulk, one per position left at the
        current width, so the walk reads no byte past its last draw.
        """
        limits = _shuffle_limits(n)
        perm = list(range(n))
        i = n - 1
        while i > 0:
            width = ((i + 1).bit_length() + 7) // 8
            lowest = max(1, 256 ** (width - 1) - 1)
            # A rejected draw is used up; its position draws again from
            # the next fetch.
            for v in _big_endian_words(self.random_bytes((i - lowest + 1) * width), width):
                if v < limits[i]:
                    j = v % (i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                    i -= 1
        return perm


@functools.lru_cache(maxsize=4)
def _shuffle_limits(n: int) -> tuple[int, ...]:
    """Entry i is where Rng.shuffled stops accepting draws for position i:
    the largest multiple of i + 1 that fits the draw's width.  A KEM key
    shuffles one n many times, so the table is kept for the last few n."""
    limits, width = [0], 1  # position 0 draws nothing
    while len(limits) < n:
        # Bounds below 256**width need at most width bytes.
        top = 256**width
        limits.extend(top - top % bound for bound in range(len(limits) + 1, min(n, top - 1) + 1))
        width += 1
    return tuple(limits[:n])


class SystemRng(Rng):
    """Operating-system entropy.  Failure is loud, never silent zeros."""

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ParameterError("byte count must be >= 0")
        try:
            out = os.urandom(n)
        except (OSError, NotImplementedError) as exc:
            raise EntropyError(f"system entropy source failed: {exc}") from exc
        if len(out) != n:
            raise EntropyError("system entropy source returned short read")
        return out


@dataclass
class DeterministicRng(Rng):
    """Hash-counter generator for reproducible tests.

    Fixed seed reproduces a fixed stream regardless of read chunking.
    Internally locked so shared handles stay consistent across threads.
    """

    seed: bytes
    _counter: int = field(default=0, init=False)
    _buffer: bytes = field(default=b"", init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ParameterError("byte count must be >= 0")
        with self._lock:
            if len(self._buffer) < n:
                self._buffer += self._blocks(-((len(self._buffer) - n) // 32))
            out, self._buffer = self._buffer[:n], self._buffer[n:]
            return out

    def _blocks(self, count: int) -> bytes:
        """The next count blocks of the stream; the caller holds the lock."""
        start, self._counter = self._counter, self._counter + count
        return b"".join(
            hashlib.sha256(b"drbg" + struct.pack(">Q", c) + self.seed).digest()
            for c in range(start, start + count)
        )


# An array type code per word size; narrower draws are zero-padded.
_WORD_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _big_endian_words(data: bytes, width: int) -> list[int]:
    """data as consecutive big-endian width-byte integers, dropping a
    trailing partial word."""
    count = len(data) // width
    size = min(s for s in _WORD_TYPECODES if s >= width)
    padded = bytearray(count * size)
    for b in range(width):
        padded[size - width + b :: size] = data[b : count * width : width]
    words = array(_WORD_TYPECODES[size], padded)
    if sys.byteorder == "little":
        words.byteswap()
    return words.tolist()


def make_rng(seed: str | None) -> Rng:
    """Deterministic stream for reproducible fixtures and reports,
    operating-system entropy otherwise."""
    if seed is not None:
        try:
            return DeterministicRng(seed.encode("utf-8"))
        except UnicodeEncodeError:
            # A command line that is not valid UTF-8 decodes to lone surrogates.
            raise ParameterError("seed is not valid UTF-8") from None
    return SystemRng()
