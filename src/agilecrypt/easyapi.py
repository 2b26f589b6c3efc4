"""Security-level templates and the two-call facade.

A TemplateRegistry is a versioned data file mapping (kind, level) to a
concrete algorithm identifier.  Registries are deliberately swappable:
pointing a peer at a different registry file changes what a level means,
and minitls refuses that drift at hello time.

All facade outputs are self-describing blobs: algorithm identifier and
registry version ride in front of the raw payload, so a decoder can spot
a template divergence offline without a live negotiation.

Blob framing (documented bit-exactly in docs/formats.md):

    u8   length of algorithm identifier
    ...  algorithm identifier, ASCII
    u32  registry version, big-endian
    ...  payload
"""

from __future__ import annotations

import datetime
import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from importlib import resources

from . import cbkem, hbs
from .codec import Reader, decode_text, encode_text, uint, vec8
from .errors import (
    AlgorithmMismatch,
    BadMac,
    BadPadding,
    MalformedEncoding,
    ParameterError,
    StoreExists,
)
from .keystore import (
    EntryState,
    Keystore,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
    keystore_open,
)
from .primitives import HashId, Rng, SymmetricKeys, SystemRng, hash_data, open_record, prf, seal_record

__all__ = [
    "SecurityLevel",
    "TemplateKind",
    "TemplateRegistry",
    "AlgorithmParameters",
    "EasySigner",
    "EasyEncrypter",
    "builtin_registry",
    "load_registry",
    "parse_registry_text",
    "template_resolve",
    "easysigner_verify",
    "frame_blob",
    "parse_blob",
    "family_params",
    "kem_public_key",
    "RECIPIENT_KEY_MEMO",
    "recipient_key",
    "sender_key",
    "hybrid_encap",
    "hybrid_open",
]


class SecurityLevel(IntEnum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def from_name(cls, name: str) -> SecurityLevel:
        try:
            return cls[name.upper()]
        except KeyError:
            raise ParameterError(f"unknown security level {name!r}") from None


class TemplateKind(Enum):
    SIGNATURE = "SIGNATURE"
    ENCRYPTION = "ENCRYPTION"


@dataclass(frozen=True)
class AlgorithmParameters:
    """A resolved template entry: the identifier, its typed parameter
    block, and the registry version it came from."""

    algorithm_id: str
    params: hbs.HbsParams | cbkem.KemParams
    registry_version: int


# ---------------------------------------------------------------------------
# Template registry
# ---------------------------------------------------------------------------

def family_params(kind: TemplateKind, algorithm_id: str):
    """The typed parameters ``algorithm_id`` names: the one family check.
    An identifier of the other family, an unknown one or one in another
    spelling raises AlgorithmMismatch, whose text ends with the reason."""
    family = hbs.HbsParams if kind is TemplateKind.SIGNATURE else cbkem.KemParams
    try:
        return family.from_algorithm_id(algorithm_id)
    except ParameterError as exc:
        raise AlgorithmMismatch(
            f"{algorithm_id!r} is no {kind.value.lower()} algorithm: {exc}"
        ) from exc


@dataclass(frozen=True)
class TemplateRegistry:
    version: int
    issued: datetime.date
    entries: dict[tuple[TemplateKind, SecurityLevel], str]

    def __post_init__(self) -> None:
        if not 0 <= self.version <= 0xFFFFFFFF:
            raise ParameterError(f"registry version {self.version} is outside u32")
        for kind in TemplateKind:
            for level in SecurityLevel:
                if (kind, level) not in self.entries:
                    raise ParameterError(f"registry misses ({kind.value}, {level.name})")
        if len(self.entries) != 6:
            raise ParameterError("registry has extraneous entries")
        for (kind, _level), algorithm_id in self.entries.items():
            family_params(kind, algorithm_id)  # raises if of the wrong family

    def canonical_text(self) -> str:
        lines = [f"version {self.version}", f"issued {self.issued.isoformat()}"]
        for kind in TemplateKind:
            for level in SecurityLevel:
                lines.append(f"{kind.value} {level.name} {self.entries[(kind, level)]}")
        return "\n".join(lines) + "\n"

    def digest(self) -> bytes:
        return hash_data(HashId.H256, self.canonical_text().encode("ascii"))


def parse_registry_text(text: str) -> TemplateRegistry:
    """Parse the registry file format.  Blank lines and `#` comments are
    tolerated on input; canonical_text never emits them.  The version and
    the date must be spelled as canonical_text spells them."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(lines) != 8:
        raise MalformedEncoding(f"registry needs 8 content lines, found {len(lines)}")
    (vno, vline), (ino, iline) = lines[0], lines[1]
    if not vline.startswith("version "):
        raise MalformedEncoding(f"line {vno}: expected `version N`")
    if not iline.startswith("issued "):
        raise MalformedEncoding(f"line {ino}: expected `issued YYYY-MM-DD`")
    vtext, itext = vline.split(" ", 1)[1], iline.split(" ", 1)[1]
    try:
        version = int(vtext)
        issued = datetime.date.fromisoformat(itext)
    except ValueError as exc:
        raise MalformedEncoding(f"bad header value: {exc}") from exc
    # Only the spelling canonical_text writes: int() also reads `1_0`,
    # `+1` and `01`, and fromisoformat reads `20260105` on Python 3.11+.
    if str(version) != vtext:
        raise MalformedEncoding(f"version {vtext!r} is not spelled {str(version)!r}")
    if issued.isoformat() != itext:
        raise MalformedEncoding(f"issued {itext!r} is not spelled {issued.isoformat()!r}")
    entries: dict[tuple[TemplateKind, SecurityLevel], str] = {}
    for lineno, line in lines[2:]:
        parts = line.split(" ")
        if len(parts) != 3:
            raise MalformedEncoding(f"line {lineno}: mapping line needs `KIND LEVEL ALGORITHM`")
        try:
            kind = TemplateKind(parts[0])
            level = SecurityLevel[parts[1]]
        except (ValueError, KeyError) as exc:
            raise MalformedEncoding(f"line {lineno}: bad kind/level: {exc}") from exc
        if (kind, level) in entries:
            raise MalformedEncoding(f"line {lineno}: duplicate entry {parts[0]} {parts[1]}")
        entries[(kind, level)] = parts[2]
    try:
        return TemplateRegistry(version=version, issued=issued, entries=entries)
    except (ParameterError, AlgorithmMismatch) as exc:
        raise MalformedEncoding(str(exc)) from exc


def load_registry(path: str) -> TemplateRegistry:
    """The registry file at ``path``; a byte outside ASCII raises
    MalformedEncoding."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_registry_text(decode_text(data, "ascii", len(data)))


def builtin_registry(version: int) -> TemplateRegistry:
    """The shipped registries: v1, and the deliberately divergent v2
    whose SIGNATURE HIGH row moved to a taller tree."""
    if version not in (1, 2):
        raise ParameterError("builtin registries are versions 1 and 2")
    text = (
        resources.files("agilecrypt")
        .joinpath(f"data/registry_v{version}.txt")
        .read_text(encoding="ascii")
    )
    return parse_registry_text(text)


def template_resolve(
    reg: TemplateRegistry, kind: TemplateKind, level: SecurityLevel
) -> AlgorithmParameters:
    algorithm_id = reg.entries[(kind, level)]
    return AlgorithmParameters(
        algorithm_id=algorithm_id,
        params=family_params(kind, algorithm_id),
        registry_version=reg.version,
    )


# ---------------------------------------------------------------------------
# Blob framing
# ---------------------------------------------------------------------------

def frame_blob(algorithm_id: str, registry_version: int, payload: bytes) -> bytes:
    ident = encode_text(algorithm_id, "ascii")
    if not 1 <= len(ident) <= 255:
        raise ParameterError("algorithm identifier length must be 1..255")
    return vec8(ident) + uint(registry_version, 4) + payload


def parse_blob(data: bytes) -> tuple[str, int, bytes]:
    r = Reader(data)
    ident = decode_text(r.vec8(), "ascii", r.offset)
    if not ident:
        raise MalformedEncoding("empty algorithm identifier", offset=0)
    version = r.u32()
    return ident, version, data[r.offset :]


def kem_public_key(algorithm_id: str, raw: bytes) -> cbkem.KemPublicKey:
    """The KEM public key ``raw`` holds for ``algorithm_id``; bad key bytes
    raise MalformedEncoding."""
    return cbkem.kem_parse_pk(family_params(TemplateKind.ENCRYPTION, algorithm_id), raw)


# Recipient keys recipient_key remembers.  An entry holds the blob and the
# parsed key's copy of its key bytes: about 21 MB for eight HIGH keys.
RECIPIENT_KEY_MEMO = 8


def recipient_key(blob: bytes) -> tuple[str, int, cbkem.KemPublicKey]:
    """Read a framed KEM public key: its identifier, registry version and
    key, as kem_public_key reads them, with offsets counted in ``blob``.
    The result of each of the last RECIPIENT_KEY_MEMO (8) distinct blobs
    is remembered, keyed on the exact bytes, so a repeat call does no
    copy and no parse; a refusal is raised again on every call."""
    return _recipient_key(bytes(blob))


@functools.lru_cache(maxsize=RECIPIENT_KEY_MEMO)
def _recipient_key(blob: bytes) -> tuple[str, int, cbkem.KemPublicKey]:
    ident, version, raw = parse_blob(blob)
    try:
        return ident, version, kem_public_key(ident, raw)
    except MalformedEncoding as exc:
        raise exc.shifted(len(blob) - len(raw)) from None


# Sender keys sender_key remembers.  An entry holds the blob, the
# identifier and the parsed parameters and root: under 200 bytes.
_SENDER_KEY_MEMO = 8


def sender_key(blob: bytes, algorithm_id: str) -> tuple[hbs.HbsParams, bytes]:
    """Read a framed HBS public key for ``algorithm_id``: its parameters and
    root.  Another identifier or family, or key bytes for other parameters,
    raise AlgorithmMismatch; bad key bytes raise MalformedEncoding, with
    offsets counted in ``blob``.  The result for each of the last 8
    distinct ``(blob, algorithm_id)`` pairs is remembered, keyed on the
    exact bytes, as recipient_key's is; a refusal is raised again on
    every call."""
    return _sender_key(bytes(blob), algorithm_id)


@functools.lru_cache(maxsize=_SENDER_KEY_MEMO)
def _sender_key(blob: bytes, algorithm_id: str) -> tuple[hbs.HbsParams, bytes]:
    ident, _, raw = parse_blob(blob)
    if ident != algorithm_id:
        raise AlgorithmMismatch(f"key is {ident!r}, expected {algorithm_id!r}")
    params = family_params(TemplateKind.SIGNATURE, ident)
    try:
        key_params, root = hbs.hbs_parse_public(raw)
    except MalformedEncoding as exc:
        raise exc.shifted(len(blob) - len(raw)) from None
    if key_params != params:
        raise AlgorithmMismatch(f"key bytes are not for {ident!r}")
    return params, root


# ---------------------------------------------------------------------------
# Facade handles
# ---------------------------------------------------------------------------

def hybrid_record_keys(shared_secret: bytes) -> SymmetricKeys:
    """Expand a KEM shared secret into one direction of record keys.
    Everything hybrid-encrypted in this package derives its keys here,
    which is what makes facade and hand-rolled compositions agree."""
    return SymmetricKeys.from_material(
        prf(HashId.H512, shared_secret, "hybrid record keys", b"", SymmetricKeys.MATERIAL_BYTES)
    )


# The hybrid step of EasyEncrypter and mailenv; each brings its own associated data.

def hybrid_encap(pk: cbkem.KemPublicKey, rng: Rng) -> tuple[bytes, SymmetricKeys]:
    """Encapsulate to a recipient's parsed KEM public key: the KEM
    ciphertext bytes and the record keys to seal with."""
    ct, secret = cbkem.kem_encap(pk, rng)
    return ct, hybrid_record_keys(secret)


def hybrid_open(recipient: EasyEncrypter, kem_ct: bytes, header: bytes, sealed: bytes) -> bytes:
    """Decapsulate ``kem_ct`` with the recipient's key and open the record
    sealed under ``header``.  A KEM rejection raises InvalidCiphertext; a
    record that fails authentication raises BadMac."""
    keys = hybrid_record_keys(cbkem.kem_decap(recipient._kp.sk, kem_ct))
    try:
        return open_record(keys, 0, header, sealed)
    except BadPadding as exc:
        raise BadMac("sealed payload failed authentication") from exc


@dataclass
class _StoredKey:
    """A key pair in one keystore entry, its store held open by the handle.
    Each family's with_new_key and open make or load the key; _create and
    _load do the store work, and close the store when they fail.  After
    close, sign, encrypt, decrypt and envelope_open raise KeystoreIoError
    before they do any work."""

    store: Keystore
    alias: str
    algorithm_id: str
    registry_version: int
    _kp: hbs.HbsKeyPair | cbkem.KemKeyPair
    _rng: Rng
    public_blob: bytes

    @classmethod
    def _create(
        cls,
        prefix: str,
        ap: AlgorithmParameters,
        ksp: KeystoreParameters,
        rng: Rng,
        kp: hbs.HbsKeyPair | cbkem.KemKeyPair,
        public: bytes,
        state: EntryState | None,
    ):
        alias = f"{prefix}-{ap.algorithm_id}-{hash_data(HashId.H256, public)[:4].hex()}"
        public_blob = frame_blob(ap.algorithm_id, ap.registry_version, public)
        # keystore_create decides under the writer lock whether the store
        # is new, so a store another call has just made gets the key too.
        try:
            store = keystore_create(ksp, rng)
        except StoreExists:
            store = keystore_open(ksp)
        try:
            store.put_entry(KeystoreEntry(alias, ap.algorithm_id, kp.seed, public, state))
        except BaseException:
            store.close()
            raise
        return cls(store, alias, ap.algorithm_id, ap.registry_version, kp, rng, public_blob)

    @classmethod
    def _load(
        cls,
        ksp: KeystoreParameters,
        alias: str,
        registry_version: int,
        rng: Rng | None,
        load_key: Callable[[KeystoreEntry], hbs.HbsKeyPair | cbkem.KemKeyPair],
        read_only: bool,
    ):
        rng = rng or SystemRng()
        store = keystore_open(ksp, read_only=read_only)
        try:
            entry = store.get_entry(alias)
            kp = load_key(entry)
            public_blob = frame_blob(entry.algorithm_id, registry_version, entry.public_material)
        except BaseException:
            store.close()
            raise
        return cls(store, alias, entry.algorithm_id, registry_version, kp, rng, public_blob)

    def close(self) -> None:
        self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class EasySigner(_StoredKey):
    """Two-call signing: with_new_key, then sign.  Stateful keys sign
    from a reservation window: one durable keystore reservation hands out
    the next leaves, and signatures use them from memory until the window
    runs out.  The window starts at one leaf and doubles on each refill
    up to min(64, 2^h / 16), clamped to the leaves left.  A crash
    sacrifices the unused rest of the window instead of reusing it, and
    the stored consumption mark (next_leaf) may then trail the
    signatures made by up to one window; close writes it exactly."""

    _window_end: int = field(init=False, default=0)
    _window_size: int = field(init=False, default=0)
    _mark_pending: bool = field(init=False, default=False)

    @classmethod
    def with_new_key(
        cls, ap: AlgorithmParameters, ksp: KeystoreParameters, rng: Rng | None = None
    ) -> EasySigner:
        rng = rng or SystemRng()
        if not isinstance(ap.params, hbs.HbsParams):
            raise ParameterError("signer requires a signature algorithm")
        kp = hbs.hbs_keygen(ap.params, rng)
        stateful = ap.params.mode is hbs.HbsMode.STATEFUL
        state = EntryState(next_leaf=0, reserved_until=0) if stateful else None
        return cls._create("sig", ap, ksp, rng, kp, hbs.hbs_export_public(kp), state)

    @classmethod
    def open(
        cls, ksp: KeystoreParameters, alias: str, registry_version: int, rng: Rng | None = None
    ) -> EasySigner:
        def load_key(entry: KeystoreEntry) -> hbs.HbsKeyPair:
            params = family_params(TemplateKind.SIGNATURE, entry.algorithm_id)
            _, root = hbs.hbs_parse_public(entry.public_material)
            return hbs.HbsKeyPair.from_seed(params, entry.secret_material, root=root)

        # A stateful key writes its reservations, so the signer holds the lock.
        return cls._load(ksp, alias, registry_version, rng, load_key, read_only=False)

    def sign(self, msg: bytes) -> bytes:
        self.store.check_open()
        stateful = self._kp.params.mode is hbs.HbsMode.STATEFUL
        if stateful and self._kp.next_leaf == self._window_end:
            self._refill_window(self._kp.params.leaf_count)
        # hbs_sign advances the key's cursor first: a signature that
        # fails sacrifices its leaf.
        raw = hbs.hbs_sign(self._kp, msg, self._rng)
        if stateful:
            self.store.note_consumed(self.alias, self._kp.next_leaf)
            self._mark_pending = True
        return frame_blob(self.algorithm_id, self.registry_version, raw)

    def _refill_window(self, leaf_count: int) -> None:
        # A crash loses at most one window: never more than 64 leaves or
        # 1/16 of the key.
        cap = max(1, min(64, leaf_count // 16))
        self._window_size = min(cap, max(1, 2 * self._window_size))
        left = leaf_count - self.store.get_entry(self.alias).state.reserved_until
        # With no leaf left, asking for one raises KeyExhausted.
        start, end = self.store.reserve_leaves(self.alias, max(1, min(self._window_size, left)))
        self._kp.next_leaf, self._window_end = start, end
        self._mark_pending = False

    def close(self) -> None:
        try:
            if self._mark_pending:
                self._mark_pending = False
                self.store.record_consumed(self.alias, self._kp.next_leaf)
        finally:
            super().close()


def easysigner_verify(public_blob: bytes, msg: bytes, sig_blob: bytes) -> bool:
    """Check a framed signature against a framed public key.  Any
    malformed input rejects; no exception escapes for bad blobs."""
    try:
        sig_id, _, raw_sig = parse_blob(sig_blob)
        params, root = sender_key(public_blob, sig_id)
    except (MalformedEncoding, AlgorithmMismatch):
        return False
    return hbs.hbs_verify(root, params, msg, raw_sig)


class EasyEncrypter(_StoredKey):
    """Hybrid encryption handle: encapsulate to the recipient's KEM key,
    expand the shared secret into record keys, seal the payload."""

    @classmethod
    def with_new_key(
        cls, ap: AlgorithmParameters, ksp: KeystoreParameters, rng: Rng | None = None
    ) -> EasyEncrypter:
        rng = rng or SystemRng()
        if not isinstance(ap.params, cbkem.KemParams):
            raise ParameterError("encrypter requires a KEM algorithm")
        kp = cbkem.kem_keygen(ap.params, rng)
        return cls._create("enc", ap, ksp, rng, kp, kp.pk.encoding, None)

    @classmethod
    def open(
        cls, ksp: KeystoreParameters, alias: str, registry_version: int, rng: Rng | None = None
    ) -> EasyEncrypter:
        def load_key(entry: KeystoreEntry) -> cbkem.KemKeyPair:
            params = family_params(TemplateKind.ENCRYPTION, entry.algorithm_id)
            # The store's MAC covers the public material, so the secret
            # tables are taken from it rather than redrawn from the seed.
            return cbkem.KemKeyPair.load(params, entry.secret_material, entry.public_material)

        # Nothing here writes, so a signer holding the store does not lock it out.
        return cls._load(ksp, alias, registry_version, rng, load_key, read_only=True)

    def encrypt(self, recipient_public_blob: bytes, plaintext: bytes) -> bytes:
        self.store.check_open()
        ident, _, pk = recipient_key(recipient_public_blob)
        ct_bytes, keys = hybrid_encap(pk, self._rng)
        # The blob is its own associated data up to the sealed body.
        header = frame_blob(ident, self.registry_version, ct_bytes)
        return header + seal_record(keys, 0, header, plaintext)

    def decrypt(self, blob: bytes) -> bytes:
        self.store.check_open()
        ident, version, payload = parse_blob(blob)
        if ident != self.algorithm_id:
            raise AlgorithmMismatch(
                f"blob is for {ident!r}, this key is {self.algorithm_id!r}"
            )
        # kem_decap refuses the short ciphertext of a truncated payload.
        ct_len = self._kp.params.ct_bytes
        ct_bytes, sealed = payload[:ct_len], payload[ct_len:]
        return hybrid_open(self, ct_bytes, frame_blob(ident, version, ct_bytes), sealed)
