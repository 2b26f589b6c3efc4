"""Security-level templates, provider selection, and the two-call facade.

A TemplateRegistry is a versioned data file mapping (kind, level) to a
concrete algorithm identifier.  Registries are deliberately swappable:
pointing a peer at a different registry file changes what a level means,
which is exactly the drift that compatibility_check classifies.

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
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from importlib import resources

from . import cbkem, hbs
from .errors import (
    AlgorithmMismatch,
    BadMac,
    BadPadding,
    InvalidCiphertext,
    MalformedEncoding,
    ParameterError,
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
    "CompatibilityResult",
    "Provider",
    "ProviderRegistry",
    "EasySigner",
    "EasyEncrypter",
    "builtin_registry",
    "load_registry",
    "parse_registry_text",
    "template_resolve",
    "compatibility_check",
    "default_provider_registry",
    "easysigner_verify",
    "frame_blob",
    "parse_blob",
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


class CompatibilityResult(Enum):
    COMPATIBLE = "compatible"
    TEMPLATE_MISMATCH = "template_mismatch"
    VERSION_MISMATCH = "version_mismatch"


# ---------------------------------------------------------------------------
# Template registry
# ---------------------------------------------------------------------------

def _typed_params(kind: TemplateKind, algorithm_id: str):
    if kind is TemplateKind.SIGNATURE:
        return hbs.HbsParams.from_algorithm_id(algorithm_id)
    return cbkem.KemParams.from_algorithm_id(algorithm_id)


@dataclass(frozen=True)
class TemplateRegistry:
    version: int
    issued: datetime.date
    entries: dict[tuple[TemplateKind, SecurityLevel], str]

    def __post_init__(self) -> None:
        for kind in TemplateKind:
            for level in SecurityLevel:
                if (kind, level) not in self.entries:
                    raise ParameterError(f"registry misses ({kind.value}, {level.name})")
        if len(self.entries) != 6:
            raise ParameterError("registry has extraneous entries")
        for (kind, _level), algorithm_id in self.entries.items():
            _typed_params(kind, algorithm_id)  # family check: raises if wrong

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
    tolerated on input; canonical_text never emits them."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(lines) != 8:
        raise MalformedEncoding(f"registry needs 8 content lines, found {len(lines)}")
    (vno, vline), (ino, iline) = lines[0], lines[1]
    if not vline.startswith("version "):
        raise MalformedEncoding("first line must be `version N`", offset=vno)
    if not iline.startswith("issued "):
        raise MalformedEncoding("second line must be `issued YYYY-MM-DD`", offset=ino)
    try:
        version = int(vline.split(" ", 1)[1])
        issued = datetime.date.fromisoformat(iline.split(" ", 1)[1])
    except ValueError as exc:
        raise MalformedEncoding(f"bad header value: {exc}") from exc
    entries: dict[tuple[TemplateKind, SecurityLevel], str] = {}
    for lineno, line in lines[2:]:
        parts = line.split(" ")
        if len(parts) != 3:
            raise MalformedEncoding("mapping line needs `KIND LEVEL ALGORITHM`", offset=lineno)
        try:
            kind = TemplateKind(parts[0])
            level = SecurityLevel[parts[1]]
        except (ValueError, KeyError) as exc:
            raise MalformedEncoding(f"bad kind/level: {exc}", offset=lineno) from exc
        if (kind, level) in entries:
            raise MalformedEncoding(f"duplicate entry {parts[0]} {parts[1]}", offset=lineno)
        entries[(kind, level)] = parts[2]
    try:
        return TemplateRegistry(version=version, issued=issued, entries=entries)
    except ParameterError as exc:
        raise MalformedEncoding(str(exc)) from exc


def load_registry(path: str) -> TemplateRegistry:
    with open(path, "r", encoding="ascii") as fh:
        return parse_registry_text(fh.read())


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
        params=_typed_params(kind, algorithm_id),
        registry_version=reg.version,
    )


def compatibility_check(
    local: AlgorithmParameters, remote_algorithm_id: str, remote_registry_version: int
) -> CompatibilityResult:
    """Classify a negotiation pairing.  Identical identifiers are
    compatible regardless of versions; divergent identifiers are a
    version drift when the registry versions differ, otherwise a genuine
    template conflict."""
    if local.algorithm_id == remote_algorithm_id:
        return CompatibilityResult.COMPATIBLE
    if local.registry_version != remote_registry_version:
        return CompatibilityResult.VERSION_MISMATCH
    return CompatibilityResult.TEMPLATE_MISMATCH


# ---------------------------------------------------------------------------
# Provider registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provider:
    """priority: lower number wins.  prefixes: algorithm-id prefixes this
    provider claims."""

    name: str
    priority: int
    prefixes: tuple[str, ...]
    implementation: object


class ProviderRegistry:
    def __init__(self) -> None:
        self._providers: list[Provider] = []

    def register(self, provider: Provider) -> None:
        for existing in self._providers:
            if existing.priority != provider.priority:
                continue
            for a in existing.prefixes:
                for b in provider.prefixes:
                    if a.startswith(b) or b.startswith(a):
                        raise ParameterError(
                            f"provider {provider.name!r} prefix {b!r} is ambiguous "
                            f"with {existing.name!r} prefix {a!r} at priority "
                            f"{provider.priority}"
                        )
        self._providers.append(provider)
        self._providers.sort(key=lambda p: p.priority)

    def resolve(self, algorithm_id: str) -> object:
        for provider in self._providers:
            if any(algorithm_id.startswith(prefix) for prefix in provider.prefixes):
                return provider.implementation
        raise ParameterError(f"no provider claims algorithm {algorithm_id!r}")


class HbsBackend:
    """Built-in signature provider, delegating to the hbs module."""

    keygen = staticmethod(hbs.hbs_keygen)
    sign = staticmethod(hbs.hbs_sign)
    sign_with_leaf = staticmethod(hbs.hbs_sign_with_leaf)
    verify = staticmethod(hbs.hbs_verify)
    from_seed = staticmethod(hbs.HbsKeyPair.from_seed)
    export_public = staticmethod(hbs.hbs_export_public)
    parse_public = staticmethod(hbs.hbs_parse_public)
    serialize_sig = staticmethod(hbs.hbs_serialize_sig)
    parse_sig = staticmethod(hbs.hbs_parse_sig)


class KemBackend:
    """Built-in KEM provider, delegating to the cbkem module."""

    keygen = staticmethod(cbkem.kem_keygen)
    from_seed = staticmethod(cbkem.KemKeyPair.from_seed)
    encap = staticmethod(cbkem.kem_encap)
    decap = staticmethod(cbkem.kem_decap)
    serialize_pk = staticmethod(cbkem.kem_serialize_pk)
    parse_pk = staticmethod(cbkem.kem_parse_pk)
    serialize_ct = staticmethod(cbkem.kem_serialize_ct)
    parse_ct = staticmethod(cbkem.kem_parse_ct)


def default_provider_registry() -> ProviderRegistry:
    reg = ProviderRegistry()
    reg.register(
        Provider(
            name="hbs-builtin", priority=10, prefixes=("SPX-TOY-",), implementation=HbsBackend()
        )
    )
    reg.register(
        Provider(
            name="cbkem-builtin",
            priority=10,
            prefixes=("CME-TOY-",),
            implementation=KemBackend(),
        )
    )
    return reg


_DEFAULT_PROVIDERS = default_provider_registry()


# ---------------------------------------------------------------------------
# Blob framing
# ---------------------------------------------------------------------------

def frame_blob(algorithm_id: str, registry_version: int, payload: bytes) -> bytes:
    ident = algorithm_id.encode("ascii")
    if not 1 <= len(ident) <= 255:
        raise ParameterError("algorithm identifier length must be 1..255")
    return struct.pack(">B", len(ident)) + ident + struct.pack(">I", registry_version) + payload


def parse_blob(data: bytes) -> tuple[str, int, bytes]:
    if len(data) < 1:
        raise MalformedEncoding("empty blob", offset=0)
    id_len = data[0]
    if id_len == 0 or len(data) < 1 + id_len + 4:
        raise MalformedEncoding("blob header truncated", offset=len(data))
    try:
        ident = data[1 : 1 + id_len].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedEncoding("algorithm identifier is not ASCII", offset=1) from exc
    (version,) = struct.unpack(">I", data[1 + id_len : 5 + id_len])
    return ident, version, data[5 + id_len :]


# ---------------------------------------------------------------------------
# Facade handles
# ---------------------------------------------------------------------------

def _open_or_create_store(ksp: KeystoreParameters, rng: Rng) -> Keystore:
    import os

    if os.path.exists(ksp.path) and os.path.getsize(ksp.path) > 0:
        return keystore_open(ksp)
    return keystore_create(ksp, rng)


def _derived_alias(prefix: str, algorithm_id: str, public: bytes) -> str:
    return f"{prefix}-{algorithm_id}-{hash_data(HashId.H256, public)[:4].hex()}"


def hybrid_record_keys(shared_secret: bytes) -> SymmetricKeys:
    """Expand a KEM shared secret into one direction of record keys.
    Everything hybrid-encrypted in this package derives its keys here,
    which is what makes facade and hand-rolled compositions agree."""
    material = prf(HashId.H512, shared_secret, "hybrid record keys", b"", 112)
    return SymmetricKeys(
        enc_key=material[:32], mac_key=material[32:96], iv_seed=material[96:112]
    )


@dataclass
class EasySigner:
    """Two-call signing: with_new_key, then sign.  Stateful keys sign
    from a reservation window: one durable keystore reservation hands out
    the next leaves, and signatures use them from memory until the window
    runs out.  The window starts at one leaf and doubles on each refill
    up to min(64, 2^h / 16), clamped to the leaves left.  A crash
    sacrifices the unused rest of the window instead of reusing it, and
    the stored consumption mark (next_leaf) may then trail the
    signatures made by up to one window; close writes it exactly."""

    store: Keystore
    alias: str
    algorithm_id: str
    registry_version: int
    _kp: hbs.HbsKeyPair
    _backend: object
    _rng: Rng
    public_blob: bytes = field(init=False)
    _next_leaf: int = field(init=False, default=0)
    _window_end: int = field(init=False, default=0)
    _window_size: int = field(init=False, default=0)
    _mark_pending: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        raw = self._backend.export_public(self._kp)
        self.public_blob = frame_blob(self.algorithm_id, self.registry_version, raw)

    @classmethod
    def with_new_key(
        cls,
        ap: AlgorithmParameters,
        ksp: KeystoreParameters,
        rng: Rng | None = None,
        providers: ProviderRegistry | None = None,
    ) -> EasySigner:
        rng = rng or SystemRng()
        if not isinstance(ap.params, hbs.HbsParams):
            raise ParameterError("signer requires a signature algorithm")
        backend = (providers or _DEFAULT_PROVIDERS).resolve(ap.algorithm_id)
        kp = backend.keygen(ap.params, rng)
        raw_pub = backend.export_public(kp)
        alias = _derived_alias("sig", ap.algorithm_id, raw_pub)
        store = _open_or_create_store(ksp, rng)
        try:
            stateful = ap.params.mode is hbs.HbsMode.STATEFUL
            store.put_entry(
                KeystoreEntry(
                    alias=alias,
                    algorithm_id=ap.algorithm_id,
                    secret_material=kp.seed,
                    public_material=raw_pub,
                    state=EntryState(next_leaf=0, reserved_until=0) if stateful else None,
                )
            )
        except BaseException:
            store.close()
            raise
        return cls(
            store=store,
            alias=alias,
            algorithm_id=ap.algorithm_id,
            registry_version=ap.registry_version,
            _kp=kp,
            _backend=backend,
            _rng=rng,
        )

    @classmethod
    def open(
        cls,
        ksp: KeystoreParameters,
        alias: str,
        registry_version: int,
        rng: Rng | None = None,
        providers: ProviderRegistry | None = None,
    ) -> EasySigner:
        rng = rng or SystemRng()
        store = keystore_open(ksp)
        try:
            entry = store.get_entry(alias)
            backend = (providers or _DEFAULT_PROVIDERS).resolve(entry.algorithm_id)
            params, root = backend.parse_public(entry.public_material)
            kp = backend.from_seed(params, entry.secret_material, root=root)
        except BaseException:
            store.close()
            raise
        return cls(
            store=store,
            alias=alias,
            algorithm_id=entry.algorithm_id,
            registry_version=registry_version,
            _kp=kp,
            _backend=backend,
            _rng=rng,
        )

    @property
    def key_seed(self) -> bytes:
        return self._kp.seed

    def sign(self, msg: bytes) -> bytes:
        params = self._kp.params
        if params.mode is hbs.HbsMode.STATEFUL:
            if self._next_leaf == self._window_end:
                self._refill_window(params.leaf_count)
            # Advance first: a signature that fails sacrifices its leaf.
            leaf = self._next_leaf
            self._next_leaf += 1
            sig = self._backend.sign_with_leaf(self._kp, leaf, msg, self._rng)
            self.store.note_consumed(self.alias, self._next_leaf)
            self._mark_pending = True
        else:
            sig = self._backend.sign(self._kp, msg, self._rng)
        raw = self._backend.serialize_sig(sig)
        return frame_blob(self.algorithm_id, self.registry_version, raw)

    def _refill_window(self, leaf_count: int) -> None:
        # A crash loses at most one window: never more than 64 leaves or
        # 1/16 of the key.
        cap = max(1, min(64, leaf_count // 16))
        self._window_size = min(cap, max(1, 2 * self._window_size))
        left = leaf_count - self.store.get_entry(self.alias).state.reserved_until
        # With no leaf left, asking for one raises KeyExhausted.
        start, end = self.store.reserve_leaves(self.alias, max(1, min(self._window_size, left)))
        self._next_leaf, self._window_end = start, end
        self._mark_pending = False

    def close(self) -> None:
        try:
            if self._mark_pending:
                self._mark_pending = False
                self.store.record_consumed(self.alias, self._next_leaf)
        finally:
            self.store.close()

    def __enter__(self) -> EasySigner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def easysigner_verify(
    public_blob: bytes, msg: bytes, sig_blob: bytes, providers: ProviderRegistry | None = None
) -> bool:
    """Check a framed signature against a framed public key.  Any
    malformed input rejects; no exception escapes for bad blobs."""
    try:
        pub_id, _, raw_pub = parse_blob(public_blob)
        sig_id, _, raw_sig = parse_blob(sig_blob)
        if pub_id != sig_id:
            return False
        backend = (providers or _DEFAULT_PROVIDERS).resolve(sig_id)
        params, root = backend.parse_public(raw_pub)
        if params.algorithm_id != pub_id:
            return False
        sig = backend.parse_sig(params, raw_sig)
    except (MalformedEncoding, ParameterError):
        return False
    return backend.verify(root, params, msg, sig)


@dataclass
class EasyEncrypter:
    """Hybrid encryption handle: encapsulate to the recipient's KEM key,
    expand the shared secret into record keys, seal the payload."""

    store: Keystore
    alias: str
    algorithm_id: str
    registry_version: int
    _kp: cbkem.KemKeyPair
    _backend: object
    _rng: Rng
    public_blob: bytes = field(init=False)

    def __post_init__(self) -> None:
        raw = self._backend.serialize_pk(self._kp.pk)
        self.public_blob = frame_blob(self.algorithm_id, self.registry_version, raw)

    @classmethod
    def with_new_key(
        cls,
        ap: AlgorithmParameters,
        ksp: KeystoreParameters,
        rng: Rng | None = None,
        providers: ProviderRegistry | None = None,
    ) -> EasyEncrypter:
        rng = rng or SystemRng()
        if not isinstance(ap.params, cbkem.KemParams):
            raise ParameterError("encrypter requires a KEM algorithm")
        backend = (providers or _DEFAULT_PROVIDERS).resolve(ap.algorithm_id)
        kp = backend.keygen(ap.params, rng)
        raw_pub = backend.serialize_pk(kp.pk)
        alias = _derived_alias("enc", ap.algorithm_id, raw_pub)
        store = _open_or_create_store(ksp, rng)
        try:
            store.put_entry(
                KeystoreEntry(
                    alias=alias,
                    algorithm_id=ap.algorithm_id,
                    secret_material=kp.seed,
                    public_material=raw_pub,
                    state=None,
                )
            )
        except BaseException:
            store.close()
            raise
        return cls(
            store=store,
            alias=alias,
            algorithm_id=ap.algorithm_id,
            registry_version=ap.registry_version,
            _kp=kp,
            _backend=backend,
            _rng=rng,
        )

    @classmethod
    def open(
        cls,
        ksp: KeystoreParameters,
        alias: str,
        registry_version: int,
        rng: Rng | None = None,
        providers: ProviderRegistry | None = None,
    ) -> EasyEncrypter:
        rng = rng or SystemRng()
        store = keystore_open(ksp)
        try:
            entry = store.get_entry(alias)
            backend = (providers or _DEFAULT_PROVIDERS).resolve(entry.algorithm_id)
            params = cbkem.KemParams.from_algorithm_id(entry.algorithm_id)
            kp = backend.from_seed(params, entry.secret_material)
        except BaseException:
            store.close()
            raise
        return cls(
            store=store,
            alias=alias,
            algorithm_id=entry.algorithm_id,
            registry_version=registry_version,
            _kp=kp,
            _backend=backend,
            _rng=rng,
        )

    @property
    def key_seed(self) -> bytes:
        return self._kp.seed

    def encrypt(self, recipient_public_blob: bytes, plaintext: bytes) -> bytes:
        ident, _, raw_pub = parse_blob(recipient_public_blob)
        params = cbkem.KemParams.from_algorithm_id(ident)
        backend = self._backend if ident == self.algorithm_id else _DEFAULT_PROVIDERS.resolve(ident)
        pk = backend.parse_pk(params, raw_pub)
        ct, secret = backend.encap(pk, params, self._rng)
        ct_bytes = backend.serialize_ct(params, ct)
        header = frame_blob(ident, self.registry_version, b"") + ct_bytes
        sealed = seal_record(hybrid_record_keys(secret), 0, header, plaintext)
        return frame_blob(ident, self.registry_version, ct_bytes + sealed)

    def decap_bytes(self, ct_bytes: bytes) -> bytes:
        """Recover the shared secret from serialized KEM ciphertext.
        The building block for compositions outside this module's own
        container format."""
        params = self._kp.params
        try:
            ct = self._backend.parse_ct(params, ct_bytes)
        except MalformedEncoding as exc:
            raise InvalidCiphertext(str(exc)) from exc
        return self._backend.decap(self._kp.sk, params, ct)

    def decrypt(self, blob: bytes) -> bytes:
        ident, version, payload = parse_blob(blob)
        if ident != self.algorithm_id:
            raise AlgorithmMismatch(
                f"blob is for {ident!r}, this key is {self.algorithm_id!r}"
            )
        params = self._kp.params
        if len(payload) < params.ct_bytes:
            raise InvalidCiphertext("payload shorter than a KEM ciphertext")
        ct_bytes, sealed = payload[: params.ct_bytes], payload[params.ct_bytes :]
        secret = self.decap_bytes(ct_bytes)
        header = frame_blob(ident, version, b"") + ct_bytes
        try:
            return open_record(hybrid_record_keys(secret), 0, header, sealed)
        except BadPadding as exc:
            raise BadMac("sealed payload failed authentication") from exc

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> EasyEncrypter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
