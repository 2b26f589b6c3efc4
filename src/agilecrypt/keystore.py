"""Password-protected persistent key storage with crash-safe reservations.

File format (documented bit-exactly in docs/formats.md):

    magic  `AGKS`                4 bytes
    format version               u16 big-endian (currently 1)
    KDF salt                     16 bytes
    KDF iteration count          u32 big-endian
    sealed entry table           primitives.seal_record output, sequence 0,
                                 with the 26 header bytes as associated data

The password is stretched with PBKDF2-HMAC-SHA512 (iteration count stored
in the header so tests can lower it) into the record-protection keys; the
MAC is verified before any entry parsing, so a wrong password or tampered
file never yields partial data.

Every mutation rewrites and atomically replaces the whole file
(write-temp, fsync, rename, fsync directory) and completes before the
mutating call returns.  Stateful signature counters follow
reserve-then-sign: reserve_leaves persists the raised reservation mark
BEFORE returning the range, so a crash can only sacrifice indices, never
reuse them.

The one exception is note_consumed: it raises the consumption mark
(next_leaf) in memory only, and the next write of the store carries it.
easyapi.EasySigner signs from a reservation window of up to
min(64, 2^h / 16) leaves and notes each signature this way, so a
long-lived signer writes once per window rather than twice per
signature.  A crash loses at most the unused rest of one window, and the
stored next_leaf may then trail the signatures actually made by up to
one window; after a clean close of the signer it is exact.

One writer per store, enforced by an advisory lock on `<path>.lock`;
read-only opens take no lock (atomic replacement keeps reads consistent).

The `crash_hook` attribute is a test seam: it is called with a point name
at each persistence step and may raise to simulate a kill at that moment.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import os
import struct
from dataclasses import dataclass

from .errors import (
    BadMac,
    BadPadding,
    BadPassword,
    DuplicateAlias,
    KeyExhausted,
    KeystoreIoError,
    MalformedStore,
    ParameterError,
    StoreLocked,
    UnknownAlias,
)
from .hbs import HbsMode, HbsParams
from .primitives import Rng, SymmetricKeys, open_record, random_bytes, seal_record

MAGIC = b"AGKS"
FORMAT_VERSION = 1
DEFAULT_ITERATIONS = 100_000
_HEADER_LEN = 4 + 2 + 16 + 4

CRASH_POINTS = ("serialized", "tmp-written", "tmp-synced", "renamed")


@dataclass(frozen=True)
class KeystoreParameters:
    """Where the store lives and how it is unlocked.  The iteration count
    only matters at creation; open reads it from the file header."""

    path: str
    password: str
    iterations: int = DEFAULT_ITERATIONS

    def __post_init__(self) -> None:
        if not self.path:
            raise ParameterError("keystore path must be non-empty")
        if len(self.password) < 1:
            raise ParameterError("password must have at least 1 character")
        if self.iterations < 1:
            raise ParameterError("iteration count must be >= 1")


@dataclass
class EntryState:
    """Stateful-key counters.  next_leaf counts confirmed consumption,
    reserved_until is the high-water mark of handed-out indices."""

    next_leaf: int
    reserved_until: int


@dataclass
class KeystoreEntry:
    alias: str
    algorithm_id: str
    secret_material: bytes
    public_material: bytes
    state: EntryState | None


def is_stateful_algorithm(algorithm_id: str) -> bool:
    try:
        return HbsParams.from_algorithm_id(algorithm_id).mode is HbsMode.STATEFUL
    except ParameterError:
        return False


def _stateful_leaf_count(algorithm_id: str) -> int:
    return HbsParams.from_algorithm_id(algorithm_id).leaf_count


def _derive_keys(password: str, salt: bytes, iterations: int) -> SymmetricKeys:
    material = hashlib.pbkdf2_hmac(
        "sha512", password.encode("utf-8"), salt, iterations, dklen=112
    )
    return SymmetricKeys(
        enc_key=material[:32], mac_key=material[32:96], iv_seed=material[96:112]
    )


# ---------------------------------------------------------------------------
# Entry table encoding (lives inside the sealed blob)
# ---------------------------------------------------------------------------

def _encode_table(entries: dict[str, KeystoreEntry]) -> bytes:
    out = [struct.pack(">I", len(entries))]
    for alias in sorted(entries):
        e = entries[alias]
        alias_b = e.alias.encode("utf-8")
        algo_b = e.algorithm_id.encode("ascii")
        out.append(struct.pack(">H", len(alias_b)) + alias_b)
        out.append(struct.pack(">H", len(algo_b)) + algo_b)
        out.append(struct.pack(">I", len(e.secret_material)) + e.secret_material)
        out.append(struct.pack(">I", len(e.public_material)) + e.public_material)
        if e.state is None:
            out.append(b"\x00")
        else:
            out.append(
                b"\x01" + struct.pack(">II", e.state.next_leaf, e.state.reserved_until)
            )
    return b"".join(out)


def _decode_table(data: bytes) -> dict[str, KeystoreEntry]:
    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise MalformedStore(f"entry table truncated at byte {off}")
        chunk = data[off : off + n]
        off += n
        return chunk

    off = 0
    (count,) = struct.unpack(">I", take(4))
    entries: dict[str, KeystoreEntry] = {}
    for _ in range(count):
        alias = take(struct.unpack(">H", take(2))[0]).decode("utf-8")
        algo = take(struct.unpack(">H", take(2))[0]).decode("ascii")
        secret = take(struct.unpack(">I", take(4))[0])
        public = take(struct.unpack(">I", take(4))[0])
        flag = take(1)[0]
        if flag == 0:
            state = None
        elif flag == 1:
            next_leaf, reserved = struct.unpack(">II", take(8))
            state = EntryState(next_leaf=next_leaf, reserved_until=reserved)
        else:
            raise MalformedStore(f"unknown state flag {flag}")
        if alias in entries:
            raise MalformedStore(f"duplicate alias {alias!r} in table")
        entries[alias] = KeystoreEntry(
            alias=alias,
            algorithm_id=algo,
            secret_material=secret,
            public_material=public,
            state=state,
        )
    if off != len(data):
        raise MalformedStore(f"{len(data) - off} trailing bytes after entry table")
    return entries


# ---------------------------------------------------------------------------
# Store object
# ---------------------------------------------------------------------------

class Keystore:
    def __init__(
        self,
        params: KeystoreParameters,
        header: bytes,
        keys: SymmetricKeys,
        entries: dict[str, KeystoreEntry],
        lock_fd: int | None,
        read_only: bool,
    ):
        self.params = params
        self._header = header
        self._keys = keys
        self._entries = entries
        self._lock_fd = lock_fd
        self._read_only = read_only
        self._closed = False
        self.crash_hook = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the lock and scrub derived keys.  Mutations were
        already durable, so close never writes; a consumption mark from
        note_consumed that no write carried yet is dropped."""
        if self._closed:
            return
        self._closed = True
        self._keys.zeroize()
        self._release_lock()

    def abandon(self) -> None:
        """Drop the handle as a crashed process would (test helper).  A
        real kill releases the advisory lock automatically; this does the
        same without touching the file."""
        self._closed = True
        self._release_lock()

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            try:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
                os.close(self._lock_fd)
            except OSError:
                pass
            self._lock_fd = None

    def __enter__(self) -> Keystore:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- entry operations --------------------------------------------------

    def aliases(self) -> list[str]:
        self._check_usable(write=False)
        return sorted(self._entries)

    def get_entry(self, alias: str) -> KeystoreEntry:
        self._check_usable(write=False)
        if alias not in self._entries:
            raise UnknownAlias(f"no entry {alias!r}")
        return _copy_entry(self._entries[alias])

    def put_entry(self, entry: KeystoreEntry) -> None:
        self._check_usable(write=True)
        _validate_entry(entry)
        if entry.alias in self._entries:
            raise DuplicateAlias(f"entry {entry.alias!r} already exists")
        self._entries[entry.alias] = _copy_entry(entry)
        self._persist()

    def update_entry(self, entry: KeystoreEntry) -> None:
        self._check_usable(write=True)
        _validate_entry(entry)
        if entry.alias not in self._entries:
            raise UnknownAlias(f"no entry {entry.alias!r}")
        self._entries[entry.alias] = _copy_entry(entry)
        self._persist()

    def reserve_leaves(self, alias: str, count: int) -> tuple[int, int]:
        """Hand out the next `count` one-time indices.  The raised
        reservation mark is durable before the range is returned; indices
        in ranges lost to a crash are sacrificed.  The same write carries
        any consumption mark raised by note_consumed."""
        self._check_usable(write=True)
        if count < 1:
            raise ParameterError("reservation count must be >= 1")
        entry = self._require_stateful(alias)
        start = entry.state.reserved_until
        end = start + count
        if end > _stateful_leaf_count(entry.algorithm_id):
            raise KeyExhausted(
                f"{alias!r}: {count} leaves requested, "
                f"{_stateful_leaf_count(entry.algorithm_id) - start} left"
            )
        entry.state.reserved_until = end
        self._persist()
        return (start, end)

    def record_consumed(self, alias: str, upto: int) -> None:
        """Record that indices below `upto` were actually used for
        signatures.  Bookkeeping only; reuse safety comes from the
        reservation mark."""
        self.note_consumed(alias, upto)
        self._persist()

    def note_consumed(self, alias: str, upto: int) -> None:
        """record_consumed without the write: the raised mark stays in
        memory until the next write of the store."""
        self._check_usable(write=True)
        entry = self._require_stateful(alias)
        if not 0 <= upto <= entry.state.reserved_until:
            raise ParameterError("consumption mark outside reserved range")
        entry.state.next_leaf = max(entry.state.next_leaf, upto)

    # -- internals ---------------------------------------------------------

    def _require_stateful(self, alias: str) -> KeystoreEntry:
        if alias not in self._entries:
            raise UnknownAlias(f"no entry {alias!r}")
        entry = self._entries[alias]
        if entry.state is None:
            raise ParameterError(f"entry {alias!r} is not stateful")
        return entry

    def _check_usable(self, write: bool) -> None:
        if self._closed:
            raise KeystoreIoError("store handle is closed")
        if write and self._read_only:
            raise KeystoreIoError("store opened read-only")

    def _hook(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    def _persist(self) -> None:
        table = _encode_table(self._entries)
        self._hook("serialized")
        blob = seal_record(self._keys, 0, self._header, table)
        tmp = self.params.path + ".tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        except OSError as exc:
            raise KeystoreIoError(f"cannot write {tmp}: {exc}") from exc
        try:
            os.write(fd, self._header + blob)
            self._hook("tmp-written")
            os.fsync(fd)
        finally:
            os.close(fd)
        self._hook("tmp-synced")
        try:
            os.replace(tmp, self.params.path)
            _fsync_dir(self.params.path)
        except OSError as exc:
            raise KeystoreIoError(f"cannot replace {self.params.path}: {exc}") from exc
        self._hook("renamed")


def _copy_entry(entry: KeystoreEntry) -> KeystoreEntry:
    state = dataclasses.replace(entry.state) if entry.state is not None else None
    return dataclasses.replace(entry, state=state)


def _validate_entry(entry: KeystoreEntry) -> None:
    if not entry.alias:
        raise ParameterError("alias must be non-empty")
    if not entry.algorithm_id:
        raise ParameterError("algorithm_id must be non-empty")
    stateful = is_stateful_algorithm(entry.algorithm_id)
    if stateful and entry.state is None:
        raise ParameterError("stateful algorithm requires counter state")
    if not stateful and entry.state is not None:
        raise ParameterError("stateless algorithm must not carry counter state")
    if entry.state is not None:
        if not 0 <= entry.state.next_leaf <= entry.state.reserved_until:
            raise ParameterError("require 0 <= next_leaf <= reserved_until")
        if entry.state.reserved_until > _stateful_leaf_count(entry.algorithm_id):
            raise ParameterError("reserved_until exceeds leaf count")


def _fsync_dir(path: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    try:
        dfd = os.open(dirname, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def _acquire_lock(path: str) -> int:
    try:
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o600)
    except OSError as exc:
        raise KeystoreIoError(f"cannot open lock file: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        raise StoreLocked(f"another writer holds {path}.lock") from exc
    return fd


# ---------------------------------------------------------------------------
# Create / open
# ---------------------------------------------------------------------------

def keystore_create(params: KeystoreParameters, rng: Rng | None = None) -> Keystore:
    """Create a fresh store at params.path (which must be absent or an
    empty file) and return an open writer handle."""
    try:
        exists_nonempty = os.path.exists(params.path) and os.path.getsize(params.path) > 0
    except OSError as exc:
        raise KeystoreIoError(f"cannot stat {params.path}: {exc}") from exc
    if exists_nonempty:
        raise KeystoreIoError(f"{params.path} already exists and is non-empty")
    lock_fd = _acquire_lock(params.path)
    try:
        salt = random_bytes(16, rng)
        header = (
            MAGIC
            + struct.pack(">H", FORMAT_VERSION)
            + salt
            + struct.pack(">I", params.iterations)
        )
        keys = _derive_keys(params.password, salt, params.iterations)
        ks = Keystore(
            params=params,
            header=header,
            keys=keys,
            entries={},
            lock_fd=lock_fd,
            read_only=False,
        )
    except BaseException:
        fcntl.flock(lock_fd, fcntl.LOCK_UN)
        os.close(lock_fd)
        raise
    ks._persist()
    return ks


def keystore_open(params: KeystoreParameters, read_only: bool = False) -> Keystore:
    """Open an existing store.  MAC verification happens before any entry
    parsing; a wrong password surfaces as BadPassword with no partial data."""
    lock_fd = None if read_only else _acquire_lock(params.path)
    try:
        try:
            with open(params.path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise KeystoreIoError(f"cannot read {params.path}: {exc}") from exc
        if len(raw) < _HEADER_LEN:
            raise MalformedStore("file shorter than header")
        header, blob = raw[:_HEADER_LEN], raw[_HEADER_LEN:]
        if header[:4] != MAGIC:
            raise MalformedStore("bad magic")
        (version,) = struct.unpack(">H", header[4:6])
        if version != FORMAT_VERSION:
            raise MalformedStore(f"unsupported format version {version}")
        salt = header[6:22]
        (iterations,) = struct.unpack(">I", header[22:26])
        if iterations < 1:
            raise MalformedStore("zero iteration count")
        keys = _derive_keys(params.password, salt, iterations)
        try:
            table = open_record(keys, 0, header, blob)
        except (BadMac, BadPadding) as exc:
            raise BadPassword(
                "store authentication failed: wrong password or tampered file"
            ) from exc
        entries = _decode_table(table)
        return Keystore(
            params=params,
            header=header,
            keys=keys,
            entries=entries,
            lock_fd=lock_fd,
            read_only=read_only,
        )
    except BaseException:
        if lock_fd is not None:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        raise
