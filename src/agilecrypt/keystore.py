"""Password-protected persistent key storage with crash-safe reservations.

File format (documented bit-exactly in docs/formats.md):

    magic  `AGKS`                4 bytes
    format version               u16 big-endian (currently 2)
    KDF salt                     16 bytes
    KDF iteration count          u32 big-endian
    write generation             u64 big-endian
    sealed entry table           primitives.seal_record output, the write
                                 generation as its sequence, with the 34
                                 header bytes as associated data

The password is stretched with PBKDF2-HMAC-SHA512 (iteration count stored
in the header so tests can lower it) into one 64-byte block, which
primitives.prf expands into the record-protection keys; the MAC is
verified before any entry parsing, so a wrong password or tampered file
never yields partial data.  Every write spends the next generation
before it seals, so no two images sealed under one set of keys share an
IV.  A version 1 file (a 26-byte header without the generation, a table
sealed with sequence 0 under two PBKDF2 blocks split into keys) still
opens; its first write re-seals it as version 2 from the first of those
blocks, with no second PBKDF2 run.  The header and the entry table are
read and written with agilecrypt.codec, whose strict-decoding rules
apply; a header or table that breaks them, or an entry put_entry would
refuse, raises MalformedStore when the store is opened.

Every mutation rewrites the whole file with write_whole before the
mutating call returns.  The handle's table changes only once the new
file is in place, so a mutation whose write fails before the rename
leaves no trace in memory and can be retried; one whose directory fsync
fails has landed, and its error says so.  A writer's open removes a
`<path>.tmp` that a crash left behind.  Stateful signature counters follow
reserve-then-sign: reserve_leaves persists the raised reservation mark
BEFORE returning the range, so a crash can only sacrifice indices, never
reuse them.

The one exception is note_consumed: it raises the consumption mark
(next_leaf) by replacing the entry in memory only, and the next write
of the store carries it, so after a crash the stored next_leaf may
trail the indices actually used.  easyapi.EasySigner describes the
reservation window it signs from.  Entries and their counter state are
immutable values, so get_entry returns the entry the store holds.

One writer per store, enforced by an advisory lock on `<path>.lock`;
read-only opens take no lock (atomic replacement keeps reads consistent).

The `crash_hook` attribute is a test seam: it is called with a point name
at each persistence step and may raise to simulate a kill at that moment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import os
from dataclasses import dataclass

from .codec import Reader, decode_text, encode_text, uint, vec16, vec32
from .errors import (
    BadMac,
    BadPadding,
    BadPassword,
    DuplicateAlias,
    KeyExhausted,
    KeystoreIoError,
    MalformedEncoding,
    MalformedStore,
    ParameterError,
    StoreExists,
    StoreLocked,
    UnknownAlias,
)
from .hbs import HbsMode, HbsParams
from .primitives import HashId, Rng, SymmetricKeys, SystemRng, open_record, prf, seal_record

MAGIC = b"AGKS"
FORMAT_VERSION = 2
DEFAULT_ITERATIONS = 100_000
# One PBKDF2-HMAC-SHA512 output block, which prf expands to the keys.
_KDF_BYTES = 64
_KEY_LABEL = "agks v2 keys"

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
        try:
            self.password.encode("utf-8")
        except UnicodeEncodeError:
            # A command line that is not valid UTF-8 decodes to lone surrogates.
            raise ParameterError("password is not valid UTF-8") from None
        if not 1 <= self.iterations <= 0xFFFFFFFF:
            # The file header stores the count as a u32.
            raise ParameterError("iteration count must be in [1, 2^32 - 1]")


@dataclass(frozen=True)
class EntryState:
    """Stateful-key counters.  next_leaf counts confirmed consumption,
    reserved_until is the high-water mark of handed-out indices."""

    next_leaf: int
    reserved_until: int


@dataclass(frozen=True)
class KeystoreEntry:
    alias: str
    algorithm_id: str
    secret_material: bytes
    public_material: bytes
    state: EntryState | None


def _stateful_leaf_count(algorithm_id: str) -> int | None:
    """The one-time leaves of a stateful signature id; None for any
    other id."""
    try:
        params = HbsParams.from_algorithm_id(algorithm_id)
    except ParameterError:
        return None
    return params.leaf_count if params.mode is HbsMode.STATEFUL else None


def _derive_keys(
    password: str, salt: bytes, iterations: int, version: int
) -> tuple[SymmetricKeys, SymmetricKeys]:
    """The keys that open a store whose header reads ``version``, and the
    keys its writes seal with.  Version 1 split two PBKDF2 blocks into its
    keys; version 2 expands one block.  The first block is the same for
    both, so a version 1 store gets its write keys without a second run."""
    material = hashlib.pbkdf2_hmac(
        "sha512",
        password.encode("utf-8"),
        salt,
        iterations,
        SymmetricKeys.MATERIAL_BYTES if version == 1 else _KDF_BYTES,
    )
    keys = SymmetricKeys.from_material(
        prf(HashId.H512, material[:_KDF_BYTES], _KEY_LABEL, b"", SymmetricKeys.MATERIAL_BYTES)
    )
    return (SymmetricKeys.from_material(material) if version == 1 else keys), keys


def _header_fields(salt: bytes, iterations: int) -> bytes:
    """A version 2 header up to its write generation."""
    return MAGIC + uint(FORMAT_VERSION, 2) + salt + uint(iterations, 4)


# ---------------------------------------------------------------------------
# Entry table encoding (lives inside the sealed blob)
# ---------------------------------------------------------------------------

def _encode_entry(e: KeystoreEntry) -> bytes:
    if e.state is None:
        state = b"\x00"
    else:
        state = b"\x01" + uint(e.state.next_leaf, 4) + uint(e.state.reserved_until, 4)
    return b"".join(
        (
            vec16(encode_text(e.alias, "utf-8")),
            vec16(encode_text(e.algorithm_id, "ascii")),
            vec32(e.secret_material),
            vec32(e.public_material),
            state,
        )
    )


def _encode_table(entries: dict[str, KeystoreEntry]) -> bytes:
    return uint(len(entries), 4) + b"".join(
        _encode_entry(entries[alias]) for alias in sorted(entries)
    )


def _read_entry(r: Reader) -> KeystoreEntry:
    alias = decode_text(r.vec16(), "utf-8", r.offset)
    algorithm_id = decode_text(r.vec16(), "ascii", r.offset)
    secret, public, flag = r.vec32(), r.vec32(), r.u8()
    if flag > 1:
        raise MalformedEncoding(f"unknown state flag {flag}", offset=r.offset - 1)
    state = EntryState(next_leaf=r.u32(), reserved_until=r.u32()) if flag else None
    return KeystoreEntry(alias, algorithm_id, secret, public, state)


def _decode_table(data: bytes) -> dict[str, KeystoreEntry]:
    """Parse the entry table; any departure from the layout raises
    MalformedStore."""
    r = Reader(data)
    entries: dict[str, KeystoreEntry] = {}
    try:
        for _ in range(r.u32()):
            entry = _read_entry(r)
            if entry.alias in entries:
                raise MalformedEncoding(f"duplicate alias {entry.alias!r}", offset=r.offset)
            entries[entry.alias] = entry
        r.expect_end()
    except MalformedEncoding as exc:
        raise MalformedStore(f"entry table: {exc}") from exc
    return entries


# ---------------------------------------------------------------------------
# Store object
# ---------------------------------------------------------------------------

class Keystore:
    def __init__(
        self,
        params: KeystoreParameters,
        header_fields: bytes,
        generation: int,
        keys: SymmetricKeys,
        entries: dict[str, KeystoreEntry],
        lock_fd: int | None,
    ):
        self.params = params
        self._header_fields = header_fields
        self._generation = generation
        self._keys = keys
        self._entries = entries
        self._lock_fd = lock_fd
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
        _release_lock(self._lock_fd)
        self._lock_fd = None

    def abandon(self) -> None:
        """Drop the handle as a crashed process would (test helper).  A
        real kill releases the advisory lock automatically; this does the
        same without touching the file."""
        self._closed = True
        _release_lock(self._lock_fd)
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
        return self._entries[alias]

    def put_entry(self, entry: KeystoreEntry) -> None:
        self._check_usable(write=True)
        _validate_entry(entry)
        if entry.alias in self._entries:
            raise DuplicateAlias(f"entry {entry.alias!r} already exists")
        self._persist({**self._entries, entry.alias: entry})

    def update_entry(self, entry: KeystoreEntry) -> None:
        """Replace the entry stored under entry.alias.  An update that
        drops or lowers a stateful entry's next_leaf or reserved_until, as
        a copy read before a reservation would, is refused with
        ParameterError and the store is unchanged: it would hand out
        leaves again."""
        self._check_usable(write=True)
        _validate_entry(entry)
        if entry.alias not in self._entries:
            raise UnknownAlias(f"no entry {entry.alias!r}")
        current = self._entries[entry.alias].state
        if current is not None and (
            entry.state is None
            or entry.state.next_leaf < current.next_leaf
            or entry.state.reserved_until < current.reserved_until
        ):
            raise ParameterError(
                f"update of {entry.alias!r} would drop or lower its counters "
                f"({current.next_leaf}, {current.reserved_until})"
            )
        self._persist({**self._entries, entry.alias: entry})

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
        leaf_count = _stateful_leaf_count(entry.algorithm_id)
        if end > leaf_count:
            raise KeyExhausted(f"{alias!r}: {count} leaves requested, {leaf_count - start} left")
        state = dataclasses.replace(entry.state, reserved_until=end)
        self._persist({**self._entries, alias: dataclasses.replace(entry, state=state)})
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
        state = dataclasses.replace(entry.state, next_leaf=max(entry.state.next_leaf, upto))
        self._entries[alias] = dataclasses.replace(entry, state=state)

    # -- internals ---------------------------------------------------------

    def _require_stateful(self, alias: str) -> KeystoreEntry:
        entry = self.get_entry(alias)
        if entry.state is None:
            raise ParameterError(f"entry {alias!r} is not stateful")
        return entry

    def check_open(self) -> None:
        """Raise KeystoreIoError once the handle is closed."""
        if self._closed:
            raise KeystoreIoError("store handle is closed")

    def _check_usable(self, write: bool) -> None:
        self.check_open()
        # Only a writer holds the lock.
        if write and self._lock_fd is None:
            raise KeystoreIoError("store opened read-only")

    def _hook(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    def _persist(self, entries: dict[str, KeystoreEntry] | None = None) -> None:
        """Write ``entries`` (by default the table in memory) and make
        them the table in memory once the new file is in place: a write
        that fails before then leaves memory as the file is."""
        if entries is None:
            entries = self._entries
        table = _encode_table(entries)
        self._hook("serialized")
        # Spent even if the write fails, so a left-over temporary image
        # never shares an IV with a later one.
        self._generation += 1
        header = self._header_fields + uint(self._generation, 8)
        blob = seal_record(self._keys, self._generation, header, table)
        try:
            write_whole(self.params.path, (header, blob), 0o600, self._hook)
        except Unsynced as exc:
            self._entries = entries
            raise KeystoreIoError(
                f"the new table is in place at {self.params.path}; "
                f"only syncing its directory failed: {exc.__cause__}"
            ) from exc.__cause__
        except OSError as exc:
            raise KeystoreIoError(str(exc)) from exc.__cause__
        self._entries = entries


def _validate_entry(entry: KeystoreEntry) -> None:
    if not entry.alias:
        raise ParameterError("alias must be non-empty")
    if not entry.algorithm_id:
        raise ParameterError("algorithm_id must be non-empty")
    leaf_count = _stateful_leaf_count(entry.algorithm_id)
    if leaf_count is not None and entry.state is None:
        raise ParameterError("stateful algorithm requires counter state")
    if leaf_count is None and entry.state is not None:
        raise ParameterError("stateless algorithm must not carry counter state")
    if entry.state is not None:
        if not 0 <= entry.state.next_leaf <= entry.state.reserved_until:
            raise ParameterError("require 0 <= next_leaf <= reserved_until")
        if entry.state.reserved_until > leaf_count:
            raise ParameterError("reserved_until exceeds leaf count")
    # Refuse what the table encoder would (an alias over 65535 UTF-8 bytes,
    # a non-ASCII algorithm id) before the entry reaches the store.
    try:
        _encode_entry(entry)
    except MalformedEncoding as exc:
        raise ParameterError(f"entry cannot be stored: {exc}") from exc


class Unsynced(OSError):
    """write_whole's file landed, so a retry would repeat it; only syncing its directory failed."""


def write_whole(path: str, parts: tuple[bytes, ...], mode: int, hook=lambda point: None) -> None:
    """Land ``parts`` at ``path`` whole or not at all: write ``<path>.tmp``
    (not through a symlink) with ``mode`` less the umask, fsync, rename,
    fsync the directory, calling ``hook`` at tmp-written, tmp-synced and
    renamed.  A failure before the rename raises OSError, one after it
    Unsynced."""
    # Refused untouched, as these are written into, never replaced: a FIFO,
    # a device, or a link to an open descriptor (/dev/stdout -> /proc/self/fd/1).
    if (os.path.exists(path) and not os.path.isfile(path)) or (
        os.path.islink(path) and os.readlink(path).startswith("/proc/")
    ):
        raise OSError(f"cannot replace {path}: not a regular file")
    tmp = path + ".tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, mode)
        try:
            # Drops bits a stale <path>.tmp had beyond ``mode``; never widens.
            os.fchmod(fd, os.fstat(fd).st_mode & mode)
            # os.write may take part of a buffer; the view slices without copying.
            for piece in parts:
                pending = memoryview(piece)
                while pending:
                    written = os.write(fd, pending)
                    if written == 0:
                        raise OSError(f"write stalled with {len(pending)} bytes left")
                    pending = pending[written:]
            hook("tmp-written")
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write {tmp}: {exc}") from exc
    hook("tmp-synced")
    try:
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot replace {path}: {exc}") from exc
    try:
        _fsync_dir(path)
    except OSError as exc:
        raise Unsynced(f"{path} is in place; only syncing its directory failed: {exc}") from exc
    hook("renamed")


def _fsync_dir(path: str) -> None:
    dfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dfd)
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


def _release_lock(lock_fd: int | None) -> None:
    if lock_fd is None:
        return
    try:
        fcntl.flock(lock_fd, fcntl.LOCK_UN)
        os.close(lock_fd)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Create / open
# ---------------------------------------------------------------------------

def keystore_create(params: KeystoreParameters, rng: Rng | None = None) -> Keystore:
    """Create a fresh store at params.path (which must be absent or an
    empty file) and return an open writer handle.  The file is checked
    under the writer lock, so a store another writer has just filled is
    refused with StoreExists, never overwritten."""
    lock_fd = _acquire_lock(params.path)
    try:
        try:
            exists_nonempty = os.path.exists(params.path) and os.path.getsize(params.path) > 0
        except OSError as exc:
            raise KeystoreIoError(f"cannot stat {params.path}: {exc}") from exc
        if exists_nonempty:
            raise StoreExists(f"{params.path} already exists and is non-empty")
        salt = (rng or SystemRng()).random_bytes(16)
        _, keys = _derive_keys(params.password, salt, params.iterations, FORMAT_VERSION)
        ks = Keystore(params, _header_fields(salt, params.iterations), 0, keys, {}, lock_fd)
        ks._persist()
    except BaseException:
        _release_lock(lock_fd)
        raise
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
        r = Reader(raw)
        try:
            if r.take(4) != MAGIC:
                raise MalformedEncoding("bad magic", offset=0)
            version = r.u16()
            if version not in (1, FORMAT_VERSION):
                raise MalformedEncoding(f"unsupported format version {version}", offset=4)
            salt, iterations = r.take(16), r.u32()
            if iterations < 1:
                raise MalformedEncoding("zero iteration count", offset=22)
            # Version 1 sealed every image with sequence 0.
            generation = r.u64() if version == FORMAT_VERSION else 0
        except MalformedEncoding as exc:
            raise MalformedStore(f"header: {exc}") from exc
        header, blob = raw[: r.offset], raw[r.offset :]
        open_keys, keys = _derive_keys(params.password, salt, iterations, version)
        try:
            table = open_record(open_keys, generation, header, blob)
        except (BadMac, BadPadding) as exc:
            raise BadPassword(
                "store authentication failed: wrong password or tampered file"
            ) from exc
        finally:
            if open_keys is not keys:
                open_keys.zeroize()
        entries = _decode_table(table)
        for alias, entry in entries.items():
            try:
                _validate_entry(entry)
            except ParameterError as exc:
                raise MalformedStore(f"entry {alias!r}: {exc}") from exc
        if lock_fd is not None:
            # A crash after the temporary write leaves a sealed table that
            # never became current; only the lock holder writes that file.
            with contextlib.suppress(OSError):
                os.remove(params.path + ".tmp")
        fields = _header_fields(salt, iterations)
        return Keystore(params, fields, generation, keys, entries, lock_fd)
    except BaseException:
        _release_lock(lock_fd)
        raise
