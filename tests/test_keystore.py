"""Tests for the password-protected keystore.

Crash safety is exercised through the injectable crash hook: a hook that
raises SimulatedCrash at a chosen persistence step models a process kill
at that moment, and the test then reopens the file from disk like a
fresh process would.  Each refusal of a decoder is a row of
DECODER_REFUSALS in test_decoder_refusals.py.
"""

from __future__ import annotations

import errno
import os
import random
import stat

import pytest

from agilecrypt import keystore
from agilecrypt.errors import (
    BadPassword,
    DuplicateAlias,
    KeyExhausted,
    KeystoreIoError,
    MalformedStore,
    ParameterError,
    StoreLocked,
    UnknownAlias,
)
from agilecrypt.keystore import (
    CRASH_POINTS,
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
    keystore_open,
)


class SimulatedCrash(Exception):
    pass


def _params(tmp_path, name="store.agks", password="hunter2", iterations=1000):
    return KeystoreParameters(
        path=str(tmp_path / name), password=password, iterations=iterations
    )


def _stateful_entry(alias="sig", algorithm_id="SPX-TOY-16-16-4-S", secret=b"\x01" * 32):
    return KeystoreEntry(
        alias=alias,
        algorithm_id=algorithm_id,
        secret_material=secret,
        public_material=b"\x02" * 21,
        state=EntryState(next_leaf=0, reserved_until=0),
    )


def _stateless_entry(alias="enc", algorithm_id="CME-TOY-10-8", secret=b"\x03" * 32):
    return KeystoreEntry(
        alias=alias,
        algorithm_id=algorithm_id,
        secret_material=secret,
        public_material=b"\x04" * 100,
        state=None,
    )


def test_create_open_roundtrip(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        assert ks.aliases() == []
    with keystore_open(params) as ks:
        assert ks.aliases() == []


def test_create_rejects_existing_nonempty(tmp_path):
    params = _params(tmp_path)
    keystore_create(params).close()
    with pytest.raises(KeystoreIoError):
        keystore_create(params)


def test_open_missing_file(tmp_path):
    with pytest.raises(KeystoreIoError):
        keystore_open(_params(tmp_path, name="absent.agks"))


def test_wrong_password_never_partial_data(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
    for i in range(20):
        bad = KeystoreParameters(
            path=params.path, password=f"wrong-{i}", iterations=params.iterations
        )
        with pytest.raises(BadPassword):
            keystore_open(bad)


def test_tampered_blob_fails_closed(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateless_entry())
    raw = bytearray(open(params.path, "rb").read())
    raw[-1] ^= 0x01
    open(params.path, "wb").write(bytes(raw))
    with pytest.raises(BadPassword):
        keystore_open(params)


def test_entries_roundtrip_bit_identical(tmp_path):
    params = _params(tmp_path)
    entries = [
        _stateful_entry(alias="a"),
        _stateless_entry(alias="b"),
        _stateful_entry(alias="c", algorithm_id="SPX-TOY-32-16-6-S", secret=b"\x07" * 32),
    ]
    with keystore_create(params) as ks:
        for e in entries:
            ks.put_entry(e)
    with keystore_open(params) as ks:
        for e in entries:
            got = ks.get_entry(e.alias)
            assert got == e


def test_many_random_entries_survive_reopen(tmp_path):
    rng = random.Random(301)
    params = _params(tmp_path)
    entries = {}
    with keystore_create(params) as ks:
        for i in range(100):
            e = _stateless_entry(
                alias=f"key-{i}", secret=rng.randbytes(rng.randrange(1, 64))
            )
            entries[e.alias] = e
            ks.put_entry(e)
    with keystore_open(params) as ks:
        assert sorted(ks.aliases()) == sorted(entries)
        for alias, e in entries.items():
            assert ks.get_entry(alias) == e


def test_duplicate_and_unknown_alias(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        ks.put_entry(_stateless_entry())
        with pytest.raises(DuplicateAlias):
            ks.put_entry(_stateless_entry())
        with pytest.raises(UnknownAlias):
            ks.get_entry("nope")
        with pytest.raises(UnknownAlias):
            ks.update_entry(_stateless_entry(alias="nope"))


def test_state_invariants_enforced(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        with pytest.raises(ParameterError):
            ks.put_entry(
                KeystoreEntry(
                    alias="x",
                    algorithm_id="CME-TOY-10-8",
                    secret_material=b"s",
                    public_material=b"p",
                    state=EntryState(next_leaf=0, reserved_until=0),
                )
            )
        with pytest.raises(ParameterError):
            ks.put_entry(
                KeystoreEntry(
                    alias="y",
                    algorithm_id="SPX-TOY-16-16-4-S",
                    secret_material=b"s",
                    public_material=b"p",
                    state=None,
                )
            )
        bad = _stateful_entry(alias="z")
        bad.state = EntryState(next_leaf=5, reserved_until=2)
        with pytest.raises(ParameterError):
            ks.put_entry(bad)


@pytest.mark.parametrize(
    "entry",
    [
        _stateless_entry(alias="a" * 70_000),
        _stateless_entry(alias="é" * 32_768),  # 65536 UTF-8 bytes
        _stateless_entry(algorithm_id="X" * 70_000),
        _stateless_entry(algorithm_id="CME-TOY-10-8-é"),
    ],
    ids=["alias-70000", "alias-65536-utf8", "algorithm-70000", "algorithm-non-ascii"],
)
def test_unstorable_entry_rejected_and_store_stays_usable(tmp_path, entry):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        with pytest.raises(ParameterError):
            ks.put_entry(entry)
        assert ks.aliases() == []
        ks.put_entry(_stateless_entry())
        ks.put_entry(_stateful_entry())
        assert ks.reserve_leaves("sig", 2) == (0, 2)
    with keystore_open(params) as ks:
        assert ks.aliases() == ["enc", "sig"]


def test_reserve_semantics_and_persistence(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        assert ks.reserve_leaves("sig", 3) == (0, 3)
        assert ks.get_entry("sig").state.reserved_until == 3
    with keystore_open(params) as ks:
        assert ks.get_entry("sig").state.reserved_until == 3
        # Dropped without consuming: 0..2 are sacrificed, never reused.
        assert ks.reserve_leaves("sig", 3) == (3, 6)


def test_reserve_exhaustion_exact_bound(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        ks.put_entry(_stateful_entry())  # h=4 -> 16 leaves
        assert ks.reserve_leaves("sig", 16) == (0, 16)
        with pytest.raises(KeyExhausted):
            ks.reserve_leaves("sig", 1)


def test_reserve_rejects_stateless(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        ks.put_entry(_stateless_entry())
        with pytest.raises(ParameterError):
            ks.reserve_leaves("enc", 1)


@pytest.mark.parametrize("algorithm_id", ["SPX-TOY-16-16-04-S", "RSA-2048"])
def test_open_refuses_a_stored_id_that_does_not_resolve(tmp_path, algorithm_id):
    # A table that carries counter state under an id no parameter set has,
    # as one written while other spellings of an id were accepted would.
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        ks._entries["sig"].algorithm_id = algorithm_id
        ks._persist()
    with pytest.raises(MalformedStore, match="'sig'"):
        keystore_open(params)


def test_record_consumed_persists(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        ks.reserve_leaves("sig", 4)
        ks.record_consumed("sig", 2)
    with keystore_open(params) as ks:
        st = ks.get_entry("sig").state
        assert (st.next_leaf, st.reserved_until) == (2, 4)


def test_crash_points_leave_store_openable(tmp_path):
    params = _params(tmp_path)
    keystore_create(params).close()
    for point in CRASH_POINTS:
        ks = keystore_open(params)
        before = set(ks.aliases())

        def hook(name, _target=point):
            if name == _target:
                raise SimulatedCrash(name)

        ks.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            ks.put_entry(_stateless_entry(alias=f"at-{point}"))
        ks.abandon()
        with keystore_open(params) as ks2:
            after = set(ks2.aliases())
            assert after in (before, before | {f"at-{point}"})
            if point == CRASH_POINTS[-1]:
                # Crash after rename: the new state must be on disk.
                assert f"at-{point}" in after
            # Either way the next write works.
            ks2.put_entry(_stateless_entry(alias=f"then-{point}"))


def test_no_reuse_across_randomized_crash_schedules(tmp_path):
    rng = random.Random(302)
    params = _params(tmp_path, name="crashes.agks")
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry(algorithm_id="SPX-TOY-16-16-12-S"))
    released: list[tuple[int, int]] = []
    for _ in range(30):
        ks = keystore_open(params)
        crash_at = rng.choice([None] + list(CRASH_POINTS))
        countdown = rng.randrange(1, 4)

        def hook(name):
            nonlocal countdown
            if crash_at is not None and name == crash_at:
                countdown -= 1
                if countdown == 0:
                    raise SimulatedCrash(name)

        ks.crash_hook = hook
        try:
            for _ in range(rng.randrange(1, 4)):
                count = rng.randrange(1, 5)
                start, end = ks.reserve_leaves("sig", count)
                released.append((start, end))
                if rng.random() < 0.5:
                    ks.record_consumed("sig", rng.randrange(start, end + 1))
        except (SimulatedCrash, KeyExhausted):
            ks.abandon()
        else:
            ks.close()
    seen: set[int] = set()
    for start, end in released:
        for i in range(start, end):
            assert i not in seen, f"leaf {i} released twice"
            seen.add(i)


def test_short_writes_still_store_every_byte(tmp_path, monkeypatch):
    params = _params(tmp_path)
    keystore_create(params).close()
    real_write = os.write
    with keystore_open(params) as ks:
        monkeypatch.setattr(
            keystore.os, "write", lambda fd, data: real_write(fd, data[: max(1, len(data) // 2)])
        )
        ks.put_entry(_stateless_entry())
        monkeypatch.undo()
    with keystore_open(params) as ks:
        assert ks.get_entry("enc") == _stateless_entry()


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "call, replacement",
    [("write", _disk_full), ("write", lambda fd, data: 0), ("fsync", _disk_full)],
    ids=["write-error", "write-no-progress", "fsync-error"],
)
def test_failed_write_keeps_the_previous_store(tmp_path, monkeypatch, call, replacement):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
    with keystore_open(params) as ks:
        monkeypatch.setattr(keystore.os, call, replacement)
        with pytest.raises(KeystoreIoError):
            ks.put_entry(_stateless_entry())
        monkeypatch.undo()
    with keystore_open(params) as ks:
        assert ks.aliases() == ["sig"]


def test_failed_writes_leave_no_trace_in_memory(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        ks.reserve_leaves("sig", 4)
        ks.note_consumed("sig", 2)
        # A directory where the temporary file goes fails every write.
        os.mkdir(params.path + ".tmp")
        with pytest.raises(KeystoreIoError):
            ks.put_entry(_stateless_entry())
        changed = _stateful_entry(secret=b"\x05" * 32)
        changed.state = EntryState(next_leaf=2, reserved_until=4)
        with pytest.raises(KeystoreIoError):
            ks.update_entry(changed)
        with pytest.raises(KeystoreIoError):
            ks.reserve_leaves("sig", 4)
        assert ks.aliases() == ["sig"]
        entry = ks.get_entry("sig")
        assert entry.secret_material == b"\x01" * 32
        # The consumption mark raised before the failures is still pending.
        assert (entry.state.next_leaf, entry.state.reserved_until) == (2, 4)
        os.rmdir(params.path + ".tmp")
        ks.put_entry(_stateless_entry(alias="other"))
        with keystore_open(params, read_only=True) as reader:
            assert reader.aliases() == ["other", "sig"]
        ks.put_entry(_stateless_entry())
        assert ks.reserve_leaves("sig", 4) == (4, 8)
    with keystore_open(params) as ks:
        assert ks.aliases() == ["enc", "other", "sig"]
        state = ks.get_entry("sig").state
        assert (state.next_leaf, state.reserved_until) == (2, 8)


def test_create_releases_the_lock_when_its_first_write_fails(tmp_path, monkeypatch):
    params = _params(tmp_path)
    monkeypatch.setattr(keystore.os, "replace", _disk_full)
    with pytest.raises(KeystoreIoError):
        keystore_create(params)
    monkeypatch.undo()
    keystore_create(params).close()


def test_create_refuses_a_store_filled_while_it_waited_for_the_lock(tmp_path, monkeypatch):
    params = _params(tmp_path)
    real_acquire = keystore._acquire_lock

    def other_writer_first(path):
        monkeypatch.setattr(keystore, "_acquire_lock", real_acquire)
        with keystore_create(params) as other:
            other.put_entry(_stateless_entry())
        return real_acquire(path)

    monkeypatch.setattr(keystore, "_acquire_lock", other_writer_first)
    with pytest.raises(KeystoreIoError, match="non-empty"):
        keystore_create(params)
    with keystore_open(params) as ks:
        assert ks.aliases() == ["enc"]


def test_failed_directory_fsync_hands_out_no_range(tmp_path, monkeypatch):
    params = _params(tmp_path)
    real_fsync = os.fsync

    def fail_on_directories(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        monkeypatch.setattr(keystore.os, "fsync", fail_on_directories)
        with pytest.raises(KeystoreIoError, match="Input/output error"):
            ks.reserve_leaves("sig", 4)
        monkeypatch.undo()


def test_single_writer_lock(tmp_path):
    params = _params(tmp_path)
    ks = keystore_create(params)
    with pytest.raises(StoreLocked):
        keystore_open(params)
    # Readers do not take the writer lock.
    ro = keystore_open(params, read_only=True)
    assert ro.aliases() == []
    with pytest.raises(KeystoreIoError):
        ro.put_entry(_stateless_entry())
    ks.close()
    keystore_open(params).close()


def test_blob_looks_random(tmp_path):
    rng = random.Random(303)
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        # Highly regular secret material: all zero bytes.
        ks.put_entry(_stateless_entry(secret=b"\x00" * 4096))
    raw = open(params.path, "rb").read()
    body = raw[26:]
    assert len(body) > 4096
    ones = sum(bin(byte).count("1") for byte in body)
    ratio = ones / (8 * len(body))
    assert 0.47 < ratio < 0.53
    assert b"\x00" * 64 not in body


def test_password_policy():
    with pytest.raises(ParameterError):
        KeystoreParameters(path="x", password="")
    with pytest.raises(ParameterError):
        KeystoreParameters(path="", password="p")
    # How a command line holding the byte 0xff decodes.
    with pytest.raises(ParameterError, match="UTF-8"):
        KeystoreParameters(path="ks", password="\udcff")


@pytest.mark.parametrize("iterations", [0, 2**32])
def test_iteration_count_must_fit_the_header(iterations):
    with pytest.raises(ParameterError):
        KeystoreParameters(path="ks", password="p", iterations=iterations)
    assert KeystoreParameters(path="ks", password="p", iterations=2**32 - 1).iterations
