"""Tests for the password-protected keystore.

Leaf safety (reservations, crashes at each persistence step, failed
writes, the writer lock, the consumption mark) is checked by the state
machine in test_leaf_safety.py, which drives a stateful signer and its
store.  Each refusal of a decoder is a row of DECODER_REFUSALS in
test_decoder_refusals.py.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import random
import shutil

import pytest

from agilecrypt import keystore
from agilecrypt.errors import (
    BadPassword,
    DuplicateAlias,
    KeystoreIoError,
    MalformedStore,
    ParameterError,
    UnknownAlias,
)
from agilecrypt.keystore import (
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
    keystore_open,
)
from store_images import V1_IMAGE, V1_IMAGE_SHA256


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
        bad = dataclasses.replace(bad, state=EntryState(next_leaf=5, reserved_until=2))
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


def test_reserve_rejects_stateless(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        ks.put_entry(_stateless_entry())
        with pytest.raises(ParameterError):
            ks.reserve_leaves("enc", 1)


def test_update_from_a_stale_copy_is_refused(tmp_path):
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        stale = ks.get_entry("sig")
        assert ks.reserve_leaves("sig", 4) == (0, 4)
        with pytest.raises(ParameterError, match="lower"):
            ks.update_entry(stale)
        with pytest.raises(ParameterError, match="drop"):
            ks.update_entry(_stateless_entry(alias="sig"))
        assert ks.reserve_leaves("sig", 4) == (4, 8)


def test_entries_handed_out_are_frozen_values(tmp_path):
    with keystore_create(_params(tmp_path)) as ks:
        ks.put_entry(_stateful_entry())
        ks.reserve_leaves("sig", 4)
        entry = ks.get_entry("sig")
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.secret_material = bytes(32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.state.next_leaf = 3
        ks.note_consumed("sig", 3)
        assert entry.state == EntryState(next_leaf=0, reserved_until=4)
        assert ks.get_entry("sig").state == EntryState(next_leaf=3, reserved_until=4)


@pytest.mark.parametrize("algorithm_id", ["SPX-TOY-16-16-04-S", "RSA-2048"])
def test_open_refuses_a_stored_id_that_does_not_resolve(tmp_path, algorithm_id):
    # A table that carries counter state under an id no parameter set has,
    # as one written while other spellings of an id were accepted would.
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry())
        ks._entries["sig"] = dataclasses.replace(ks._entries["sig"], algorithm_id=algorithm_id)
        ks._persist()
    with pytest.raises(MalformedStore, match="'sig'"):
        keystore_open(params)


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


def _image(path) -> tuple[bytes, int, bytes]:
    """A version 2 file's header fields up to the generation, its
    generation, and its sealed table."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw[4:6] == b"\x00\x02"
    return raw[:26], int.from_bytes(raw[26:34], "big"), raw[34:]


def test_successive_images_share_no_iv_and_no_ciphertext_block(tmp_path):
    """CBC under one key needs a fresh IV per image (NIST SP 800-38A,
    appendix C): a write of the unchanged table spends the next generation,
    and every 16-byte block after the header differs."""
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        ks.put_entry(_stateful_entry(secret=bytes(256)))
        images = [_image(params.path)]
        ks.record_consumed("sig", 0)
        images.append(_image(params.path))
    (fields, generation, sealed), (fields_after, generation_after, sealed_after) = images
    assert fields_after == fields and generation_after == generation + 1
    assert len(sealed_after) == len(sealed) > 256
    for start in range(0, len(sealed), 16):
        assert sealed_after[start : start + 16] != sealed[start : start + 16], start


def test_a_failed_write_spends_its_generation(tmp_path, monkeypatch):
    """The temporary image a failed write leaves is never sealed under
    the generation of a later image."""
    params = _params(tmp_path)
    with keystore_create(params) as ks:
        monkeypatch.setattr(keystore.os, "replace", _disk_full)
        with pytest.raises(KeystoreIoError, match="cannot replace"):
            ks.put_entry(_stateless_entry())
        monkeypatch.undo()
        _, left_over, _ = _image(params.path + ".tmp")
        ks.put_entry(_stateless_entry())
    assert _image(params.path)[1] == left_over + 1


def test_a_version_1_store_opens_and_its_first_write_makes_it_version_2(tmp_path):
    raw = V1_IMAGE.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == V1_IMAGE_SHA256
    params = _params(tmp_path, password="pin", iterations=1)
    shutil.copyfile(V1_IMAGE, params.path)
    with keystore_open(params, read_only=True) as reader:
        entries = {alias: reader.get_entry(alias) for alias in reader.aliases()}
    assert sorted(entries) == ["enc-pinned", "sig-pinned-é"]
    assert entries["sig-pinned-é"].state == EntryState(next_leaf=3, reserved_until=7)
    with pytest.raises(BadPassword):
        keystore_open(_params(tmp_path, password="pim", iterations=1), read_only=True)
    with keystore_open(params) as ks, open(params.path, "rb") as fh:
        assert fh.read() == raw  # opening writes nothing
        ks.record_consumed("sig-pinned-é", 3)
    fields, generation, _ = _image(params.path)
    # The salt and the iteration count carry over; the first v2 image is generation 1.
    assert fields == raw[:4] + b"\x00\x02" + raw[6:26] and generation == 1
    with keystore_open(params, read_only=True) as reader:
        assert {alias: reader.get_entry(alias) for alias in reader.aliases()} == entries


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
