"""Work counts: how much of a costly primitive each operation runs.

Unlike a timing, a count does not move with the host, so a change that
removes work updates its pin here in the same change.  The counts go
through wrappers these tests install, so no code in src/ pays for a
counter.  Today's rows: PBKDF2-HMAC-SHA512 runs per keystore operation,
as (iterations, output bytes); one output block is 64 bytes, and each
block costs the full iteration count.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from agilecrypt.keystore import KeystoreParameters, keystore_create, keystore_open
from store_images import V1_IMAGE


@pytest.fixture
def pbkdf2_runs(monkeypatch) -> list[tuple[int, int]]:
    """Every hashlib.pbkdf2_hmac call from here on, as (iterations, dklen)."""
    runs: list[tuple[int, int]] = []
    real = hashlib.pbkdf2_hmac

    def counting(hash_name, password, salt, iterations, dklen=None):
        out = real(hash_name, password, salt, iterations, dklen)
        runs.append((iterations, len(out)))
        return out

    monkeypatch.setattr(hashlib, "pbkdf2_hmac", counting)
    return runs


def test_a_version_2_store_derives_one_block_per_create_and_open(tmp_path, pbkdf2_runs):
    params = KeystoreParameters(str(tmp_path / "store.agks"), "pw", iterations=1000)
    keystore_create(params).close()
    assert pbkdf2_runs == [(1000, 64)]
    keystore_open(params).close()
    keystore_open(params, read_only=True).close()
    assert pbkdf2_runs == [(1000, 64)] * 3


def test_a_version_1_store_derives_two_blocks_and_migrates_with_none(tmp_path, pbkdf2_runs):
    params = KeystoreParameters(str(tmp_path / "store.agks"), "pin", iterations=1)
    shutil.copyfile(V1_IMAGE, params.path)
    with keystore_open(params) as store:
        assert pbkdf2_runs == [(1, 112)]
        store.record_consumed("sig-pinned-é", 3)  # the migrating write
        assert pbkdf2_runs == [(1, 112)]
    keystore_open(params, read_only=True).close()
    assert pbkdf2_runs == [(1, 112), (1, 64)]
