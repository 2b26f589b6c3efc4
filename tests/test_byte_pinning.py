"""Byte-exact outputs for fixed seeds.

Each case hashes the bytes one encoder produces from a fixed
``DeterministicRng`` seed; the handshake case hashes everything each
side of a loopback handshake writes.  Refactoring the codecs, the
key-material split, the hybrid step or the handshake driver must leave
every digest as it is: a changed digest means a documented byte layout
changed.  The key cases pin the signature roots and KEM public keys of
every registry row, so faster key building must draw the same keys,
whether or not it runs on worker processes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading

import pytest

from agilecrypt import _parallel, cbkem, hbs
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    template_resolve,
)
from agilecrypt.keystore import (
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
)
from agilecrypt.mailenv import envelope_encode, envelope_open, envelope_seal
from agilecrypt.minitls import (
    ClientHello,
    ClientTlsConfig,
    ServerTlsConfig,
    TemplateInfo,
    client_handshake,
    issue_certificate,
    server_handshake,
    transport_pair,
)
from agilecrypt.minitls.wire import SUITE_0x1306, HandshakeType, encode_handshake_message
from agilecrypt.primitives import DeterministicRng
from tls_harness import Tap, run_pair

_REGISTRY = builtin_registry(1)
_SIG_AP = template_resolve(_REGISTRY, TemplateKind.SIGNATURE, SecurityLevel.LOW)
_ENC_AP = template_resolve(_REGISTRY, TemplateKind.ENCRYPTION, SecurityLevel.LOW)


_PINNED = {
    "encrypter": "0cb7613725d746ac9717e41bb642bcc40e7f15c92603dfd208bbf2ef16df4cae",
    "envelope": "4c45e6c5a5f42a5c8518175d30f443d8ce9b7591c4567f83c5ed82c5432d6a5b",
    "keystore": "76bcaf1168924123515d52636b51dd9cfbec9034c43f84236c942a8981cee38c",
    "certificate": "23dc00281f00f087fd59f33040fd521483b9fa0ed7f5c0c87b1870ff30896595",
    "client_hello": "082ddfc235f7b27208ab0a80ff95f21ba0d246c9063cb73c2598abd151b9a750",
    "handshake_client_to_server": "a90f2f8abe1dd88eaa19a9f503a1e12ee7077961e4c54a31dfbdb8b6c530a85e",
    "handshake_server_to_client": "b54710493701adec7cefe041d3e6ccf5f437bc27da0844d0b118bcb6a4df2156",
}

# Merkle roots (hex) of hbs_keygen(params, _rng("hbs-root/" + id)).  The
# registry v2 HIGH row, SPX-TOY-32-16-14-SL, takes about 11 s on two
# workers and is not pinned here; its root is recorded in CHANGES.md.
_PINNED_ROOTS = {
    "SPX-TOY-16-16-8-S": "1318fbacb3643a2ab4ccc208148dcd76",
    "SPX-TOY-16-16-10-S": "d33beb1eecd56661d2647f8c6323a182",
    "SPX-TOY-32-16-12-SL": "8919ba55de89ac8ba02abb8fc2f4115859197b20d84af02196926f9e2a7705db",
}

# SHA-256 of the public key encoding of kem_keygen(params, _rng("kem-pk/" + id)).
_PINNED_KEM_PKS = {
    "CME-TOY-10-8": "767ab2b8ca2b05f62da38d750cddf31958b19ab511ae12996179bc1aa3cd8b18",
    "CME-TOY-13-16": "0a9edc82b67a86e233bc73fa4f3abcc2a839cb1f03d863942edc879d52fe6e29",
    "CME-TOY-16-10": "8e49767ebfda94a4abd493c9953985a3b1a8dfbb165b4ba926a9b6d38e5cfabc",
}


def _rng(label: str) -> DeterministicRng:
    return DeterministicRng(b"byte-pinning/" + label.encode("ascii"))


def _ksp(tmp_path, name: str) -> KeystoreParameters:
    return KeystoreParameters(path=str(tmp_path / name), password="pin", iterations=1)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def recipient(tmp_path):
    ksp = _ksp(tmp_path, "recipient.agks")
    with EasyEncrypter.with_new_key(_ENC_AP, ksp, rng=_rng("recipient")) as enc:
        yield enc


def test_encrypter_blob_is_pinned(recipient):
    blob = recipient.encrypt(recipient.public_blob, b"pinned hybrid message")
    assert recipient.decrypt(blob) == b"pinned hybrid message"
    assert _digest(blob) == _PINNED["encrypter"]


def test_envelope_is_pinned(tmp_path, recipient):
    ksp = _ksp(tmp_path, "sender.agks")
    with EasySigner.with_new_key(_SIG_AP, ksp, rng=_rng("sender")) as signer:
        env = envelope_seal(
            signer, recipient.public_blob, b"pinned envelope", rng=_rng("envelope")
        )
        assert envelope_open(recipient, signer.public_blob, env) == b"pinned envelope"
    assert _digest(envelope_encode(env)) == _PINNED["envelope"]


def test_keystore_image_is_pinned(tmp_path):
    ksp = _ksp(tmp_path, "pinned.agks")
    with keystore_create(ksp, _rng("keystore")) as store:
        store.put_entry(
            KeystoreEntry(
                alias="enc-pinned",
                algorithm_id=_ENC_AP.algorithm_id,
                secret_material=bytes(range(32)),
                public_material=b"\x5a" * 300,
                state=None,
            )
        )
        store.put_entry(
            KeystoreEntry(
                alias="sig-pinned-é",
                algorithm_id=_SIG_AP.algorithm_id,
                secret_material=bytes(32),
                public_material=b"\xa5" * 21,
                state=EntryState(next_leaf=3, reserved_until=7),
            )
        )
    with open(ksp.path, "rb") as fh:
        assert _digest(fh.read()) == _PINNED["keystore"]


def test_certificate_is_pinned():
    rng = _rng("certificate")
    issuer = hbs.hbs_keygen(_SIG_AP.params, rng)
    kem = cbkem.kem_keygen(_ENC_AP.params, rng)
    cert = issue_certificate(
        issuer, "pinned.example", _ENC_AP.algorithm_id, kem.pk.encoding, rng
    )
    assert _digest(cert.encoding) == _PINNED["certificate"]


def test_client_hello_is_pinned():
    hello = ClientHello(
        random=_rng("hello").random_bytes(32),
        cipher_suites=(SUITE_0x1306,),
        template_info=TemplateInfo(
            registry_version=_REGISTRY.version,
            level=int(SecurityLevel.LOW),
            sig_id=_SIG_AP.algorithm_id,
            enc_id=_ENC_AP.algorithm_id,
        ),
    )
    wire = encode_handshake_message(HandshakeType.CLIENT_HELLO, hello.encode())
    assert _digest(wire) == _PINNED["client_hello"]


def test_handshake_byte_stream_is_pinned():
    """Both directions of a whole LOW handshake, protected Finished
    records included."""
    rng = _rng("handshake-material")
    ca = hbs.hbs_keygen(_SIG_AP.params, rng)
    kem = cbkem.kem_keygen(_ENC_AP.params, rng)
    cert = issue_certificate(
        ca, "pinned.example", _ENC_AP.algorithm_id, kem.pk.encoding, rng
    )
    client_end, server_end = (Tap(t) for t in transport_pair(timeout=30.0))
    server_config = ServerTlsConfig(
        registry=_REGISTRY,
        level=SecurityLevel.LOW,
        certificate=cert,
        kem_secret=kem.sk,
        rng=_rng("handshake-server"),
    )
    client_config = ClientTlsConfig(
        registry=_REGISTRY,
        level=SecurityLevel.LOW,
        trusted_roots=(ca.root,),
        rng=_rng("handshake-client"),
    )
    results = run_pair(
        ("server", lambda _: server_handshake(server_end, server_config)),
        ("client", lambda _: client_handshake(client_end, client_config)),
        transports=(client_end, server_end),
    )
    assert "client" in results and "server" in results, results
    assert _digest(b"".join(client_end.writes)) == _PINNED["handshake_client_to_server"]
    assert _digest(b"".join(server_end.writes)) == _PINNED["handshake_server_to_client"]


# ---------------------------------------------------------------------------
# Keys: roots, public keys and secret tables
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kem_keys():
    """One key per registry KEM row, built once for the module (the
    HIGH row takes seconds)."""
    return {
        ident: cbkem.kem_keygen(
            cbkem.KemParams.from_algorithm_id(ident), _rng("kem-pk/" + ident)
        )
        for ident in _PINNED_KEM_PKS
    }


@pytest.mark.parametrize("ident", sorted(_PINNED_ROOTS))
def test_signature_root_is_pinned(ident):
    kp = hbs.hbs_keygen(hbs.HbsParams.from_algorithm_id(ident), _rng("hbs-root/" + ident))
    assert kp.root.hex() == _PINNED_ROOTS[ident]


def test_kem_public_keys_are_pinned(kem_keys):
    digests = {ident: _digest(kp.pk.encoding) for ident, kp in kem_keys.items()}
    assert digests == _PINNED_KEM_PKS


def _same_tables(a: cbkem.KemKeyPair, b: cbkem.KemKeyPair) -> bool:
    return a.pk == b.pk and a.sk.inverse == b.sk.inverse


def test_loaded_tables_equal_the_seeded_tables(kem_keys):
    registry_rows = {
        template_resolve(builtin_registry(version), TemplateKind.ENCRYPTION, level).algorithm_id
        for version in (1, 2)
        for level in SecurityLevel
    }
    named = {p.algorithm_id for p in cbkem.NAMED_PARAM_SETS.values()}
    assert registry_rows | named == set(kem_keys)
    for ident, kp in kem_keys.items():
        loaded = cbkem.KemKeyPair.load(kp.params, kp.seed, kp.pk.encoding)
        assert loaded.seed == kp.seed
        assert _same_tables(loaded, kp), ident


def test_pool_and_in_process_builds_agree(monkeypatch):
    """Keys built by forked workers (up to three, whatever the core
    count) equal keys built in-process, and no worker outlives the build.
    A tree is its levels and its chain table, which the h=9 set and the
    MEDIUM row both keep."""
    sig_rows = [
        hbs.HbsParams(n_h=16, w=4, h=9, mode=hbs.HbsMode.STATEFUL),
        hbs.HbsParams.from_algorithm_id(
            template_resolve(_REGISTRY, TemplateKind.SIGNATURE, SecurityLevel.MEDIUM).algorithm_id
        ),
    ]
    kem_params = cbkem.KemParams.from_algorithm_id("CME-TOY-10-8")
    seed = bytes(range(32))
    monkeypatch.setattr(_parallel, "MIN_PARALLEL_HASH_CALLS", 1 << 62)
    trees_alone = [hbs._build_tree(sig_params, seed) for sig_params in sig_rows]
    kem_alone = cbkem.KemKeyPair.from_seed(kem_params, seed)
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("worker processes are forked, and this platform cannot fork")
    monkeypatch.setattr(_parallel, "MIN_PARALLEL_HASH_CALLS", 0)
    monkeypatch.setattr(_parallel, "available_cores", lambda: 3)
    assert _parallel._worker_count(16, 1) == 3
    trees_pooled = [hbs._build_tree(sig_params, seed) for sig_params in sig_rows]
    kem_pooled = cbkem.KemKeyPair.from_seed(kem_params, seed)
    assert multiprocessing.active_children() == []
    for sig_params, (_, table) in zip(sig_rows, trees_alone):
        assert len(table) == hbs._table_size(sig_params)
    assert trees_pooled == trees_alone
    assert _same_tables(kem_pooled, kem_alone)


class _Planned(Exception):
    pass


def test_low_keys_stay_in_process_and_larger_keys_use_the_pool(monkeypatch):
    """The pool threshold, applied to each module's cost estimate,
    leaves LOW keys in-process and hands MEDIUM and HIGH keys to two
    workers on a two-core machine.  The build stops once it is planned."""
    monkeypatch.setattr(_parallel, "available_cores", lambda: 2)
    monkeypatch.setattr(
        _parallel.multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
    )
    monkeypatch.setattr(_parallel.threading, "active_count", lambda: 1)

    def plan(fn, tasks, hash_calls):
        raise _Planned(_parallel._worker_count(len(tasks), hash_calls))

    monkeypatch.setattr(hbs, "parallel_map", plan)
    monkeypatch.setattr(cbkem, "parallel_map", plan)
    builders = (
        (TemplateKind.SIGNATURE, hbs.HbsParams, hbs.HbsKeyPair),
        (TemplateKind.ENCRYPTION, cbkem.KemParams, cbkem.KemKeyPair),
    )
    for version in (1, 2):
        for level in SecurityLevel:
            for kind, params_type, pair_type in builders:
                ident = template_resolve(builtin_registry(version), kind, level).algorithm_id
                with pytest.raises(_Planned) as planned:
                    pair_type.from_seed(params_type.from_algorithm_id(ident), bytes(32))
                expected = 1 if level is SecurityLevel.LOW else 2
                assert planned.value.args[0] == expected, ident


def test_pool_is_not_forked_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(_parallel, "available_cores", lambda: 4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        assert _parallel._worker_count(8, 1 << 62) == 1
    finally:
        release.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
