"""End-to-end acceptance checks.

Each test exercises one headline property of the package at full stated
volume (trial counts, size bounds, run counts) and records a single
PASS/FAIL verdict line through ``acceptance_report``; conftest echoes
the collected lines after the run, outside pytest's capture.

The checks deliberately re-derive their expectations from first
principles (closed-form sizes, brute-force enumeration, independent
recomposition) instead of trusting library constants.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time

import acceptance_report
from agilecrypt import cbkem, hbs
from agilecrypt.cli import main as cli_main
from agilecrypt.easyapi import (
    AlgorithmParameters,
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    easysigner_verify,
    frame_blob,
    hybrid_record_keys,
    parse_blob,
    template_resolve,
)
from agilecrypt.errors import (
    BadMac,
    BadPadding,
    BadPassword,
    ConnectionClosed,
    KeyExhausted,
    MalformedEncoding,
)
from agilecrypt.keystore import (
    CRASH_POINTS,
    EntryState,
    KeystoreEntry,
    KeystoreParameters,
    keystore_create,
    keystore_open,
)
from agilecrypt.minitls.certificate import issue_certificate
from agilecrypt.minitls.handshake import (
    ClientTlsConfig,
    ServerTlsConfig,
    TlsSession,
    client_handshake,
    derive_session_keys,
    server_handshake,
)
from agilecrypt.minitls.record import RecordLayer
from agilecrypt.minitls.transcript import HandshakeTranscript, transcript_report
from agilecrypt.minitls.transport import BufferTransport, Transport, transport_pair
from agilecrypt.minitls.wire import (
    AlertDescription,
    ContentType,
    TlsAlertReceived,
    TlsAlertSent,
    TlsError,
)
from agilecrypt.primitives import DeterministicRng, open_record, seal_record
from tls_harness import run_pair, start_serve

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

CLI = [sys.executable, "-m", "agilecrypt.cli"]


class SimulatedCrash(Exception):
    pass


class _StubRng:
    """Replays one fixed draw; lets a signature be recomputed from the
    exact randomizer another route already used."""

    def __init__(self, fixed: bytes):
        self._fixed = fixed

    def random_bytes(self, n: int) -> bytes:
        assert n == len(self._fixed)
        return self._fixed


class _CaptureTransport(Transport):
    """Write-only sink exposing the raw wire image."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    def read_exact(self, n: int) -> bytes:
        raise ConnectionClosed("capture transport is write-only")

    def close(self) -> None:
        pass


def _ksp(tmp_path, name: str) -> KeystoreParameters:
    return KeystoreParameters(
        path=str(tmp_path / name), password="acceptance-password", iterations=1500
    )


# ---------------------------------------------------------------------------
# 1: handshake size report at the megabyte-scale parameter set
# ---------------------------------------------------------------------------

def test_size_report_reaches_megabyte_scale(tmp_path):
    out = tmp_path / "mce-report.json"
    started = time.monotonic()
    rc = cli_main(
        ["measure", "--paramset", "mce-emu", "--reps", "3",
         "--seed", "acceptance-1", "--out", str(out)]
    )
    elapsed = time.monotonic() - started
    assert rc == 0
    report = json.loads(out.read_text())
    cert = next(m for m in report["messages"] if m["message"] == "Certificate")
    cert_median = cert["bytes"]["median"]
    total_median = report["total_bytes"]["median"]
    ok = (
        cert_median >= 1_310_380
        and 1_300_000 <= total_median <= 1_600_000
        and elapsed < 60.0
    )
    assert acceptance_report.record(
        1,
        "handshake-size-report",
        ok,
        f"Certificate median {cert_median} B (>= 1310380), total median "
        f"{total_median} B (within 1.3e6..1.6e6), {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2: client and server in separate processes echo 1 MiB, ten times
# ---------------------------------------------------------------------------

def test_two_process_handshake_and_megabyte_echo(tmp_path):
    setup_dir = tmp_path / "tls"
    assert cli_main(
        ["tls-setup", "--dir", str(setup_dir), "--level", "low", "--seed", "acceptance-2"]
    ) == 0
    runs, successes = 10, 0
    for i in range(runs):
        proc, port = start_serve(setup_dir, "low", timeout=120.0)
        report_path = tmp_path / f"echo-{i}.json"
        client = subprocess.run(
            [*CLI, "tls-connect", f"127.0.0.1:{port}", "--dir", str(setup_dir),
             "--level", "low", "--probe-bytes", str(1_048_576),
             "--out", str(report_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        proc.communicate(timeout=60)
        if client.returncode != 0 or proc.returncode != 0:
            continue
        report = json.loads(report_path.read_text())
        if report["suite"] == "0x1306" and report["aborted"] is False:
            successes += 1
    assert acceptance_report.record(
        2,
        "two-process-echo",
        successes == runs,
        f"{successes}/{runs} runs: suite 0x1306 handshake in separate "
        f"processes, 1 MiB echoed intact",
    )


# ---------------------------------------------------------------------------
# 3: diverged registry versions abort before key-exchange bytes move
# ---------------------------------------------------------------------------

def test_registry_drift_aborts_before_key_exchange():
    rng = DeterministicRng(b"acceptance-3 material")
    v1, v2 = builtin_registry(1), builtin_registry(2)
    sig_ap = template_resolve(v1, TemplateKind.SIGNATURE, SecurityLevel.LOW)
    enc_ap = template_resolve(v1, TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    issuer = hbs.hbs_keygen(sig_ap.params, rng)
    kem_kp = cbkem.kem_keygen(enc_ap.params, rng)
    cert = issue_certificate(
        issuer, "drift-server", enc_ap.algorithm_id,
        kem_kp.pk.encoding, rng,
    )

    runs, clean_aborts = 10, 0
    for i in range(runs):
        client_cfg = ClientTlsConfig(
            registry=v1,
            level=SecurityLevel.HIGH,
            trusted_roots=(issuer.root,),
            rng=DeterministicRng(b"drift client %d" % i),
        )
        server_cfg = ServerTlsConfig(
            registry=v2,
            level=SecurityLevel.HIGH,
            certificate=cert,
            kem_secret=kem_kp.sk,
            rng=DeterministicRng(b"drift server %d" % i),
        )
        client_t, server_t = transport_pair(timeout=10.0)
        outcome = run_pair(
            ("server", lambda _: server_handshake(server_t, server_cfg)),
            ("client", lambda _: client_handshake(client_t, client_cfg)),
            transports=(client_t, server_t),
        )
        server_exc, client_exc = outcome.get("server_exc"), outcome.get("client_exc")
        if not isinstance(server_exc, TlsAlertSent):
            continue
        if server_exc.description != AlertDescription.TEMPLATE_MISMATCH:
            continue
        if not isinstance(client_exc, TlsAlertReceived):
            continue
        if client_exc.description != AlertDescription.TEMPLATE_MISMATCH:
            continue
        names = set()
        for exc in (server_exc, client_exc):
            report = transcript_report(exc.transcript)
            if not report["aborted"] or report["alert"] != 112:
                break
            names |= {entry["message"] for entry in report["messages"]}
        else:
            if not names & {"Certificate", "ClientKeyExchange", "Finished"}:
                clean_aborts += 1

    assert acceptance_report.record(
        3,
        "template-drift-abort",
        clean_aborts == runs,
        f"{clean_aborts}/{runs} runs aborted with template_mismatch before "
        f"any certificate or key-exchange bytes",
    )


# ---------------------------------------------------------------------------
# 4: KEM roundtrips at both named sets plus exhaustive small-field check
# ---------------------------------------------------------------------------

def test_kem_roundtrips_and_small_field_bijection():
    results = {}
    for name in ("toy-64", "toy-128"):
        params = cbkem.NAMED_PARAM_SETS[name]
        good = 0
        for key_idx in range(10):
            kp = cbkem.kem_keygen(
                params, DeterministicRng(b"kem %s key %d" % (name.encode(), key_idx))
            )
            trial_rng = DeterministicRng(b"kem %s trials %d" % (name.encode(), key_idx))
            for _ in range(100):
                ct, secret = cbkem.kem_encap(kp.pk, trial_rng)
                if cbkem.kem_decap(kp.sk, ct) == secret:
                    good += 1
        results[name] = good

    # Exhaustive syndrome <-> position bijection in the smallest field:
    # every error position must map to a distinct nonzero syndrome and
    # the secret key must invert that map exactly.
    params3 = cbkem.KemParams(m=3, b=4)
    bijective_blocks = 0
    for key_idx in range(5):
        kp = cbkem.kem_keygen(params3, DeterministicRng(b"bij %d" % key_idx))
        for block in range(params3.b):
            syndromes = [
                kp.pk.syndrome_for_position(block, j) for j in range(params3.n)
            ]
            if sorted(syndromes) != list(range(1, 2**params3.m)):
                continue
            if all(
                kp.sk.position_for_syndrome(block, s) == j
                for j, s in enumerate(syndromes)
            ):
                bijective_blocks += 1

    ok = (
        results["toy-64"] == 1000
        and results["toy-128"] == 1000
        and bijective_blocks == 5 * params3.b
    )
    assert acceptance_report.record(
        4,
        "kem-roundtrip-bijection",
        ok,
        f"{results['toy-64']}/1000 toy-64 and {results['toy-128']}/1000 "
        f"toy-128 decap(encap) identities, syndrome bijection exact on "
        f"{bijective_blocks}/20 enumerated blocks",
    )


# ---------------------------------------------------------------------------
# 5: signature roundtrips, mutation rejection, closed-form sizes
# ---------------------------------------------------------------------------

def _independent_signature_size(n_h: int, w: int, h: int) -> int:
    """Recompute the serialized size from scratch: u32 leaf index, 32-byte
    randomizer, one n_h-byte chain value per message/checksum digit, one
    n_h-byte sibling per tree level."""
    chunk_bits = int(math.log2(w))
    l1 = math.ceil(8 * n_h / chunk_bits)
    l2 = math.floor(math.log(l1 * (w - 1), w)) + 1
    return 4 + 32 + (l1 + l2) * n_h + h * n_h


def test_signature_roundtrips_mutations_and_sizes():
    params = hbs.HbsParams.from_algorithm_id("SPX-TOY-16-16-10-S")
    kp = hbs.hbs_keygen(params, DeterministicRng(b"acceptance-5"))
    sign_rng = DeterministicRng(b"acceptance-5 signing")
    trial_rng = random.Random(50_001)

    roundtrips = mutations_rejected = 0
    signed: list[tuple[bytes, bytes]] = []
    for _ in range(1000):
        msg = trial_rng.randbytes(trial_rng.randrange(0, 128))
        blob = hbs.hbs_sign(kp, msg, sign_rng)
        if hbs.hbs_verify(kp.root, params, msg, blob):
            roundtrips += 1
        signed.append((msg, blob))

    for msg, blob in signed:
        flipped = bytearray(blob)
        bit = trial_rng.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        if not hbs.hbs_verify(kp.root, params, msg, bytes(flipped)):
            mutations_rejected += 1

    size_sets = (
        "SPX-TOY-16-16-8-S",
        "SPX-TOY-16-16-10-S",
        "SPX-TOY-16-4-4-S",
        "SPX-TOY-32-256-4-SL",
        "SPX-TOY-32-16-12-SL",
        "SPX-TOY-32-16-14-SL",
    )
    sizes_exact = 0
    for algorithm_id in size_sets:
        p = hbs.HbsParams.from_algorithm_id(algorithm_id)
        key = hbs.hbs_keygen(p, DeterministicRng(algorithm_id.encode()))
        sig = hbs.hbs_sign(key, b"sized", DeterministicRng(b"sizing"))
        expected = _independent_signature_size(p.n_h, p.w, p.h)
        if len(sig) == expected == p.signature_size:
            sizes_exact += 1

    ok = roundtrips == 1000 and mutations_rejected == 1000 and sizes_exact == len(size_sets)
    assert acceptance_report.record(
        5,
        "signature-roundtrip-mutation-size",
        ok,
        f"{roundtrips}/1000 roundtrips, {mutations_rejected}/1000 single-bit "
        f"mutations rejected, serialized size matches the closed form on "
        f"{sizes_exact}/{len(size_sets)} parameter sets",
    )


# ---------------------------------------------------------------------------
# 6: stateful keys never reuse a leaf, and exhaust at exactly 2^h
# ---------------------------------------------------------------------------

def test_stateful_leaf_safety_across_crashes_and_exhaustion(tmp_path):
    # Part one: randomized crash/reopen schedules against one store; every
    # leaf index handed out must be globally unique.
    schedule_rng = random.Random(60_001)
    store_params = _ksp(tmp_path, "schedules.agks")
    with keystore_create(store_params) as ks:
        ks.put_entry(
            KeystoreEntry(
                alias="sig",
                algorithm_id="SPX-TOY-16-16-12-S",
                secret_material=b"\x01" * 32,
                public_material=b"\x02" * 21,
                state=EntryState(next_leaf=0, reserved_until=0),
            )
        )
    released: list[tuple[int, int]] = []
    schedules = 100
    for _ in range(schedules):
        ks = keystore_open(store_params)
        crash_at = schedule_rng.choice([None] + list(CRASH_POINTS))
        countdown = schedule_rng.randrange(1, 4)

        def hook(name: str) -> None:
            nonlocal countdown
            if crash_at is not None and name == crash_at:
                countdown -= 1
                if countdown == 0:
                    raise SimulatedCrash(name)

        ks.crash_hook = hook
        try:
            for _ in range(schedule_rng.randrange(1, 4)):
                start, end = ks.reserve_leaves("sig", schedule_rng.randrange(1, 5))
                released.append((start, end))
                if schedule_rng.random() < 0.5:
                    ks.record_consumed("sig", schedule_rng.randrange(start, end + 1))
        except (SimulatedCrash, KeyExhausted):
            ks.abandon()
        else:
            ks.close()
    seen: set[int] = set()
    duplicates = 0
    for start, end in released:
        for leaf in range(start, end):
            if leaf in seen:
                duplicates += 1
            seen.add(leaf)

    # Part two: a real signer must produce each leaf exactly once and
    # refuse the 2^h + 1st signature.
    ap = AlgorithmParameters(
        algorithm_id="SPX-TOY-16-16-4-S",
        params=hbs.HbsParams(n_h=16, w=16, h=4, mode=hbs.HbsMode.STATEFUL),
        registry_version=1,
    )
    leaf_indices: list[int] = []
    exhausted_exactly = False
    with EasySigner.with_new_key(
        ap, _ksp(tmp_path, "exhaust.agks"), rng=DeterministicRng(b"acceptance-6")
    ) as signer:
        for i in range(16):
            _, _, raw = parse_blob(signer.sign(b"use %d" % i))
            leaf_indices.append(int.from_bytes(raw[:4], "big"))
        try:
            signer.sign(b"one too many")
        except KeyExhausted:
            exhausted_exactly = True

    ok = duplicates == 0 and leaf_indices == list(range(16)) and exhausted_exactly
    assert acceptance_report.record(
        6,
        "stateful-leaf-safety",
        ok,
        f"{duplicates} duplicate leaves over {schedules} randomized "
        f"crash/reopen schedules ({len(seen)} leaves released), signer used "
        f"leaves 0..15 once each and refused signature 17",
    )


# ---------------------------------------------------------------------------
# 7: any single-bit tamper of a protected record tears the session down
# ---------------------------------------------------------------------------

def test_protected_record_tampering_always_tears_down():
    trial_rng = random.Random(70_001)
    trials = 1000
    teardowns = mac_failures = other_failures = plaintext_leaks = 0
    for trial in range(trials):
        keys = derive_session_keys(
            b"\x07" * 16 + trial.to_bytes(4, "big"),
            b"\x01" * 32,
            b"\x02" * 32,
        )
        capture = _CaptureTransport()
        sender = RecordLayer(capture)
        sender.enable_send_protection(keys.client)
        message = trial_rng.randbytes(trial_rng.randrange(1, 256))
        sender.send(ContentType.APPLICATION_DATA, message)

        # One random bit anywhere in the wire image, header included.
        wire = bytearray(capture.buffer)
        bit = trial_rng.randrange(len(wire) * 8)
        wire[bit // 8] ^= 1 << (bit % 8)

        receiver_transport = BufferTransport()
        receiver_transport.feed(bytes(wire))
        receiver = RecordLayer(receiver_transport)
        receiver.enable_recv_protection(keys.client)
        session = TlsSession(receiver, keys, HandshakeTranscript())
        try:
            session.recv()
        except (BadMac, BadPadding):
            mac_failures += 1
        except (MalformedEncoding, ConnectionClosed, TlsError):
            other_failures += 1
        else:
            plaintext_leaks += 1
        if not session._open:
            teardowns += 1

    ok = teardowns == trials and mac_failures == trials and plaintext_leaks == 0
    assert acceptance_report.record(
        7,
        "record-tamper-teardown",
        ok,
        f"{teardowns}/{trials} tampered records tore the session down, "
        f"{mac_failures}/{trials} flips raised bad_mac/bad_padding "
        f"({other_failures} other errors), {plaintext_leaks} plaintext leaks",
    )


# ---------------------------------------------------------------------------
# 8: facade operations equal the hand-rolled composition bit for bit
# ---------------------------------------------------------------------------

def test_facade_agrees_with_direct_composition(tmp_path):
    registry = builtin_registry(1)
    trial_rng = random.Random(80_001)

    # Signatures: recompute each facade signature from the same leaf and
    # randomizer through the bare signing routine; bytes must match.  The
    # reverse direction frames a bare signature and runs facade verify.
    sig_ap = template_resolve(registry, TemplateKind.SIGNATURE, SecurityLevel.LOW)
    sig_identical = sig_cross_ok = 0
    sign_trials = 100
    with EasySigner.with_new_key(
        sig_ap, _ksp(tmp_path, "sig.agks"), rng=DeterministicRng(b"acceptance-8 sig")
    ) as signer:
        _, _, raw_pub = parse_blob(signer.public_blob)
        pub_params, root = hbs.hbs_parse_public(raw_pub)
        direct_kp = hbs.HbsKeyPair.from_seed(
            pub_params, signer.store.get_entry(signer.alias).secret_material
        )
        for i in range(sign_trials):
            msg = trial_rng.randbytes(trial_rng.randrange(0, 200))
            ident, _, raw_sig = parse_blob(signer.sign(msg))
            leaf_index, randomizer = int.from_bytes(raw_sig[:4], "big"), raw_sig[4:36]
            direct = hbs.hbs_sign_with_leaf(direct_kp, leaf_index, msg, _StubRng(randomizer))
            if direct == raw_sig and hbs.hbs_verify(root, pub_params, msg, raw_sig):
                sig_identical += 1
            bare = hbs.hbs_sign_with_leaf(
                direct_kp, 100 + i, msg, DeterministicRng(b"bare %d" % i)
            )
            framed = frame_blob(ident, 1, bare)
            if easysigner_verify(signer.public_blob, msg, framed):
                sig_cross_ok += 1

    # Encryption: open facade output with bare KEM + record sealing, and
    # decrypt a hand-assembled container through the facade.
    enc_ap = template_resolve(registry, TemplateKind.ENCRYPTION, SecurityLevel.LOW)
    enc_facade_to_direct = enc_direct_to_facade = 0
    enc_trials = 100
    with EasyEncrypter.with_new_key(
        enc_ap, _ksp(tmp_path, "enc.agks"), rng=DeterministicRng(b"acceptance-8 enc")
    ) as enc:
        params = enc_ap.params
        direct_kp = cbkem.KemKeyPair.from_seed(
            params, enc.store.get_entry(enc.alias).secret_material
        )
        encap_rng = DeterministicRng(b"acceptance-8 encap")
        for i in range(enc_trials):
            msg = trial_rng.randbytes(trial_rng.randrange(0, 200))

            blob = enc.encrypt(enc.public_blob, msg)
            ident, version, payload = parse_blob(blob)
            ct_bytes, sealed = payload[: params.ct_bytes], payload[params.ct_bytes :]
            secret = cbkem.kem_decap(direct_kp.sk, ct_bytes)
            header = frame_blob(ident, version, b"") + ct_bytes
            if open_record(hybrid_record_keys(secret), 0, header, sealed) == msg:
                enc_facade_to_direct += 1

            ct_bytes, secret = cbkem.kem_encap(direct_kp.pk, encap_rng)
            header = frame_blob(enc.algorithm_id, 1, b"") + ct_bytes
            sealed = seal_record(hybrid_record_keys(secret), 0, header, msg)
            hand_built = frame_blob(enc.algorithm_id, 1, ct_bytes + sealed)
            if enc.decrypt(hand_built) == msg:
                enc_direct_to_facade += 1

    ok = (
        sig_identical == sign_trials
        and sig_cross_ok == sign_trials
        and enc_facade_to_direct == enc_trials
        and enc_direct_to_facade == enc_trials
    )
    assert acceptance_report.record(
        8,
        "facade-direct-equivalence",
        ok,
        f"signatures {sig_identical}/{sign_trials} byte-identical and "
        f"{sig_cross_ok}/{sign_trials} cross-verified; encryption "
        f"{enc_facade_to_direct}/{enc_trials} facade->direct and "
        f"{enc_direct_to_facade}/{enc_trials} direct->facade",
    )


# ---------------------------------------------------------------------------
# 9: keystore at rest survives wrong passwords and injected crashes
# ---------------------------------------------------------------------------

def _entry_snapshot(entry: KeystoreEntry) -> tuple:
    state = entry.state
    return (
        entry.alias,
        entry.algorithm_id,
        entry.secret_material,
        entry.public_material,
        None if state is None else (state.next_leaf, state.reserved_until),
    )


def _snapshot_store(params: KeystoreParameters) -> dict[str, tuple]:
    store = keystore_open(params, read_only=True)
    try:
        return {a: _entry_snapshot(store.get_entry(a)) for a in store.aliases()}
    finally:
        store.close()


def test_keystore_survives_wrong_passwords_and_crashes(tmp_path):
    params = _ksp(tmp_path, "atrest.agks")
    anchor = KeystoreEntry(
        alias="anchor",
        algorithm_id="CME-TOY-10-8",
        secret_material=bytes(range(32)),
        public_material=b"\xAA" * 64,
        state=None,
    )
    with keystore_create(params) as ks:
        ks.put_entry(anchor)
    baseline = _snapshot_store(params)

    password_rng = random.Random(90_001)
    rejected = 0
    wrong_attempts = 100
    for _ in range(wrong_attempts):
        while True:
            guess = "".join(
                chr(password_rng.randrange(33, 127))
                for _ in range(password_rng.randrange(4, 24))
            )
            if guess != params.password:
                break
        try:
            keystore_open(
                KeystoreParameters(path=params.path, password=guess, iterations=1500)
            )
        except BadPassword:
            rejected += 1

    crash_survivals = crash_injections = 0
    for point in CRASH_POINTS:
        for operation in ("put", "update"):
            crash_injections += 1
            ks = keystore_open(params)
            ks.crash_hook = lambda name, stop=point: (
                (_ for _ in ()).throw(SimulatedCrash(name)) if name == stop else None
            )
            newcomer = KeystoreEntry(
                alias=f"new-{operation}-{point}",
                algorithm_id="CME-TOY-10-8",
                secret_material=b"\x11" * 32,
                public_material=b"\x22" * 16,
                state=None,
            )
            try:
                if operation == "put":
                    ks.put_entry(newcomer)
                else:
                    updated = KeystoreEntry(
                        alias="anchor",
                        algorithm_id=anchor.algorithm_id,
                        secret_material=anchor.secret_material,
                        public_material=b"\xBB" * 64,
                        state=None,
                    )
                    ks.update_entry(updated)
            except SimulatedCrash:
                ks.abandon()
            else:
                ks.abandon()
                continue  # hook never fired; do not count as a survival
            after = _snapshot_store(params)
            anchor_after = after.get("anchor")
            anchor_intact = anchor_after is not None and (
                anchor_after == baseline["anchor"]
                or (operation == "update" and anchor_after[3] == b"\xBB" * 64)
            )
            newcomer_consistent = (
                newcomer.alias not in after
                or after[newcomer.alias] == _entry_snapshot(newcomer)
            )
            if anchor_intact and newcomer_consistent:
                crash_survivals += 1
            baseline = after

    ok = rejected == wrong_attempts and crash_survivals == crash_injections
    assert acceptance_report.record(
        9,
        "keystore-at-rest",
        ok,
        f"{rejected}/{wrong_attempts} wrong passwords rejected, store "
        f"reopened intact after {crash_survivals}/{crash_injections} "
        f"injected crashes across every persistence point",
    )
