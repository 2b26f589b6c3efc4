"""Command-line interface tests.

Every test but one drives the installed entry point through a real
subprocess, so argument parsing, exit codes, the password environment
variable, and the stdout/stderr split are all exercised exactly as a
shell user sees them.  The tls-connect port test calls main in process,
so that it can refuse any connection attempt.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from agilecrypt.easyapi import frame_blob, parse_blob
from agilecrypt.errors import ConnectionClosed

CLI = [sys.executable, "-m", "agilecrypt.cli"]
PASSWORD = "cli-test-password"
KDF_ITERATIONS = "2000"
MESSAGE = b"The files tell their own story when the transcript is honest."


def run_cli(
    *args,
    password: str | None = PASSWORD,
    binary: bool = False,
    timeout: float = 180.0,
):
    env = os.environ.copy()
    env.pop("AGILECRYPT_PASSWORD", None)
    if password is not None:
        env["AGILECRYPT_PASSWORD"] = password
    return subprocess.run(
        [*CLI, *(str(a) for a in args)],
        capture_output=True,
        text=not binary,
        env=env,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# Shared fixtures: one keystore with a signing and an encryption key
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def keyring(workdir):
    ks = workdir / "ks.bin"
    msg = workdir / "msg.bin"
    msg.write_bytes(MESSAGE)

    sig = run_cli(
        "keygen", "sign", "--level", "low",
        "--keystore", ks, "--kdf-iterations", KDF_ITERATIONS,
        "--out", workdir / "signer.pub",
    )
    assert sig.returncode == 0, sig.stderr
    enc = run_cli(
        "keygen", "encrypt", "--level", "low",
        "--keystore", ks, "--kdf-iterations", KDF_ITERATIONS,
        "--out", workdir / "enc.pub",
    )
    assert enc.returncode == 0, enc.stderr
    return {
        "keystore": ks,
        "message": msg,
        "sig_alias": sig.stdout.strip(),
        "enc_alias": enc.stdout.strip(),
        "signer_pub": workdir / "signer.pub",
        "enc_pub": workdir / "enc.pub",
    }


def _keystore_args(keyring):
    return ["--keystore", keyring["keystore"], "--kdf-iterations", KDF_ITERATIONS]


# ---------------------------------------------------------------------------
# Key lifecycle
# ---------------------------------------------------------------------------

def test_keygen_prints_alias_and_writes_public_blob(keyring):
    from agilecrypt.easyapi import parse_blob

    assert keyring["sig_alias"].startswith("sig-SPX-TOY-16-16-8-S")
    assert keyring["enc_alias"].startswith("enc-CME-TOY-10-8")
    for path, algorithm in (
        (keyring["signer_pub"], "SPX-TOY-16-16-8-S"),
        (keyring["enc_pub"], "CME-TOY-10-8"),
    ):
        ident, version, payload = parse_blob(path.read_bytes())
        assert ident == algorithm
        assert version == 1
        assert len(payload) > 0


def test_sign_verify_roundtrip_exits_zero(keyring, workdir):
    sig_path = workdir / "msg.sig"
    signed = run_cli(
        "sign", keyring["message"], "--alias", keyring["sig_alias"],
        *_keystore_args(keyring), "--out", sig_path,
    )
    assert signed.returncode == 0, signed.stderr
    checked = run_cli(
        "verify", keyring["message"],
        "--public", keyring["signer_pub"], "--sig", sig_path,
        password=None,
    )
    assert checked.returncode == 0, checked.stderr


def test_sign_default_output_is_input_plus_sig(keyring, workdir):
    msg = workdir / "other.bin"
    msg.write_bytes(b"second message")
    signed = run_cli(
        "sign", msg, "--alias", keyring["sig_alias"], *_keystore_args(keyring)
    )
    assert signed.returncode == 0, signed.stderr
    assert (workdir / "other.bin.sig").exists()


def test_verify_tampered_signature_exits_one(keyring, workdir):
    sig_path = workdir / "tampered.sig"
    signed = run_cli(
        "sign", keyring["message"], "--alias", keyring["sig_alias"],
        *_keystore_args(keyring), "--out", sig_path,
    )
    assert signed.returncode == 0, signed.stderr
    blob = bytearray(sig_path.read_bytes())
    blob[-1] ^= 0x01
    sig_path.write_bytes(bytes(blob))
    checked = run_cli(
        "verify", keyring["message"],
        "--public", keyring["signer_pub"], "--sig", sig_path,
        password=None,
    )
    assert checked.returncode == 1
    assert "rejected" in checked.stderr


def test_encrypt_decrypt_roundtrip(keyring, workdir):
    ct_path = workdir / "msg.enc"
    sealed = run_cli(
        "encrypt", keyring["message"], "--alias", keyring["enc_alias"],
        "--recipient", keyring["enc_pub"],
        *_keystore_args(keyring), "--out", ct_path,
    )
    assert sealed.returncode == 0, sealed.stderr
    assert ct_path.read_bytes() != MESSAGE
    opened = run_cli(
        "decrypt", ct_path, "--alias", keyring["enc_alias"],
        *_keystore_args(keyring),
        binary=True,
    )
    assert opened.returncode == 0, opened.stderr
    assert opened.stdout == MESSAGE


def test_envelope_seal_open_roundtrip(keyring, workdir):
    env_path = workdir / "msg.agenv"
    sealed = run_cli(
        "envelope-seal", keyring["message"], "--alias", keyring["sig_alias"],
        "--recipient", keyring["enc_pub"],
        *_keystore_args(keyring), "--out", env_path,
    )
    assert sealed.returncode == 0, sealed.stderr
    opened = run_cli(
        "envelope-open", env_path, "--alias", keyring["enc_alias"],
        "--sender", keyring["signer_pub"],
        *_keystore_args(keyring),
        binary=True,
    )
    assert opened.returncode == 0, opened.stderr
    assert opened.stdout == MESSAGE


def test_envelope_open_with_wrong_sender_key_exits_one(keyring, workdir):
    env_path = workdir / "msg2.agenv"
    sealed = run_cli(
        "envelope-seal", keyring["message"], "--alias", keyring["sig_alias"],
        "--recipient", keyring["enc_pub"],
        *_keystore_args(keyring), "--out", env_path,
    )
    assert sealed.returncode == 0, sealed.stderr
    opened = run_cli(
        "envelope-open", env_path, "--alias", keyring["enc_alias"],
        "--sender", keyring["enc_pub"],
        *_keystore_args(keyring),
    )
    assert opened.returncode == 1
    assert "AlgorithmMismatch" in opened.stderr


def test_sign_with_an_encryption_alias_exits_one(keyring, workdir):
    result = run_cli(
        "sign", keyring["message"], "--alias", keyring["enc_alias"],
        *_keystore_args(keyring), "--out", workdir / "enc-alias.sig",
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [result.stderr.strip()]
    assert result.stderr.startswith("agilecrypt: error: AlgorithmMismatch")
    assert not (workdir / "enc-alias.sig").exists()


def test_verify_with_kem_blobs_exits_one(keyring):
    result = run_cli(
        "verify", keyring["message"],
        "--public", keyring["enc_pub"], "--sig", keyring["enc_pub"],
        password=None,
    )
    assert result.returncode == 1
    assert result.stderr == "agilecrypt: error: signature rejected\n"


# ---------------------------------------------------------------------------
# Exit-code and password contract
# ---------------------------------------------------------------------------

def test_missing_required_flag_exits_two(keyring):
    result = run_cli("sign", keyring["message"], *_keystore_args(keyring))
    assert result.returncode == 2


def test_unknown_level_exits_two(workdir):
    result = run_cli(
        "keygen", "sign", "--level", "ultra",
        "--keystore", workdir / "unused.bin",
    )
    assert result.returncode == 2


def test_missing_password_exits_two_and_names_the_env_var(keyring, workdir):
    result = run_cli(
        "decrypt", workdir / "msg.enc", "--alias", keyring["enc_alias"],
        *_keystore_args(keyring),
        password=None,
    )
    assert result.returncode == 2
    assert "AGILECRYPT_PASSWORD" in result.stderr


def test_password_flag_beats_environment(keyring, workdir):
    listing = run_cli(
        "sign", keyring["message"], "--alias", keyring["sig_alias"],
        *_keystore_args(keyring), "--password", PASSWORD,
        "--out", workdir / "flagpw.sig",
        password="wrong-environment-password",
    )
    assert listing.returncode == 0, listing.stderr


def test_positional_password_is_rejected(keyring):
    result = run_cli(
        "sign", keyring["message"], PASSWORD, "--alias", keyring["sig_alias"],
        *_keystore_args(keyring),
        password=None,
    )
    assert result.returncode == 2


@pytest.mark.parametrize("via", ["flag", "environment"])
def test_password_that_is_not_utf8_exits_one(workdir, via):
    # subprocess encodes "\udcff" as the raw byte 0xff, which the child
    # decodes back to "\udcff", as it would a shell's $'\xff'.
    ks = workdir / f"not-utf8-{via}.bin"
    flag = ["--password", "\udcff"] if via == "flag" else []
    result = run_cli(
        "keygen", "sign", "--level", "low", "--keystore", ks, *flag,
        password="\udcff" if via == "environment" else None,
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "agilecrypt: error: ParameterError: password is not valid UTF-8"
    ]
    assert not ks.exists()


def test_wrong_password_exits_one(keyring):
    result = run_cli(
        "sign", keyring["message"], "--alias", keyring["sig_alias"],
        *_keystore_args(keyring),
        password="not-the-password",
    )
    assert result.returncode == 1
    assert "BadPassword" in result.stderr


def test_missing_input_file_exits_one(keyring, workdir):
    result = run_cli(
        "verify", workdir / "does-not-exist.bin",
        "--public", keyring["signer_pub"], "--sig", keyring["signer_pub"],
        password=None,
    )
    assert result.returncode == 1


# ---------------------------------------------------------------------------
# Registry dump
# ---------------------------------------------------------------------------

def test_registry_dump_matches_builtin_text(workdir):
    from agilecrypt.easyapi import builtin_registry

    for version in (1, 2):
        result = run_cli("registry-dump", "--builtin", version, password=None)
        assert result.returncode == 0
        assert result.stdout == builtin_registry(version).canonical_text()


def test_registry_file_that_is_not_ascii_exits_one(workdir):
    registry = workdir / "not-ascii-registry.txt"
    registry.write_bytes(b"\xff")
    ks = workdir / "not-ascii-registry.bin"
    result = run_cli("keygen", "sign", "--level", "low", "--keystore", ks, "--registry", registry)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("agilecrypt: error: MalformedEncoding")
    assert not ks.exists()


# ---------------------------------------------------------------------------
# TLS echo pair over subprocesses
# ---------------------------------------------------------------------------

def _start_serve(dirpath, level, registry=None, timeout=180.0):
    """Launch tls-serve --once and wait for its PORT line."""
    args = [*CLI, "tls-serve", "--dir", str(dirpath), "--level", level, "--once"]
    if registry is not None:
        args += ["--registry", str(registry)]
    env = os.environ.copy()
    env.pop("AGILECRYPT_PASSWORD", None)
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    line_box: list[str] = []

    def read_line() -> None:
        line_box.append(proc.stdout.readline())

    reader = threading.Thread(target=read_line, daemon=True)
    reader.start()
    reader.join(timeout)
    if reader.is_alive() or not line_box or not line_box[0].startswith("PORT "):
        proc.kill()
        _, err = proc.communicate(timeout=30)
        pytest.fail(f"server did not announce a port: {err}")
    return proc, int(line_box[0].split()[1])


def _connection_lines(server_err: str) -> list[dict]:
    """The JSON lines tls-serve writes to standard error, one per connection."""
    return [json.loads(line) for line in server_err.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def tls_low_dir(workdir):
    d = workdir / "tlslow"
    result = run_cli(
        "tls-setup", "--dir", d, "--level", "low", "--seed", "fixture-low",
        password=None,
    )
    assert result.returncode == 0, result.stderr
    return d


def test_tls_setup_writes_the_three_fixture_files(tls_low_dir):
    for name in ("ca.root", "server.cert", "server.seed"):
        assert (tls_low_dir / name).stat().st_size > 0


def test_tls_serve_connect_echo_and_report(tls_low_dir, workdir):
    proc, port = _start_serve(tls_low_dir, "low")
    report_path = workdir / "connect-report.json"
    try:
        result = run_cli(
            "tls-connect", f"127.0.0.1:{port}", "--dir", tls_low_dir,
            "--level", "low", "--probe-bytes", 4096, "--out", report_path,
            password=None,
        )
    finally:
        _, server_err = proc.communicate(timeout=60)
    assert result.returncode == 0, result.stderr
    assert proc.returncode == 0, server_err
    report = json.loads(report_path.read_text())
    assert report["suite"] == "0x1306"
    assert report["aborted"] is False
    names = [m["message"] for m in report["messages"]]
    assert "Certificate" in names and "Finished" in names
    [line] = _connection_lines(server_err)
    assert sorted(line) == ["alert", "bytes_received", "bytes_sent", "ms", "outcome"]
    assert (line["outcome"], line["alert"]) == ("ok", None)
    assert line["bytes_sent"] > 4096 and line["bytes_received"] > 4096


def test_tls_serve_rejects_a_seed_for_another_kem(tls_low_dir, workdir):
    d = workdir / "tls-mismatch"
    d.mkdir()
    for name in ("ca.root", "server.cert"):
        (d / name).write_bytes((tls_low_dir / name).read_bytes())
    kem_id, version, seed = parse_blob((tls_low_dir / "server.seed").read_bytes())
    assert kem_id == "CME-TOY-10-8"
    (d / "server.seed").write_bytes(frame_blob("CME-TOY-13-16", version, seed))
    result = run_cli(
        "tls-serve", "--dir", d, "--level", "low", "--once", password=None, timeout=60
    )
    assert result.returncode == 1
    assert "PORT" not in result.stdout
    assert "AlgorithmMismatch" in result.stderr and "CME-TOY-10-8" in result.stderr


def test_tls_connect_to_closed_port_exits_one(tls_low_dir):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, port = probe.getsockname()
    probe.close()
    result = run_cli(
        "tls-connect", f"127.0.0.1:{port}", "--dir", tls_low_dir,
        "--level", "low", password=None,
    )
    assert result.returncode == 1


def test_tls_connect_bad_address_exits_two(tls_low_dir):
    result = run_cli(
        "tls-connect", "127.0.0.1:", "--dir", tls_low_dir, "--level", "low",
        password=None,
    )
    assert result.returncode == 2


@pytest.mark.parametrize("port", ["70000", "65536", "0", "\u00b2", "\u0663", "+80"])
def test_tls_connect_refuses_a_port_before_reading_or_connecting(tmp_path, monkeypatch, port):
    # In process, so that a connection attempt fails the test instead of
    # reaching whatever port the resolver makes of the number.
    from agilecrypt import cli

    def no_connection(*args, **kwargs):
        raise AssertionError("tls-connect tried to connect")

    monkeypatch.setattr(cli, "connect_tcp", no_connection)
    # --dir names no directory: reading ca.root first would exit 1.
    args = ["tls-connect", f"127.0.0.1:{port}", "--dir", str(tmp_path / "absent"), "--level", "low"]
    assert cli.main(args) == 2


def test_tls_connect_strips_the_brackets_of_an_ipv6_host(tmp_path, monkeypatch):
    from agilecrypt import cli

    hosts = []

    def record_host(host, port, timeout=None):
        hosts.append((host, port))
        raise ConnectionClosed("refused by the test")

    monkeypatch.setattr(cli, "connect_tcp", record_host)
    (tmp_path / "ca.root").write_bytes(b"root")
    args = ["tls-connect", "[::1]:4433", "--dir", str(tmp_path), "--level", "low"]
    assert cli.main(args) == 1
    assert hosts == [("::1", 4433)]


@pytest.mark.parametrize(
    "args",
    [
        ("tls-serve", "--once", "--port", "70000"),
        ("tls-serve", "--once", "--port", "-1"),
        ("tls-connect", "127.0.0.1:9", "--timeout", "-1"),
        ("tls-connect", "127.0.0.1:9", "--probe-bytes", "-1"),
        ("keygen", "sign", "--kdf-iterations", "0"),
    ],
)
def test_out_of_range_argument_is_a_usage_error(tls_low_dir, workdir, args):
    command, *rest = args
    if command == "keygen":
        rest += ["--keystore", workdir / "unused-range.bin"]
    else:
        rest += ["--dir", tls_low_dir]
    result = run_cli(command, *rest, "--level", "low")
    assert result.returncode == 2, result.stderr
    errors = [line for line in result.stderr.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].startswith("agilecrypt "), result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "code, label, name",
    [(42, "bad_certificate", "BAD_CERTIFICATE"), (99, "alert_99", "code 99")],
)
def test_tls_connect_names_a_received_alert(tls_low_dir, code, label, name):
    """A server that answers the ClientHello with a fatal alert: the one
    stderr line names a known code and spells out an unknown one."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def answer_with_alert() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(bytes([21, 3, 3, 0, 2, 2, code]))
            conn.shutdown(socket.SHUT_WR)
            try:
                while conn.recv(65536):
                    pass
            except OSError:
                pass

    responder = threading.Thread(target=answer_with_alert, daemon=True)
    responder.start()
    try:
        result = run_cli(
            "tls-connect", f"127.0.0.1:{port}", "--dir", tls_low_dir,
            "--level", "low", password=None, timeout=60,
        )
    finally:
        responder.join(timeout=60)
        listener.close()
    assert not responder.is_alive()
    assert result.returncode == 1
    assert result.stderr == (
        f"agilecrypt: error: handshake failed: {label} (received fatal alert {name})\n"
    )


def test_registry_drift_aborts_both_processes(workdir):
    setup_dir = workdir / "tlshigh"
    result = run_cli(
        "tls-setup", "--dir", setup_dir, "--level", "high", "--seed", "fixture-high",
        password=None, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    reg2 = workdir / "registry-v2.txt"
    dumped = run_cli("registry-dump", "--builtin", 2, "--out", reg2, password=None)
    assert dumped.returncode == 0

    proc, port = _start_serve(setup_dir, "high", timeout=300)
    try:
        client = run_cli(
            "tls-connect", f"127.0.0.1:{port}", "--dir", setup_dir,
            "--level", "high", "--registry", reg2,
            password=None, timeout=300,
        )
    finally:
        _, server_err = proc.communicate(timeout=120)
    assert client.returncode == 1
    assert proc.returncode == 1
    assert "template_mismatch" in client.stderr
    assert "template_mismatch" in server_err
    [line] = _connection_lines(server_err)
    assert (line["outcome"], line["alert"]) == ("alert_sent", "template_mismatch")


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

def _strip_timing(report: dict) -> dict:
    trimmed = dict(report)
    trimmed.pop("duration_ms", None)
    trimmed.pop("wall_clock_s", None)
    trimmed.pop("setup_s", None)
    return trimmed


def test_measure_writes_aggregated_report(workdir):
    out = workdir / "measure-a.json"
    result = run_cli(
        "measure", "--paramset", "toy-64", "--reps", 3, "--seed", "report-seed",
        "--out", out, password=None,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["paramset"] == "toy-64"
    assert report["repetitions"] == 3
    assert report["aborted"] is False
    for entry in report["messages"]:
        stats = entry["bytes"]
        assert stats["min"] <= stats["median"] <= stats["max"]
    cert = [m for m in report["messages"] if m["message"] == "Certificate"]
    assert len(cert) == 1 and cert[0]["direction"] == "received"
    assert report["total_bytes"]["max"] < 110_000


def test_measure_reports_are_identical_apart_from_timing(workdir):
    out_a = workdir / "measure-a.json"
    out_b = workdir / "measure-b.json"
    if not out_a.exists():
        first = run_cli(
            "measure", "--paramset", "toy-64", "--reps", 3, "--seed", "report-seed",
            "--out", out_a, password=None,
        )
        assert first.returncode == 0, first.stderr
    second = run_cli(
        "measure", "--paramset", "toy-64", "--reps", 3, "--seed", "report-seed",
        "--out", out_b, password=None,
    )
    assert second.returncode == 0, second.stderr
    report_a = _strip_timing(json.loads(out_a.read_text()))
    report_b = _strip_timing(json.loads(out_b.read_text()))
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)


def test_measure_rejects_unknown_paramset(workdir):
    for paramset, reps in (("toy-999", 1), ("toy-64", 0), ("toy-64", -1)):
        result = run_cli(
            "measure", "--paramset", paramset, "--reps", reps, password=None
        )
        assert result.returncode == 2, (paramset, reps, result.stderr)
        assert "Traceback" not in result.stderr
