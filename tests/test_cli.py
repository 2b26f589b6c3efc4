"""Command-line interface tests.

Every test but three drives the CLI through a real `python -m
agilecrypt.cli` subprocess, so argument parsing, exit codes, the
password environment variable, and the stdout/stderr split are all
exercised exactly as a shell user sees them.  The tls-connect port and
IPv6 tests call main in process, with connect_tcp patched, so that no
connection is made; so does the partial-write test, with os.write
patched.  Two more read cli.py itself: the CLI only parses and
dispatches, so it imports neither socket nor threading, and it writes no
file itself (keystore.write_whole lands every output).

The refused commands are one case table, REFUSED: a row names a command
line over inputs damaged once per module, its exit code, the text of its
one error line, and its password.  Every row checks the same contract:
one `: error:` line and no traceback on stderr (on exit 1, nothing
else), no `PORT` on stdout, and no file left at the row's new path.
"""

from __future__ import annotations

import ast
import errno
import json
import os
import random
import signal
import socket
import stat
import subprocess
import sys
import threading

import pytest

from agilecrypt import cli
from agilecrypt.easyapi import builtin_registry, easysigner_verify, frame_blob, parse_blob
from agilecrypt.errors import ConnectionClosed
from agilecrypt.keystore import KeystoreParameters, keystore_open
from tls_harness import start_serve

CLI = [sys.executable, "-m", "agilecrypt.cli"]
PASSWORD = "cli-test-password"
KDF_ITERATIONS = "2000"
MESSAGE = b"The files tell their own story when the transcript is honest."


def run_cli(
    *args,
    password: str | None = PASSWORD,
    binary: bool = False,
    timeout: float = 180.0,
    umask: int = -1,
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
        umask=umask,
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


def test_cli_imports_neither_socket_nor_threading():
    """Listening, accepting and threads per connection live in minitls."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert imported and not imported & {"socket", "threading"}, imported


def _writes_a_file(call: ast.Call) -> bool:
    """os.open, os.fchmod, or an open() whose mode may write."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id == "os" and func.attr in ("open", "fchmod")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    # A mode that is no string literal may write.
    return any(not isinstance(m, ast.Constant) or set("wax+") & set(str(m.value)) for m in modes)


def test_cli_writes_no_file_itself():
    """Every output file lands through keystore.write_whole: cli.py calls
    neither os.open nor os.fchmod nor a writing open(), and names no O_TRUNC.
    The TLS server directory is minitls.certificate's: cli.py calls
    neither os.makedirs nor issue_server_material."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    writes = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        _writes_a_file(node) or ast.unparse(node.func) in ("os.makedirs", "issue_server_material")
    )]
    truncs = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"]
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "open"]
    assert reads and not writes and not truncs, (writes, truncs)


# ---------------------------------------------------------------------------
# Key lifecycle
# ---------------------------------------------------------------------------

def test_keygen_prints_alias_and_writes_public_blob(keyring):
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


def _mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_secret_outputs_are_readable_by_their_owner_alone(keyring, workdir):
    """Under umask 022, the outputs that hold a secret (tls-setup's
    server.seed, and the plaintext of decrypt and envelope-open) are
    0600, also over an existing 0644 file; the others stay 0644."""
    tls_dir = workdir / "modes-tls"
    setup = run_cli(
        "tls-setup", "--dir", tls_dir, "--level", "low", "--seed", "modes",
        password=None, umask=0o022,
    )
    assert setup.returncode == 0, setup.stderr
    modes = {name: _mode(tls_dir / name) for name in ("ca.root", "server.cert", "server.seed")}
    assert modes == {"ca.root": 0o644, "server.cert": 0o644, "server.seed": 0o600}

    keys = ["--alias", keyring["enc_alias"], *_keystore_args(keyring)]
    sealed = {"encrypt": workdir / "modes.enc", "envelope-seal": workdir / "modes.agenv"}
    for command, path in sealed.items():
        alias = keyring["enc_alias" if command == "encrypt" else "sig_alias"]
        result = run_cli(
            command, keyring["message"], "--alias", alias, "--recipient", keyring["enc_pub"],
            *_keystore_args(keyring), "--out", path, umask=0o022,
        )
        assert result.returncode == 0, result.stderr
        assert _mode(path) == 0o644
    fresh, existing = workdir / "modes-fresh.txt", workdir / "modes-existing.txt"
    existing.write_bytes(b"stale")
    existing.chmod(0o644)
    for command, extra in (
        ("decrypt", []),
        ("envelope-open", ["--sender", keyring["signer_pub"]]),
    ):
        for out in (fresh, existing):
            infile = sealed["encrypt" if command == "decrypt" else "envelope-seal"]
            result = run_cli(command, infile, *keys, *extra, "--out", out, umask=0o022)
            assert result.returncode == 0, result.stderr
            assert (out.read_bytes(), _mode(out)) == (MESSAGE, 0o600), (command, out)
        fresh.unlink()


def test_a_failed_sign_keeps_the_old_signature_whole(keyring, workdir, monkeypatch, capsys):
    """A write of the new signature that fails after half its bytes
    leaves the existing .sig byte for byte, and a rerun lands whole."""
    out = workdir / "kept.sig"
    argv = ["sign", str(keyring["message"]), "--alias", keyring["sig_alias"],
            "--keystore", str(keyring["keystore"]), "--kdf-iterations", KDF_ITERATIONS,
            "--out", str(out)]
    monkeypatch.setenv("AGILECRYPT_PASSWORD", PASSWORD)
    assert cli.main(argv) == 0
    old = out.read_bytes()
    real_open, real_write, doomed = os.open, os.write, set()

    def track(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if os.fspath(path).startswith(str(out)):  # the output, or its <out>.tmp
            doomed.add(fd)
        return fd

    def half_then_full_disk(fd, data):
        if fd not in doomed:
            return real_write(fd, data)
        real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    capsys.readouterr()
    with monkeypatch.context() as patched:
        patched.setattr(os, "open", track)
        patched.setattr(os, "write", half_then_full_disk)
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert (code, err.count(": error:")) == (1, 1), err
    assert err.startswith("agilecrypt: error: ") and "No space left" in err
    assert out.read_bytes() == old
    public = keyring["signer_pub"].read_bytes()
    assert easysigner_verify(public, MESSAGE, old)
    assert cli.main(argv) == 0
    assert out.read_bytes() != old and easysigner_verify(public, MESSAGE, out.read_bytes())
    assert not (workdir / "kept.sig.tmp").exists()


def test_a_stale_out_tmp_of_mode_0644_or_a_symlink(keyring, workdir):
    """decrypt --out over a stale <out>.tmp: a 0644 one still gives a 0600
    plaintext; a symlink is refused, and the file it names stays as it was."""
    ciphertext = workdir / "stale.enc"
    sealed = run_cli(
        "encrypt", keyring["message"], "--alias", keyring["enc_alias"],
        "--recipient", keyring["enc_pub"], *_keystore_args(keyring), "--out", ciphertext,
    )
    assert sealed.returncode == 0, sealed.stderr
    decrypt = ["decrypt", ciphertext, "--alias", keyring["enc_alias"], *_keystore_args(keyring)]
    out, stale = workdir / "stale-plain.txt", workdir / "stale-plain.txt.tmp"
    stale.write_bytes(b"stale")
    stale.chmod(0o644)
    result = run_cli(*decrypt, "--out", out, umask=0o022)
    assert result.returncode == 0, result.stderr
    assert (out.read_bytes(), _mode(out), stale.exists()) == (MESSAGE, 0o600, False)

    target, out = workdir / "stale-target", workdir / "linked-plain.txt"
    target.write_bytes(b"not to be written")
    target.chmod(0o644)
    (workdir / "linked-plain.txt.tmp").symlink_to(target)
    result = run_cli(*decrypt, "--out", out, umask=0o022)
    assert result.returncode == 1 and result.stderr.count(": error:") == 1, result.stderr
    assert "cannot write" in result.stderr
    assert (target.read_bytes(), _mode(target)) == (b"not to be written", 0o644)
    assert not out.exists()


def test_an_out_that_is_no_regular_file_is_left_as_it_is(workdir):
    """A FIFO, or a link to a descriptor like /dev/stdout (here with stdout
    going to a regular file), is refused and left as it is."""
    fifo = workdir / "out.fifo"
    os.mkfifo(fifo)
    result = run_cli("registry-dump", "--builtin", "1", "--out", fifo)
    assert result.returncode == 1 and "not a regular file" in result.stderr, result.stderr
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert not (workdir / "out.fifo.tmp").exists()

    link = workdir / "stdout-link"
    link.symlink_to("/proc/self/fd/1")
    with open(workdir / "captured", "wb") as captured:
        result = subprocess.run(
            [*CLI, "registry-dump", "--builtin", "1", "--out", str(link)],
            stdout=captured, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert result.returncode == 1 and "not a regular file" in result.stderr, result.stderr
    assert os.readlink(link) == "/proc/self/fd/1"
    assert not (workdir / "stdout-link.tmp").exists()


# Children a kill test starts and may kill, and the latest time after its
# start at which it kills one; a cold LOW sign takes about 0.35-0.5 s on a
# 2-core VM.
KILLED_SIGNERS = 20
KILL_BEFORE_S = 0.45


def test_signers_killed_at_any_time_leave_whole_signatures_and_no_reused_leaf(tmp_path):
    """LOW stateful `sign` children into one --out, one at a time, each with
    its own message, SIGKILLed at a random time (fixed seed) unless it
    finishes first, then one that runs to its end.  Every .sig left behind
    verifies, no leaf index (bytes 0-3 of the raw signature) appears twice,
    every one lies below the store's reservation mark, the store opens, and
    no <store>.tmp or <out>.tmp is left once the next writer has opened the
    store and the next sign has written that --out.

    A SIGKILL stops the process, not the machine: what it wrote stays in
    the page cache.  The sandbox a test runs in can neither drop the page
    cache nor cut power, so unsynced writes that get lost are not modelled."""
    keystore, public_path = tmp_path / "kill.agks", tmp_path / "kill.pub"
    out = tmp_path / "kill.sig"
    keygen = run_cli("keygen", "sign", "--level", "low", "--keystore", keystore,
                     "--kdf-iterations", KDF_ITERATIONS, "--out", public_path)
    assert keygen.returncode == 0, keygen.stderr
    alias, public = keygen.stdout.strip(), public_path.read_bytes()
    env = {**os.environ, "AGILECRYPT_PASSWORD": PASSWORD}
    kill_times = random.Random(20).uniform
    signatures, killed = {}, 0  # leaf index -> the signature that used it
    for child in range(KILLED_SIGNERS + 1):
        message = b"message %d" % child
        (tmp_path / "message").write_bytes(message)
        proc = subprocess.Popen(
            [*CLI, "sign", str(tmp_path / "message"), "--alias", alias, "--keystore",
             str(keystore), "--kdf-iterations", KDF_ITERATIONS, "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        )
        try:
            _, err = proc.communicate(
                timeout=kill_times(0.0, KILL_BEFORE_S) if child < KILLED_SIGNERS else 180
            )
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGKILL)
            _, err = proc.communicate()
            killed += 1
        assert proc.returncode in (0, -signal.SIGKILL), err
        if not out.exists():
            continue
        signature = out.read_bytes()
        leaf = int.from_bytes(parse_blob(signature)[2][:4], "big")
        if signatures.get(leaf) != signature:  # not the .sig an earlier child left
            assert leaf not in signatures, f"leaf {leaf} signed twice"
            assert easysigner_verify(public, message, signature), child
            signatures[leaf] = signature
    assert proc.returncode == 0 and killed >= 1
    assert not (tmp_path / "kill.sig.tmp").exists()
    with keystore_open(KeystoreParameters(str(keystore), PASSWORD)) as store:
        assert max(signatures) < store.get_entry(alias).state.reserved_until
    assert not (tmp_path / "kill.agks.tmp").exists()


def test_password_flag_beats_environment(keyring, workdir):
    listing = run_cli(
        "sign", keyring["message"], "--alias", keyring["sig_alias"],
        *_keystore_args(keyring), "--password", PASSWORD,
        "--out", workdir / "flagpw.sig",
        password="wrong-environment-password",
    )
    assert listing.returncode == 0, listing.stderr


# ---------------------------------------------------------------------------
# Registry dump
# ---------------------------------------------------------------------------

def test_registry_dump_matches_builtin_text(workdir):
    for version in (1, 2):
        result = run_cli("registry-dump", "--builtin", version, password=None)
        assert result.returncode == 0
        assert result.stdout == builtin_registry(version).canonical_text()


# ---------------------------------------------------------------------------
# TLS echo pair over subprocesses
# ---------------------------------------------------------------------------

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
    # The 40000-byte probe comes back in three records, which recv_exact joins.
    proc, port = start_serve(tls_low_dir, "low")
    report_path = workdir / "connect-report.json"
    try:
        result = run_cli(
            "tls-connect", f"127.0.0.1:{port}", "--dir", tls_low_dir,
            "--level", "low", "--probe-bytes", 40000, "--out", report_path,
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
    assert line["bytes_sent"] > 40000 and line["bytes_received"] > 40000


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

    proc, port = start_serve(setup_dir, "high", timeout=300)
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



# ---------------------------------------------------------------------------
# Refused commands: one case table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def refused_inputs(keyring, tls_low_dir, workdir):
    """The fields a REFUSED row's words are formatted with: the keyring,
    the LOW tls-setup directory, a closed port, and in `dir` every
    damaged input, each made once."""
    d = workdir / "refused"
    d.mkdir()
    fields = {
        "msg": keyring["message"], "keystore": keyring["keystore"],
        "sig_alias": keyring["sig_alias"], "enc_alias": keyring["enc_alias"],
        "sig_pub": keyring["signer_pub"], "enc_pub": keyring["enc_pub"],
        "tls": tls_low_dir, "dir": d,
    }
    for command in (
        "sign {msg} --alias {sig_alias} --keystore {keystore} --out {dir}/msg.sig",
        "encrypt {msg} --alias {enc_alias} --recipient {enc_pub} --keystore {keystore} "
        "--out {dir}/msg.enc",
        "envelope-seal {msg} --alias {sig_alias} --recipient {enc_pub} --keystore {keystore} "
        "--out {dir}/msg.agenv",
    ):
        made = run_cli(*(word.format(**fields) for word in command.split()))
        assert made.returncode == 0, made.stderr
    signature = (d / "msg.sig").read_bytes()
    (d / "flipped.sig").write_bytes(signature[:-1] + bytes([signature[-1] ^ 1]))
    (d / "cut.sig").write_bytes(signature[:-1])
    # The frame (17 bytes) and half of the 10-byte KEM ciphertext.
    (d / "short.enc").write_bytes((d / "msg.enc").read_bytes()[:22])
    v1 = builtin_registry(1).canonical_text()
    (d / "not-ascii.txt").write_bytes(b"\xff")
    (d / "odd-id.txt").write_text(v1.replace("CME-TOY-10-8", "CME-TOY-010-8"))
    (d / "odd-version.txt").write_text(v1.replace("version 1\n", "version 1_0\n"))
    (d / "no-version.txt").write_text("x\n" * 8)
    kem_id, version, seed = parse_blob((tls_low_dir / "server.seed").read_bytes())
    assert kem_id == "CME-TOY-10-8"
    for name, seed_blob in (
        ("short-seed", (tls_low_dir / "server.seed").read_bytes()[:-1]),
        ("other-kem-seed", frame_blob("CME-TOY-13-16", version, seed)),
        ("signature-key-seed", keyring["signer_pub"].read_bytes()),
    ):
        (d / name).mkdir()
        for file in ("ca.root", "server.cert"):
            (d / name / file).write_bytes((tls_low_dir / file).read_bytes())
        (d / name / "server.seed").write_bytes(seed_blob)
    # A sound seed that group and others may read.
    (d / "open-seed").mkdir()
    for file in ("ca.root", "server.cert", "server.seed"):
        (d / "open-seed" / file).write_bytes((tls_low_dir / file).read_bytes())
    (d / "open-seed" / "server.seed").chmod(0o644)
    # A stale temporary file of an output that is a symlink (to no file).
    (d / "linked.tmp").symlink_to(d / "link-target")
    os.mkfifo(d / "fifo")
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    fields["closed_port"] = probe.getsockname()[1]
    probe.close()
    return fields


# id, command line (each word formatted with refused_inputs and `new`, a
# path that must not exist afterwards), exit code, text of the error line,
# password in the environment.  A `\udcff` reaches the child as the byte
# 0xff, which it decodes back to `\udcff`, as it would a shell's $'\xff'.
REFUSED = [
    ("verify-flipped-signature", "verify {msg} --public {sig_pub} --sig {dir}/flipped.sig",
     1, "signature rejected", None),
    ("verify-cut-signature", "verify {msg} --public {sig_pub} --sig {dir}/cut.sig",
     1, "signature rejected", None),
    ("verify-kem-blobs", "verify {msg} --public {enc_pub} --sig {enc_pub}",
     1, "signature rejected", None),
    ("verify-missing-message", "verify {dir}/absent --public {sig_pub} --sig {sig_pub}",
     1, "FileNotFoundError", None),
    ("sign-encryption-alias", "sign {msg} --alias {enc_alias} --keystore {keystore} --out {new}",
     1, "AlgorithmMismatch", PASSWORD),
    ("sign-wrong-password", "sign {msg} --alias {sig_alias} --keystore {keystore} --out {new}",
     1, "BadPassword", "not-the-password"),
    ("encrypt-to-signature-key",
     "encrypt {msg} --alias {enc_alias} --recipient {sig_pub} --keystore {keystore} --out {new}",
     1, "AlgorithmMismatch", PASSWORD),
    ("decrypt-short-ciphertext",
     "decrypt {dir}/short.enc --alias {enc_alias} --keystore {keystore} --out {new}",
     1, "InvalidCiphertext", PASSWORD),
    ("decrypt-over-a-symlinked-tmp",
     "decrypt {dir}/msg.enc --alias {enc_alias} --keystore {keystore} --out {dir}/linked",
     1, "cannot write", PASSWORD),
    ("registry-dump-into-a-fifo", "registry-dump --builtin 1 --out {dir}/fifo",
     1, "cannot replace", None),
    ("envelope-open-wrong-sender",
     "envelope-open {dir}/msg.agenv --alias {enc_alias} --sender {enc_pub} --keystore {keystore} "
     "--out {new}",
     1, "AlgorithmMismatch", PASSWORD),
    ("password-flag-not-utf8", "keygen sign --level low --keystore {new} --password \udcff",
     1, "ParameterError: password is not valid UTF-8", None),
    ("password-env-not-utf8", "keygen sign --level low --keystore {new}",
     1, "ParameterError: password is not valid UTF-8", "\udcff"),
    ("password-missing",
     "decrypt {dir}/msg.enc --alias {enc_alias} --keystore {keystore} --out {new}",
     2, "AGILECRYPT_PASSWORD", None),
    ("password-positional", "sign {msg} secret --alias {sig_alias} --keystore {keystore}",
     2, "unrecognized arguments: secret", None),
    ("alias-missing", "sign {msg} --keystore {keystore} --out {new}",
     2, "the following arguments are required: --alias", PASSWORD),
    ("registry-not-ascii",
     "keygen sign --level low --keystore {new} --registry {dir}/not-ascii.txt",
     1, "MalformedEncoding", PASSWORD),
    ("registry-odd-id", "keygen encrypt --level low --keystore {new} --registry {dir}/odd-id.txt",
     1, "MalformedEncoding: 'CME-TOY-010-8' is no encryption algorithm", PASSWORD),
    ("registry-odd-version",
     "keygen sign --level low --keystore {new} --registry {dir}/odd-version.txt",
     1, "MalformedEncoding: version '1_0' is not spelled '10'", PASSWORD),
    ("registry-no-version",
     "keygen sign --level low --keystore {new} --registry {dir}/no-version.txt",
     1, "MalformedEncoding: line 1: expected `version N`", PASSWORD),
    ("keygen-unknown-level", "keygen sign --level ultra --keystore {new}",
     2, "invalid choice: 'ultra'", PASSWORD),
    ("keygen-kdf-iterations-0", "keygen sign --level low --keystore {new} --kdf-iterations 0",
     2, "argument --kdf-iterations: must be in", PASSWORD),
    ("tls-serve-port-70000", "tls-serve --dir {tls} --level low --once --port 70000",
     2, "argument --port: must be in", None),
    ("tls-serve-port--1", "tls-serve --dir {tls} --level low --once --port -1",
     2, "argument --port: must be in", None),
    ("tls-serve-short-seed", "tls-serve --dir {dir}/short-seed --level low --once",
     1, "MalformedEncoding: server seed holds 31 bytes", None),
    ("tls-serve-other-kem-seed", "tls-serve --dir {dir}/other-kem-seed --level low --once",
     1, "AlgorithmMismatch: server seed holds a CME-TOY-13-16 key, the certificate a CME-TOY-10-8",
     None),
    ("tls-serve-signature-key-seed", "tls-serve --dir {dir}/signature-key-seed --level low --once",
     1, "AlgorithmMismatch", None),
    ("tls-serve-open-seed", "tls-serve --dir {dir}/open-seed --level low --once",
     1, "server.seed has mode 0644, not private to its owner: chmod 600", None),
    ("tls-setup-seed-not-utf8", "tls-setup --dir {new} --level low --seed \udcff",
     1, "ParameterError: seed is not valid UTF-8", None),
    ("tls-connect-closed-port",
     "tls-connect 127.0.0.1:{closed_port} --dir {tls} --level low --out {new}",
     1, "ConnectionClosed: cannot connect to 127.0.0.1:", None),
    ("tls-connect-empty-label", "tls-connect a..b:443 --dir {tls} --level low --out {new}",
     1, "ConnectionClosed: cannot connect to a..b:443", None),
    ("tls-connect-host-not-utf8", "tls-connect \udcff:443 --dir {tls} --level low --out {new}",
     1, "ConnectionClosed: cannot connect to", None),
    ("tls-connect-port-70000", "tls-connect 127.0.0.1:70000 --dir {tls} --level low --out {new}",
     2, "address must be HOST:PORT", None),
    ("tls-connect-no-port", "tls-connect 127.0.0.1: --dir {tls} --level low --out {new}",
     2, "address must be HOST:PORT", None),
    ("tls-connect-timeout--1", "tls-connect 127.0.0.1:9 --dir {tls} --level low --timeout -1",
     2, "argument --timeout: must be in", None),
    ("tls-connect-probe-bytes--1",
     "tls-connect 127.0.0.1:9 --dir {tls} --level low --probe-bytes -1",
     2, "argument --probe-bytes: must be in", None),
    ("measure-unknown-paramset", "measure --paramset toy-999 --out {new}",
     2, "invalid choice: 'toy-999'", None),
    ("measure-reps-0", "measure --paramset toy-64 --reps 0 --out {new}",
     2, "argument --reps: must be in", None),
    ("measure-reps--1", "measure --paramset toy-64 --reps -1 --out {new}",
     2, "argument --reps: must be in", None),
    ("measure-seed-not-utf8", "measure --paramset toy-64 --reps 1 --seed \udcff --out {new}",
     1, "ParameterError: seed is not valid UTF-8", None),
]


@pytest.mark.parametrize(
    "command, code, text, password", [pytest.param(*row, id=name) for name, *row in REFUSED]
)
def test_a_refused_command_prints_one_error_line(
    refused_inputs, tmp_path, command, code, text, password
):
    new = tmp_path / "new"
    argv = [word.format(new=new, **refused_inputs) for word in command.split()]
    result = run_cli(*argv, password=password, timeout=60)
    errors = [line for line in result.stderr.splitlines() if ": error:" in line]
    assert (result.returncode, len(errors)) == (code, 1), result.stderr
    assert errors[0].startswith("agilecrypt") and text in errors[0]
    if code == 1:
        assert result.stderr == errors[0] + "\n" and errors[0].startswith("agilecrypt: error: ")
    assert "Traceback" not in result.stderr
    assert "PORT" not in result.stdout
    assert not new.exists()
