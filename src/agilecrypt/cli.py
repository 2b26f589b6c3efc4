"""Command-line front end wiring the library together.

Subcommands cover the key lifecycle (keygen, sign, verify, encrypt,
decrypt), sealed mail envelopes (envelope-seal, envelope-open), the TLS
echo pair (tls-setup, tls-serve, tls-connect), and the handshake-size
measurement harness (measure).

Conventions shared by every subcommand:

  * data goes to standard output, or to files that keystore.write_whole
    lands whole or not at all; diagnostics go to standard error, one line
    per failure
  * exit code 0 on success, 1 on runtime failure (crypto rejection,
    network trouble, unreadable files), 2 on usage errors
  * keystore passwords come from ``--password`` or the
    ``AGILECRYPT_PASSWORD`` environment variable, never from a
    positional argument
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .cbkem import NAMED_PARAM_SETS
from .easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    TemplateRegistry,
    builtin_registry,
    easysigner_verify,
    load_registry,
    template_resolve,
)
from .errors import AgilecryptError, ConnectionClosed
from .keystore import DEFAULT_ITERATIONS, KeystoreParameters, write_whole
from .mailenv import (
    ENVELOPE_EXTENSION,
    envelope_decode,
    envelope_encode,
    envelope_open,
    envelope_seal,
)
from .minitls import (
    ClientTlsConfig,
    ServerTlsConfig,
    TlsError,
    client_handshake,
    connect_tcp,
    listen_tcp,
    transcript_report,
)
from .minitls.certificate import CA_ROOT_FILE, SERVER_CERT_FILE, SERVER_SEED_FILE
from .minitls.certificate import load_server_material, write_server_material
from .minitls.measure import echo_probe, run_measurement, serve
from .minitls.wire import alert_label
from .primitives import make_rng

# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

PASSWORD_ENV_VAR = "AGILECRYPT_PASSWORD"
_LEVELS = tuple(level.name.lower() for level in SecurityLevel)


class UsageError(Exception):
    """A problem argparse cannot see (for example a missing password)."""


def _fail(message: str) -> int:
    print(f"agilecrypt: error: {message}", file=sys.stderr)
    return 1


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(data: bytes, out: str | None, private: bool = False) -> None:
    """File when --out is given, raw bytes to stdout otherwise.  The file
    lands whole through keystore.write_whole.  A ``private`` file holds a
    secret: it is made readable and writable by its owner alone (0600)
    before a byte of it is written, also when it existed before."""
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    write_whole(out, (data,), 0o600 if private else 0o666)


def _resolve_password(args: argparse.Namespace) -> str:
    if args.password is not None:
        return args.password
    env = os.environ.get(PASSWORD_ENV_VAR)
    if env:
        return env
    raise UsageError(
        f"no keystore password: pass --password or set {PASSWORD_ENV_VAR}"
    )


def _keystore_params(args: argparse.Namespace) -> KeystoreParameters:
    return KeystoreParameters(
        path=args.keystore,
        password=_resolve_password(args),
        iterations=args.kdf_iterations,
    )


def _load_registry_arg(args: argparse.Namespace) -> TemplateRegistry:
    if args.registry is not None:
        return load_registry(args.registry)
    return builtin_registry(1)


# ---------------------------------------------------------------------------
# Key lifecycle, envelope and registry commands
# ---------------------------------------------------------------------------

def _cmd_keygen(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    level = SecurityLevel.from_name(args.level)
    ksp = _keystore_params(args)
    kind = TemplateKind.SIGNATURE if args.kind == "sign" else TemplateKind.ENCRYPTION
    ap = template_resolve(registry, kind, level)
    cls = EasySigner if kind is TemplateKind.SIGNATURE else EasyEncrypter
    with cls.with_new_key(ap, ksp) as handle:
        if args.out is not None:
            _write_output(handle.public_blob, args.out)
        print(handle.alias)
    return 0


def _cmd_sign(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    ksp = _keystore_params(args)
    message = _read_file(args.infile)
    with EasySigner.open(ksp, args.alias, registry.version) as signer:
        blob = signer.sign(message)
    _write_output(blob, args.out if args.out is not None else args.infile + ".sig")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    public_blob = _read_file(args.public)
    message = _read_file(args.infile)
    sig_blob = _read_file(args.sig)
    if easysigner_verify(public_blob, message, sig_blob):
        print("signature valid", file=sys.stderr)
        return 0
    return _fail("signature rejected")


def _cmd_encrypt(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    ksp = _keystore_params(args)
    recipient_blob = _read_file(args.recipient)
    plaintext = _read_file(args.infile)
    with EasyEncrypter.open(ksp, args.alias, registry.version) as enc:
        blob = enc.encrypt(recipient_blob, plaintext)
    _write_output(blob, args.out if args.out is not None else args.infile + ".enc")
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    ksp = _keystore_params(args)
    blob = _read_file(args.infile)
    with EasyEncrypter.open(ksp, args.alias, registry.version) as enc:
        plaintext = enc.decrypt(blob)
    _write_output(plaintext, args.out, private=True)
    return 0


def _cmd_envelope_seal(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    ksp = _keystore_params(args)
    recipient_blob = _read_file(args.recipient)
    message = _read_file(args.infile)
    with EasySigner.open(ksp, args.alias, registry.version) as signer:
        env = envelope_seal(
            signer,
            recipient_blob,
            message,
            sender_id=args.sender_id,
            recipient_id=args.recipient_id,
        )
    out = args.out if args.out is not None else args.infile + ENVELOPE_EXTENSION
    _write_output(envelope_encode(env), out)
    return 0


def _cmd_envelope_open(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    ksp = _keystore_params(args)
    sender_blob = _read_file(args.sender)
    env = envelope_decode(_read_file(args.infile))
    with EasyEncrypter.open(ksp, args.alias, registry.version) as recipient:
        message = envelope_open(recipient, sender_blob, env)
    _write_output(message, args.out, private=True)
    print(
        f"envelope from {env.header.sender_id!r} to {env.header.recipient_id!r} verified",
        file=sys.stderr,
    )
    return 0


def _cmd_registry_dump(args: argparse.Namespace) -> int:
    registry = builtin_registry(args.builtin)
    _write_output(registry.canonical_text().encode("ascii"), args.out)
    return 0


# ---------------------------------------------------------------------------
# TLS fixtures, echo pair and measurement
# ---------------------------------------------------------------------------

def _cmd_tls_setup(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    level = SecurityLevel.from_name(args.level)
    rng = make_rng(args.seed)
    write_server_material(args.dir, registry, level, args.subject, rng)
    print(
        f"wrote {CA_ROOT_FILE}, {SERVER_CERT_FILE}, {SERVER_SEED_FILE} to {args.dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_tls_serve(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args)
    level = SecurityLevel.from_name(args.level)
    cert, kem_kp = load_server_material(args.dir)
    config = ServerTlsConfig(registry=registry, level=level, certificate=cert, kem_secret=kem_kp.sk)
    with listen_tcp(args.port) as listener, contextlib.suppress(KeyboardInterrupt):
        print(f"PORT {listener.getsockname()[1]}", flush=True)
        serve(listener, config, args.timeout, args.once)
    return 0


def _cmd_tls_connect(args: argparse.Namespace) -> int:
    host, _, port_text = args.address.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # a bracketed IPv6 address, [::1]:4433
    # ASCII digits only: str.isdigit also accepts superscript digits, which int() refuses.
    port = int(port_text) if port_text.isascii() and port_text.isdigit() else 0
    if not host or not 1 <= port <= 0xFFFF:
        raise UsageError(f"address must be HOST:PORT with a port in 1..65535, got {args.address!r}")
    registry = _load_registry_arg(args)
    level = SecurityLevel.from_name(args.level)
    roots = (_read_file(os.path.join(args.dir, CA_ROOT_FILE)),)
    config = ClientTlsConfig(registry=registry, level=level, trusted_roots=roots)
    transport = connect_tcp(host, port, timeout=args.timeout)
    try:
        session = client_handshake(transport, config)
    except (TlsError, ConnectionClosed):
        transport.close()
        raise
    with session:
        # A fixed recognizable pattern: reproducibility matters more than randomness here.
        probe = (bytes(range(256)) * (args.probe_bytes // 256 + 1))[: args.probe_bytes]
        if echo_probe(session, probe) != probe:
            return _fail("echo mismatch: peer returned different bytes")
    report = transcript_report(session.transcript)
    _write_output((json.dumps(report, indent=2, sort_keys=True) + "\n").encode(), args.out)
    print(
        f"handshake complete, echoed {len(probe)} bytes, "
        f"handshake volume {report['total_bytes']} bytes",
        file=sys.stderr,
    )
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    report = run_measurement(args.paramset, args.reps, seed=args.seed)
    _write_output((json.dumps(report, indent=2, sort_keys=True) + "\n").encode(), args.out)
    print(
        f"{args.reps} handshakes at {args.paramset}: "
        f"median total {report['total_bytes']['median']} bytes, "
        f"median duration {report['duration_ms']['median']} ms",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------

def _in_range(kind: type, low: float, high: float = float("inf")):
    """An argparse type: a `kind` (int or float) value in [low, high]."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {value}")
        return value

    return parse


_TIMEOUT = _in_range(float, 0.001, 86400.0)  # > 0 for sockets; a day outlasts any handshake


def _add_keystore_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--keystore", required=True, help="path to the keystore file")
    sub.add_argument(
        "--password",
        help=f"keystore password (default: ${PASSWORD_ENV_VAR})",
    )
    sub.add_argument(
        "--kdf-iterations",
        type=_in_range(int, 1, 0xFFFFFFFF),
        default=DEFAULT_ITERATIONS,
        help="key-derivation iteration count (default: library default)",
    )
    _add_registry_arg(sub)


def _add_registry_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--registry",
        help="template registry file (default: built-in version 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agilecrypt",
        description="Security-level driven signing, encryption, and a TLS echo pair.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("keygen", help="create a key under a security-level template")
    p.add_argument("kind", choices=("sign", "encrypt"))
    p.add_argument("--level", required=True, choices=_LEVELS)
    _add_keystore_args(p)
    p.add_argument("--out", help="write the public key blob here")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("sign", help="sign a file with a keystore key")
    p.add_argument("infile", help="message file")
    p.add_argument("--alias", required=True)
    _add_keystore_args(p)
    p.add_argument("--out", help="signature output (default: INFILE.sig)")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="check a detached signature")
    p.add_argument("infile", help="message file")
    p.add_argument("--public", required=True, help="signer public key blob")
    p.add_argument("--sig", required=True, help="signature blob")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encrypt", help="hybrid-encrypt a file to a recipient")
    p.add_argument("infile")
    p.add_argument("--alias", required=True, help="own encryption key alias")
    p.add_argument("--recipient", required=True, help="recipient public key blob")
    _add_keystore_args(p)
    p.add_argument("--out", help="ciphertext output (default: INFILE.enc)")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a hybrid ciphertext")
    p.add_argument("infile")
    p.add_argument("--alias", required=True)
    _add_keystore_args(p)
    p.add_argument("--out", help="plaintext output (default: stdout)")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser(
        "envelope-seal", help="sign a message and seal it to a recipient"
    )
    p.add_argument("infile")
    p.add_argument("--alias", required=True, help="signing key alias")
    p.add_argument("--recipient", required=True, help="recipient public key blob")
    p.add_argument("--sender-id", help="sender name in the envelope header")
    p.add_argument("--recipient-id", help="recipient name in the envelope header")
    _add_keystore_args(p)
    p.add_argument(
        "--out", help=f"envelope output (default: INFILE{ENVELOPE_EXTENSION})"
    )
    p.set_defaults(func=_cmd_envelope_seal)

    p = sub.add_parser(
        "envelope-open", help="open an envelope and verify its signature"
    )
    p.add_argument("infile")
    p.add_argument("--alias", required=True, help="own encryption key alias")
    p.add_argument("--sender", required=True, help="sender public key blob")
    _add_keystore_args(p)
    p.add_argument("--out", help="message output (default: stdout)")
    p.set_defaults(func=_cmd_envelope_open)

    p = sub.add_parser("registry-dump", help="print a built-in registry as text")
    p.add_argument("--builtin", type=int, required=True, choices=(1, 2))
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_registry_dump)

    p = sub.add_parser(
        "tls-setup", help="generate CA root, server certificate, and server key files"
    )
    p.add_argument("--dir", required=True, help="output directory")
    p.add_argument("--level", required=True, choices=_LEVELS)
    p.add_argument("--subject", default="agilecrypt-server")
    p.add_argument("--seed", help="deterministic generation seed (fixtures only)")
    _add_registry_arg(p)
    p.set_defaults(func=_cmd_tls_setup)

    p = sub.add_parser("tls-serve", help="echo server for the 0x1306 suite")
    p.add_argument("--dir", required=True, help="directory written by tls-setup")
    p.add_argument("--level", required=True, choices=_LEVELS)
    p.add_argument("--port", type=_in_range(int, 0, 0xFFFF), default=0, help="0 picks a free port")
    p.add_argument("--once", action="store_true", help="serve one connection, then exit")
    p.add_argument("--timeout", type=_TIMEOUT, default=30.0, help="seconds a read or write may take")
    _add_registry_arg(p)
    p.set_defaults(func=_cmd_tls_serve)

    p = sub.add_parser("tls-connect", help="handshake, echo a probe, print the report")
    p.add_argument("address", help="HOST:PORT, an IPv6 host in brackets ([::1]:4433)")
    p.add_argument("--dir", required=True, help="directory written by tls-setup")
    p.add_argument("--level", required=True, choices=_LEVELS)
    p.add_argument("--probe-bytes", type=_in_range(int, 0), default=1024)
    p.add_argument(
        "--timeout", type=_TIMEOUT, default=30.0, help="seconds connecting, a read or a write may take"
    )
    _add_registry_arg(p)
    p.add_argument("--out", help="report output (default: stdout)")
    p.set_defaults(func=_cmd_tls_connect)

    p = sub.add_parser(
        "measure", help="run loopback handshakes and report message sizes"
    )
    p.add_argument("--paramset", required=True, choices=sorted(NAMED_PARAM_SETS))
    p.add_argument("--reps", type=_in_range(int, 1), default=3)
    p.add_argument("--seed", help="deterministic run seed (reports then differ only in timing)")
    p.add_argument("--out", help="report output (default: stdout)")
    p.set_defaults(func=_cmd_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"agilecrypt: error: {exc}", file=sys.stderr)
        return 2
    except TlsError as exc:
        return _fail(f"handshake failed: {alert_label(exc.description)} ({exc})")
    except (AgilecryptError, OSError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
