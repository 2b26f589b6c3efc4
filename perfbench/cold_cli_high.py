"""cold-cli-high: one ``python -m agilecrypt.cli`` process per operation,
keys at HIGH.

Set-up creates one keystore (default PBKDF2 iteration count) holding a
HIGH signing key (SPX-TOY-32-16-12-SL, stateless) and a HIGH encryption
key (CME-TOY-16-10), both made with ``with_new_key``.  The measured loop
runs ``sign`` once, then ``verify``, ``encrypt`` (to the store's own
public key) and ``decrypt`` in turn for ``--seconds``, each as its own
process.  Each process opens its key cold: keystore unlock, Merkle
tree rebuild for ``sign``, KEM key re-derivation for ``encrypt`` and
``decrypt``.  The unit operation of the end-to-end metrics is one CLI
process.

The traced run also calls ``agilecrypt.cli.main`` in-process for each
operation, so that spans exist, and times interpreter start-up plus
``import agilecrypt.cli`` on its own.
"""

from __future__ import annotations

import os
import statistics

from agilecrypt import cli
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    easysigner_verify,
    template_resolve,
)
from agilecrypt.keystore import KeystoreParameters
from agilecrypt.primitives import DeterministicRng

from common import (
    PASSWORD,
    Context,
    Outcome,
    log_uniform_size,
    measure_cli_startup,
    metric,
    now,
    op_metrics,
    payload_stream,
    run_cli,
)

OPS = ("sign", "verify", "encrypt", "decrypt")
MESSAGE_MIN = 1 << 10
MESSAGE_MAX = 1 << 20


class _Files:
    def __init__(self, work_dir: str):
        self.store = os.path.join(work_dir, "keys.agks")
        self.sign_pub = os.path.join(work_dir, "sign.pub")
        self.enc_pub = os.path.join(work_dir, "enc.pub")
        self.message = os.path.join(work_dir, "message.bin")
        self.sig = os.path.join(work_dir, "message.sig")
        self.ciphertext = os.path.join(work_dir, "message.enc")
        self.plaintext = os.path.join(work_dir, "message.out")


def _setup(ctx: Context, files: _Files) -> tuple[str, str]:
    registry = builtin_registry(1)
    ksp = KeystoreParameters(path=files.store, password=PASSWORD)
    rng = DeterministicRng(ctx.key_seed().encode("ascii"))
    sig_ap = template_resolve(registry, TemplateKind.SIGNATURE, SecurityLevel.HIGH)
    enc_ap = template_resolve(registry, TemplateKind.ENCRYPTION, SecurityLevel.HIGH)
    with EasySigner.with_new_key(sig_ap, ksp, rng=rng) as signer:
        sign_alias = signer.alias
        _write(files.sign_pub, signer.public_blob)
    with EasyEncrypter.with_new_key(enc_ap, ksp, rng=rng) as encrypter:
        enc_alias = encrypter.alias
        _write(files.enc_pub, encrypter.public_blob)
    return sign_alias, enc_alias


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _arguments(files: _Files, sign_alias: str, enc_alias: str) -> dict[str, list[str]]:
    store = ["--keystore", files.store]
    return {
        "sign": ["sign", files.message, "--alias", sign_alias, *store, "--out", files.sig],
        "verify": ["verify", files.message, "--public", files.sign_pub, "--sig", files.sig],
        "encrypt": [
            "encrypt", files.message, "--alias", enc_alias, "--recipient", files.enc_pub,
            *store, "--out", files.ciphertext,
        ],
        "decrypt": ["decrypt", files.ciphertext, "--alias", enc_alias, *store, "--out", files.plaintext],
    }


def _check(op: str, files: _Files, message: bytes) -> str | None:
    """Why the output of ``op`` is wrong, or None."""
    if op == "sign" and not easysigner_verify(_read(files.sign_pub), message, _read(files.sig)):
        return "signature does not verify"
    if op == "decrypt" and _read(files.plaintext) != message:
        return "decrypted bytes differ from the message"
    return None


def _op(ctx, op, files, arguments, message, out, walls, in_process) -> None:
    """One operation as its own process, or in-process through cli.main
    on the traced pass; its wall time counts only if its output is right."""
    output = {"sign": files.sig, "encrypt": files.ciphertext, "decrypt": files.plaintext}.get(op)
    if output is not None and os.path.exists(output):
        os.remove(output)
    out.attempted += 1
    if in_process:
        started = now()
        with ctx.request(f"{op}/{out.attempted}"), ctx.tracer.span("cli", op):
            code = cli.main(arguments[op])
        wall, err = now() - started, ""
    else:
        code, wall, err = run_cli(ctx.env, *arguments[op])
    if code != 0:
        out.fail(f"{op} exited {code}: {err}")
        return
    with ctx.paused():
        problem = _check(op, files, message)
    if problem is not None:
        out.fail(f"{op}: {problem}")
        return
    walls[op].append(wall)


def run(ctx: Context) -> Outcome:
    out = Outcome()
    files = _Files(ctx.work_dir)
    tracer = ctx.tracer
    started = now()
    if tracer is None:
        sign_alias, enc_alias = _setup(ctx, files)
    else:
        with tracer.installed(), tracer.span("bench", "setup"):
            sign_alias, enc_alias = _setup(ctx, files)
    setup_s = now() - started
    arguments = _arguments(files, sign_alias, enc_alias)
    messages = payload_stream(ctx.seed, "message")
    message = messages.randbytes(log_uniform_size(messages, MESSAGE_MIN, MESSAGE_MAX))
    _write(files.message, message)
    walls: dict[str, list[float]] = {op: [] for op in OPS}

    # One cold sign per run: at HIGH it rebuilds the whole Merkle tree and
    # takes longer than the rest of the loop.  verify, encrypt and decrypt
    # then repeat for --seconds, so their medians rest on several samples.
    loop_started = now()
    _op(ctx, "sign", files, arguments, message, out, walls, in_process=False)
    deadline = now() + ctx.seconds
    while True:
        for op in OPS[1:]:
            _op(ctx, op, files, arguments, message, out, walls, in_process=False)
        if now() >= deadline:
            break
    loop_s = now() - loop_started

    if tracer is not None:
        startup_s = measure_cli_startup(ctx.env)
        out.layer_values["cli.startup.s"] = startup_s
        traced = {op: [] for op in OPS}
        with tracer.installed():
            for op in OPS:
                _op(ctx, op, files, arguments, message, out, traced, in_process=True)
        overheads = [
            startup_s + statistics.median(traced[op]) - statistics.median(walls[op])
            for op in OPS
            if traced[op] and walls[op]
        ]
        if overheads:
            out.layer_values["trace.overhead.op_ms_p50"] = statistics.median(overheads) * 1e3
        out.notes.append(
            "traced operations ran in-process through agilecrypt.cli.main; their overhead "
            "is cli.startup.s plus the in-process wall minus the untraced process wall"
        )

    if not all(walls.values()):
        out.fail("an operation never completed")
        return out
    all_ms = [w * 1e3 for op in OPS for w in walls[op]]
    out.e2e = op_metrics(setup_s, all_ms, len(all_ms), loop_s)
    out.named = {"setup_s": metric(setup_s, "s")}
    for op in OPS:
        out.named[f"cold_{op}_s"] = metric(statistics.median(walls[op]), "s")
        out.named[f"cold_{op}_samples"] = metric(len(walls[op]), "count")
    return out
