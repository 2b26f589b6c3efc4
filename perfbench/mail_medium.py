"""mail-medium: warm sign-then-encrypt envelope traffic.

Set-up gives the sender a keystore holding a MEDIUM stateful signer
(SPX-TOY-16-16-10-S) and the sender's own HIGH encryption key, a 1.3 MB
entry that every keystore write carries.  The recipient gets a HIGH
``EasyEncrypter`` in a second store; its handle from ``with_new_key``
stays open.  The signer is reopened with ``EasySigner.open`` and makes
one warm-up signature, which builds the deferred Merkle tree, before the
clock starts.

The measured loop seals an envelope to the recipient and opens it
again, with message sizes log-uniform from 256 B to 1 MiB, and checks
that the exact message comes back.  Each signature reserves a leaf, so
one run stays below the key's 1024 leaves.  The unit operation of the
end-to-end metrics is one envelope, seal plus open.
"""

from __future__ import annotations

import os

from agilecrypt import mailenv
from agilecrypt.easyapi import (
    EasyEncrypter,
    EasySigner,
    SecurityLevel,
    TemplateKind,
    builtin_registry,
    template_resolve,
)
from agilecrypt.errors import AgilecryptError
from agilecrypt.keystore import KeystoreParameters
from agilecrypt.primitives import DeterministicRng

from common import (
    PASSWORD,
    Context,
    Outcome,
    log_uniform_size,
    metric,
    now,
    op_metrics,
    payload_stream,
    sub_seed,
    timing_metrics,
    trace_overhead,
)

MESSAGE_MIN = 1 << 8
MESSAGE_MAX = 1 << 20
# 1024 leaves, one spent on the warm-up signature; the loop stops short
# of exhaustion, which would count as failures.
ENVELOPE_BUDGET = 1000


class _Parties:
    def __init__(self, ctx: Context):
        registry = builtin_registry(1)
        sender_ksp = KeystoreParameters(os.path.join(ctx.work_dir, "sender.agks"), PASSWORD)
        recipient_ksp = KeystoreParameters(os.path.join(ctx.work_dir, "recipient.agks"), PASSWORD)
        rng = DeterministicRng(ctx.key_seed().encode("ascii"))
        sig_ap = template_resolve(registry, TemplateKind.SIGNATURE, SecurityLevel.MEDIUM)
        enc_ap = template_resolve(registry, TemplateKind.ENCRYPTION, SecurityLevel.HIGH)
        with EasySigner.with_new_key(sig_ap, sender_ksp, rng=rng) as signer:
            alias = signer.alias
        EasyEncrypter.with_new_key(enc_ap, sender_ksp, rng=rng).close()
        self.recipient = EasyEncrypter.with_new_key(enc_ap, recipient_ksp, rng=rng)
        try:
            self.signer = EasySigner.open(
                sender_ksp,
                alias,
                registry.version,
                rng=DeterministicRng(sub_seed(ctx.seed, "signer")),
            )
        except BaseException:
            self.recipient.close()
            raise
        self.signer.sign(b"warm-up")

    def close(self) -> None:
        self.signer.close()
        self.recipient.close()


class _Loop:
    def __init__(self, ctx: Context, parties: _Parties, out: Outcome):
        self.ctx = ctx
        self.parties = parties
        self.out = out
        self.messages = payload_stream(ctx.seed, "message")
        self.index = 0
        self.seal_ms: list[float] = []
        self.open_ms: list[float] = []
        self.loop_s = 0.0

    def rewind(self) -> None:
        """Draw the same message sizes again, so that the traced half of a
        traced run sees the inputs of the untraced half."""
        self.messages = payload_stream(self.ctx.seed, "message")

    def run(self, seconds: float) -> list[float]:
        envelope_ms = []
        started = now()
        deadline = started + seconds
        while now() < deadline and self.index < ENVELOPE_BUDGET:
            ms = self._envelope()
            if ms is not None:
                envelope_ms.append(ms)
        self.loop_s += now() - started
        return envelope_ms

    def _envelope(self) -> float | None:
        i = self.index
        self.index += 1
        message = self.messages.randbytes(log_uniform_size(self.messages, MESSAGE_MIN, MESSAGE_MAX))
        signer, recipient = self.parties.signer, self.parties.recipient
        self.out.attempted += 1
        rng = DeterministicRng(sub_seed(self.ctx.seed, f"envelope/{i}"))
        try:
            with self.ctx.request(f"envelope/{i}"):
                started = now()
                env = mailenv.envelope_seal(signer, recipient.public_blob, message, rng=rng)
                sealed = now()
                opened = mailenv.envelope_open(recipient, signer.public_blob, env)
                done = now()
        except AgilecryptError as exc:
            self.out.fail(f"envelope {i}: {type(exc).__name__}: {exc}")
            return None
        if opened != message:
            self.out.fail(f"envelope {i}: opened bytes differ from the message")
            return None
        self.seal_ms.append((sealed - started) * 1e3)
        self.open_ms.append((done - sealed) * 1e3)
        return (done - started) * 1e3


def run(ctx: Context) -> Outcome:
    out = Outcome()
    tracer = ctx.tracer
    started = now()
    if tracer is None:
        parties = _Parties(ctx)
    else:
        with tracer.installed(), tracer.span("bench", "setup"):
            parties = _Parties(ctx)
    setup_s = now() - started
    try:
        loop = _Loop(ctx, parties, out)
        if tracer is None:
            envelope_ms = loop.run(ctx.seconds)
        else:
            plain = loop.run(ctx.seconds / 2)
            loop.rewind()
            with tracer.installed():
                traced = loop.run(ctx.seconds / 2)
            envelope_ms = plain + traced
            out.layer_values["trace.overhead.op_ms_p50"] = trace_overhead(plain, traced)
    finally:
        parties.close()
    if loop.index >= ENVELOPE_BUDGET:
        out.notes.append(f"the loop stopped at {ENVELOPE_BUDGET} envelopes, the signing key's budget")
    if not envelope_ms:
        out.fail("no envelope completed")
        return out
    out.e2e = op_metrics(setup_s, envelope_ms, len(envelope_ms), loop.loop_s)
    out.named = {
        "setup_s": metric(setup_s, "s"),
        **timing_metrics("seal_ms", loop.seal_ms, "ms"),
        **timing_metrics("open_ms", loop.open_ms, "ms"),
        "envelopes_per_s": metric(len(envelope_ms) / loop.loop_s, "1/s"),
    }
    return out
