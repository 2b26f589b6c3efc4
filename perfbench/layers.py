"""Per-layer metrics folded from the spans of a traced run.

A function's time is its span's duration minus the part covered by
calls into other layers, so ``minitls.client_handshake.ms`` keeps the
certificate parse (minitls) but not the signature check (hbs).  A
layer's self time is the plain self time of its spans: duration minus
every child span.  Per-call times are medians; keygen and first-sign
times are totals, as each happens once per run.
"""

from __future__ import annotations

import statistics

from spans import LAYERS

MiB = 1 << 20

# Every per-layer metric, in BENCHMARK.json order.  A run reports 0 for
# a layer its workload never calls.
PER_LAYER_UNITS = {
    "hbs.keygen.s": "s",
    "hbs.first_sign.s": "s",
    "hbs.sign.ms": "ms",
    "hbs.verify.ms": "ms",
    "cbkem.keygen.s": "s",
    "cbkem.from_seed.s": "s",
    "cbkem.block_draws_per_block": "count",
    "cbkem.parse_pk.ms": "ms",
    "cbkem.parse_pk.calls_per_handshake": "count",
    "cbkem.parse_pk.calls_per_envelope": "count",
    "cbkem.encap.us": "us",
    "cbkem.decap.us": "us",
    "keystore.open.ms": "ms",
    "keystore.write.ms": "ms",
    "keystore.writes_per_signature": "count",
    "keystore.bytes_written_per_signature": "count",
    "primitives.seal_record.MiBps": "MiB/s",
    "primitives.open_record.MiBps": "MiB/s",
    "easyapi.signer_open.ms": "ms",
    "easyapi.encrypter_open.ms": "ms",
    "easyapi.sign.ms": "ms",
    "minitls.client_handshake.ms": "ms",
    "minitls.server_handshake.ms": "ms",
    "minitls.verify_certificate.ms": "ms",
    "minitls.transcript_hash.ms": "ms",
    "minitls.transcript_hash.calls_per_handshake": "count",
    "minitls.records_per_handshake": "count",
    "minitls.wire_bytes_per_handshake": "count",
    "minitls.session_send.MiBps": "MiB/s",
    "minitls.session_recv.MiBps": "MiB/s",
    "mailenv.envelope_seal.ms": "ms",
    "mailenv.envelope_open.ms": "ms",
    "cli.startup.s": "s",
    "cli.sign.s": "s",
    "cli.verify.s": "s",
    "cli.encrypt.s": "s",
    "cli.decrypt.s": "s",
    "cli.tls-setup.s": "s",
    "cli.tls-serve.s": "s",
    **{f"{layer}.self.s": "s" for layer in LAYERS},
    "trace.overhead.op_ms_p50": "ms",
    "trace.spans": "count",
}

# The counts later changes make claims against; the report repeats them
# as ``exact_counts``.
EXACT_COUNTS = (
    "cbkem.parse_pk.calls_per_handshake",
    "cbkem.parse_pk.calls_per_envelope",
    "keystore.writes_per_signature",
    "keystore.bytes_written_per_signature",
    "minitls.transcript_hash.calls_per_handshake",
)


def _foreign(span) -> float:
    """Time inside ``span`` spent in calls into other layers."""
    return sum(
        child.duration if child.layer != span.layer else _foreign(child)
        for child in span.children
    )


def function_time(span) -> float:
    return span.duration - _foreign(span)


def _has_ancestor(span, layer: str, names: tuple[str, ...]) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == layer and parent.name in names:
            return True
        parent = parent.parent
    return False


def _per(numerator: int | float, denominator: int) -> float:
    return numerator / denominator if denominator else 0


def fold(spans) -> dict[str, float]:
    """Span-derived per-layer values; metrics without spans are absent."""
    by_name: dict[tuple[str, str], list] = {}
    for span in spans:
        by_name.setdefault((span.layer, span.name), []).append(span)

    def group(layer, name):
        return by_name.get((layer, name), [])

    def median_of(layer, name, scale):
        found = group(layer, name)
        if found:
            return statistics.median(function_time(s) for s in found) * scale
        return None

    def total_of(layer, name):
        found = group(layer, name)
        return sum(function_time(s) for s in found) if found else None

    def rate(layer, name):
        found = [s for s in group(layer, name) if s.amount is not None]
        busy = sum(function_time(s) for s in found)
        return sum(s.amount for s in found) / MiB / busy if busy > 0 else None

    handshakes = group("minitls", "client_handshake")
    signatures = group("easyapi", "sign")
    envelopes = group("mailenv", "envelope_seal")
    in_client = lambda s: _has_ancestor(s, "minitls", ("client_handshake",))
    in_sign = lambda s: _has_ancestor(s, "easyapi", ("sign",))
    sig_writes = [s for s in group("keystore", "write") if in_sign(s)]
    openings = [s for s in group("cbkem", "from_seed") if not _has_ancestor(s, "cbkem", ("keygen",))]
    all_from_seed = group("cbkem", "from_seed")

    out = {
        "hbs.keygen.s": total_of("hbs", "keygen"),
        "hbs.first_sign.s": total_of("hbs", "first_sign"),
        "hbs.sign.ms": median_of("hbs", "sign", 1e3),
        "hbs.verify.ms": median_of("hbs", "verify", 1e3),
        "cbkem.keygen.s": total_of("cbkem", "keygen"),
        "cbkem.from_seed.s": (
            statistics.median(function_time(s) for s in openings) if openings else None
        ),
        "cbkem.block_draws_per_block": _per(
            sum(s.draws for s in all_from_seed), sum(s.amount for s in all_from_seed)
        ),
        "cbkem.parse_pk.ms": median_of("cbkem", "parse_pk", 1e3),
        "cbkem.parse_pk.calls_per_handshake": _per(
            sum(1 for s in group("cbkem", "parse_pk") if in_client(s)), len(handshakes)
        ),
        "cbkem.parse_pk.calls_per_envelope": _per(
            sum(
                1 for s in group("cbkem", "parse_pk")
                if _has_ancestor(s, "mailenv", ("envelope_seal", "envelope_open"))
            ),
            len(envelopes),
        ),
        "cbkem.encap.us": median_of("cbkem", "encap", 1e6),
        "cbkem.decap.us": median_of("cbkem", "decap", 1e6),
        "keystore.open.ms": median_of("keystore", "open", 1e3),
        "keystore.write.ms": median_of("keystore", "write", 1e3),
        "keystore.writes_per_signature": _per(len(sig_writes), len(signatures)),
        "keystore.bytes_written_per_signature": _per(
            sum(s.amount for s in sig_writes), len(signatures)
        ),
        "primitives.seal_record.MiBps": rate("primitives", "seal_record"),
        "primitives.open_record.MiBps": rate("primitives", "open_record"),
        "easyapi.signer_open.ms": median_of("easyapi", "signer_open", 1e3),
        "easyapi.encrypter_open.ms": median_of("easyapi", "encrypter_open", 1e3),
        "easyapi.sign.ms": median_of("easyapi", "sign", 1e3),
        "minitls.client_handshake.ms": median_of("minitls", "client_handshake", 1e3),
        "minitls.server_handshake.ms": median_of("minitls", "server_handshake", 1e3),
        "minitls.verify_certificate.ms": median_of("minitls", "verify_certificate", 1e3),
        "minitls.transcript_hash.ms": median_of("minitls", "transcript_hash", 1e3),
        "minitls.transcript_hash.calls_per_handshake": _per(
            sum(1 for s in group("minitls", "transcript_hash") if in_client(s)), len(handshakes)
        ),
        "minitls.records_per_handshake": _per(
            sum(
                1 for s in group("minitls", "record_send") + group("minitls", "record_recv")
                if in_client(s)
            ),
            len(handshakes),
        ),
        "minitls.session_send.MiBps": rate("minitls", "session_send"),
        "minitls.session_recv.MiBps": rate("minitls", "session_recv"),
        "mailenv.envelope_seal.ms": median_of("mailenv", "envelope_seal", 1e3),
        "mailenv.envelope_open.ms": median_of("mailenv", "envelope_open", 1e3),
        "trace.spans": len(spans),
    }
    for name in ("sign", "verify", "encrypt", "decrypt", "tls-setup"):
        found = group("cli", name)
        if found:
            out[f"cli.{name}.s"] = statistics.median(s.duration for s in found)
    for layer in LAYERS:
        out[f"{layer}.self.s"] = sum(
            s.duration - sum(c.duration for c in s.children) for s in spans if s.layer == layer
        )
    return {k: v for k, v in out.items() if v is not None}


def per_layer_metrics(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; 0 where the workload never
    reached the layer."""
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
