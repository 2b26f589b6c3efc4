"""tls-high: one client making TLS connections to ``agilecrypt tls-serve``
at HIGH (registry v1: CME-TOY-16-10 key exchange, SPX-TOY-32-16-12-SL
certificate).

Set-up runs ``agilecrypt tls-setup --seed`` and starts ``tls-serve`` as
the second process; ``serve_ready_s`` runs from the spawn to its
``PORT`` line.  Each connection connects, handshakes, echoes a payload
drawn log-uniform from 1 KiB to 1 MiB, compares it byte for byte and
closes.  The unit operation of the end-to-end metrics is one handshake
(TCP connect included); ``ops_per_s`` counts whole connections.
"""

from __future__ import annotations

import os
import threading

from agilecrypt import cli, minitls
from agilecrypt.cbkem import KemKeyPair, KemParams
from agilecrypt.easyapi import SecurityLevel, builtin_registry, parse_blob
from agilecrypt.errors import AgilecryptError
from agilecrypt.minitls import ClientTlsConfig, ServerTlsConfig, connect_tcp, transport_pair
from agilecrypt.primitives import DeterministicRng

from common import (
    Context,
    Outcome,
    ServeProcess,
    log_uniform_size,
    measure_cli_startup,
    metric,
    now,
    op_metrics,
    payload_stream,
    run_cli,
    sub_seed,
    timing_metrics,
    trace_overhead,
)

LEVEL = "high"
PAYLOAD_MIN = 1 << 10
PAYLOAD_MAX = 1 << 20
# Client-side handshake bytes (every handshake message both ways, plus
# the two ChangeCipherSpec bytes) with tls-setup's default subject.
EXPECTED_WIRE_BYTES = 1_313_289
IO_TIMEOUT_S = 30.0
REPLAYED_HANDSHAKES = 8


class _Loop:
    """The client's closed loop; keeps going across calls to ``run``, so
    a traced run can split it into an untraced and a traced half."""

    def __init__(self, ctx: Context, port: int, roots: tuple[bytes, ...], out: Outcome):
        self.ctx = ctx
        self.port = port
        self.out = out
        self.registry = builtin_registry(1)
        self.roots = roots
        self.payloads = payload_stream(ctx.seed, "payload")
        self.index = 0
        self.handshake_ms: list[float] = []
        self.echo_bytes = 0
        self.echo_s = 0.0
        self.connections = 0
        self.loop_s = 0.0

    def rewind(self) -> None:
        """Draw the same payload sizes again, so that the traced half of a
        traced run sees the inputs of the untraced half."""
        self.payloads = payload_stream(self.ctx.seed, "payload")

    def run(self, seconds: float) -> list[float]:
        handshake_ms = []
        started = now()
        deadline = started + seconds
        while now() < deadline:
            ms = self._connection()
            if ms is not None:
                handshake_ms.append(ms)
        self.loop_s += now() - started
        self.handshake_ms.extend(handshake_ms)
        return handshake_ms

    def _connection(self) -> float | None:
        i = self.index
        self.index += 1
        size = log_uniform_size(self.payloads, PAYLOAD_MIN, PAYLOAD_MAX)
        payload = self.payloads.randbytes(size)
        config = ClientTlsConfig(
            registry=self.registry,
            level=SecurityLevel.HIGH,
            trusted_roots=self.roots,
            rng=DeterministicRng(sub_seed(self.ctx.seed, f"client/{i}")),
        )
        self.out.attempted += 1
        try:
            with self.ctx.request(f"connection/{i}"):
                started = now()
                transport = connect_tcp("127.0.0.1", self.port, timeout=IO_TIMEOUT_S)
                try:
                    session = minitls.client_handshake(transport, config)
                except BaseException:
                    transport.close()
                    raise
                shook = now()
                try:
                    session.send(payload)
                    echoed = session.recv_exact(size)
                finally:
                    session.close()
                done = now()
        except (AgilecryptError, OSError) as exc:
            self.out.fail(f"connection {i}: {type(exc).__name__}: {exc}")
            return None
        if echoed != payload:
            self.out.fail(f"connection {i}: echo of {size} bytes differs")
            return None
        wire = sum(e.length for e in session.transcript.entries)
        if wire != EXPECTED_WIRE_BYTES:
            self.out.fail(f"connection {i}: {wire} handshake bytes, expected {EXPECTED_WIRE_BYTES}")
            return None
        self.out.layer_values["minitls.wire_bytes_per_handshake"] = wire
        self.connections += 1
        self.echo_bytes += size
        self.echo_s += done - shook
        return (shook - started) * 1e3


def _setup(ctx: Context, tls_dir: str) -> None:
    args = ["tls-setup", "--dir", tls_dir, "--level", LEVEL, "--seed", ctx.key_seed()]
    if ctx.tracer is None:
        code, _, err = run_cli(ctx.env, *args)
    else:
        with ctx.tracer.span("cli", "tls-setup"):
            code, err = cli.main(args), ""
    if code != 0:
        raise RuntimeError(f"tls-setup exited {code}: {err}")


def _replay_server_side(ctx: Context, tls_dir: str, out: Outcome) -> None:
    """Handshakes against an in-process server, so that server spans
    (server_handshake, decap) and the server's key opening exist."""
    with open(os.path.join(tls_dir, cli.SERVER_CERT_FILE), "rb") as fh:
        cert = minitls.parse_certificate(fh.read())
    with open(os.path.join(tls_dir, cli.SERVER_SEED_FILE), "rb") as fh:
        kem_id, _, seed = parse_blob(fh.read())
    kem_kp = KemKeyPair.from_seed(KemParams.from_algorithm_id(kem_id), seed)
    with open(os.path.join(tls_dir, cli.CA_ROOT_FILE), "rb") as fh:
        roots = (fh.read(),)
    registry = builtin_registry(1)
    for i in range(REPLAYED_HANDSHAKES):
        server_config = ServerTlsConfig(
            registry=registry,
            level=SecurityLevel.HIGH,
            certificate=cert,
            kem_secret=kem_kp.sk,
            rng=DeterministicRng(sub_seed(ctx.seed, f"replay-server/{i}")),
        )
        client_config = ClientTlsConfig(
            registry=registry,
            level=SecurityLevel.HIGH,
            trusted_roots=roots,
            rng=DeterministicRng(sub_seed(ctx.seed, f"replay-client/{i}")),
        )
        client_end, server_end = transport_pair(timeout=IO_TIMEOUT_S)
        server_error: list[BaseException] = []

        def serve() -> None:
            with ctx.tracer.request(f"replay/{i}"):
                try:
                    minitls.server_handshake(server_end, server_config).close()
                except BaseException as exc:
                    server_error.append(exc)

        worker = threading.Thread(target=serve)
        worker.start()
        out.attempted += 1
        try:
            with ctx.tracer.request(f"replay/{i}"):
                minitls.client_handshake(client_end, client_config).close()
        except (AgilecryptError, OSError) as exc:
            out.fail(f"replayed handshake {i}: {type(exc).__name__}: {exc}")
        finally:
            client_end.close()
            worker.join(timeout=60.0)
            server_end.close()
        if worker.is_alive() or server_error:
            out.fail(f"replayed handshake {i}: server side {server_error or 'hung'}")


def run(ctx: Context) -> Outcome:
    out = Outcome()
    tls_dir = os.path.join(ctx.work_dir, "tls")
    tracer = ctx.tracer
    started = now()
    if tracer is None:
        _setup(ctx, tls_dir)
    else:
        with tracer.installed(), tracer.span("bench", "setup"):
            _setup(ctx, tls_dir)
    with ServeProcess(ctx.env, tls_dir, LEVEL) as server:
        setup_s = now() - started
        with open(os.path.join(tls_dir, cli.CA_ROOT_FILE), "rb") as fh:
            roots = (fh.read(),)
        loop = _Loop(ctx, server.port, roots, out)
        if tracer is None:
            loop.run(ctx.seconds)
        else:
            plain = loop.run(ctx.seconds / 2)
            loop.rewind()
            with tracer.installed():
                traced = loop.run(ctx.seconds / 2)
            out.layer_values["trace.overhead.op_ms_p50"] = trace_overhead(plain, traced)
    if tracer is not None:
        out.layer_values["cli.tls-serve.s"] = server.ready_s
        out.layer_values["cli.startup.s"] = measure_cli_startup(ctx.env)
        with tracer.installed(), tracer.span("bench", "replay"):
            _replay_server_side(ctx, tls_dir, out)
        out.notes.append(
            f"server spans come from {REPLAYED_HANDSHAKES} handshakes replayed against an "
            "in-process server after the measured loop; the measured loop used the "
            "tls-serve process"
        )
    if not loop.handshake_ms:
        out.fail("no connection completed")
        return out
    out.e2e = op_metrics(setup_s, loop.handshake_ms, loop.connections, loop.loop_s)
    out.named = {
        "setup_s": metric(setup_s, "s"),
        "serve_ready_s": metric(server.ready_s, "s"),
        **timing_metrics("handshake_ms", loop.handshake_ms, "ms"),
        "connections_per_s": metric(loop.connections / loop.loop_s, "1/s"),
        "echo_MiBps": metric(loop.echo_bytes / (1 << 20) / loop.echo_s, "MiB/s"),
    }
    return out
