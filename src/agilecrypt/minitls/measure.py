"""The echo loop ``tls-serve`` runs per connection, and the loopback
handshake-size measurement behind the CLI's ``measure`` command."""

from __future__ import annotations

import threading
import time

from ..cbkem import NAMED_PARAM_SETS
from ..easyapi import SecurityLevel, TemplateKind, TemplateRegistry, builtin_registry
from ..errors import ConnectionClosed, ParameterError
from ..primitives import make_rng
from .certificate import issue_server_material
from .handshake import ClientTlsConfig, ServerTlsConfig, client_handshake, server_handshake
from .transcript import aggregate_reports, transcript_report
from .transport import transport_pair
from .wire import TlsError


def echo_until_closed(session) -> None:
    """Send back every chunk received until the peer closes."""
    while True:
        try:
            data = session.recv()
        except ConnectionClosed:
            break
        session.send(data)


def _loopback_handshake(client_config: ClientTlsConfig, server_config: ServerTlsConfig):
    """One in-process handshake over a socket pair; returns the client's transcript."""
    client_transport, server_transport = transport_pair(timeout=30.0)
    server_exc: list[BaseException] = []

    def server_side() -> None:
        try:
            echo_until_closed(server_handshake(server_transport, server_config))
        except BaseException as exc:
            server_exc.append(exc)

    worker = threading.Thread(target=server_side, daemon=True)
    worker.start()
    try:
        session = client_handshake(client_transport, client_config)
        session.close()
    finally:
        client_transport.close()
        worker.join(timeout=60.0)
        server_transport.close()
    if server_exc and not isinstance(server_exc[0], (ConnectionClosed, TlsError)):
        raise server_exc[0]
    return session.transcript


def paramset_level(registry: TemplateRegistry, paramset: str) -> SecurityLevel:
    """Handshake parameter sets are named after their KEM: the level is
    the one whose ENCRYPTION template is that KEM, and the registry
    supplies the rest of the profile."""
    kem = NAMED_PARAM_SETS.get(paramset)
    for level in SecurityLevel:
        if kem and registry.entries[(TemplateKind.ENCRYPTION, level)] == kem.algorithm_id:
            return level
    raise ParameterError(
        f"parameter set {paramset!r} is no ENCRYPTION template of registry version "
        f"{registry.version}; choose from {sorted(NAMED_PARAM_SETS)}"
    )


def run_measurement(paramset: str, repetitions: int, seed: str | None = None) -> dict:
    """Generate fixture keys for the parameter set, run the handshake
    ``repetitions`` times over an in-process loopback, and aggregate the
    client-side transcripts.  ``setup_s`` times the key generation,
    ``wall_clock_s`` the handshakes."""
    registry = builtin_registry(1)
    level = paramset_level(registry, paramset)
    if repetitions < 1:
        raise ParameterError(f"repetitions must be at least 1, got {repetitions}")
    started = time.monotonic()
    issuer, kem_kp, cert, _ = issue_server_material(
        registry, level, f"measure-{paramset}", make_rng(None if seed is None else seed + "/setup")
    )
    setup_s = time.monotonic() - started
    started = time.monotonic()
    reports = []
    for rep in range(repetitions):
        client_config = ClientTlsConfig(
            registry=registry,
            level=level,
            trusted_roots=(issuer.root,),
            rng=make_rng(None if seed is None else f"{seed}/client/{rep}"),
        )
        server_config = ServerTlsConfig(
            registry=registry,
            level=level,
            certificate=cert,
            kem_secret=kem_kp.sk,
            rng=make_rng(None if seed is None else f"{seed}/server/{rep}"),
        )
        transcript = _loopback_handshake(client_config, server_config)
        reports.append(transcript_report(transcript))
    aggregated = aggregate_reports(reports)
    aggregated["paramset"] = paramset
    aggregated["level"] = level.name.lower()
    aggregated["wall_clock_s"] = round(time.monotonic() - started, 3)
    aggregated["setup_s"] = round(setup_s, 3)
    return aggregated
