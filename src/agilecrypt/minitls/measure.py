"""How server connections are accepted, served, ended and reported, for
``tls-serve`` and for the loopback handshake-size measurement behind the
CLI's ``measure`` command, and how ``tls-connect`` has a probe echoed."""

from __future__ import annotations

import errno
import json
import socket
import sys
import threading
import time

from ..cbkem import NAMED_PARAM_SETS
from ..easyapi import SecurityLevel, TemplateKind, TemplateRegistry, builtin_registry
from ..errors import AgilecryptError, ConnectionClosed, ParameterError
from ..primitives import make_rng
from .certificate import issue_server_material
from .handshake import ClientTlsConfig, ServerTlsConfig, client_handshake, server_handshake
from .record import MAX_RECORD_PLAINTEXT
from .transcript import aggregate_reports, transcript_report
from .transport import SocketTransport, transport_pair
from .wire import TlsAlertReceived, TlsAlertSent, TlsError, alert_label

# How a failure ends a served connection; any other failure is an "error".
_OUTCOMES = (
    (TlsAlertSent, "alert_sent"),
    (TlsAlertReceived, "alert_received"),
    (ConnectionClosed, "closed"),
)
# accept() failures that pass: the process or host is short of
# descriptors, buffers or memory, or a client left before it was accepted.
_PASSING_ACCEPT_ERRORS = frozenset(
    (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM, errno.ECONNABORTED)
)
_ACCEPT_PAUSE_S = 0.1


def echo_until_closed(session) -> None:
    """Send back every chunk received until the peer closes."""
    while True:
        try:
            data = session.recv()
        except ConnectionClosed:
            break
        session.send(data)


def echo_probe(session, probe: bytes) -> bytes:
    """Send ``probe`` a record at a time to a peer that echoes it, and
    return the echo.  Once more than two records are owed, echoed records
    are read back first, which keeps what is in flight far under any
    socket buffer (a socket pair charges each record's whole allocation
    to its ~208 KiB), so the two sides never both block writing."""
    view, echoed, owed = memoryview(probe), [], 0
    for start in range(0, len(view), MAX_RECORD_PLAINTEXT):
        chunk = view[start : start + MAX_RECORD_PLAINTEXT]
        session.send(chunk)
        owed += len(chunk)
        while owed > 2 * MAX_RECORD_PLAINTEXT:
            echoed.append(session.recv())
            owed -= len(echoed[-1])
    echoed.append(session.recv_exact(owed))
    return b"".join(echoed)


def serve_connection(
    transport: SocketTransport, config: ServerTlsConfig
) -> tuple[dict, BaseException | None]:
    """Handshake, echo until the peer closes, and close the transport on
    every outcome.  Returns the connection's log record and the exception
    that ended it, None when the peer closed after the handshake."""
    started = time.monotonic()
    failure: BaseException | None = None
    try:
        with server_handshake(transport, config) as session:
            echo_until_closed(session)
    except BaseException as exc:
        failure = exc
    transport.close()
    outcome = next(
        (name for kind, name in _OUTCOMES if isinstance(failure, kind)),
        "ok" if failure is None else "error",
    )
    record = {
        "outcome": outcome,
        "alert": alert_label(failure.description) if isinstance(failure, TlsError) else None,
        "bytes_sent": transport.bytes_sent,
        "bytes_received": transport.bytes_received,
        "ms": round((time.monotonic() - started) * 1000.0, 3),
    }
    return record, failure


def serve(
    listener: socket.socket, config: ServerTlsConfig, timeout: float | None, once: bool
) -> None:
    """Accept connections on ``listener`` and serve each, ``timeout`` bounding its
    reads and writes, with its record written to standard error as one JSON line.
    ``once`` serves one connection in the calling thread and re-raises what ended
    it; otherwise each gets a daemon thread, and accepting goes on until it raises
    an error that does not pass (a passing one is logged, and accepting resumes
    after a pause)."""

    def log(record: dict) -> None:
        # One write per line, so lines from concurrent connections stay whole.
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        sys.stderr.flush()

    def serve_logged(conn: socket.socket, expected: tuple = (AgilecryptError, OSError)) -> None:
        record, failure = serve_connection(SocketTransport(conn, timeout=timeout), config)
        log(record)
        if failure is not None and not isinstance(failure, expected):
            raise failure

    if once:
        serve_logged(listener.accept()[0], expected=())
        return
    while True:
        try:
            conn, _ = listener.accept()
        except OSError as exc:
            if exc.errno not in _PASSING_ACCEPT_ERRORS:
                raise
            log({"outcome": "accept_failed", "error": errno.errorcode[exc.errno]})
            time.sleep(_ACCEPT_PAUSE_S)
            continue
        # The line reports an expected failure; a worker prints a traceback only for another.
        threading.Thread(target=serve_logged, args=(conn,), daemon=True).start()


def _loopback_handshake(client_config: ClientTlsConfig, server_config: ServerTlsConfig):
    """One in-process handshake over a socket pair; returns the client's transcript."""
    client_transport, server_transport = transport_pair(timeout=30.0)
    served: list[tuple[dict, BaseException | None]] = []
    worker = threading.Thread(
        target=lambda: served.append(serve_connection(server_transport, server_config)),
        daemon=True,
    )
    worker.start()
    try:
        session = client_handshake(client_transport, client_config)
        session.close()
    finally:
        client_transport.close()
        worker.join(timeout=60.0)
        server_transport.close()
    if served and served[0][0]["outcome"] == "error":
        raise served[0][1]
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
    issuer, kem_kp, cert = issue_server_material(
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
