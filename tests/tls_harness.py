"""Transport plumbing shared by the TLS tests: ``Tap`` sees every write
of a transport and may hand it on in pieces, ``bit_flip`` damages one
bit of it, ``reframe`` cuts its handshake records differently,
``run_pair`` runs the two halves of a conversation and fails if one
hangs, and ``start_serve`` starts a ``tls-serve --once`` process and
reads its port."""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence

import pytest

from agilecrypt.minitls import ContentType, Transport
from agilecrypt.minitls.wire import TLS_VERSION

JOIN_TIMEOUT = 60.0


def _cut(data: bytes, sizes: Iterator[int]) -> list[bytes]:
    """``data`` cut into pieces of the next of ``sizes`` bytes each; the
    last piece may be shorter."""
    pieces, start = [], 0
    while start < len(data):
        end = start + next(sizes)
        pieces.append(data[start:end])
        start = end
    return pieces


class Tap(Transport):
    """Passes reads and close through to ``inner``.  Each write goes to
    ``on_write``, which returns the bytes to send, and is kept in
    ``writes`` before ``inner`` gets it, so a refused write is kept too.
    Given ``pieces``, a write reaches ``inner`` as one ``inner.write`` per
    piece of those sizes, taken in turn across writes and repeated from
    the first once all are used."""

    def __init__(
        self,
        inner: Transport,
        on_write: Callable[[bytes], bytes] | None = None,
        pieces: Sequence[int] = (),
    ):
        self.inner = inner
        self.on_write = on_write
        self.writes: list[bytes] = []
        self._sizes = itertools.cycle(pieces) if pieces else None

    def read_exact(self, n: int) -> bytes:
        return self.inner.read_exact(n)

    def write(self, data: bytes) -> None:
        data = bytes(data)
        if self.on_write is not None:
            data = self.on_write(data)
        self.writes.append(data)
        for piece in [data] if self._sizes is None else _cut(data, self._sizes):
            self.inner.write(piece)

    def close(self) -> None:
        self.inner.close()


def bit_flip(offset: int, bit: int) -> Callable[[bytes], bytes]:
    """An ``on_write`` that flips ``bit`` of the byte at ``offset`` of
    the outgoing stream."""
    written = 0

    def flip(data: bytes) -> bytes:
        nonlocal written
        start, written = written, written + len(data)
        if start <= offset < written:
            damaged = bytearray(data)
            damaged[offset - start] ^= 1 << bit
            data = bytes(damaged)
        return data

    return flip


_RECORD_HEADER = struct.Struct(">BHH")


def reframe(sizes: Sequence[int]) -> Callable[[bytes], bytes]:
    """An ``on_write`` that re-frames the leading HANDSHAKE records of
    each write: their payloads, joined, go out again as records of
    ``sizes`` bytes, taken in turn across writes and repeated from the
    first once all are used (the last record of a write may be
    shorter).  So a message may be split across records and several may
    share one.  From the first record of another type on, a write passes
    as it is; a protected handshake record always follows its sender's
    ChangeCipherSpec in the same write, so only plaintext is re-framed."""
    turn = itertools.cycle(sizes)

    def reframed(data: bytes) -> bytes:
        payloads, offset = [], 0
        while offset < len(data) and data[offset] == ContentType.HANDSHAKE:
            length = _RECORD_HEADER.unpack_from(data, offset)[2]
            payloads.append(data[offset + 5 : offset + 5 + length])
            offset += 5 + length
        records = [
            _RECORD_HEADER.pack(ContentType.HANDSHAKE, TLS_VERSION, len(payload)) + payload
            for payload in _cut(b"".join(payloads), turn)
        ]
        return b"".join(records) + data[offset:]

    return reframed


def run_pair(background, foreground, transports=()) -> dict:
    """Run the ``background`` half on a daemon thread and the
    ``foreground`` half here.  A half is a (key, function of the results
    dict) pair: what the function returns lands under the key, what it
    raises under ``<key>_exc``, and the seconds both took under
    "elapsed".  Then the ``transports`` are closed.  A thread still
    running after JOIN_TIMEOUT fails the call."""
    results: dict = {}

    def run(key, half):
        try:
            results[key] = half(results)
        except Exception as exc:  # noqa: BLE001 - recorded for the caller's assertions
            results[f"{key}_exc"] = exc

    start = time.monotonic()
    thread = threading.Thread(target=run, args=background, daemon=True)
    thread.start()
    try:
        run(*foreground)
    finally:
        thread.join(timeout=JOIN_TIMEOUT)
        results["elapsed"] = time.monotonic() - start
        for transport in transports:
            with contextlib.suppress(OSError):
                transport.close()
    assert not thread.is_alive(), f"{background[0]} thread deadlocked"
    return results


def start_serve(setup_dir, level: str, registry=None, timeout: float = 180.0):
    """Launch ``tls-serve --once`` over the fixture files in ``setup_dir``
    and wait up to ``timeout`` seconds for its PORT line.  Returns the
    process and the port; a server that announces none is killed and
    fails the test with its standard error."""
    args = [sys.executable, "-m", "agilecrypt.cli", "tls-serve", "--dir", str(setup_dir)]
    args += ["--level", level, "--once"]
    if registry is not None:
        args += ["--registry", str(registry)]
    env = os.environ.copy()
    env.pop("AGILECRYPT_PASSWORD", None)
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    line: list[str] = []
    reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if reader.is_alive() or not line or not line[0].startswith("PORT "):
        proc.kill()
        _, err = proc.communicate(timeout=30)
        pytest.fail(f"tls-serve did not announce a port: {err}")
    return proc, int(line[0].split()[1])
