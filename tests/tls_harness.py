"""Transport plumbing shared by the TLS tests: ``Tap`` sees every write
of a transport, ``bit_flip`` damages one bit of it, and ``run_pair`` runs
the two halves of a conversation and fails if one hangs."""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Callable

from agilecrypt.minitls import Transport

JOIN_TIMEOUT = 60.0


class Tap(Transport):
    """Passes reads and close through to ``inner``.  Each write goes to
    ``on_write``, which returns the bytes to send, and is kept in
    ``writes`` before ``inner`` gets it, so a refused write is kept too."""

    def __init__(self, inner: Transport, on_write: Callable[[bytes], bytes] | None = None):
        self.inner = inner
        self.on_write = on_write
        self.writes: list[bytes] = []

    def read_exact(self, n: int) -> bytes:
        return self.inner.read_exact(n)

    def write(self, data: bytes) -> None:
        data = bytes(data)
        if self.on_write is not None:
            data = self.on_write(data)
        self.writes.append(data)
        self.inner.write(data)

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
