"""Shared helpers for the workloads: statistics, inputs, CLI processes.

Nothing here imports agilecrypt; run.py puts the checkout's ``src`` on
``sys.path`` before any workload module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

PASSWORD = "perfbench-password"
PASSWORD_ENV_VAR = "AGILECRYPT_PASSWORD"

# The KEM keygen rejects singular leading blocks about 3.4 times per block,
# so keygen and from_seed cost swing by about a quarter from key to key.
# Long-term keys therefore come from a fixed per-workload key seed, so that
# every run opens a key of the same cost; the workload seed drives
# everything else (payloads, message sizes, handshake and signing
# randomness).
KEY_SEED_PREFIX = "perfbench-keys/"

SERVE_READY_TIMEOUT_S = 120.0
PROCESS_TIMEOUT_S = 150.0

now = time.perf_counter


@dataclass
class Context:
    """What a workload gets from the command line and the checkout."""

    workload: str
    seed: int
    seconds: float
    tracer: object | None  # spans.Tracer on a traced run
    work_dir: str  # scratch directory for this run, removed afterwards
    env: dict  # environment for CLI child processes

    def key_seed(self) -> str:
        return KEY_SEED_PREFIX + self.workload

    def request(self, request_id: str):
        """Tag the spans of one operation with its id."""
        return self.tracer.request(request_id) if self.tracer is not None else contextlib.nullcontext()

    def paused(self):
        """Keep the benchmark's own checks out of the spans."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


@dataclass
class Outcome:
    """What a workload measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    e2e: dict = field(default_factory=dict)  # the end-to-end metrics of BENCHMARK.json
    named: dict = field(default_factory=dict)  # the workload's own metrics, by name
    layer_values: dict = field(default_factory=dict)  # per-layer values not taken from spans
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def sub_seed(seed: int, label: str) -> bytes:
    """A byte string naming one independent stream of the workload seed."""
    return f"perfbench/{seed}/{label}".encode("ascii")


def payload_stream(seed: int, label: str) -> random.Random:
    """Fast generator for payload sizes and bytes.  DeterministicRng is
    kept for key material and protocol randomness; it is too slow for
    megabyte payloads."""
    digest = hashlib.sha256(sub_seed(seed, label)).digest()
    return random.Random(int.from_bytes(digest, "big"))


def log_uniform_size(rnd: random.Random, low: int, high: int) -> int:
    return int(math.exp(rnd.uniform(math.log(low), math.log(high))))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 95, with at least ten samples
    beyond it; 50 when there are too few samples for any above the
    median."""
    return max(50, min(95, math.floor(100 * (1 - 10 / n))))


def timing_metrics(name: str, values: list[float], unit: str) -> dict:
    """``<name>_p50``, the highest percentile with ten samples beyond it,
    and the sample count."""
    pct = tail_percentile(len(values))
    out = {f"{name}_p50": metric(statistics.median(values), unit)}
    if pct > 50:
        out[f"{name}_p{pct}"] = metric(nearest_rank(values, pct), unit)
    out[f"{name}_samples"] = metric(len(values), "count")
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_metrics(setup_s: float, op_ms: list[float], ops: int, loop_s: float) -> dict:
    """The end-to-end metrics every workload reports, each workload with
    its own unit operation."""
    return {
        "setup_s": metric(setup_s, "s"),
        "op_ms_p50": metric(statistics.median(op_ms), "ms"),
        "ops_per_s": metric(ops / loop_s, "1/s"),
    }


def trace_overhead(plain_ms: list[float], traced_ms: list[float]) -> float:
    """Median traced minus median untraced latency over the inputs both
    halves of a traced run reached."""
    n = min(len(plain_ms), len(traced_ms))
    if n == 0:
        return 0.0
    return statistics.median(traced_ms[:n]) - statistics.median(plain_ms[:n])


def cli_env(src_dir: str) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = src_dir
    env[PASSWORD_ENV_VAR] = PASSWORD
    return env


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "agilecrypt.cli", *args]


def run_cli(env: dict, *args: str) -> tuple[int, float, str]:
    """One CLI process: exit code, wall seconds, standard error."""
    started = now()
    proc = subprocess.run(
        cli_command(*args),
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return proc.returncode, now() - started, proc.stderr.strip()


def measure_cli_startup(env: dict, repeats: int = 3) -> float:
    """Median wall time of an interpreter that only imports the CLI."""
    walls = []
    for _ in range(repeats):
        started = now()
        subprocess.run(
            [sys.executable, "-c", "import agilecrypt.cli"],
            env=env,
            stdin=subprocess.DEVNULL,
            check=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        walls.append(now() - started)
    return statistics.median(walls)


class ServeProcess:
    """``agilecrypt tls-serve`` as a child process, stopped on exit."""

    def __init__(self, env: dict, tls_dir: str, level: str):
        self.ready_s = None
        self.port = None
        started = now()
        self._proc = subprocess.Popen(
            cli_command("tls-serve", "--dir", tls_dir, "--level", level),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], SERVE_READY_TIMEOUT_S)
            line = self._proc.stdout.readline() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError(f"tls-serve did not report a port: {line!r}")
            self.port = int(line.split()[1])
            self.ready_s = now() - started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> ServeProcess:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
