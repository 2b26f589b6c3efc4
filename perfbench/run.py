"""agilecrypt benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tls-high --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports agilecrypt from the
checkout's ``src`` and starts CLI processes with ``src`` on PYTHONPATH.
Standard output gets two JSON lines: a report (seed, environment, the
workload's own metrics by name, failures, notes) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` puts
the end-to-end metrics in ``metrics``; ``--trace 1`` runs the workload
with spans around every call into the library, writes the spans to
``.perfbench_work/<workload>-seed<N>.spans.jsonl`` and puts the
per-layer metrics there instead.  The exit code is 1 when an output was
wrong, 2 when the checkout has no agilecrypt sources.  ``--workload all``
runs the three workloads one after another, two lines each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

WORKLOADS = ("tls-high", "cold-cli-high", "mail-medium")
WORK_DIR = ".perfbench_work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_checkout(src_dir: str):
    """Import agilecrypt from this checkout and nowhere else."""
    sys.path.insert(0, src_dir)
    import agilecrypt

    if os.path.dirname(os.path.dirname(os.path.abspath(agilecrypt.__file__))) != src_dir:
        raise ImportError(f"agilecrypt came from {agilecrypt.__file__}, not {src_dir}")


def _filesystem(path: str) -> dict:
    """The mount holding ``path``: fsync cost depends on it."""
    path = os.path.realpath(path)
    best = {"mount": "/", "type": "unknown", "device": "unknown"}
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                device, mount, fstype = line.split()[:3]
                mount = mount.replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"]):
                    best = {"mount": mount, "type": fstype, "device": device}
    except OSError:
        pass
    return best


def _environment(work_dir: str) -> dict:
    import cryptography
    import numpy
    from agilecrypt.keystore import DEFAULT_ITERATIONS

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "pbkdf2_iterations": DEFAULT_ITERATIONS,
        "work_filesystem": _filesystem(work_dir),
        "network": "TLS traffic crosses the host loopback (127.0.0.1), not a real link",
    }


def _run_workload(workload: str, args, root: str, src_dir: str) -> bool:
    """Run one workload; print its report line and result line."""
    import common
    import layers
    import spans

    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    module = __import__(workload.replace("-", "_"))
    tracer = spans.Tracer() if args.trace else None
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    ctx = common.Context(
        workload=workload,
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        work_dir=run_dir,
        env=common.cli_env(src_dir),
    )
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = {
        "workload": workload,
        "seed": args.seed,
        "key_seed": ctx.key_seed(),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(work_root),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": {**outcome.named, **outcome.e2e},
        "notes": outcome.notes,
    }
    if tracer is not None:
        spans_file = os.path.join(work_root, f"{workload}-seed{args.seed}.spans.jsonl")
        tracer.write(spans_file)
        values = {**layers.fold(tracer.spans), **outcome.layer_values}
        report["spans_file"] = os.path.relpath(spans_file, root)
        report["exact_counts"] = {name: values.get(name, 0) for name in layers.EXACT_COUNTS}
        metrics = layers.per_layer_metrics(values)
    else:
        metrics = outcome.e2e
    correct = outcome.failed == 0 and bool(metrics)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return correct


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "agilecrypt", "__init__.py")):
        print(f"perfbench: no agilecrypt sources under {src_dir}", file=sys.stderr)
        return 2
    try:
        _import_checkout(src_dir)
    except ImportError as exc:
        print(f"perfbench: cannot import agilecrypt: {exc}", file=sys.stderr)
        return 2
    import common

    # In-process CLI calls read the password from the environment, as
    # the child processes do.
    os.environ[common.PASSWORD_ENV_VAR] = common.PASSWORD
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [_run_workload(w, args, root, src_dir) for w in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
