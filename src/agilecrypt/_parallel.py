"""Spread independent key-building work over forked worker processes.

Key generation for the large parameter sets is pure Python hashing and
shuffling, so threads do not help; processes do.  Workers are forked,
which needs no re-import and no pickling of the function, and which is
only safe while the calling process runs a single thread.  Whenever
forking is unavailable or unsafe, or the work is small, or only one core
is available, the tasks run in the calling process instead.  The result
is the same list either way: each task is computed from its arguments
alone, and results come back in task order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

# Jobs are sized in hash calls: one HBS chain step, about 0.9-1.1 us
# in-process for the SHA-256 rows and 1.1-1.4 us for the SHA-512 rows
# (2-core x86 VM, Python 3.11).  Measured there, two forked workers cost
# about 0.1 s of in-process work to start and collect, and save about
# half of anything above that.  The threshold is set higher, at about
# 0.25-0.35 s, so that LOW keys (at most 0.2 s) stay in-process.
MIN_PARALLEL_HASH_CALLS = 1 << 18


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _worker_count(tasks: int, hash_calls: int) -> int:
    if hash_calls < MIN_PARALLEL_HASH_CALLS or tasks < 2:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if threading.active_count() > 1:
        return 1
    return min(tasks, available_cores())


def parallel_map(fn, tasks: list[tuple], hash_calls: int) -> list:
    """``[fn(*task) for task in tasks]``, computed by up to one forked
    worker per available core when ``hash_calls`` (the caller's estimate
    of the whole job's in-process cost) is large enough.  Every worker
    has exited when this returns or raises."""
    workers = _worker_count(len(tasks), hash_calls)
    if workers == 1:
        return [fn(*task) for task in tasks]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, *zip(*tasks)))
