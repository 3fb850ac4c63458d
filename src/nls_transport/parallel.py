"""Deterministic chunked execution.

Work is split into fixed-size chunks (never dependent on the worker count)
and results are combined in chunk order, so outputs are bit-identical for
any thread count, including 1.  The NLS_TRANSPORT_THREADS environment
variable overrides the default worker count.  A call made from a chunk body
on a pool thread runs its chunks inline, in that thread, so nested calls
never start a pool inside a pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV = "NLS_TRANSPORT_THREADS"

_pool_thread = threading.local()


def worker_count() -> int:
    val = os.environ.get(THREADS_ENV)
    if val:
        return max(1, int(val))
    return os.cpu_count() or 1


def chunk_ranges(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def run_chunked(fn, n: int, chunk: int) -> list:
    """Evaluate fn(lo, hi) over fixed chunks of range(n); results returned
    in chunk order regardless of scheduling."""
    return _run(fn, chunk_ranges(n, chunk), worker_count())


def run_chunked_capped(fn, n: int, chunk: int, cap: int) -> list:
    """run_chunked on at most `cap` threads.  A body with a large work space
    keeps one per thread, so the cap, not the core count, bounds its peak
    memory."""
    return _run(fn, chunk_ranges(n, chunk), min(worker_count(), cap))


def _run(fn, ranges, workers: int) -> list:
    if (workers <= 1 or len(ranges) <= 1
            or getattr(_pool_thread, "active", False)):
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers,
                            initializer=_mark_pool_thread) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]
