"""Deterministic chunked execution on forked worker processes.

Work is split into fixed-size chunks (never dependent on the worker count)
and results are combined in chunk order, so outputs are bit-identical for
any worker count, including 1.  The NLS_TRANSPORT_THREADS environment
variable overrides the default worker count.

Each call that hands out chunks starts its own pool of forked processes and
joins every one of them before it returns, also when a chunk body raises.
The chunk body reaches the workers through fork, not pickling, so it may be
a closure; its result and any exception it raises come back pickled.  A
body therefore returns what it computes: a write into an array of the
caller would land in the worker's copy.  A call made from a chunk body in a
worker runs its chunks inline, in that worker, so pools never nest.
"""

from __future__ import annotations

import os

THREADS_ENV = "NLS_TRANSPORT_THREADS"

_body = None          # the chunk body of the running call, inherited by fork
_in_worker = False    # set in every worker: its own calls run inline


def worker_count() -> int:
    val = os.environ.get(THREADS_ENV)
    if val:
        return max(1, int(val))
    return os.cpu_count() or 1


def chunk_ranges(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def run_chunked(fn, n: int, chunk: int) -> list:
    """Evaluate fn(lo, hi) over fixed chunks of range(n); results returned
    in chunk order regardless of scheduling."""
    return _run(fn, chunk_ranges(n, chunk), worker_count())


def run_chunked_capped(fn, n: int, chunk: int, cap: int) -> list:
    """run_chunked on at most `cap` workers.  A body with a large work space
    keeps one per worker, so the cap, not the core count, bounds its peak
    memory."""
    return _run(fn, chunk_ranges(n, chunk), min(worker_count(), cap))


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def _call_body(bounds):
    return _body(*bounds)


def _run(fn, ranges, workers: int) -> list:
    workers = min(workers, len(ranges))
    if workers <= 1 or _in_worker:
        return [fn(lo, hi) for lo, hi in ranges]
    import multiprocessing   # here, so that importing the package stays lean

    global _body
    _body = fn
    pool = multiprocessing.get_context("fork").Pool(workers,
                                                    initializer=_mark_worker)
    try:
        # chunks go out in about four batches per worker, as Pool.map's
        # default does: one message per chunk costs more than a short tile
        batch = -(-len(ranges) // (4 * workers))
        results = list(pool.imap(_call_body, ranges, batch))
        pool.close()
    except BaseException:   # the first failed chunk stops the others
        pool.terminate()
        raise
    finally:
        _body = None
        pool.join()
    return results
