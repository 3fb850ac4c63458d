"""Deterministic chunked execution on forked worker processes.

Work is split into fixed-size chunks (never dependent on the worker count)
and results are combined in chunk order, so outputs are bit-identical for
any worker count, including 1.  The NLS_TRANSPORT_THREADS environment
variable overrides the default worker count.

`start_chunked` starts a chunked call's pool of forked processes and
yields `collect`, which returns the results; the caller may do work of its
own before collecting.  The pool is joined, every worker with it, when the
`with` block ends, also when a chunk body or the caller's own work raises.
`run_chunked` is that call collected at once.  The chunk body reaches the
workers through fork, not pickling, so it may be a closure; its result and
any exception it raises come back pickled.  A body therefore returns what
it computes: a write into an array of the caller would land in the
worker's copy.  A chunked call made from a chunk body in a worker, or made
in the caller while a started pool is pending, runs its chunks inline, in
that process, so pools never nest and never run side by side.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

THREADS_ENV = "NLS_TRANSPORT_THREADS"

_body = None          # the chunk body of the running call, inherited by fork
_in_worker = False    # set in every worker: its own calls run inline
_pending = False      # set while a started pool runs: calls run inline


def worker_count() -> int:
    val = os.environ.get(THREADS_ENV)
    if val:
        return max(1, int(val))
    return os.cpu_count() or 1


def chunk_ranges(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def start_chunked(fn, n: int, chunk: int):
    """A context manager that starts fn(lo, hi) over fixed chunks of
    range(n) and yields `collect`: collect() waits for the results and
    returns them in chunk order regardless of scheduling.  Without a pool
    (one worker, or inline as above) the chunks run inside collect()."""
    return _start(fn, chunk_ranges(n, chunk), worker_count())


def run_chunked(fn, n: int, chunk: int) -> list:
    """Evaluate fn(lo, hi) over fixed chunks of range(n); results returned
    in chunk order regardless of scheduling."""
    with start_chunked(fn, n, chunk) as collect:
        return collect()


def run_chunked_capped(fn, n: int, chunk: int, cap: int) -> list:
    """run_chunked on at most `cap` workers.  A body with a large work space
    keeps one per worker, so the cap, not the core count, bounds its peak
    memory."""
    with _start(fn, chunk_ranges(n, chunk),
                min(worker_count(), cap)) as collect:
        return collect()


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def _call_body(bounds):
    return _body(*bounds)


@contextmanager
def _start(fn, ranges, workers: int):
    global _body, _pending
    workers = min(workers, len(ranges))
    if workers <= 1 or _in_worker or _pending:
        yield lambda: [fn(lo, hi) for lo, hi in ranges]
        return
    import multiprocessing   # here, so that importing the package stays lean

    _body = fn
    pool = multiprocessing.get_context("fork").Pool(workers,
                                                    initializer=_mark_worker)
    _pending = True
    try:
        # chunks go out in about four batches per worker, as Pool.map's
        # default does: one message per chunk costs more than a short tile
        batch = -(-len(ranges) // (4 * workers))
        results = pool.imap(_call_body, ranges, batch)
        yield lambda: list(results)
        pool.close()
    except BaseException:   # the first failure stops the other chunks
        pool.terminate()
        raise
    finally:
        _body = None
        _pending = False
        pool.join()
