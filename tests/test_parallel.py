import multiprocessing
import os
import time
from pathlib import Path

import pytest

from nls_transport.errors import NonFiniteState
from nls_transport.parallel import run_chunked, run_chunked_capped


def _children() -> set:
    """Pids of this process's children, running or not yet reaped."""
    me, kids = str(os.getpid()), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:   # the process ended while we looked
            continue
        if fields[1] == me:
            kids.add(int(stat.parent.name))
    return kids


def test_nested_call_runs_in_its_callers_thread(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")

    def outer(lo, hi):
        inner = run_chunked(lambda a, b: (a, os.getpid()), 5, 2)
        return os.getpid(), inner

    results = run_chunked(outer, 4, 1)
    # the outer chunks ran in pool workers, and each one's nested chunks
    # ran, in order, in the worker that made the nested call
    assert all(pid != os.getpid() for pid, _ in results)
    for pid, inner in results:
        assert inner == [(0, pid), (2, pid), (4, pid)]


def test_calls_outside_a_pool_start_one(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")
    run_chunked(lambda lo, hi: run_chunked(lambda a, b: None, 4, 1), 4, 1)
    # after a nested call, the calling process still hands chunks to a pool
    pids = run_chunked(lambda lo, hi: os.getpid(), 4, 1)
    assert os.getpid() not in pids


def test_capped_call_runs_on_at_most_cap_threads(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "8")
    barrier = multiprocessing.get_context("fork").Barrier(3)

    ran = []   # this process's chunks so far; each worker has its own copy

    def body(lo, hi):
        if not ran:   # the first chunk of each worker waits for two others
            barrier.wait(timeout=10)
        ran.append(lo)
        return lo, os.getpid()

    results = run_chunked_capped(body, 40, 1, 3)
    assert [lo for lo, _ in results] == list(range(40))
    assert len({pid for _, pid in results}) == 3


def test_no_worker_outlives_a_call(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")
    assert _children() == set()
    assert os.getpid() not in run_chunked(lambda lo, hi: os.getpid(), 4, 1)
    assert _children() == set()

    def body(lo, hi):
        if lo == 0:
            raise ValueError("chunk 0 failed")
        time.sleep(30.0)   # a worker still busy when the call fails
        return lo

    start = time.monotonic()
    with pytest.raises(ValueError, match="chunk 0 failed"):
        run_chunked(body, 4, 1)
    assert _children() == set()
    assert time.monotonic() - start < 30.0   # the busy worker was stopped


def test_package_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")
    message = "non-finite coefficients at t=0.3"

    def body(lo, hi):
        if lo == 2:
            raise NonFiniteState(message)
        return lo

    with pytest.raises(NonFiniteState) as caught:
        run_chunked(body, 4, 1)
    assert type(caught.value) is NonFiniteState
    assert str(caught.value) == message
