import threading

from nls_transport.parallel import run_chunked, run_chunked_capped


def test_nested_call_runs_in_its_callers_thread(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")

    def outer(lo, hi):
        inner = run_chunked(lambda a, b: (a, threading.get_ident()), 5, 2)
        return threading.get_ident(), inner

    results = run_chunked(outer, 4, 1)
    # the outer chunks ran on the pool, and each one's nested chunks ran,
    # in order, in the thread that made the nested call
    assert all(ident != threading.get_ident() for ident, _ in results)
    for ident, inner in results:
        assert inner == [(0, ident), (2, ident), (4, ident)]


def test_calls_outside_a_pool_start_one(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")
    run_chunked(lambda lo, hi: run_chunked(lambda a, b: None, 4, 1), 4, 1)
    # after a nested call, the calling thread still hands chunks to a pool
    idents = run_chunked(lambda lo, hi: threading.get_ident(), 4, 1)
    assert threading.get_ident() not in idents


def test_capped_call_runs_on_at_most_cap_threads(monkeypatch):
    monkeypatch.setenv("NLS_TRANSPORT_THREADS", "8")
    barrier = threading.Barrier(3)

    def body(lo, hi):
        if lo < 3:   # the first three chunks run at once, on three threads
            barrier.wait(timeout=10)
        return lo, threading.get_ident()

    results = run_chunked_capped(body, 40, 1, 3)
    assert [lo for lo, _ in results] == list(range(40))
    assert len({ident for _, ident in results}) == 3
