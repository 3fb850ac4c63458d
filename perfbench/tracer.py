"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps the public functions of each `nls_transport` layer by
patching every module attribute that holds the function, i.e. the name
where callers look it up (`transport` calls its own imported
`evolve_batch`, so that is the name replaced).  Each call records a span
with a name, start, end, parent and attributes.  Parents come from a stack
per thread; the bodies that `run_chunked` hands to worker threads name the
`run_chunked` span as their parent explicitly.  Spans stay in memory until
`write` is called.  `restore` puts every original function back.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

N_BUCKETS = (4, 8, 16, 32)


def _rows(coeffs) -> int:
    return int(np.prod(np.shape(coeffs)[:-1], dtype=np.int64))


def rk4_steps(t: float, h: float) -> int:
    """Number of RK4 steps the flow takes over t at step h: whole steps of
    size h plus one shorter step for a non-zero remainder."""
    n_whole = int(abs(t) / h)
    rem = t - (1.0 if t > 0 else -1.0) * h * n_whole
    return n_whole + (1 if rem != 0.0 else 0)


def _density_step(d) -> dict:
    return {"start_step": float(d.flow.step)}


# Each target: (span name, module, function, attrs(args, kwargs, result)).
# attrs reads the call's arguments positionally, as the package calls them.

def _evolve_attrs(args, kwargs, result):
    coeffs, _, t, p = args[:4]
    rows = _rows(coeffs)
    return {"rows": rows, "step": float(p.step), "t": float(t),
            "row_steps": rows * rk4_steps(float(t), float(p.step))}


def _trajectory_attrs(args, kwargs, result):
    return {"rows": _rows(args[0]), "step": float(args[3].step)}


def _energy_attrs(args, kwargs, result):
    coeffs, m_ambient, p = args[:3]
    return {"rows": _rows(coeffs), "n_cut": int(p.resolve_cut(m_ambient))}


def _cutoff_attrs(args, kwargs, result):
    return {"rows": _rows(args[0]),
            "kept": [int(i) for i in np.flatnonzero(np.asarray(result) > 0)]}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


TARGETS = (
    ("measures.sample", "nls_transport.measures", "sample_batch",
     lambda a, k, r: {"rows": int(a[1])}),
    ("measures.cutoff", "nls_transport.measures", "cutoff_indicator_batch",
     _cutoff_attrs),
    ("flow.evolve", "nls_transport.flow", "evolve_batch", _evolve_attrs),
    ("flow.trajectory", "nls_transport.flow", "trajectory_batch",
     _trajectory_attrs),
    ("energies.r", "nls_transport.energies", "r_correction_batch",
     _energy_attrs),
    ("energies.q", "nls_transport.energies", "q_derivative_batch",
     _energy_attrs),
    # the step-controlled direct solve behind every log G, whether reached
    # through log_density_direct_batch or the normal form's step lookup
    ("transport.log_g", "nls_transport.transport", "_controlled_direct",
     lambda a, k, r: {"rows": _rows(a[0]), **_density_step(a[2])}),
    ("transport.density_direct", "nls_transport.transport", "density_direct",
     lambda a, k, r: _density_step(a[1])),
    ("transport.density_normal_form", "nls_transport.transport",
     "density_normal_form", lambda a, k, r: _density_step(a[1])),
    ("transport.density_wgm", "nls_transport.transport", "density_wgm",
     lambda a, k, r: _density_step(a[1])),
    ("transport.change_of_measure_test", "nls_transport.transport",
     "change_of_measure_test", lambda a, k, r: _density_step(a[0])),
    ("transport.convergence_study", "nls_transport.transport",
     "convergence_study", None),
    ("cli.write", "nls_transport.reporting", "write_csv", _write_attrs),
    ("cli.write", "nls_transport.reporting", "write_manifest", _write_attrs),
)


class Tracer:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=None, **attrs):
        """A span around the body; its parent is the innermost open span of
        this thread unless one is given."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        rec = {"id": span_id, "name": name, "parent": parent,
               "thread": threading.get_ident(), "attrs": dict(attrs)}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"].update(attrs(args, kwargs, result))
                return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_run_chunked(self, fn):
        from nls_transport.parallel import chunk_ranges, worker_count

        def traced(body, n, chunk):
            chunks = len(chunk_ranges(n, chunk))
            with self.span("parallel.run_chunked", chunks=chunks,
                           workers=min(worker_count(), chunks)) as rec:
                def traced_body(lo, hi):
                    with self.span("parallel.chunk", parent=rec["id"],
                                   rows=hi - lo):
                        return body(lo, hi)
                return fn(traced_body, n, chunk)
        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nls_transport"
                                   or mod_name.startswith("nls_transport.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Patch every layer function named in TARGETS, and run_chunked."""
        for name, module, func, attrs in TARGETS:
            original = getattr(importlib.import_module(module), func)
            self._patch_everywhere(original, self.wrap(name, original, attrs))
        parallel = importlib.import_module("nls_transport.parallel")
        original = parallel.run_chunked
        self._patch_everywhere(original, self._wrap_run_chunked(original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, in the order they closed."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that its child
    spans cover (children clipped to the parent's interval)."""
    children: dict = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)
    out = {}
    for rec in spans:
        kids = [(max(c["start"], rec["start"]), min(c["end"], rec["end"]))
                for c in children.get(rec["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[rec["id"]] = (rec["end"] - rec["start"]) - covered(kids)
    return out


def _ancestor_attr(rec, by_id, key):
    node = by_id.get(rec["parent"])
    while node is not None:
        if key in node["attrs"]:
            return node["attrs"][key]
        node = by_id.get(node["parent"])
    return None


def _has_ancestor(rec, by_id, name) -> bool:
    node = by_id.get(rec["parent"])
    while node is not None:
        if node["name"] == name:
            return True
        node = by_id.get(node["parent"])
    return False


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced study, by name (see README)."""
    by_id = {rec["id"]: rec for rec in spans}
    selfs = self_times(spans)

    def named(name):
        return [rec for rec in spans if rec["name"] == name]

    def dur(recs):
        return float(sum(rec["end"] - rec["start"] for rec in recs))

    def attr_sum(recs, key):
        return int(sum(rec["attrs"].get(key, 0) for rec in recs))

    m = {}
    m["measures.sample_s"] = dur(named("measures.sample"))
    m["measures.sample_rows"] = attr_sum(named("measures.sample"), "rows")
    m["measures.cutoff_s"] = dur(named("measures.cutoff"))

    evolve = named("flow.evolve")
    m["flow.evolve_s"] = dur(evolve)
    m["flow.evolve_rows"] = attr_sum(evolve, "rows")
    m["flow.row_steps"] = attr_sum(evolve, "row_steps")
    # rows the cutoff keeps at either end of the window, per chunk, against
    # rows the forward flow (an evolve outside any log G) advanced
    forward = [rec for rec in evolve
               if not _has_ancestor(rec, by_id, "transport.log_g")]
    cutoffs: dict = {}
    for rec in named("measures.cutoff"):
        cutoffs.setdefault(rec["parent"], set()).update(rec["attrs"]["kept"])
    advanced = attr_sum(forward, "rows")
    if cutoffs and advanced:
        m["flow.useful_row_ratio"] = (sum(len(k) for k in cutoffs.values())
                                      / advanced)
    else:
        m["flow.useful_row_ratio"] = 1.0   # no cutoff: every row is used
    trajectory = named("flow.trajectory")
    m["flow.trajectory_s"] = dur(trajectory)
    m["flow.trajectory_rows"] = attr_sum(trajectory, "rows")

    for short, name in (("q", "energies.q"), ("r", "energies.r")):
        recs = named(name)
        m[f"energies.{short}_s"] = dur(recs)
        m[f"energies.{short}_rows"] = attr_sum(recs, "rows")
        for n in N_BUCKETS:
            m[f"energies.{short}_s.n{n}"] = dur(
                [rec for rec in recs if rec["attrs"]["n_cut"] == n])
    m["energies.q_us_per_row"] = (1e6 * m["energies.q_s"] / m["energies.q_rows"]
                                  if m["energies.q_rows"] else 0.0)

    log_g = named("transport.log_g")
    m["transport.log_g_s"] = dur(log_g)
    m["transport.log_g_self_s"] = float(sum(selfs[rec["id"]] for rec in log_g))
    m["transport.log_g_rows"] = attr_sum(log_g, "rows")
    refined = 0
    for rec in evolve + trajectory:
        start = _ancestor_attr(rec, by_id, "start_step")
        if start is not None and rec["attrs"]["step"] < 0.5 * start * (1 - 1e-9):
            refined += rec["attrs"]["rows"]
    m["transport.refined_row_evals"] = refined
    for short in ("direct", "normal_form", "wgm"):
        m[f"transport.density_{short}_s"] = dur(
            named(f"transport.density_{short}"))

    calls = named("parallel.run_chunked")
    busy = dur(named("parallel.chunk"))
    capacity = sum(rec["attrs"]["workers"] * (rec["end"] - rec["start"])
                   for rec in calls)
    m["parallel.chunks"] = attr_sum(calls, "chunks")
    m["parallel.efficiency"] = busy / capacity if capacity > 0 else 0.0

    main = named("cli.main")
    m["cli.self_s"] = float(sum(selfs[rec["id"]] for rec in main))
    m["cli.write_s"] = dur(named("cli.write"))
    m["cli.write_bytes"] = attr_sum(named("cli.write"), "bytes")
    return m
