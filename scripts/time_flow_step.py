#!/usr/bin/env python3
"""Wall time of one flow solve per RK4 step, at four fixed shapes, in this
interpreter.

    PYTHONPATH=src python3 scripts/time_flow_step.py

Shapes (rows x N, M = N unless stated, s = 2, seed 2, h = 1e-3): the
`convergence` reference at N = 32 on 2 and on 8 rows, over t = -0.3 at
h/4; the `density-check` block, 4 rows at N = 8 over t = -0.5; a
`transport-mc` batch as the benchmark's prefilter leaves it, 430 rows at
N = 4 and M = 16 over t = 0.3; and a whole 8,192-row chunk at that N and
M, as `transport-mc` without a cutoff evolves it, over t = 0.05.  Each
shape is solved once as a warm-up, then timed over five `evolve_batch`
calls; the script prints the median per call divided by its RK4 steps, in
microseconds, and per row-step.  Run it several times, each a fresh
interpreter, to see the spread.  The flow runs in the calling process, so
NLS_TRANSPORT_THREADS does not enter.  The last line is one JSON object.
"""

import json
import statistics
import time

import numpy as np

import nls_transport as nt
from nls_transport.flow import FlowParams, _steps, evolve_batch
from nls_transport.measures import MeasureParams, SeededRng, sample_batch

FAMILY = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
SHAPES = (   # name, rows, N, M, t, step
    ("n32x2", 2, 32, 32, -0.3, 2.5e-4),
    ("n32x8", 8, 32, 32, -0.3, 2.5e-4),
    ("n8x4", 4, 8, 8, -0.5, 1e-3),
    ("n4x430", 430, 4, 16, 0.3, 1e-3),
    ("n4x8192", 8192, 4, 16, 0.05, 1e-3),
)


def main() -> None:
    out = {}
    for name, rows, n_cut, m_ambient, t, step in SHAPES:
        coeffs = sample_batch(SeededRng(2), rows, MeasureParams(
            s=2.0, m_ambient=m_ambient, family=FAMILY))
        p = FlowParams(n_cut=n_cut, step=step)
        evolve_batch(coeffs, m_ambient, t, p)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            evolve_batch(coeffs, m_ambient, t, p)
            times.append(time.perf_counter() - start)
        per_step = 1e6 * statistics.median(times) / len(_steps(t, step))
        out[name] = {"us_per_step": per_step,
                     "us_per_row_step": per_step / rows}
    print(json.dumps({**out, "numpy": np.__version__}))


if __name__ == "__main__":
    main()
