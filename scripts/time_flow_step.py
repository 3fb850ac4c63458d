#!/usr/bin/env python3
"""Wall time of one flow solve per RK4 step at five fixed shapes, of a
trajectory per interval and of a Jacobian determinant per call, in this
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
microseconds, and per row-step.

Two more paths are timed the same way.  `traj_n8`: the `density-check`
trajectories, `trajectory_batch` over t = -0.5 with 501 nodes at N = M = 8
on 3 rows at h and then on 1 row at h/2, in microseconds per interval of
the pair (500 intervals).  `jacobian_n2`: the `liouville` determinant,
`jacobian_det` at N = 2 and t = 0.5 on a state of H^1 norm at most 1, in
microseconds per call.

Run it several times, each a fresh interpreter, to see the spread.  The
flow runs in the calling process, so NLS_TRANSPORT_THREADS does not enter.
The last line is one JSON object.
"""

import json
import statistics
import time

import numpy as np

import nls_transport as nt
from nls_transport.flow import (FlowParams, _steps, evolve_batch,
                                jacobian_det, trajectory_batch)
from nls_transport.measures import MeasureParams, SeededRng, sample_batch

FAMILY = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
SHAPES = (   # name, rows, N, M, t, step
    ("n32x2", 2, 32, 32, -0.3, 2.5e-4),
    ("n32x8", 8, 32, 32, -0.3, 2.5e-4),
    ("n8x4", 4, 8, 8, -0.5, 1e-3),
    ("n4x430", 430, 4, 16, 0.3, 1e-3),
    ("n4x8192", 8192, 4, 16, 0.05, 1e-3),
)


def rows_at(rows: int, m_ambient: int) -> np.ndarray:
    return sample_batch(SeededRng(2), rows, MeasureParams(
        s=2.0, m_ambient=m_ambient, family=FAMILY))


def median_us(call) -> float:
    """Median wall time of five calls after a warm-up, in microseconds."""
    call()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def trajectories(coeffs: np.ndarray) -> None:
    trajectory_batch(coeffs[:3], 8, -0.5, FlowParams(8, 1e-3), 501)
    trajectory_batch(coeffs[3:], 8, -0.5, FlowParams(8, 5e-4), 501)


def main() -> None:
    out = {}
    for name, rows, n_cut, m_ambient, t, step in SHAPES:
        coeffs = rows_at(rows, m_ambient)
        p = FlowParams(n_cut=n_cut, step=step)
        per_step = median_us(lambda: evolve_batch(coeffs, m_ambient, t, p)
                             ) / len(_steps(t, step))
        out[name] = {"us_per_step": per_step,
                     "us_per_row_step": per_step / rows}
    coeffs = rows_at(4, 8)
    out["traj_n8"] = {
        "us_per_interval": median_us(lambda: trajectories(coeffs)) / 500}
    u = nt.FourierState(2, rows_at(1, 2)[0])
    u = nt.FourierState(2, u.coeffs / max(1.0, np.sqrt(
        nt.sobolev_norm_sq_sigma(u, 1.0))))
    out["jacobian_n2"] = {"us_per_call": median_us(
        lambda: jacobian_det(u, 0.5, FlowParams(2, 1e-3)))}
    print(json.dumps({**out, "numpy": np.__version__}))


if __name__ == "__main__":
    main()
