#!/usr/bin/env python3
"""Wall time of the R/Q kernel on two fixed blocks, in this interpreter.

    PYTHONPATH=src python3 scripts/time_rq_kernel.py

Blocks:
  density_check  the Q block of `density-check` at the perfbench config:
                 4 samples (seed 2024, s = 2, M = N = 8), each with its 501
                 backward snapshots over t = 0.5 at step 1e-3, and R at
                 their endpoints;
  convergence    8 samples (seed 2, s = 2, M = 32), R and Q at N = 4, 8,
                 16 and 32, as in the `convergence` study.

Every call is timed once, in the order above (R before Q, as the studies
call them) and with no warm-up, so the first Q call meets the allocator in
the state a study's does.  Run the script several times, each a fresh
interpreter, to see the spread.  The trajectories are built before any
timing.  NLS_TRANSPORT_THREADS sets the worker count as for the CLI.  The
last line is one JSON object: seconds per call, the sum over each block,
the peak RSS of this process and the largest peak RSS of the worker
processes the tiles ran in (both in MiB), and the CPU seconds of this
process plus its workers.  With more than one worker the tiles run in the
workers, so their memory and CPU time show only in the last two.
"""

import json
import resource
import time

import numpy as np

import nls_transport as nt
from nls_transport.energies import (EnergyParams, q_derivative_batch,
                                    r_correction_batch)
from nls_transport.flow import FlowParams, trajectory_batch
from nls_transport.measures import MeasureParams, SeededRng, sample_batch
from nls_transport.parallel import worker_count

FAMILY = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)


def samples(seed: int, rows: int, m_ambient: int) -> np.ndarray:
    return sample_batch(SeededRng(seed), rows, MeasureParams(
        s=2.0, m_ambient=m_ambient, family=FAMILY))


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> None:
    _, snaps = trajectory_batch(samples(2024, 4, 8), 8, -0.5,
                                FlowParams(n_cut=8, step=1e-3), 501)
    wide = samples(2, 8, 32)
    p8 = EnergyParams(8, FAMILY)
    density = {"r_s": timed(r_correction_batch, snaps[:, -1, :], 8, p8),
               "q_s": timed(q_derivative_batch, snaps, 8, p8,
                            nt.default_grid(8)),
               "q_rows": int(snaps.shape[0] * snaps.shape[1])}
    convergence = {}
    for name, fn in (("r_s", r_correction_batch), ("q_s", q_derivative_batch)):
        for n_cut in (4, 8, 16, 32):
            grid = (nt.default_grid(n_cut),) if name == "q_s" else ()
            convergence[f"{name}.n{n_cut}"] = timed(
                fn, wide, 32, EnergyParams(n_cut, FAMILY), *grid)
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "density_check": {**density,
                          "total_s": density["q_s"] + density["r_s"]},
        "convergence": {**convergence, "total_s": sum(convergence.values())},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": own.ru_maxrss / 1024.0,
        "workers_peak_rss_mib": workers.ru_maxrss / 1024.0,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in (own, workers)),
        "threads": worker_count(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
