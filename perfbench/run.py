"""Benchmark of the three CLI studies of nls-transport.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every study invocation is a fresh
interpreter (perfbench/worker.py) that imports `nls_transport` from the
checkout's `src/` and calls `cli.main` in-process, one invocation after the
other (a closed loop with one client).  With --trace 0 the run launches
set-up-only interpreters, then repeats whole study invocations until
--seconds have passed, checks every output and prints the end-to-end
metrics.  With --trace 1 it runs the study once untraced and once traced,
checks both, and prints the per-layer metrics computed from the spans.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / "perfbench-out"

SETUP_RUNS = 5          # set-up-only launches per timed run, after one warm-up
STUDY_TIMEOUT_S = 170   # a run must end within 180 s
THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    """One CLI study at a fixed config.  `seeds` lists study seeds whose
    inputs have the same make-up; --seed N picks seeds[N % len(seeds)].
    Without a list the study seed is base_seed + N."""

    name: str
    config: dict
    check: Callable          # check(csv rows, config) -> list of problems
    base_seed: int = 0
    seeds: tuple = ()

    def study_seed(self, seed: int) -> int:
        if self.seeds:
            return self.seeds[seed % len(self.seeds)]
        return self.base_seed + seed

    def argv(self, study_seed: int, outdir: Path) -> list[str]:
        flags = [self.name]
        for key, val in self.config.items():
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            flags += ["--" + key.replace("_", "-"), str(val)]
        return flags + ["--seed", str(study_seed), "--output", str(outdir)]


def _number(text: str) -> float:
    """A CSV field as a float.  With numpy 2 the CLI writes a numpy scalar
    field as its repr, `np.float64(x)` (a fault recorded in CHANGES.md), so
    that wrapper is taken off before parsing."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_transport_mc(rows, config) -> list[str]:
    """|z| <= 4 on every observable (the push-forward identity is exact at
    finite truncation), finite estimates and positive standard errors."""
    problems = []
    if len(rows) != 6:
        problems.append(f"expected 6 observables, got {len(rows)}")
    for row in rows:
        lhs, lhs_se, rhs, rhs_se, z = (_number(row[k]) for k in
                                       ("lhs", "lhs_stderr", "rhs",
                                        "rhs_stderr", "z"))
        if not (_finite(lhs, lhs_se, rhs, rhs_se, z) and lhs_se > 0
                and rhs_se > 0 and abs(z) <= 4.0):
            problems.append(f"observable {row['observable']}: lhs={lhs} "
                            f"({lhs_se}) rhs={rhs} ({rhs_se}) z={z}")
    return problems


def check_density(rows, config) -> list[str]:
    """max |log G_direct - log G_nf| <= 1e-6, recomputed from the columns:
    the two formulas share only the flow."""
    if len(rows) != config["n_samples"]:
        return [f"expected {config['n_samples']} rows, got {len(rows)}"]
    diffs = [abs(float(r["log_g_direct"]) - float(r["log_g_normal_form"]))
             for r in rows]
    problems = [f"sample {r['sample']}: non-finite value" for r in rows
                if not _finite(*(float(r[k]) for k in
                                 ("log_g_direct", "log_g_normal_form",
                                  "log_f_weighted")))]
    if not max(diffs) <= 1e-6:
        problems.append(f"max |log G_direct - log G_nf| = {max(diffs)}")
    return problems


def check_convergence(rows, config) -> list[str]:
    """The sup differences of R, Q and log G decrease strictly in N."""
    problems = []
    for kind in ("R", "Q", "G"):
        sups = [float(r["sup_diff"]) for r in
                sorted((r for r in rows if r["study"] == kind),
                       key=lambda r: int(r["n_cut"]))]
        if len(sups) != len(config["n_list"]):
            problems.append(f"{kind}: expected {len(config['n_list'])} rows")
        elif not all(b < a for a, b in zip(sups, sups[1:])):
            problems.append(f"{kind}: sup differences not decreasing: {sups}")
    return problems


WORKLOADS = {w.name: w for w in (
    # sampling, the forward flow of every sample and the cutoff: log G is
    # integrated only on the rows the cutoff keeps, R and Q never run
    Workload("transport-mc",
             {"s": 2.0, "m_ambient": 16, "n_cut": 4, "t": 0.3, "step": 0.001,
              "cutoff_r": 5.0, "n_samples": 32768},
             check_transport_mc, base_seed=424242),
    # Q at 501 nodes x 2 per sample and the step-controlled direct solve;
    # each seed's first four samples are accepted at steps h, h, h, h/2
    Workload("density-check",
             {"s": 2.0, "m_ambient": 8, "n_cut": 8, "t": 0.5, "step": 0.001,
              "quad_points": 501, "n_samples": 4},
             check_density,
             seeds=(2024, 2025, 2026, 2045, 2049, 2052, 2061, 2066, 2069,
                    2070, 2082, 2085, 2105, 2110, 2117, 2122, 2126, 2131,
                    2132)),
    # R and Q at N up to 32 on few rows, and the flow at N = 32 with step
    # refinement; seeds on which the sup differences decrease strictly and
    # the finest accepted step at N = 4, 8, 16, 32 is h/2, h/4, h/8, h/16
    Workload("convergence",
             {"s": 2.0, "m_ambient": 32, "n_cut": 4, "t": 0.3, "step": 0.001,
              "n_list": [4, 8, 16]},
             check_convergence, seeds=(2, 172, 229, 281)),
)}


def oracle_problems(study_seed: int, config: dict) -> list[str]:
    """R and Q of the convergence study's states truncated to N <= 3 against
    the nested-loop oracles of tests/oracles.py, |got - want| <=
    1e-12 max(1, |want|) as in the acceptance suite."""
    sys.path.insert(0, str(ROOT / "src"))
    from nls_transport.energies import (EnergyParams, q_derivative_batch,
                                        r_correction_batch)
    from nls_transport.measures import MeasureParams, SeededRng, sample_batch
    from nls_transport.spectral import WeightFamily, WeightKind, default_grid
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    m_ambient = config["m_ambient"]
    fam = WeightFamily(WeightKind.JAPANESE_BRACKET, config["s"])
    coeffs = sample_batch(SeededRng(study_seed), 8,
                          MeasureParams(s=config["s"], m_ambient=m_ambient,
                                        family=fam))
    problems = []
    for n_cut in (1, 2, 3):
        energy = EnergyParams(n_cut=n_cut, family=fam)
        r = r_correction_batch(coeffs, m_ambient, energy)
        q = q_derivative_batch(coeffs, m_ambient, energy, default_grid(n_cut))
        for i, row in enumerate(coeffs):
            for name, got, want in (
                    ("R", r[i], oracles.r_oracle(row, m_ambient, n_cut, fam)[0]),
                    ("Q", q[i], oracles.q_derivative_oracle(row, m_ambient,
                                                            n_cut, fam))):
                if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
                    problems.append(f"{name} state {i} N={n_cut}: "
                                    f"{got!r} vs oracle {want!r}")
    return problems


def launch(mode: str, argv: list[str], rundir: Path) -> dict:
    """One worker interpreter; returns its result with setup_s added, or
    {"error": ...} when it crashed or timed out."""
    rundir.mkdir(parents=True, exist_ok=True)
    result = rundir / f"{mode}.json"
    env = dict(os.environ, NLS_TRANSPORT_THREADS=str(THREADS),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + [p for p in [os.environ.get(
                       "PYTHONPATH")] if p]))
    cmd = [sys.executable, str(WORKER), mode, str(result),
           str(rundir / "trace.jsonl"), "--", *argv]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} timed out after {STUDY_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    res = json.loads(result.read_text())
    res["setup_s"] = res["setup_end"] - start
    res["stdout"] = proc.stdout
    return res


def study(workload: Workload, mode: str, study_seed: int,
          rundir: Path) -> dict:
    """One study invocation and the checks of its outputs, made after the
    timed region.  Adds "csv" (bytes) and "problems"."""
    outdir = rundir / "out"
    res = launch(mode, workload.argv(study_seed, outdir), rundir)
    if "error" in res:
        return res
    if res["code"] != 0:
        res["error"] = f"{workload.name} exited {res['code']}"
        return res
    problems = []
    if not res["stdout"].startswith(f"PASS {workload.name}:"):
        problems.append(f"no PASS line: {res['stdout'].strip()!r}")
    csv_path = outdir / workload.name / f"{workload.name}.csv"
    manifest = json.loads((outdir / workload.name / "manifest.json")
                          .read_text())
    if manifest.get("pass") is not True:
        problems.append("manifest does not record a pass")
    res["csv"] = csv_path.read_bytes()
    with open(csv_path, newline="") as fh:
        problems += workload.check(list(csv.DictReader(fh)), workload.config)
    res["problems"] = problems
    return res


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        out: Path) -> tuple[dict, list[str]]:
    """Returns (result object, problems)."""
    shutil.rmtree(out, ignore_errors=True)
    study_seed = workload.study_seed(seed)
    metrics, rounds = {}, []
    if trace:
        rounds.append(study(workload, "study", study_seed, out / "untraced"))
        rounds.append(study(workload, "traced", study_seed, out / "traced"))
        if all("error" not in r for r in rounds):
            from tracer import layer_metrics, read_spans
            values = layer_metrics(read_spans(out / "traced" / "trace.jsonl"))
            values["trace.study_s"] = rounds[1]["study_s"]
            values["trace.overhead_s"] = (rounds[1]["study_s"]
                                          - rounds[0]["study_s"])
            doc = json.loads((ROOT / "BENCHMARK.json").read_text())
            metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                       for m in doc["per_layer"]}
    else:
        argv = workload.argv(study_seed, out / "setup")
        setups = [launch("setup", argv, out / f"setup-{i}")
                  for i in range(SETUP_RUNS + 1)][1:]
        start = time.perf_counter()
        while True:
            rounds.append(study(workload, "study", study_seed,
                                out / f"round-{len(rounds)}"))
            if time.perf_counter() - start >= seconds:
                break
        done = [r for r in rounds if "error" not in r]
        if done and all("error" not in s for s in setups):
            metrics = {
                "study_s": _metric(statistics.median(
                    r["study_s"] for r in done), "s"),
                "setup_s": _metric(statistics.median(
                    s["setup_s"] for s in setups), "s"),
                "peak_rss_mib": _metric(statistics.median(
                    r["peak_rss_mib"] for r in done), "MiB"),
            }
    done = [r for r in rounds if "error" not in r]
    problems = [p for r in done for p in r["problems"]]
    if len({r["csv"] for r in done}) > 1:
        problems.append("CSV differs between study invocations of one run")
    if workload.name == "convergence" and done:
        problems += oracle_problems(study_seed, workload.config)
    errors = [r["error"] for r in rounds if "error" in r]
    if not trace:
        errors += [s["error"] for s in setups if "error" in s]
    result = {"correct": not problems, "attempted": len(rounds),
              "failed": len(rounds) - len(done), "metrics": metrics}
    return result, problems + errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [ROOT / "src" / "nls_transport" / "cli.py",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a checkout of nls-transport: missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    result, problems = run(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), OUT / args.workload)
    for line in problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if not result["metrics"]:
        print(f"{args.workload}: no successful study invocation",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
