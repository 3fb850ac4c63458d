"""Interleaved parent/change pairs of the benchmark, summarised into one
BENCH_<tag>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --tag NAME
        [--pairs 10] [--first-seed 101] [--shas PARENT_SHA CHANGE_SHA]

PARENT and CHANGE are two checkouts of nls-transport, ideally clean
archives of the two commits.  For each workload of CHANGE's BENCHMARK.json,
pair i runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in both checkouts, with S = first seed + i and T the
benchmark's run_seconds, the parent first at even i and the change first
at odd i.  BENCH_NAME.json, written in the current directory, records
each run (its end-to-end metrics, `correct` and `failed`) and, per
workload and end-to-end metric of BENCHMARK.json, both medians, both
interquartile ranges, the pairs each side won (a tie counts for neither)
and whether the change's median is within the metric's `bound` of the
parent's.  Per workload and side it also makes one `--trace 1` run at the
first seed, pinned to one core of the current affinity set so that
perfbench runs the study on one worker and every span stays in the traced
process, and records its per-layer metrics.  Once per side it runs the
Tier-1 command (TIER1) in the checkout and records its wall time, its exit
code and the counts of pytest's last line.  It also records numpy,
Python, the cores and the affinity, NLS_TRANSPORT_THREADS and both git
shas (from --shas, else from `git rev-parse HEAD` in the checkout, else
null).  The stdlib only; the package is never imported here.  Exits 1 if
any pair or traced run failed or was not correct.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int = 0, core: int | None = None) -> dict:
    """One perfbench run, on `core` alone if given: its exit code,
    `correct`, `failed` and metric values, or an `error` when it printed
    no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
        preexec_fn=None if core is None
        else lambda: os.sched_setaffinity(0, {core}))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit_code": proc.returncode, "correct": False, "failed": None,
                "metrics": {}, "error": proc.stderr.strip()[-2000:]}
    return {"exit_code": proc.returncode, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def pytest_counts(line: str) -> dict:
    """The passed, failed and error counts of pytest's summary line, 0
    where the line names none."""
    found = {word: int(n) for n, word in
             re.findall(r"(\d+) (passed|failed|errors?)\b", line)}
    return {"passed": found.get("passed", 0),
            "failed": found.get("failed", 0),
            "errors": found.get("error", 0) + found.get("errors", 0)}


def tier1_run(checkout: Path) -> dict:
    """The Tier-1 command in `checkout`, with its src/ first on PYTHONPATH:
    wall time, exit code and the counts of its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                   if p]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"wall_s": wall, "exit_code": proc.returncode, "last_line": last,
            **pytest_counts(last)}


def failed_run(run: dict) -> bool:
    return bool(run["exit_code"] or not run["correct"] or run["failed"])


def quartiles(values) -> list[float]:
    """First and third quartile, linear between the order statistics."""
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent, change, better: str, bound: float) -> dict:
    """Medians, quartiles, IQRs and pairs won of one metric, from the
    paired values (parent[i], change[i]); a side's value is None where its
    run reported none, and such a pair counts for neither side."""
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    out = {"pairs": len(pairs)}
    for side, values in (("parent", parent), ("change", change)):
        values = [v for v in values if v is not None]
        q1, q3 = quartiles(values)
        out[f"{side}_median"] = statistics.median(values) if values else None
        out[f"{side}_quartiles"] = [q1, q3]
        out[f"{side}_iqr"] = None if q1 is None else q3 - q1
    sign = 1.0 if better == "lower" else -1.0
    out["pairs_won_by_change"] = sum(sign * (c - p) < 0 for p, c in pairs)
    out["pairs_won_by_parent"] = sum(sign * (c - p) > 0 for p, c in pairs)
    base, new = out["parent_median"], out["change_median"]
    if base is None or new is None:
        out["relative_change"] = out["within_bound"] = None
        return out
    out["relative_change"] = (new - base) / base if base else None
    limit = base * (1.0 + bound) if better == "lower" else base * (1.0 - bound)
    out["within_bound"] = new <= limit if better == "lower" else new >= limit
    return out


def git_sha(checkout: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"numpy": numpy, "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "affinity_cores": len(os.sched_getaffinity(0)),
            "NLS_TRANSPORT_THREADS": os.environ.get("NLS_TRANSPORT_THREADS"),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--shas", nargs=2, default=None)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"{checkout} has no perfbench/run.py", file=sys.stderr)
            return 2
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    shas = args.shas or [git_sha(sides["parent"]), git_sha(sides["change"])]
    core = min(os.sched_getaffinity(0))
    doc = {"tag": args.tag, "schema": 2,
           "command": ("python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0"),
           "order": "pair i runs the parent first at even i",
           "traced": (f"--trace 1 at seed {seeds[0]} per workload and side, "
                      f"on core {core} alone"),
           "seeds": seeds, "environment": environment(),
           "git": dict(zip(("parent", "change"), shas)), "workloads": {}}
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} pair {i} seed {seed} {side}",
                      file=sys.stderr)
                run = perfbench_run(sides[side], workload, seed, seconds)
                runs.append({"pair": i, "seed": seed, "side": side,
                             "first": side == order[0], **run})
                bad += failed_run(run)
        values = {side: {} for side in sides}
        for run in runs:
            values[run["side"]][run["pair"]] = run["metrics"]
        metrics = {}
        for m in bench["end_to_end"]:
            paired = {side: [values[side].get(i, {}).get(m["name"])
                             for i in range(len(seeds))] for side in sides}
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m["bound"],
                                  "parent_runs": paired["parent"],
                                  "change_runs": paired["change"],
                                  **summarize(paired["parent"],
                                              paired["change"], m["better"],
                                              m["bound"])}
        traced = {}
        for side in sides:
            print(f"{workload} traced {side}", file=sys.stderr)
            traced[side] = perfbench_run(sides[side], workload, seeds[0],
                                         seconds, trace=1, core=core)
            bad += failed_run(traced[side])
        doc["workloads"][workload] = {"runs": runs, "metrics": metrics,
                                      "traced": traced}
    doc["tier1"] = {"command": "PYTHONPATH=src python3 " + " ".join(TIER1)}
    for side in sides:
        print(f"tier-1 {side}", file=sys.stderr)
        doc["tier1"][side] = tier1_run(sides[side])
    doc["all_runs_correct"] = bad == 0
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}; {bad} failed or incorrect runs", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
