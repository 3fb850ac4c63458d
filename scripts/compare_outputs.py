"""Identity of every study's outputs between this checkout and another.

    python3 scripts/compare_outputs.py PARENT_CHECKOUT [--workdir DIR]

Runs the eight commands of README.md's "Command line" block and the three
perfbench workloads at their --seed 0 study seeds (configs read from
perfbench/run.py) in this checkout and in PARENT_CHECKOUT, each at
NLS_TRANSPORT_THREADS=1 and 2.  Every run is `python3 -m nls_transport` in
the checkout's directory with its `src/` first on PYTHONPATH, writing
under the work directory (a temporary one unless given).  Compares, per
run, each CSV byte for byte, each manifest.json as JSON without its
config.output (the one field that names the work directory), and the
PASS or FAIL verdict line the command prints on stdout or stderr.  So a
moved count or error estimate in a manifest, or a changed error message,
reads DIFFERS as a moved CSV value does.  Prints one line per CSV,
manifest and verdict, IDENTICAL or DIFFERS, and one line per command whose
exit codes differ; exits 1 if anything differs or a file is missing on one
side.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands() -> list[tuple[str, list[str]]]:
    """(label, CLI argv) of the README commands and perfbench workloads."""
    readme = (ROOT / "README.md").read_text()
    out = [(argv[0], argv) for argv in
           (shlex.split(line) for line in
            re.findall(r"^nls-transport\s+(.+)$", readme, re.MULTILINE))]
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run   # its dataclasses look their module up
    spec.loader.exec_module(run)
    for name, workload in sorted(run.WORKLOADS.items()):
        # argv ends with --output DIR, which each run below sets again
        out.append((f"perfbench-{name}",
                    workload.argv(workload.study_seed(0), Path("."))[:-2]))
    return out


def run_all(checkout: Path, outdir: Path, threads: int, cmds) -> dict:
    """label -> (exit code, verdict lines) of each command, outputs under
    outdir/label; the verdict lines are those of its stdout and stderr that
    start with PASS or FAIL."""
    env = dict(os.environ, NLS_TRANSPORT_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(checkout / "src")] + [p for p in [os.environ.get(
                       "PYTHONPATH")] if p]))
    runs = {}
    for label, argv in cmds:
        print(f"{checkout} threads={threads} {label}", file=sys.stderr)
        proc = subprocess.run(
            [sys.executable, "-m", "nls_transport", *argv,
             "--output", str(outdir / label)],
            cwd=checkout, env=env, capture_output=True, text=True)
        runs[label] = (proc.returncode, [
            line for line in (proc.stdout + proc.stderr).splitlines()
            if line.startswith(("PASS ", "FAIL "))])
    return runs


def contents(path: Path):
    """What is compared of an output file: a manifest's JSON without
    config.output, any other file's bytes; None if it is missing."""
    if not path.is_file():
        return None
    if path.name != "manifest.json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.get("config", {}).pop("output", None)
    return json.dumps(doc, sort_keys=True)   # a NaN equals itself as text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "nls_transport" / "cli.py").is_file():
        print(f"{parent} is not a checkout of nls-transport",
              file=sys.stderr)
        return 2
    cmds = commands()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        differs = 0
        for threads in (1, 2):
            sides = {name: (checkout, work / name / str(threads))
                     for name, checkout in (("change", ROOT),
                                            ("parent", parent))}
            runs = {name: run_all(checkout, out, threads, cmds)
                    for name, (checkout, out) in sides.items()}
            for label, _ in cmds:
                (code, verdict), (parent_code, parent_verdict) = (
                    runs["change"][label], runs["parent"][label])
                if code != parent_code:
                    differs += 1
                    print(f"EXIT DIFFERS threads={threads} {label}: "
                          f"{parent_code} -> {code}")
                same = verdict == parent_verdict
                differs += not same
                print(f"{'IDENTICAL' if same else 'DIFFERS'} "
                      f"threads={threads} {label} verdict")
                here = sides["change"][1] / label
                there = sides["parent"][1] / label
                names = sorted({p.relative_to(d) for d in (here, there)
                                for pattern in ("*.csv", "manifest.json")
                                for p in d.rglob(pattern)})
                for name in names:
                    a, b = contents(here / name), contents(there / name)
                    same = a is not None and a == b
                    differs += not same
                    print(f"{'IDENTICAL' if same else 'DIFFERS'} "
                          f"threads={threads} {label}/{name}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
