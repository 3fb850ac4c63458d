"""CSV and JSON manifest output for experiment runs.

Floats are written with repr (shortest round-trip), so rerunning a command
with the same config and seed yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SCHEMA_VERSION = 1


def format_value(v) -> str:
    # float() first: a numpy float is a float whose repr is np.float64(...)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_manifest(path, command: str, config: dict, summary: dict,
                   passed: bool) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "summary": summary,
        "pass": bool(passed),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trajectory(traj, path_prefix, params: dict) -> None:
    """Trajectory export: one JSON snapshot file per state plus a manifest
    with times and parameters."""
    from .spectral import state_to_dict

    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    snapshot_files = []
    for i, state in enumerate(traj.states):
        fname = f"{prefix.name}_snap{i:04d}.json"
        with open(prefix.parent / fname, "w") as fh:
            json.dump(state_to_dict(state), fh)
        snapshot_files.append(fname)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "times": [float(t) for t in traj.times],
        "snapshots": snapshot_files,
        "params": params,
    }
    with open(prefix.parent / f"{prefix.name}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
