"""Fast tests of the benchmark itself: the tracer, the self-time arithmetic
and a tiny config of each workload through the worker and its checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

MODULES = ("nls_transport.cli", "nls_transport.energies", "nls_transport.flow",
           "nls_transport.measures", "nls_transport.parallel",
           "nls_transport.reporting", "nls_transport.transport")

SMOKE = {
    "transport-mc": {"s": 2.0, "m_ambient": 16, "n_cut": 4, "t": 0.3,
                     "step": 0.001, "cutoff_r": 5.0, "n_samples": 400},
    "density-check": {"s": 2.0, "m_ambient": 4, "n_cut": 4, "t": 0.1,
                      "step": 0.001, "quad_points": 101, "n_samples": 2},
    "convergence": {"s": 2.0, "m_ambient": 8, "n_cut": 2, "t": 0.1,
                    "step": 0.001, "n_list": [2, 4, 6]},
}


def _namespace():
    return {(name, attr): value
            for name in MODULES
            for attr, value in vars(importlib.import_module(name)).items()}


def test_tracer_restores_every_patched_name():
    before = _namespace()
    t = tracer.Tracer()
    t.install()
    transport = importlib.import_module("nls_transport.transport")
    original = before[("nls_transport.flow", "evolve_batch")]
    assert transport.evolve_batch.__wrapped__ is original
    patched = {key for key, value in _namespace().items()
               if value is not before[key]}
    assert ("nls_transport.transport", "run_chunked") in patched
    assert ("nls_transport.cli", "write_csv") in patched
    t.restore()
    after = _namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "thread": 0,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        # two children overlapping in time, as on two worker threads
        _span(1, "parallel.chunk", 0, 1.0, 3.0),
        _span(2, "parallel.chunk", 0, 2.0, 5.0),
        # a child running past its parent's end counts only inside it
        _span(3, "flow.evolve", 0, 9.0, 12.0),
        # a grandchild is covered by its own parent, not by the root
        _span(4, "measures.sample", 1, 1.5, 2.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert tracer.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_layer_metrics_of_nested_spans():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "transport.log_g", 0, 1.0, 9.0, rows=2, start_step=1e-3),
        _span(2, "flow.evolve", 1, 1.0, 4.0, rows=2, step=1e-3, t=-0.5,
              row_steps=1000),
        _span(3, "flow.evolve", 1, 4.0, 6.0, rows=2, step=5e-4, t=-0.5,
              row_steps=2000),
        _span(4, "flow.evolve", 1, 6.0, 8.0, rows=1, step=2.5e-4, t=-0.5,
              row_steps=2000),
    ]
    m = tracer.layer_metrics(spans)
    assert m["transport.log_g_s"] == pytest.approx(8.0)
    assert m["transport.log_g_self_s"] == pytest.approx(1.0)
    assert m["flow.evolve_rows"] == 5 and m["flow.row_steps"] == 5000
    # only the step below half the start step counts as refined
    assert m["transport.refined_row_evals"] == 1
    assert m["cli.self_s"] == pytest.approx(2.0)


def test_rk4_steps_counts_the_short_last_step():
    assert tracer.rk4_steps(0.3, 1e-3) == 300
    assert tracer.rk4_steps(-0.5, 2.5e-4) == 2000
    assert tracer.rk4_steps(0.25, 0.1) == 3


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload(name, tmp_path):
    workload = dataclasses.replace(run.WORKLOADS[name], config=SMOKE[name])
    seed = workload.study_seed(0)
    plain = run.study(workload, "study", seed, tmp_path / "plain")
    traced = run.study(workload, "traced", seed, tmp_path / "traced")
    for res in (plain, traced):
        assert "error" not in res, res.get("error")
        assert res["problems"] == []
        assert res["study_s"] > 0 and res["peak_rss_mib"] > 0
    assert plain["csv"] == traced["csv"]
    spans = tracer.read_spans(tmp_path / "traced" / "trace.jsonl")
    m = tracer.layer_metrics(spans)
    assert m["cli.write_bytes"] > 0
    if name == "transport-mc":
        assert m["parallel.chunks"] == 1 and m["measures.sample_rows"] == 400
        assert 0 < m["flow.useful_row_ratio"] <= 1
    elif name == "density-check":
        assert m["transport.density_wgm_s"] > 0 and m["energies.q_rows"] > 0
    else:
        assert m["energies.r_rows"] == 32
        assert run.oracle_problems(seed, SMOKE[name]) == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convergence",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "missing" in proc.stderr


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in doc["end_to_end"]}
    assert names == {"study_s", "setup_s", "peak_rss_mib"}
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    layer = set(tracer.layer_metrics([])) | {"trace.study_s",
                                             "trace.overhead_s"}
    assert {m["name"] for m in doc["per_layer"]} == layer
