import csv
import json

import numpy as np
import pytest

from nls_transport import cli, transport
from nls_transport.cli import main
from nls_transport.energies import low_norm_sq_batch
from nls_transport.flow import FlowParams, evolve_batch
from nls_transport.measures import SeededRng, sample_batch
from nls_transport.parallel import THREADS_ENV
from nls_transport.reporting import write_csv
from nls_transport.spectral import truncated_energy_batch
from nls_transport.transport import DENSITY_TOL, GAUSS_FORM_FACTOR, StudyKind


def run(args):
    return main(args)


class TestConfigHandling:
    def test_invalid_s_rejected(self, tmp_path, capsys):
        code = run(["simulate", "--s", "1.2", "--output", str(tmp_path)])
        assert code == 2
        assert "s must lie" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run(["simulate", "--config", str(cfg),
                    "--output", str(tmp_path)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["convergence", "--n-list", "4,64", "--m-ambient", "32"],
        ["moments", "--m-max", "7"],
        ["simulate", "--n-snapshots", "1"],
        ["simulate", "--wave-k", "40"],
        ["moments", "--n-samples", "1"],
        ["density-check", "--step", "0.2"],
        ["density-check", "--step", "0"],
        ["lp-density", "--p-list", "0"],
        ["lp-density", "--p-list", "-1"],
        ["lp-density", "--p-list", ","],
    ])
    def test_value_the_study_cannot_run_rejected(self, tmp_path, capsys,
                                                 args):
        code = run(args + ["--output", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"FAIL {args[0]}: invalid config: ")
        assert not (tmp_path / args[0]).exists()

    @pytest.mark.parametrize("args", [
        ["lemmas", "--step", "0.2"],
        ["lemmas", "--quad-points", "4"],
    ])
    def test_key_the_study_does_not_read_is_not_checked(self, args):
        # lemmas reads neither the step nor the quadrature nodes; main
        # exits 2 exactly when resolve_config raises ConfigInvalid
        cfg = cli.resolve_config(cli.build_parser().parse_args(args))
        assert cfg[args[1][2:].replace("-", "_")] == float(args[2])

    def test_command_line_wins_over_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0.5, "n_cut": 2, "m_ambient": 4}))
        code = run(["simulate", "--config", str(cfg), "--t", "0.25",
                    "--output", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
        assert doc["config"]["t"] == 0.25
        assert doc["config"]["n_cut"] == 2


class TestCommands:
    def test_simulate_pass(self, tmp_path, capsys):
        code = run(["simulate", "--t", "0.5", "--n-cut", "2",
                    "--m-ambient", "4", "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("PASS simulate")
        doc = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
        assert doc["schema_version"] == 1 and doc["pass"] is True
        assert (tmp_path / "simulate" / "trajectory_manifest.json").exists()

    def test_density_check_t_zero_all_zero(self, tmp_path, capsys):
        code = run(["density-check", "--t", "0", "--n-samples", "3",
                    "--n-cut", "2", "--m-ambient", "4",
                    "--output", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "density-check" / "density-check.csv").read_text()
        body = [r.split(",") for r in rows.strip().splitlines()[1:]]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in body)

    def test_transport_mc_small(self, tmp_path, capsys):
        code = run(["transport-mc", "--n-samples", "4000", "--n-cut", "2",
                    "--m-ambient", "4", "--t", "0.2", "--cutoff-r", "4",
                    "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "PASS transport-mc" in out
        rows = (tmp_path / "transport-mc" / "transport-mc.csv").read_text()
        for row in rows.strip().splitlines()[1:]:
            fields = row.split(",")
            assert float(fields[2]) > 0 and float(fields[4]) > 0

    def test_transport_mc_without_spread_fails(self, tmp_path, capsys):
        # one sample gives every row a zero standard error and z = 0
        code = run(["transport-mc", "--n-samples", "1", "--n-cut", "2",
                    "--m-ambient", "4", "--t", "0.2", "--cutoff-r", "5",
                    "--output", str(tmp_path)])
        assert code == 1
        assert "FAIL transport-mc" in capsys.readouterr().out

    def test_transport_mc_prefilter_counts(self, tmp_path, monkeypatch):
        # two sample chunks; the manifest's cutoff counts are totals over
        # the samples, the same at one and at two workers, as is the CSV,
        # and the rows kept are those with E_N(u) <= R, N that of the flow
        args = ["transport-mc", "--n-samples", "9000", "--n-cut", "2",
                "--m-ambient", "4", "--t", "0.2", "--cutoff-r", "4"]
        docs, csvs = [], []
        for workers in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, workers)
            out = tmp_path / workers
            assert run(args + ["--output", str(out)]) == 0
            docs.append(json.loads(
                (out / "transport-mc" / "manifest.json").read_text()))
            csvs.append((out / "transport-mc" / "transport-mc.csv"
                         ).read_bytes())
        counts = docs[0]["summary"]["cutoff"]
        assert counts == docs[1]["summary"]["cutoff"]
        assert csvs[0] == csvs[1]
        coeffs = sample_batch(SeededRng(cli.DEFAULTS["seed"]), 9000,
                              cli._measure({**cli.DEFAULTS, "m_ambient": 4,
                                            "cutoff_r": 4.0}))
        kept = int(np.sum(truncated_energy_batch(coeffs, 4, 2) <= 4.0))
        assert counts["samples"] == 9000
        assert 0 < counts["kept"] == kept < 9000
        assert counts["refined"] == counts["unresolved"] == 0
        assert counts["non_finite"] == 0
        assert 0 < counts["max_energy_drift"] < 1e-8

    def test_liouville_small(self, tmp_path):
        code = run(["liouville", "--n-samples", "3", "--n-cut", "2",
                    "--output", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("args,n_cut", [([], 3), (["--n-cut", "2"], 2)])
    def test_liouville_manifest_records_truncations(self, tmp_path, args,
                                                    n_cut):
        # the divergence runs at N = min(n_cut, 3), the determinant at N = 2
        # and t = 0.5, whatever the config's n_cut and t
        run(["liouville", "--n-samples", "2", *args,
             "--output", str(tmp_path)])
        summary = json.loads(
            (tmp_path / "liouville" / "manifest.json").read_text())["summary"]
        assert summary["divergence_n_cut"] == n_cut
        assert (summary["det_n_cut"], summary["det_t"]) == (2, 0.5)

    def test_moments_small(self, tmp_path):
        code = run(["moments", "--n-samples", "4000", "--m-ambient", "8",
                    "--sigma", "0.0", "--m-max", "8",
                    "--output", str(tmp_path)])
        assert code == 0

    def test_moments_manifest_records_sigma_used(self, tmp_path):
        # sigma is lowered to s - 0.6 = 1.4; the summary says so
        run(["moments", "--n-samples", "200", "--m-ambient", "8",
             "--sigma", "2.0", "--m-max", "4", "--output", str(tmp_path)])
        manifest = json.loads(
            (tmp_path / "moments" / "manifest.json").read_text())
        assert manifest["config"]["sigma"] == 2.0
        assert manifest["summary"]["sigma"] == 2.0 - 0.6

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["density-check", "--n-samples", "2", "--n-cut", "2",
                "--m-ambient", "4", "--t", "0.1", "--quad-points", "51",
                "--seed", "7"]
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        a = (out1 / "density-check" / "density-check.csv").read_bytes()
        b = (out2 / "density-check" / "density-check.csv").read_bytes()
        assert a == b

    def test_density_check_solves_once(self, tmp_path, monkeypatch):
        # one controlled direct solve for the whole block, and one backward
        # trajectory per distinct accepted step
        accepted, traj_steps = [], []
        direct = transport._controlled_direct
        trajectory = transport.trajectory_batch

        def counting_direct(*args):
            out = direct(*args)
            accepted.append(out[1])
            return out

        def counting_trajectory(coeffs, m_ambient, t_final, p, n_snapshots):
            traj_steps.append(p.step)
            return trajectory(coeffs, m_ambient, t_final, p, n_snapshots)

        monkeypatch.setattr(transport, "_controlled_direct", counting_direct)
        monkeypatch.setattr(transport, "trajectory_batch", counting_trajectory)
        args = ["density-check", "--n-samples", "2", "--n-cut", "2",
                "--m-ambient", "4", "--t", "0.1", "--quad-points", "51",
                "--seed", "7", "--output", str(tmp_path)]
        assert run(args) == 0
        assert len(accepted) == 1
        assert sorted(traj_steps) == sorted(set(accepted[0]))
        doc = json.loads((tmp_path / "density-check" / "manifest.json"
                          ).read_text())
        summary = doc["summary"]
        assert 0.0 <= summary["max_quadrature_error"] < 1e-6
        start = cli.DEFAULTS["step"]
        assert summary["refined_rows"] == int(np.sum(accepted[0] < start))

    def test_density_check_at_largest_step(self, tmp_path, monkeypatch):
        # --step 0.1 is the largest step the CLI takes, and the ladder's
        # coarse solve at 2h = 0.2, beyond that bound, runs through
        # transport.evolve_batch like every other solve
        seen = []
        evolve = transport.evolve_batch

        def recording(coeffs, m_ambient, t, p):
            seen.append(p.step)
            return evolve(coeffs, m_ambient, t, p)

        monkeypatch.setattr(transport, "evolve_batch", recording)
        args = ["density-check", "--step", "0.1", "--n-samples", "3",
                "--n-cut", "2", "--m-ambient", "4", "--t", "0.3",
                "--quad-points", "51", "--seed", "7",
                "--output", str(tmp_path)]
        assert run(args) == 0
        assert seen[:2] == [0.2, 0.1]

    def test_density_check_at_tiny_t(self, tmp_path):
        # at |t| far below the step, the ladder starts at the largest
        # h/2^j with 2h/2^j <= |t|: every row resolves, within the
        # tolerance of a fixed-step solve at |t|/100
        t = 1e-5
        args = ["density-check", "--t", str(t), "--n-samples", "3",
                "--n-cut", "2", "--m-ambient", "4", "--quad-points", "51",
                "--seed", "7", "--output", str(tmp_path)]
        assert run(args) == 0
        rows = (tmp_path / "density-check" / "density-check.csv").read_text()
        got = np.array([float(r.split(",")[1])
                        for r in rows.strip().splitlines()[1:]])
        cfg = dict(cli.DEFAULTS, t=t, n_samples=3, n_cut=2, m_ambient=4,
                   seed=7)
        coeffs = sample_batch(SeededRng(7), 3, cli._measure(cfg))
        energy = cli._density(cfg).energy
        bwd = evolve_batch(coeffs, 4, -t, FlowParams(n_cut=2, step=t / 100))
        ref = -0.5 * GAUSS_FORM_FACTOR * (low_norm_sq_batch(bwd, 4, energy)
                                          - low_norm_sq_batch(coeffs, 4,
                                                              energy))
        assert np.max(np.abs(got - ref)) <= DENSITY_TOL

    @pytest.mark.parametrize("args,refined", [
        (["--t", "1e-5", "--n-cut", "2", "--m-ambient", "4"], 0),
        (["--t", "0.0015", "--n-cut", "2", "--m-ambient", "4"], 0),
        # perfbench's density-check config at seed 2024: one row of four
        # is accepted at h/2
        (["--t", "0.5", "--n-cut", "8", "--m-ambient", "8", "--seed",
          "2024"], 1),
    ])
    def test_refined_rows_counted_below_ladder_start(self, tmp_path, args,
                                                     refined):
        # at 0 < |t| < 2h the ladder starts below h, and a row accepted at
        # its start is not refined.  51 nodes are too few for the check to
        # pass at N = 8, but the accepted steps do not depend on them.
        run(["density-check", "--n-samples", "4", "--quad-points", "51",
             *args, "--output", str(tmp_path)])
        doc = json.loads((tmp_path / "density-check" / "manifest.json"
                          ).read_text())
        assert doc["summary"]["refined_rows"] == refined

    def test_convergence_runs_each_study_once(self, tmp_path, monkeypatch,
                                              capsys):
        calls = []
        study = cli.convergence_study

        def counting(*args, **kwargs):
            result = study(*args, **kwargs)
            calls.append(list(result))
            return result

        monkeypatch.setattr(cli, "convergence_study", counting)
        # equal truncations give equal sups, so the decrease check fails
        code = run(["convergence", "--n-list", "2,2", "--m-ambient", "4",
                    "--t", "0.1", "--output", str(tmp_path)])
        assert code == 1
        assert "strictly_decreasing=False" in capsys.readouterr().out
        rows = (tmp_path / "convergence" / "convergence.csv").read_text()
        body = [r.split(",")[:2] for r in rows.strip().splitlines()[1:]]
        assert body == [[kind, "2"] for kind in "RRQQGG"]
        assert calls == [[StudyKind.R, StudyKind.Q, StudyKind.G]]

    def test_csv_schema(self, tmp_path):
        run(["density-check", "--n-samples", "1", "--n-cut", "2",
             "--m-ambient", "4", "--t", "0.1", "--quad-points", "51",
             "--output", str(tmp_path)])
        header = (tmp_path / "density-check" / "density-check.csv"
                  ).read_text().splitlines()[0]
        assert header == ("sample,log_g_direct,log_g_normal_form,abs_diff,"
                          "log_f_weighted")


# sample 4 of seed 2024 at these settings (C = 51.8) is still unresolved
# after every halving of the starting step 0.02, as in TestStepControl
UNRESOLVED = ["--n-cut", "8", "--m-ambient", "8", "--t", "0.5",
              "--step", "0.02", "--seed", "2024"]


class TestUnresolvedRow:
    """A sample the numerics cannot resolve is NaN in the outputs: the
    run writes its CSV and manifest, prints FAIL and exits 1."""

    @staticmethod
    def failed_run(tmp_path, capsys, command, *args):
        """(summary, CSV rows as lists of fields) of a run that FAILs."""
        code = run([command, *UNRESOLVED, *args, "--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.startswith(f"FAIL {command}: ")
        out = tmp_path / command
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["pass"] is False
        with open(out / f"{command}.csv", newline="") as fh:
            return doc["summary"], list(csv.reader(fh))[1:]

    def test_density_check_writes_every_row(self, tmp_path, capsys):
        summary, rows = self.failed_run(tmp_path, capsys, "density-check",
                                        "--n-samples", "5",
                                        "--quad-points", "51")
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        assert rows[4][1:] == ["nan"] * 4
        assert all(np.isfinite(float(v)) for r in rows[:4] for v in r[1:])
        assert summary["unresolved_rows"] == 1
        assert summary["refined_rows"] == 4
        # the summary maxima run over the resolved rows 0-3
        assert summary["max_abs_diff"] == max(float(r[3]) for r in rows[:4])
        assert np.isfinite(summary["max_quadrature_error"])

    def test_transport_mc_without_cutoff(self, tmp_path, capsys):
        summary, rows = self.failed_run(tmp_path, capsys, "transport-mc",
                                        "--n-samples", "5")
        for r in rows:   # rhs, its stderr and z NaN
            assert r[3:] == ["nan"] * 3
        # the lhs reads the unresolved row's state off the same solve, so it
        # is NaN too wherever the observable reads a mode; at M = N there
        # are no modes above N, and high_mass is 0.0 on any state
        assert [r[1] for r in rows] == ["nan"] * 5 + ["0.0"]
        assert summary["cutoff"]["non_finite"] == 1

    def test_lp_density(self, tmp_path, capsys):
        summary, rows = self.failed_run(tmp_path, capsys, "lp-density",
                                        "--n-samples", "5", "--cutoff-r",
                                        "60", "--n-list", "8")
        assert [r[2] for r in rows] == ["nan", "nan"]
        assert summary["finite"] is False

    def test_convergence(self, tmp_path, capsys):
        summary, rows = self.failed_run(tmp_path, capsys, "convergence",
                                        "--n-list", "4,8")
        assert [r[4] == "nan" for r in rows] == [False] * 4 + [True] * 2
        assert summary["strictly_decreasing"] is False


class TestReporting:
    def test_numpy_float_written_as_number(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x", "n"), [(np.float64(0.1), 3)])
        assert path.read_text().splitlines()[1] == "0.1,3"
