"""Reproducible experiment runner: every study as a subcommand.

Configuration is a flat JSON object; any key can be overridden on the
command line (command line wins) and the resolved config is echoed into
the output manifest.  Each command writes CSV plus a JSON manifest under
--output and prints one PASS/FAIL line; exit code 0 iff all declared
tolerances hold.  A row the numerics cannot resolve is NaN in the outputs,
which are still written, and fails the verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import pinned
from .energies import EnergyParams
from .errors import ConfigInvalid, NlsTransportError
from .flow import (FlowParams, divergence_at, evolve_trajectory,
                   growth_monitor, jacobian_det)
from .measures import MeasureParams, SeededRng, moment_growth_mc, sample_batch
from .reporting import save_trajectory, write_csv, write_manifest
from .resonance import counting_checks, psi_bound_ratios, strichartz_sum
from .spectral import (FourierState, WeightFamily, WeightKind, mass,
                       sobolev_norm_sq_sigma, wavenumbers)
from .transport import (GAUSS_FORM_FACTOR, DensityParams,
                        change_of_measure_test, convergence_study,
                        default_observable_battery, density_pieces,
                        lp_density_study)

COMMANDS = ("simulate", "density-check", "transport-mc", "convergence",
            "liouville", "lemmas", "lp-density", "moments")

DEFAULTS = {
    "s": 2.0,
    "weight_family": "japanese_bracket",
    "n_cut": 4,
    "m_ambient": 16,
    "t": 0.3,
    "step": 1e-3,
    "cutoff_r": None,
    "n_samples": 1000,
    "seed": 2024,
    "quad_points": 201,
    "sigma": 1.0,
    "m_max": 16,
    "p_list": [1.0, 2.0],
    "n_list": [4, 8, 16],
    "output": "runs",
    "amplitude": 0.5,
    "wave_k": 1,
    "n_snapshots": 11,
    "tol": None,
}


# the keys of _validate's checks that each subcommand's study reads
_READS = {
    "simulate": {"n_cut", "m_ambient", "t", "step"},
    "density-check": {"n_cut", "m_ambient", "t", "step", "cutoff_r",
                      "n_samples", "quad_points"},
    "transport-mc": {"n_cut", "m_ambient", "t", "step", "cutoff_r",
                     "n_samples", "quad_points"},
    "convergence": {"m_ambient", "t", "step"},
    "liouville": {"n_cut", "step", "n_samples"},
    "lemmas": set(),
    "lp-density": {"n_cut", "m_ambient", "t", "step", "cutoff_r",
                   "n_samples", "quad_points"},
    "moments": {"m_ambient", "cutoff_r", "n_samples"},
}


def _validate(cfg: dict, command: str) -> dict:
    """Reject values the command's study cannot run with.  s, which states
    the measure of every study, is checked for each subcommand; any other
    key only by the subcommands that read it."""
    reads = _READS[command]
    if not 1.5 < cfg["s"] <= 4.0:
        raise ConfigInvalid("s must lie in (1.5, 4]")
    if "n_cut" in reads and cfg["n_cut"] < 0:
        raise ConfigInvalid("n_cut must be >= 0")
    if "m_ambient" in reads and not 0 <= cfg["m_ambient"] <= 128:
        raise ConfigInvalid("m_ambient must lie in [0, 128]")
    if {"n_cut", "m_ambient"} <= reads and cfg["n_cut"] > cfg["m_ambient"]:
        raise ConfigInvalid("n_cut must not exceed m_ambient")
    if "t" in reads and abs(cfg["t"]) > 4.0:
        raise ConfigInvalid("t must satisfy |t| <= 4")
    if "step" in reads and not 0 < cfg["step"] <= 0.1:
        raise ConfigInvalid("step must lie in (0, 0.1]")
    if ("cutoff_r" in reads and cfg["cutoff_r"] is not None
            and cfg["cutoff_r"] <= 0):
        raise ConfigInvalid("cutoff_r must be positive")
    if "n_samples" in reads and cfg["n_samples"] < 1:
        raise ConfigInvalid("n_samples must be >= 1")
    if "quad_points" in reads and (cfg["quad_points"] < 3
                                   or cfg["quad_points"] % 2 == 0):
        raise ConfigInvalid("quad_points must be odd and >= 3")
    if command in ("convergence", "lp-density") and not all(
            0 <= n <= cfg["m_ambient"] for n in cfg["n_list"]):
        raise ConfigInvalid("n_list entries must lie in [0, m_ambient]")
    if command == "convergence" and not cfg["n_list"]:
        raise ConfigInvalid("n_list must not be empty")
    if command == "lp-density" and not (
            cfg["p_list"] and all(p >= 1 for p in cfg["p_list"])):
        raise ConfigInvalid("p_list must be non-empty, with every p >= 1")
    if command == "moments" and (cfg["m_max"] < 2 or cfg["m_max"] % 2):
        raise ConfigInvalid("m_max must be even and >= 2")
    if command == "moments" and cfg["n_samples"] < 2:
        raise ConfigInvalid("moments needs n_samples >= 2 for its variance z")
    if command == "simulate" and cfg["n_snapshots"] < 2:
        raise ConfigInvalid("n_snapshots must be >= 2")
    if command == "simulate" and abs(cfg["wave_k"]) > cfg["m_ambient"]:
        raise ConfigInvalid("wave_k must satisfy |wave_k| <= m_ambient")
    return cfg


def _family(cfg: dict) -> WeightFamily:
    try:
        kind = WeightKind(cfg["weight_family"])
    except ValueError:
        raise ConfigInvalid(f"weight_family {cfg['weight_family']!r} unknown")
    return WeightFamily(kind, cfg["s"])


def _measure(cfg: dict) -> MeasureParams:
    return MeasureParams(s=cfg["s"], m_ambient=cfg["m_ambient"],
                         family=_family(cfg), cutoff_r=cfg["cutoff_r"])


def _density(cfg: dict) -> DensityParams:
    return DensityParams(
        t=cfg["t"],
        energy=EnergyParams(n_cut=cfg["n_cut"], family=_family(cfg)),
        step=cfg["step"],
        quad_points=cfg["quad_points"],
    )


# ---------------------------------------------------------------------------
# runners: each returns (passed, summary, header, rows)

def run_simulate(cfg, outdir):
    flow = FlowParams(n_cut=cfg["n_cut"], step=cfg["step"])
    amp, k = cfg["amplitude"], cfg["wave_k"]
    u0 = FourierState.from_modes(cfg["m_ambient"], {k: amp})
    traj = evolve_trajectory(u0, cfg["t"], flow, cfg["n_snapshots"])
    report = growth_monitor(traj, cfg["sigma"], n_cut=cfg["n_cut"])
    # plane-wave phase oracle
    phase_err = 0.0
    rows = []
    for time, state in zip(traj.times, traj.states):
        exact = amp * np.exp(-1j * (k**2 + abs(amp) ** 4) * time)
        phase_err = max(phase_err, abs(state.coeff(k) - exact))
        rows.append((time, mass(state),
                     np.sqrt(sobolev_norm_sq_sigma(state, cfg["sigma"]))))
    save_trajectory(traj, outdir / "trajectory", {
        "n_cut": cfg["n_cut"], "step": cfg["step"], "seed": cfg["seed"]})
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-8
    passed = phase_err <= tol and report.mass_drift <= 1e-8
    summary = {"phase_error": phase_err, "mass_drift": report.mass_drift,
               "c_drift": report.c_drift, "tolerance": tol}
    return passed, summary, ("time", "mass", "h_sigma_norm"), rows


def run_density_check(cfg, outdir):
    d = _density(cfg)
    m = _measure(cfg)
    coeffs = sample_batch(SeededRng(cfg["seed"]), cfg["n_samples"], m)
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    pieces = density_pieces(coeffs, m.m_ambient, d)
    diff = np.abs(pieces.log_g - pieces.normal_form)
    rows = list(zip(range(cfg["n_samples"]), pieces.log_g,
                    pieces.normal_form, diff, pieces.weighted))
    # the maxima run over the resolved rows, NaN only if none is resolved;
    # an unresolved row fails the verdict through its count
    resolved = np.isfinite(pieces.steps)

    def resolved_max(values):
        return float(np.max(values[resolved])) if resolved.any() else np.nan

    worst = resolved_max(diff)
    unresolved = int(np.sum(~resolved))
    passed = worst <= tol and unresolved == 0
    summary = {"max_abs_diff": worst, "tolerance": tol,
               "max_quadrature_error":
                   GAUSS_FORM_FACTOR * resolved_max(pieces.q_error),
               "refined_rows": int(np.sum(pieces.steps < d.start_step)),
               "unresolved_rows": unresolved}
    return passed, summary, ("sample", "log_g_direct", "log_g_normal_form",
                             "abs_diff", "log_f_weighted"), rows


def run_transport_mc(cfg, outdir):
    d = _density(cfg)
    m = _measure(cfg)
    battery = default_observable_battery(cfg["n_cut"])
    study = change_of_measure_test(d, m, battery, cfg["n_samples"],
                                   SeededRng(cfg["seed"]))
    results = study.comparisons
    rows = [(r.observable.name, r.lhs.estimate, r.lhs.stderr,
             r.rhs.estimate, r.rhs.stderr, r.z) for r in results]
    worst = float(np.max(np.abs([r.z for r in results])))   # NaN if any is
    # a zero standard error means a side had no spread to compare: too few
    # samples, or a cutoff that kept none
    passed = worst <= 4.0 and all(r.lhs.stderr > 0 and r.rhs.stderr > 0
                                  for r in results)
    summary = {"max_abs_z": worst, "tolerance_z": 4.0,
               "cutoff_r": m.cutoff_r,
               "cutoff": {**study.counts,
                          "max_energy_drift": study.max_energy_drift}}
    return passed, summary, ("observable", "lhs", "lhs_stderr", "rhs",
                             "rhs_stderr", "z"), rows


def run_convergence(cfg, outdir):
    rows, passed = [], True
    studies = convergence_study(_family(cfg), cfg["t"], 8, cfg["n_list"],
                                cfg["m_ambient"], SeededRng(cfg["seed"]),
                                cfg["step"])
    for study in studies.values():   # R, Q, then G
        sups = [r.sup_diff for r in study]   # rows come in increasing n_cut
        passed &= (all(np.isfinite(sups))
                   and all(b < a for a, b in zip(sups, sups[1:])))
        rows.extend((r.kind, r.n_cut, cfg["m_ambient"], cfg["t"], r.sup_diff)
                    for r in study)
    summary = {"strictly_decreasing": passed}
    return passed, summary, ("study", "n_cut", "m_ambient", "t", "sup_diff"), rows


def run_liouville(cfg, outdir):
    # the checks run at truncations and a time of their own, which the
    # summary records: the divergence at N <= 3, the determinant at N = 2
    n_cut, det_n_cut, det_t = min(cfg["n_cut"], 3), 2, 0.5
    flow = FlowParams(n_cut=n_cut, step=cfg["step"])
    fam = _family(cfg)
    m = MeasureParams(s=cfg["s"], m_ambient=n_cut, family=fam)
    coeffs = sample_batch(SeededRng(cfg["seed"]), cfg["n_samples"], m)
    rows, worst_div = [], 0.0
    for i in range(cfg["n_samples"]):
        u = FourierState(n_cut, coeffs[i])
        div = divergence_at(u, flow)
        worst_div = max(worst_div, abs(div))
        rows.append(("divergence", i, div))
    m2 = MeasureParams(s=cfg["s"], m_ambient=det_n_cut, family=fam)
    u2 = FourierState(det_n_cut,
                      sample_batch(SeededRng(cfg["seed"] + 1), 1, m2)[0])
    scale = np.sqrt(sobolev_norm_sq_sigma(u2, 1.0))
    u2 = FourierState(det_n_cut, u2.coeffs / max(scale, 1.0))
    det = jacobian_det(u2, det_t, FlowParams(n_cut=det_n_cut,
                                             step=cfg["step"]))
    rows.append(("jacobian_det_minus_1", 0, det - 1.0))
    passed = worst_div <= 1e-6 and abs(det - 1.0) <= 1e-6
    summary = {"max_abs_divergence": worst_div, "det_minus_one": det - 1.0,
               "divergence_n_cut": n_cut, "det_n_cut": det_n_cut,
               "det_t": det_t}
    return passed, summary, ("check", "index", "value"), rows


def run_lemmas(cfg, outdir):
    rows = []
    worst_ratio = 0.0
    kappas = range(-64, 65)
    for m_fac in (2, 3, 4):
        for blocks in product([1, 2, 4, 8], repeat=m_fac):
            for signs in product([1, -1], repeat=m_fac):
                for kappa, res in zip(kappas, counting_checks(
                        list(blocks), list(signs), kappas)):
                    if res.ratio > worst_ratio:
                        worst_ratio = res.ratio
                        rows.append(("counting", f"blocks={blocks} signs={signs} "
                                     f"kappa={kappa}", res.ratio, res.bound))
    counting_ok = worst_ratio <= pinned.COUNTING_SWEEP_MAX_RATIO + 1e-12

    psi_ok = True
    s_list = (1.6, 2.0, 2.5)
    for s, r8, r16 in zip(s_list, psi_bound_ratios(8, s_list),
                          psi_bound_ratios(16, s_list)):
        rows.append(("psi_ratio", f"s={s} n_cut=8", r8, pinned.PSI_RATIO[(s, 8)]))
        rows.append(("psi_ratio", f"s={s} n_cut=16", r16, pinned.PSI_RATIO[(s, 16)]))
        psi_ok &= np.isclose(r8, pinned.PSI_RATIO[(s, 8)], rtol=1e-9)
        psi_ok &= np.isclose(r16, pinned.PSI_RATIO[(s, 16)], rtol=1e-9)
        psi_ok &= r16 >= r8

    rng = np.random.default_rng(cfg["seed"])
    stri_ok = True
    for n_cut in (2, 3, 4):
        mods = [np.abs(rng.standard_normal(2 * n_cut + 1)) for _ in range(6)]
        for kappa in (0, 1, 2):
            brute, quad = strichartz_sum(n_cut, kappa, mods)
            diff = abs(brute - quad)
            rows.append(("strichartz", f"n_cut={n_cut} kappa={kappa}", diff,
                         1e-10 * max(1.0, brute)))
            stri_ok &= diff <= 1e-10 * max(1.0, brute)

    passed = counting_ok and psi_ok and stri_ok
    summary = {"counting_max_ratio": worst_ratio,
               "counting_pinned": pinned.COUNTING_SWEEP_MAX_RATIO,
               "psi_ok": bool(psi_ok), "strichartz_ok": bool(stri_ok)}
    return passed, summary, ("lemma", "params", "count_or_ratio", "bound"), rows


def run_lp_density(cfg, outdir):
    cfg = dict(cfg)
    if cfg["cutoff_r"] is None:
        cfg["cutoff_r"] = 8.0
    d = _density(cfg)
    m = _measure(cfg)
    rows_out = lp_density_study(d, m, cfg["p_list"], cfg["n_samples"],
                                SeededRng(cfg["seed"]), n_list=cfg["n_list"])
    rows = [(r.n_cut, r.p_exp, r.norm_g, r.diff_norm) for r in rows_out]
    finite = all(np.isfinite(r.norm_g) for r in rows_out)
    dec_ok = True
    for p_exp in cfg["p_list"]:
        diffs = [r.diff_norm for r in rows_out
                 if r.p_exp == p_exp and r.n_cut != cfg["m_ambient"]]
        dec_ok &= all(b < a for a, b in zip(diffs, diffs[1:]))
    passed = finite and dec_ok
    summary = {"finite": finite, "diff_norms_decreasing": dec_ok,
               "cutoff_r": cfg["cutoff_r"]}
    return passed, summary, ("n_cut", "p", "lp_norm_g", "lp_diff_vs_ambient"), rows


def run_moments(cfg, outdir):
    m = _measure(cfg)
    rng = SeededRng(cfg["seed"])
    coeffs = sample_batch(rng, cfg["n_samples"], m)
    ks = wavenumbers(m.m_ambient)
    target = 1.0 / m.family.multiplier(ks)
    var = np.mean(np.abs(coeffs) ** 2, axis=0)
    se = np.std(np.abs(coeffs) ** 2, axis=0, ddof=1) / np.sqrt(cfg["n_samples"])
    z = np.max(np.abs(var - target) / se)
    rows = [("mode_variance", int(k), float(v), float(tv))
            for k, v, tv in zip(ks, var, target)]
    sigma = min(cfg["sigma"], m.s - 0.6)   # the study needs sigma < s - 1/2
    pts = moment_growth_mc(m, sigma, cfg["m_max"], cfg["n_samples"], rng)
    ratio_max = max(r for _, _, r in pts)
    rows += [("moment", mm, est, ratio) for mm, est, ratio in pts]
    passed = z <= 4.0 and ratio_max <= pinned.MOMENT_RATIO_BOUND
    summary = {"max_variance_z": float(z), "max_moment_ratio": ratio_max,
               "ratio_bound": pinned.MOMENT_RATIO_BOUND, "sigma": sigma}
    return passed, summary, ("check", "index", "value", "reference"), rows


RUNNERS = {
    "simulate": run_simulate,
    "density-check": run_density_check,
    "transport-mc": run_transport_mc,
    "convergence": run_convergence,
    "liouville": run_liouville,
    "lemmas": run_lemmas,
    "lp-density": run_lp_density,
    "moments": run_moments,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nls-transport",
        description="Truncated quintic NLS transport verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; command line overrides it")
        p.add_argument("--output", type=str, default=None)
        for key, val in DEFAULTS.items():
            if key in ("output",):
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(val, list):
                p.add_argument(flag, type=str, default=None,
                               help="comma separated")
            elif val is None:
                p.add_argument(flag, type=float, default=None)
            else:
                p.add_argument(flag, type=type(val), default=None)
    return parser


def resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in DEFAULTS:
        arg = getattr(args, key, None)
        if arg is not None:
            if isinstance(DEFAULTS[key], list) and isinstance(arg, str):
                parts = [p for p in arg.split(",") if p]
                caster = float if key == "p_list" else int
                arg = [caster(p) for p in parts]
            cfg[key] = arg
    for key in ("n_cut", "m_ambient", "n_samples", "quad_points", "m_max",
                "seed", "wave_k", "n_snapshots"):
        cfg[key] = int(cfg[key])
    return _validate(cfg, args.command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigInvalid as exc:
        print(f"FAIL {args.command}: invalid config: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output or cfg["output"]) / args.command
    try:
        passed, summary, header, rows = RUNNERS[args.command](cfg, outdir)
    except NlsTransportError as exc:
        print(f"FAIL {args.command}: {exc}", file=sys.stderr)
        return 1
    write_csv(outdir / f"{args.command}.csv", header, rows)
    write_manifest(outdir / "manifest.json", args.command, cfg, summary, passed)
    verdict = "PASS" if passed else "FAIL"
    detail = " ".join(f"{k}={v}" for k, v in summary.items())
    print(f"{verdict} {args.command}: {detail}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
