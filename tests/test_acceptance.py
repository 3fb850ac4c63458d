"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its declared tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from itertools import product

import numpy as np

import nls_transport as nt
from nls_transport import pinned
from nls_transport.energies import EnergyParams
from nls_transport.measures import sample_batch
from nls_transport.transport import (ObservableKind, StudyKind,
                                     change_of_measure_test,
                                     convergence_study,
                                     default_observable_battery)

from oracles import q_derivative_oracle, quintic_oracle, r_oracle

JB = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
EQ = nt.WeightFamily(nt.WeightKind.EQUIVALENT_NORM, 2.0)


def report(tag, passed, detail):
    print(f"\n[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{tag}: {detail}"


def test_01_plane_wave_exactness():
    """Flow matches the closed-form plane wave at t=1 to 1e-8."""
    t0 = time.time()
    p = nt.FlowParams(n_cut=4, step=1e-3)
    u0 = nt.FourierState.from_modes(4, {1: 0.5})
    got = nt.evolve(u0, 1.0, p)
    expect = 0.5 * np.exp(-1j * (1.0 + 0.5**4))
    err = abs(got.coeff(1) - expect)
    others = np.abs(got.coeffs).sum() - abs(got.coeff(1))
    elapsed = time.time() - t0
    report("ACCEPT-01", err <= 1e-8 and others == 0.0 and elapsed < 1.0,
           f"coefficient error {err:.3e} (tol 1e-8), runtime {elapsed:.2f}s")


def test_02_oracle_equivalence():
    """R, Q and the quintic product match nested-loop oracles to 1e-12
    relative, 100 random cases at truncations up to 3."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst = 0.0
    cases = 0
    # 40 quintic cases
    for i in range(40):
        n_cut = 1 + i % 3
        m_amb = n_cut + i % 2
        c = 0.5 * (rng.standard_normal(2 * m_amb + 1)
                   + 1j * rng.standard_normal(2 * m_amb + 1))
        u = nt.FourierState(m_amb, c)
        got = nt.quintic_nonlinearity(u, n_cut)
        expect = quintic_oracle(c, m_amb, n_cut)
        scale = max(1.0, float(np.max(np.abs(expect))))
        worst = max(worst, float(np.max(np.abs(got.coeffs - expect))) / scale)
        cases += 1
    # 35 energy-correction cases
    for i in range(35):
        n_cut = 1 + i % 3
        fam = JB if i % 2 else EQ
        c = 0.5 * (rng.standard_normal(2 * n_cut + 1)
                   + 1j * rng.standard_normal(2 * n_cut + 1))
        u = nt.FourierState(n_cut, c)
        expect, _ = r_oracle(c, n_cut, n_cut, fam)
        got = nt.r_correction(u, EnergyParams(n_cut, fam))
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
        cases += 1
    # 25 modified-energy-derivative cases
    for i in range(25):
        n_cut = (1, 1, 2, 2, 3)[i % 5]
        fam = JB if i % 2 else EQ
        c = 0.5 * (rng.standard_normal(2 * n_cut + 1)
                   + 1j * rng.standard_normal(2 * n_cut + 1))
        u = nt.FourierState(n_cut, c)
        expect = q_derivative_oracle(c, n_cut, n_cut, fam)
        got = nt.q_derivative(u, EnergyParams(n_cut, fam),
                              nt.default_grid(n_cut))
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
        cases += 1
    elapsed = time.time() - t0
    report("ACCEPT-02", worst <= 1e-12 and cases == 100 and elapsed < 60.0,
           f"worst relative error {worst:.3e} over {cases} cases "
           f"(tol 1e-12), runtime {elapsed:.1f}s")


def test_03_normal_form_identity():
    """Central-difference dE/dt along a trajectory matches Q to 1e-5
    relative at ten times (N=8, s=2, FD step 1e-4)."""
    rng = np.random.default_rng(88)
    ks = np.arange(-8, 9)
    c = np.sqrt(0.5) * (rng.standard_normal(17) + 1j * rng.standard_normal(17))
    u = nt.FourierState(8, c / (1.0 + ks**2.0))
    p = EnergyParams(n_cut=8, family=EQ)
    flow = nt.FlowParams(n_cut=8, step=1e-4)
    delta = 1e-4
    worst = 0.0
    for tau in np.linspace(0.05, 0.5, 10):
        base = nt.evolve(u, tau, flow)
        es = {k: nt.e_modified(nt.evolve(base, k * delta, flow), p)
              for k in (-2, -1, 1, 2)}
        fd = (es[-2] - 8 * es[-1] + 8 * es[1] - es[2]) / (12 * delta)
        q = nt.q_derivative(base, p, nt.default_grid(8))
        worst = max(worst, abs(fd - q) / abs(q))
    report("ACCEPT-03", worst <= 1e-5,
           f"worst relative FD-vs-Q error {worst:.3e} over 10 times "
           f"(tol 1e-5)")


def test_04_density_two_formula_agreement():
    """|log G_direct - log G_normal_form| <= 1e-6 for 20 Gaussian samples
    at N=8, s=2, t=0.5, step 1e-3, Simpson 501."""
    t0 = time.time()
    m = nt.MeasureParams(s=2.0, m_ambient=8, family=JB)
    coeffs = sample_batch(nt.SeededRng(2024), 20, m)
    d = nt.DensityParams(t=0.5, energy=EnergyParams(8, JB), step=1e-3,
                         quad_points=501)
    worst = 0.0
    for i in range(20):
        u = nt.FourierState(8, coeffs[i])
        worst = max(worst, abs(nt.density_direct(u, d)
                               - nt.density_normal_form(u, d)))
    elapsed = time.time() - t0
    report("ACCEPT-04", worst <= 1e-6 and elapsed < 300.0,
           f"max |log G difference| {worst:.3e} over 20 samples "
           f"(tol 1e-6), runtime {elapsed:.0f}s")


def test_05_monte_carlo_change_of_measure():
    """Battery of 7 observables at N=4, s=2, M=16, t=0.3, n=1e5 under
    the energy-cutoff ensemble: every |z| <= 4."""
    t0 = time.time()
    d = nt.DensityParams(t=0.3, energy=EnergyParams(4, JB), step=1e-3)
    m = nt.MeasureParams(s=2.0, m_ambient=16, family=JB,
                         cutoff_r=pinned.TRANSPORT_CUTOFF_R)
    battery = default_observable_battery(4) + [
        nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)]
    results = change_of_measure_test(
        d, m, battery, 100000, nt.SeededRng(pinned.TRANSPORT_SEED)).comparisons
    lines = ", ".join(f"{r.observable.name}: z={r.z:+.2f}" for r in results)
    worst = max(abs(r.z) for r in results)
    elapsed = time.time() - t0
    report("ACCEPT-05", worst <= 4.0 and elapsed < 600.0,
           f"max |z| {worst:.2f} over {len(results)} observables (tol 4); "
           f"{lines}; runtime {elapsed:.0f}s")


def test_06_liouville():
    """Field divergence <= 1e-6 at 50 random points (N <= 3) and
    |det DPhi(0.5) - 1| <= 1e-6 at N=2."""
    rng = np.random.default_rng(7)
    worst_div = 0.0
    for i in range(50):
        n_cut = 1 + i % 3
        ks = np.arange(-n_cut, n_cut + 1)
        c = (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
        c *= np.sqrt(0.5) / (1.0 + ks**2.0)
        u = nt.FourierState(n_cut, c)
        p = nt.FlowParams(n_cut=n_cut, step=1e-3)
        worst_div = max(worst_div, abs(nt.divergence_at(u, p)))
    ks = np.arange(-2, 3)
    c = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * np.sqrt(0.5)
    u2 = nt.FourierState(2, c / (1.0 + ks**2.0))
    det = nt.jacobian_det(u2, 0.5, nt.FlowParams(n_cut=2, step=1e-3))
    report("ACCEPT-06", worst_div <= 1e-6 and abs(det - 1.0) <= 1e-6,
           f"max |divergence| {worst_div:.3e} (tol 1e-6), "
           f"|det-1| {abs(det - 1.0):.3e} (tol 1e-6)")


def test_07_conservation():
    """Mass and conserved-energy drift <= 1e-8 over unit time at N=16,
    step 1e-3, shrinking at the fourth-order rate (~16x, with phase
    cancellation sometimes pushing the measured factor above that) when
    the step is halved."""
    rng = np.random.default_rng(55)
    ks = np.arange(-16, 17)
    c = np.sqrt(0.5) * (rng.standard_normal(33) + 1j * rng.standard_normal(33))
    u = nt.FourierState(16, c / (1.0 + ks**2.0) ** 1.5)
    drifts = {}
    for h in (1e-3, 5e-4):
        p = nt.FlowParams(n_cut=16, step=h)
        traj = nt.evolve_trajectory(u, 1.0, p, 9)
        rep = nt.growth_monitor(traj, sigma=1.0, n_cut=16, mass_tol=1e-6,
                                c_tol=1e-6)
        drifts[h] = (rep.mass_drift, rep.c_drift)
    mass1, c1 = drifts[1e-3]
    mass2, c2 = drifts[5e-4]
    ratio = c1 / max(c2, 1e-300)
    passed = (mass1 <= 1e-8 and c1 <= 1e-8 and 12.0 <= ratio <= 40.0)
    report("ACCEPT-07", passed,
           f"drift at h=1e-3: mass {mass1:.2e}, energy {c1:.2e} (tol 1e-8); "
           f"halving the step shrinks energy drift by {ratio:.1f}x "
           f"(fourth order is 16x)")


def test_08_convergence_in_truncation():
    """sup-over-samples |X_M - X_N| strictly decreases along N=4,8,16 at
    M=32, s=2, for X in {R, Q, log G}; values pinned at the fixed seed."""
    t0 = time.time()
    details = []
    passed = True
    studies = convergence_study(JB, 0.3, 8, [4, 8, 16], 32,
                                nt.SeededRng(pinned.CONVERGENCE_SEED), 1e-3)
    for kind in (StudyKind.R, StudyKind.Q, StudyKind.G):
        rows = studies[kind]
        sups = [r.sup_diff for r in rows]
        dec = all(b < a for a, b in zip(sups, sups[1:]))
        pin = np.allclose(sups, pinned.CONVERGENCE_SUP[kind.value],
                          rtol=pinned.CONVERGENCE_RTOL)
        passed &= dec and pin
        details.append(f"{kind.value}: {[f'{s:.4g}' for s in sups]} "
                       f"dec={dec} pinned={pin}")
    elapsed = time.time() - t0
    report("ACCEPT-08", passed,
           "; ".join(details) + f"; runtime {elapsed:.0f}s")


def test_09_lemma_sweeps():
    """Counting-bound ratio capped by the pinned constant over the full
    sweep; psi-ratio finite and stable under doubling; sum-as-integral
    identity to 1e-10."""
    t0 = time.time()
    worst_ratio = 0.0
    for m_fac in (2, 3, 4):
        for blocks in product([1, 2, 4, 8], repeat=m_fac):
            for signs in product([1, -1], repeat=m_fac):
                for kappa in range(-64, 65):
                    res = nt.counting_check(list(blocks), list(signs), kappa)
                    worst_ratio = max(worst_ratio, res.ratio)
    counting_ok = worst_ratio == pinned.COUNTING_SWEEP_MAX_RATIO

    psi_ok = True
    psi_vals = {}
    for s in (1.6, 2.0, 2.5):
        r8 = nt.psi_bound_ratio(8, s)
        r16 = nt.psi_bound_ratio(16, s)
        psi_vals[s] = (r8, r16)
        psi_ok &= np.isfinite(r8) and np.isfinite(r16) and r8 <= r16
        psi_ok &= bool(np.isclose(r8, pinned.PSI_RATIO[(s, 8)], rtol=1e-9))
        psi_ok &= bool(np.isclose(r16, pinned.PSI_RATIO[(s, 16)], rtol=1e-9))

    rng = np.random.default_rng(17)
    stri_worst = 0.0
    for n_cut in (2, 3, 4):
        mods = [np.abs(rng.standard_normal(2 * n_cut + 1)) for _ in range(6)]
        for kappa in (0, 2, -5):
            brute, quad = nt.strichartz_sum(n_cut, kappa, mods)
            stri_worst = max(stri_worst,
                             abs(brute - quad) / max(1.0, brute))
    elapsed = time.time() - t0
    report("ACCEPT-09",
           counting_ok and psi_ok and stri_worst <= 1e-10,
           f"counting max ratio {worst_ratio} (pinned "
           f"{pinned.COUNTING_SWEEP_MAX_RATIO}); psi ratios {psi_vals}; "
           f"sum-as-integral worst rel diff {stri_worst:.2e} (tol 1e-10); "
           f"runtime {elapsed:.0f}s")


def test_10_measure_sanity():
    """Per-mode variance within 4 sigma; cutoff exponential-weight L^2
    stable across truncations; restricted E[G]=1 within 4 sigma; moment
    growth ratio bounded."""
    t0 = time.time()
    # per-mode variance against the covariance profile
    m16 = nt.MeasureParams(s=2.0, m_ambient=16, family=JB)
    block = sample_batch(nt.SeededRng(9001), 100000, m16)
    ks = np.arange(-16, 17)
    target = (1.0 + ks**2.0) ** -2.0
    mods = np.abs(block) ** 2
    z_var = float(np.max(np.abs(np.mean(mods, axis=0) - target)
                         / (np.std(mods, axis=0) / np.sqrt(block.shape[0]))))

    # L^2 of the cutoff exponential weight, stable across truncations
    from nls_transport.energies import r_correction_batch
    from nls_transport.measures import cutoff_indicator_batch, lp_norm_mc
    m32 = nt.MeasureParams(s=2.0, m_ambient=32, family=JB, cutoff_r=8.0)
    l2_vals = []
    for n_cut in (4, 8, 16):
        energy = EnergyParams(n_cut=n_cut, family=JB)

        def weight(coeffs, m_amb, energy=energy):
            ind = cutoff_indicator_batch(coeffs, m32)
            r = r_correction_batch(coeffs, m_amb, energy)
            return ind * np.exp(np.abs(np.where(ind > 0, r, 0.0)))

        rep = lp_norm_mc(weight, 2.0, m32, 4000, nt.SeededRng(777))
        l2_vals.append(rep.estimate)
    l2_finite = all(np.isfinite(v) and v > 0 for v in l2_vals)
    l2_stable = max(l2_vals) / min(l2_vals) <= 2.0

    # E[G] = 1 in its restricted form: kept mass of the forward ensemble
    # equals the G-weighted kept mass
    d = nt.DensityParams(t=0.3, energy=EnergyParams(4, JB), step=1e-3)
    m_cut = nt.MeasureParams(s=2.0, m_ambient=16, family=JB,
                             cutoff_r=pinned.TRANSPORT_CUTOFF_R)
    const = nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)
    (eg,) = change_of_measure_test(d, m_cut, [const], 50000,
                                   nt.SeededRng(31337)).comparisons
    z_eg = abs(eg.z)

    # Gaussian moment growth
    pts = nt.moment_growth_mc(m16, 0.0, 16, 20000, nt.SeededRng(314))
    ratio_max = max(r for _, _, r in pts)

    passed = (z_var <= 4.0 and l2_finite and l2_stable
              and z_eg <= pinned.EG_RESTRICTED_TOL_Z
              and ratio_max <= pinned.MOMENT_RATIO_BOUND)
    elapsed = time.time() - t0
    report("ACCEPT-10", passed,
           f"variance max |z| {z_var:.2f} (tol 4); weight L2 across N "
           f"{[f'{v:.3f}' for v in l2_vals]} stable={l2_stable}; "
           f"restricted E[G]=1 z {z_eg:.2f} (tol 4); moment ratio "
           f"{ratio_max:.3f} (bound {pinned.MOMENT_RATIO_BOUND}); "
           f"runtime {elapsed:.0f}s")
