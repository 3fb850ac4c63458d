import dataclasses
import os

import numpy as np
import pytest

import nls_transport as nt
from nls_transport import transport
from nls_transport.energies import EnergyParams
from nls_transport.flow import evolve_batch
from nls_transport.measures import sample_batch
from nls_transport.parallel import THREADS_ENV
from nls_transport.spectral import (conserved_c_batch, truncated_energy_batch,
                                    wavenumbers)
from nls_transport.transport import (DENSITY_TOL, GAUSS_FORM_FACTOR,
                                     DensityPieces, ObservableKind, StudyKind,
                                     _quadrature_weights, _simpson_weights,
                                     default_observable_battery, density_pieces,
                                     log_density_direct_batch)

from conftest import mu_like_coeffs


def density_setup(n_cut=4, t=0.3, s=2.0, quad_points=201, step=1e-3):
    fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, s)
    return nt.DensityParams(
        t=t,
        energy=EnergyParams(n_cut=n_cut, family=fam),
        step=step,
        quad_points=quad_points,
    ), fam


class TestDensityValues:
    def test_time_zero(self, rng):
        d, fam = density_setup(t=0.0)
        u = nt.FourierState(6, mu_like_coeffs(rng, 6))
        assert nt.density_direct(u, d) == 0.0
        assert nt.density_normal_form(u, d) == 0.0
        assert nt.density_wgm(u, d) == 0.0

    def test_high_frequency_only(self):
        d, fam = density_setup(n_cut=2)
        u = nt.FourierState.from_modes(6, {4: 0.8, -5: 1.2j})
        assert nt.density_direct(u, d) == 0.0
        assert abs(nt.density_normal_form(u, d)) <= 1e-13

    def test_plane_wave(self):
        d, fam = density_setup(n_cut=3)
        u = nt.FourierState.from_modes(3, {2: 0.9})
        assert abs(nt.density_direct(u, d)) <= 1e-11
        assert abs(nt.density_normal_form(u, d)) <= 1e-11
        assert abs(nt.density_wgm(u, d)) <= 1e-11

    def test_two_formulas_agree(self, rng):
        d, fam = density_setup(n_cut=4, t=0.3, quad_points=301)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=fam)
        coeffs = sample_batch(nt.SeededRng(51), 3, m)
        for i in range(3):
            u = nt.FourierState(8, coeffs[i])
            assert nt.density_normal_form(u, d) == pytest.approx(
                nt.density_direct(u, d), abs=1e-6)

    def test_weighted_identity(self, rng):
        # log F = log G - R(backward endpoint) + R(start); evaluating R at
        # the same trajectory endpoint makes the identity one rounding wide
        d, fam = density_setup(n_cut=3, t=0.25, quad_points=101)
        u = nt.FourierState(6, mu_like_coeffs(rng, 6))
        log_g = nt.density_normal_form(u, d)
        traj = nt.evolve_trajectory(u, -d.t, d.flow, d.quad_points)
        delta_r = (nt.r_correction(traj.states[-1], d.energy)
                   - nt.r_correction(u, d.energy))
        assert nt.density_wgm(u, d) == pytest.approx(log_g - delta_r,
                                                     rel=1e-12, abs=1e-12)

    def test_cocycle(self, rng):
        d1, fam = density_setup(n_cut=3, t=0.2, quad_points=101)
        d2, _ = density_setup(n_cut=3, t=0.15, quad_points=101)
        d12, _ = density_setup(n_cut=3, t=0.35, quad_points=101)
        u = nt.FourierState(3, mu_like_coeffs(rng, 3))
        shifted = nt.evolve(u, -d2.t, d1.flow)
        lhs = nt.density_direct(u, d12)
        rhs = nt.density_direct(u, d2) + nt.density_direct(shifted, d1)
        assert lhs == pytest.approx(rhs, abs=2e-9)

    def test_quadrature_convergence(self, rng):
        # doubling the Simpson node count at the default density settings;
        # moderate amplitude keeps the node-placement integrator noise
        # below the quadrature error being measured
        u = nt.FourierState(4, 0.6 * mu_like_coeffs(rng, 4))
        vals = []
        for quad in (501, 1001):
            d, _ = density_setup(n_cut=4, t=0.4, quad_points=quad)
            vals.append(nt.density_normal_form(u, d))
        assert abs(vals[1] - vals[0]) <= 1e-8

    def test_positive_density(self, rng):
        d, fam = density_setup(n_cut=3)
        u = nt.FourierState(3, mu_like_coeffs(rng, 3))
        assert np.isfinite(nt.density_direct(u, d))
        assert np.exp(nt.density_direct(u, d)) > 0


def fixed_step_direct(coeffs, m_ambient, d, step):
    """The direct log G formula along a plain fixed-step backward flow."""
    low = slice(m_ambient - d.flow.n_cut, m_ambient + d.flow.n_cut + 1)
    mult = d.energy.family.multiplier(wavenumbers(m_ambient)[low])
    bwd = nt.flow.evolve_batch(coeffs, m_ambient, -d.t,
                               nt.FlowParams(n_cut=d.flow.n_cut, step=step))

    def quad_form(c):
        return np.sum(mult * np.abs(c[..., low]) ** 2, axis=-1)

    return -0.5 * GAUSS_FORM_FACTOR * (quad_form(bwd) - quad_form(coeffs))


class TestStepControl:
    """d.step is the starting step of the densities: rows are refined
    until the estimated step error of log G is within DENSITY_TOL."""

    @staticmethod
    def two_formula_samples():
        # the samples and settings of the acceptance two-formula check
        d, fam = density_setup(n_cut=8, t=0.5, quad_points=501)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=fam)
        return sample_batch(nt.SeededRng(2024), 20, m), d

    def test_large_energy_sample_within_tolerance(self):
        coeffs, d = self.two_formula_samples()
        c = conserved_c_batch(coeffs, 8)
        i = int(np.argmin(np.abs(c - 79.0)))
        assert abs(c[i] - 79.0) < 1.0
        row = coeffs[i:i + 1]
        ref = fixed_step_direct(row, 8, d, 1e-5)[0]
        # at the plain fixed step the integrator error exceeds the tolerance
        assert abs(fixed_step_direct(row, 8, d, d.flow.step)[0] - ref) \
            > 10 * DENSITY_TOL
        u = nt.FourierState(8, coeffs[i])
        assert abs(nt.density_direct(u, d) - ref) <= DENSITY_TOL
        assert abs(nt.density_normal_form(u, d) - ref) <= DENSITY_TOL

    def test_resolved_rows_keep_fixed_step_bits(self):
        coeffs, d = self.two_formula_samples()
        h = d.flow.step
        coarse = fixed_step_direct(coeffs, 8, d, h)
        fine = fixed_step_direct(coeffs, 8, d, h / 2)
        resolved = (16.0 / 15.0) * np.abs(coarse - fine) <= DENSITY_TOL
        assert 0 < np.sum(resolved) < coeffs.shape[0]
        got = log_density_direct_batch(coeffs, 8, d)
        assert np.array_equal(got[resolved], coarse[resolved])
        assert np.all(got[~resolved] != coarse[~resolved])

    def test_rows_independent_of_batch(self):
        coeffs, d = self.two_formula_samples()
        full = log_density_direct_batch(coeffs, 8, d)
        subset = [19, 9, 8]
        part = log_density_direct_batch(coeffs[subset], 8, d)
        assert np.array_equal(part, full[subset])
        for i in subset:
            alone = log_density_direct_batch(coeffs[i:i + 1], 8, d)
            assert alone[0] == full[i]
        # every piece, the accepted step and the integrals of Q included
        names = [f.name for f in dataclasses.fields(DensityPieces)]
        pieces = density_pieces(coeffs, 8, d)
        for rows in (subset, [19], [9], [8]):
            got = density_pieces(coeffs[rows], 8, d)
            for name in names:
                assert np.array_equal(getattr(got, name),
                                      getattr(pieces, name)[rows]), (rows, name)

    def test_ladder_values_are_fixed_step_values(self):
        # the ladder starts at the pair (2h, h): a row is accepted at h
        # exactly where |L_2h - L_h|/15 is within the tolerance, with the
        # bits of L_h, and a refined row has the bits of the fixed-step
        # formula at its accepted step
        coeffs, d = self.two_formula_samples()
        h = d.flow.step
        got, steps, _ = transport._controlled_direct(coeffs, 8, d)
        coarse = fixed_step_direct(coeffs, 8, d, 2 * h)
        at_h = fixed_step_direct(coeffs, 8, d, h)
        resolved = np.abs(coarse - at_h) / 15.0 <= DENSITY_TOL
        assert 0 < np.sum(resolved) < coeffs.shape[0]
        assert np.array_equal(steps == h, resolved)
        assert np.array_equal(got[resolved], at_h[resolved])
        for step in np.unique(steps[~resolved]):
            rows = steps == step
            assert np.array_equal(got[rows],
                                  fixed_step_direct(coeffs[rows], 8, d, step))

    @pytest.mark.parametrize("t", [0.05, 0.101])
    def test_short_time_starts_below_half_t(self, t):
        # at |t| < 2h the solves at 2h and h are one RK4 step of length t,
        # or nearly so, and their errors cancel: at t = 1.01 h, starting
        # at h would accept rows whose error is 20 to 100 times the
        # tolerance.  The ladder starts at the largest h/2^j with
        # 2h/2^j <= |t|, so moderate samples are accepted within the
        # tolerance of a fine reference, and the largest stays unresolved:
        # NaN in log G and in its step
        d, fam = density_setup(n_cut=2, t=t, step=0.1)
        m = nt.MeasureParams(s=2.0, m_ambient=4, family=fam)
        coeffs = sample_batch(nt.SeededRng(7), 20, m)
        c = conserved_c_batch(coeffs, 4)
        largest, step, _ = transport._controlled_direct(
            coeffs[[np.argmax(c)]], 4, d)
        assert np.isnan(largest[0]) and np.isnan(step[0])
        rows = c < 20.0
        got, steps, _ = transport._controlled_direct(coeffs[rows], 4, d)
        assert np.all(steps <= d.t / 2)
        ref = fixed_step_direct(coeffs[rows], 4, d, 1e-4)
        assert np.max(np.abs(got - ref)) <= DENSITY_TOL

    def test_overflowing_coarse_solve_spares_its_batch(self):
        # at h = 0.04 the coarse solve at 2h overflows on five samples,
        # which are then resolved at finer steps; the other rows keep the
        # values they have without them
        coeffs, _ = self.two_formula_samples()
        d, _ = density_setup(n_cut=8, t=0.5, step=0.04)
        batch = [i for i in range(20) if i not in (4, 8, 19)]
        overflow = [3, 6, 7, 11, 17]
        got, steps, _ = transport._controlled_direct(coeffs[batch], 8, d)
        assert np.all(np.isfinite(got))
        assert np.all(steps[np.isin(batch, overflow)] < d.flow.step)
        tame = [i for i in batch if i not in overflow]
        alone = transport._controlled_direct(coeffs[tame], 8, d)
        assert np.array_equal(got[np.isin(batch, tame)], alone[0])

    @staticmethod
    def recorded_steps(monkeypatch):
        """The step of each call to transport.evolve_batch, in call order."""
        steps = []

        def recording(coeffs, m_ambient, t, p):
            steps.append(p.step)
            return evolve_batch(coeffs, m_ambient, t, p)

        monkeypatch.setattr(transport, "evolve_batch", recording)
        return steps

    def test_one_solve_per_rung(self, monkeypatch):
        # the overflowing rows of the batch above cost no extra solve: the
        # ladder makes one call per rung it runs, at 2h, h, h/2, ...
        coeffs, _ = self.two_formula_samples()
        d, _ = density_setup(n_cut=8, t=0.5, step=0.04)
        batch = [i for i in range(20) if i not in (4, 8, 19)]
        calls = self.recorded_steps(monkeypatch)
        _, steps, _ = transport._controlled_direct(coeffs[batch], 8, d)
        h = d.flow.step
        rungs = int(round(np.log2(h / np.min(steps))))
        assert rungs >= 1
        assert calls == [2.0 * h] + [h / 2**j for j in range(rungs + 1)]

    def test_states_are_the_accepted_solves(self):
        # each row's end state is, bit for bit, the backward solve at the
        # step the row was accepted at; the row the ladder leaves
        # unresolved (as in test_unresolved_row_is_nan) is NaN
        coeffs, d = self.two_formula_samples()
        _, steps, states = transport._controlled_direct(coeffs, 8, d)
        assert np.unique(steps).size > 1
        for step in np.unique(steps):
            rows = steps == step
            assert np.array_equal(states[rows], evolve_batch(
                coeffs[rows], 8, -d.t, dataclasses.replace(d.flow, step=step)))
        d, _ = density_setup(n_cut=8, t=0.5, step=0.02, quad_points=51)
        worst = int(np.argmax(conserved_c_batch(coeffs, 8)))
        batch = coeffs[[0, 1, worst, 2]]
        _, steps, states = transport._controlled_direct(batch, 8, d)
        assert np.isnan(steps[2]) and np.all(np.isnan(states[2]))
        for i in (0, 1, 3):
            assert np.array_equal(states[i], evolve_batch(
                batch[i:i + 1], 8, -d.t,
                dataclasses.replace(d.flow, step=steps[i]))[0])

    def test_step_checked_at_construction(self):
        # the flow's check on the step holds before any solve
        with pytest.raises(ValueError, match="positive"):
            density_setup(step=0.0)

    def test_unresolved_row_is_nan(self):
        # the largest starting step leaves a large-energy sample unresolved
        # after every allowed halving: it is NaN in every piece, and the
        # other rows keep the bits they have in a batch without it
        coeffs, _ = self.two_formula_samples()
        d, _ = density_setup(n_cut=8, t=0.5, step=0.02, quad_points=51)
        worst = int(np.argmax(conserved_c_batch(coeffs, 8)))
        with_it = density_pieces(coeffs[[0, 1, worst, 2]], 8, d)
        without = density_pieces(coeffs[[0, 1, 2]], 8, d)
        for f in dataclasses.fields(DensityPieces):
            got = getattr(with_it, f.name)
            assert np.isnan(got[2]), f.name
            assert np.array_equal(got[[0, 1, 3]], getattr(without, f.name)), \
                f.name
        assert np.all(np.isfinite(without.normal_form))

    def test_discarded_rows_never_integrated(self):
        # the cutoff discards the unresolvable sample above, so the studies
        # compute log G without it; with no cutoff the same run carries its
        # NaN into the rhs, its z and the non-finite count
        d, fam = density_setup(n_cut=8, t=0.5, step=0.02)
        const = nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)
        cut = nt.MeasureParams(s=2.0, m_ambient=8, family=fam, cutoff_r=20.0)
        (res,) = nt.change_of_measure_test(d, cut, [const], 20,
                                           nt.SeededRng(2024)).comparisons
        assert np.isfinite(res.rhs.estimate) and res.rhs.estimate > 0
        rows = nt.lp_density_study(d, cut, [1.0], 20, nt.SeededRng(2024),
                                   n_list=[8])
        assert all(np.isfinite(r.norm_g) for r in rows)
        free = nt.MeasureParams(s=2.0, m_ambient=8, family=fam)
        result = nt.change_of_measure_test(d, free, [const], 20,
                                           nt.SeededRng(2024))
        (res,) = result.comparisons
        assert np.isnan(res.rhs.estimate) and np.isnan(res.z)
        # the lhs reads the row's state off the same unresolved solve, so it
        # is NaN too: one NaN contract for a row the numerics cannot resolve
        assert np.isnan(res.lhs.estimate)
        assert result.counts["non_finite"] >= 1


class TestQuadratureRule:
    """Simpson on the quad_points nodes extrapolated by Richardson, with
    |S_h - S_2h|/15 kept as the estimate of the plain Simpson error."""

    @staticmethod
    def integrate(f, n_nodes, t_final=-0.5):
        times = np.linspace(0.0, t_final, n_nodes)
        rule, estimate = _quadrature_weights(n_nodes, times[1] - times[0])
        simpson = _simpson_weights(n_nodes, times[1] - times[0])
        vals = f(times)
        return vals @ rule, abs(vals @ estimate), vals @ simpson

    def test_estimate_predicts_simpson_error(self):
        # an oscillation near the fastest resonance of Q at N = 8
        omega = 150.0
        exact = np.sin(-0.5 * omega) / omega
        for n_nodes in (501, 1001):
            got, est, simpson = self.integrate(lambda t: np.cos(omega * t),
                                               n_nodes)
            assert est == pytest.approx(abs(simpson - exact), rel=0.02)
            assert abs(got - exact) <= 0.02 * est

    def test_left_over_intervals_keep_simpson(self):
        # 51 nodes leave two intervals outside the extrapolation; the rule
        # stays exact on cubics there and the estimate covers the rest
        cubic = lambda t: 1.0 - 3.0 * t + t**3
        exact = -0.5 - 1.5 * 0.25 + 0.0625 / 4.0
        for n_nodes in (3, 51, 53):
            got, est, _ = self.integrate(cubic, n_nodes)
            assert got == pytest.approx(exact, rel=1e-13)
            assert est <= 1e-15
        _, estimate = _quadrature_weights(51, 0.01)
        assert np.all(estimate[-2:] == 0.0) and np.any(estimate[:-2] != 0.0)


class TestObservables:
    def test_names_and_values(self, rng):
        coeffs = mu_like_coeffs(rng, 4)[None, :]
        obs = default_observable_battery(2)
        assert len(obs) >= 5
        for spec in obs:
            vals = spec.evaluate_batch(coeffs, 4)
            assert vals.shape == (1,) and np.isfinite(vals[0])
        mode = nt.ObservableSpec(ObservableKind.MODE_MODULUS_SQ, k=1)
        assert mode.evaluate_batch(coeffs, 4)[0] == abs(coeffs[0, 5]) ** 2

    def test_bounded_exp_with_zero_scale_is_one(self, rng):
        f = nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)
        coeffs = mu_like_coeffs(rng, 3)[None, :]
        assert f.evaluate_batch(coeffs, 3)[0] == 1.0

    def test_rows_independent_of_batch(self):
        # change_of_measure_test evaluates the observables on the rows the
        # cutoff leaves live, so a row must not depend on its batch
        _, fam = density_setup()
        m = nt.MeasureParams(s=2.0, m_ambient=16, family=fam)
        coeffs = sample_batch(nt.SeededRng(424242), 2000, m)
        subset = np.arange(0, 2000, 7)
        for spec in default_observable_battery(4):
            full = spec.evaluate_batch(coeffs, 16)
            part = spec.evaluate_batch(coeffs[subset], 16)
            alone = [spec.evaluate_batch(coeffs[i:i + 1], 16)[0]
                     for i in subset]
            assert np.array_equal(part, full[subset]), spec.name
            assert np.array_equal(alone, full[subset]), spec.name


class TestChangeOfMeasure:
    def test_battery_small(self):
        d, fam = density_setup(n_cut=4, t=0.3)
        m = nt.MeasureParams(s=2.0, m_ambient=16, family=fam, cutoff_r=5.0)
        obs = default_observable_battery(4)
        results = nt.change_of_measure_test(
            d, m, obs, 20000, nt.SeededRng(424242)).comparisons
        assert len(results) == len(obs)
        for r in results:
            assert abs(r.z) <= 4.5

    def test_constant_observable_restricted_mass(self):
        # f == 1 with the cutoff: both sides estimate the same kept mass,
        # i.e. the E[G] = 1 identity under the restricted ensemble
        d, fam = density_setup(n_cut=4, t=0.3)
        m = nt.MeasureParams(s=2.0, m_ambient=16, family=fam, cutoff_r=5.0)
        const = nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)
        (res,) = nt.change_of_measure_test(d, m, [const], 20000,
                                           nt.SeededRng(31)).comparisons
        assert abs(res.z) <= 4.0
        assert res.lhs.estimate == pytest.approx(res.rhs.estimate, rel=0.05)

    def test_high_mass_observable(self):
        d, fam = density_setup(n_cut=3, t=0.25)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=fam, cutoff_r=5.0)
        high = nt.ObservableSpec(ObservableKind.HIGH_MASS_ONLY, n_cut=3)
        (res,) = nt.change_of_measure_test(d, m, [high], 10000,
                                           nt.SeededRng(40)).comparisons
        assert abs(res.z) <= 4.0

    def test_ambient_must_cover_cut(self):
        d, fam = density_setup(n_cut=4)
        m = nt.MeasureParams(s=2.0, m_ambient=2, family=fam)
        with pytest.raises(Exception):
            nt.change_of_measure_test(d, m, default_observable_battery(4), 100,
                                      nt.SeededRng(1))

    def test_families_must_match(self):
        # samples drawn on one weight family, log G integrated on another
        d, _ = density_setup(n_cut=2)
        eq = nt.WeightFamily(nt.WeightKind.EQUIVALENT_NORM, 2.0)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=eq, cutoff_r=5.0)
        with pytest.raises(ValueError, match="weight family"):
            nt.change_of_measure_test(d, m, default_observable_battery(2), 8,
                                      nt.SeededRng(1))


class TestConvergenceStudy:
    def test_pinned_seed_regression(self):
        from nls_transport import pinned
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        rows = nt.convergence_study(fam, 0.3, 8, [4, 8, 16], 32,
                                    nt.SeededRng(pinned.CONVERGENCE_SEED),
                                    1e-3)[StudyKind.R]
        got = tuple(r.sup_diff for r in rows)
        assert got == pytest.approx(pinned.CONVERGENCE_SUP["R"],
                                    rel=pinned.CONVERGENCE_RTOL)
        sups = [r.sup_diff for r in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_reference_row_is_zero(self):
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        rows = nt.convergence_study(fam, 0.1, 4, [8], 8, nt.SeededRng(5),
                                    1e-3)[StudyKind.R]
        assert rows[0].sup_diff == 0.0

    def test_same_rows_at_one_and_two_workers(self, monkeypatch):
        # R and Q run in the caller, also while the log-G pool is pending
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        pids = []
        for name in ("r_correction_batch", "q_derivative_batch"):
            def recording(*args, _fn=getattr(transport, name)):
                pids.append(os.getpid())
                return _fn(*args)
            monkeypatch.setattr(transport, name, recording)
        studies = []
        for threads in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, threads)
            studies.append(nt.convergence_study(fam, 0.1, 4, [2, 4], 8,
                                                nt.SeededRng(5), 1e-3))
        assert studies[0] == studies[1]
        assert list(studies[0]) == [StudyKind.R, StudyKind.Q, StudyKind.G]
        assert pids == [os.getpid()] * 12   # 2 runs x (R, Q) x 3 truncations

    def test_single_mode_states_vanish(self):
        # every studied quantity vanishes identically on single modes
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        u = nt.FourierState.from_modes(16, {3: 0.8 - 0.2j})
        for n_cut in (4, 8, 16):
            energy = EnergyParams(n_cut=n_cut, family=fam)
            d = nt.DensityParams(t=0.3, energy=energy, step=1e-3,
                                 quad_points=101)
            assert nt.r_correction(u, energy) == 0.0
            assert abs(nt.density_direct(u, d)) <= 1e-11


class TestLpDensityStudy:
    def test_requires_cutoff(self):
        d, fam = density_setup(n_cut=4)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=fam)
        with pytest.raises(nt.MissingCutoff):
            nt.lp_density_study(d, m, [1.0], 100, nt.SeededRng(1), [4])

    def test_families_must_match(self):
        d, _ = density_setup(n_cut=2)
        eq = nt.WeightFamily(nt.WeightKind.EQUIVALENT_NORM, 2.0)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=eq, cutoff_r=5.0)
        with pytest.raises(ValueError, match="weight family"):
            nt.lp_density_study(d, m, [1.0], 8, nt.SeededRng(1), [2])

    def test_l1_is_one_with_wide_cutoff(self):
        # the cutoff keeps 5.25% of these samples, so this checks the
        # restricted normalization E[1_{C<=R} G] / E[1_{C<=R}] = 1
        d, fam = density_setup(n_cut=2, t=0.15)
        m = nt.MeasureParams(s=2.0, m_ambient=4, family=fam, cutoff_r=4.0)
        rows = nt.lp_density_study(d, m, [1.0], 20000, nt.SeededRng(61),
                                   n_list=[2])
        by_cut = {r.n_cut: r for r in rows}
        row = by_cut[2]
        assert row.norm_g == pytest.approx(1.0, abs=0.05)

    def test_time_zero_norms_one(self):
        d, fam = density_setup(n_cut=2, t=0.0)
        m = nt.MeasureParams(s=2.0, m_ambient=4, family=fam, cutoff_r=5.0)
        rows = nt.lp_density_study(d, m, [1.0, 2.0], 2000, nt.SeededRng(62),
                                   n_list=[2])
        for r in rows:
            assert r.norm_g == pytest.approx(1.0, abs=1e-12)
            assert r.diff_norm == pytest.approx(0.0, abs=1e-12)

    def test_difference_norm_decreases(self):
        d, fam = density_setup(n_cut=8, t=0.2)
        m = nt.MeasureParams(s=2.0, m_ambient=32, family=fam, cutoff_r=8.0)
        rows = nt.lp_density_study(d, m, [2.0], 4000, nt.SeededRng(63),
                                   n_list=[4, 8, 16])
        diffs = [r.diff_norm for r in sorted(rows, key=lambda r: r.n_cut)
                 if r.n_cut != 32]
        assert all(np.isfinite(r.norm_g) for r in rows)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


class TestCutoffConservation:
    def test_indicator_stable_on_pure_states(self, rng):
        """On the flow's own phase space the conserved energy moves only by
        integrator drift, so the indicator is flow-invariant."""
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        m = nt.MeasureParams(s=2.0, m_ambient=8, family=fam, cutoff_r=6.0)
        flow = nt.FlowParams(n_cut=8, step=1e-3)
        coeffs = sample_batch(nt.SeededRng(77), 200, m)
        fwd = nt.flow.evolve_batch(coeffs, 8, 0.5, flow)
        from nls_transport.spectral import conserved_c_batch
        c0 = conserved_c_batch(coeffs, 8)
        c1 = conserved_c_batch(fwd, 8)
        drift = np.abs(c1 - c0) / np.maximum(c0, 1e-30)
        # drift at the fixed step grows with amplitude; on the energy range
        # the cutoff actually probes it stays at integrator level, and no
        # indicator flips at all
        tame = c0 <= 2 * m.cutoff_r
        assert np.max(drift[tame]) <= 1e-8
        assert np.array_equal(c0 <= m.cutoff_r, c1 <= m.cutoff_r)


class TestCutoffPrefilter:
    """change_of_measure_test solves only the rows its cutoff keeps,
    E_N(u) <= R with N that of the flow, and each of them by the ladder of
    _controlled_direct: one backward solve at 2h and at h, and finer ones
    for the rows the estimate leaves undecided."""

    @staticmethod
    def evolve_calls(monkeypatch, d, m, n, seed, evolve=evolve_batch,
                     observables=None):
        """(step, t, rows) of each call change_of_measure_test makes to
        evolve_batch, in call order, and the test's result; `evolve` stands
        in for the flow."""
        seen = []

        def recording(coeffs, m_ambient, t, p):
            seen.append((p.step, t, coeffs.copy()))
            return evolve(coeffs, m_ambient, t, p)

        monkeypatch.setattr(transport, "evolve_batch", recording)
        const = nt.ObservableSpec(ObservableKind.BOUNDED_EXP, scale=0.0)
        result = nt.change_of_measure_test(d, m, observables or [const], n,
                                           nt.SeededRng(seed))
        return seen, result

    @staticmethod
    def kept_rows(step=1e-3):
        """(d, cut, coeffs, keep) for the 300 samples of seed 40 at M = 8,
        N = 3, t = 0.25 and R = 5, with keep the rows E_N(u) <= R."""
        d, fam = density_setup(n_cut=3, t=0.25, step=step)
        cut = nt.MeasureParams(s=2.0, m_ambient=8, family=fam, cutoff_r=5.0)
        coeffs = sample_batch(nt.SeededRng(40), 300, cut)
        keep = truncated_energy_batch(coeffs, 8, 3) <= cut.cutoff_r
        assert 0 < np.sum(keep) < coeffs.shape[0]
        return d, cut, coeffs, keep

    @staticmethod
    def contains(block, row):
        return np.any(np.all(block == row, axis=-1))

    def test_evolves_only_rows_the_bound_keeps(self, monkeypatch):
        # the study's only flow calls are the ladder's, at 2h, h, then
        # halvings, all backward: the first two solve exactly the rows with
        # E_N(u) <= R, and each later one some of them
        d, cut, coeffs, keep = self.kept_rows(step=0.02)
        calls, result = self.evolve_calls(monkeypatch, d, cut, 300, 40)
        h = d.step
        assert len(calls) >= 3
        assert [step for step, _, _ in calls] == [2 * h] + [
            h / 2**j for j in range(len(calls) - 1)]
        assert all(t == -d.t for _, t, _ in calls)
        for _, _, rows in calls[:2]:
            assert np.array_equal(rows, coeffs[keep])
        for _, _, rows in calls[2:]:
            assert all(self.contains(coeffs[keep], row) for row in rows)
        assert result.counts["kept"] == np.sum(keep)
        assert result.counts["refined"] > 0
        # with no cutoff every row is solved, in the same ladder
        free = dataclasses.replace(cut, cutoff_r=None)
        calls, result = self.evolve_calls(monkeypatch, d, free, 300, 40)
        assert calls[0][0] == 2 * h and calls[1][0] == h
        for _, _, rows in calls[:2]:
            assert np.array_equal(rows, coeffs)
        assert result.counts["kept"] == 300

    @staticmethod
    def expected_means(coeffs, keep, steps, d, obs):
        """The lhs and rhs means of the study if each kept row is accepted
        at its step in `steps`: lhs f(conj w), rhs f(u) G(u), with w the
        backward solve and G the direct formula at that step."""
        terms = np.zeros((2, len(obs), coeffs.shape[0]))
        kept = np.flatnonzero(keep)
        for step in np.unique(steps):
            rows = kept[steps == step]
            bwd = evolve_batch(coeffs[rows], 8, -d.t,
                               dataclasses.replace(d.flow, step=step))
            g = np.exp(fixed_step_direct(coeffs[rows], 8, d, step))
            for j, spec in enumerate(obs):
                terms[0, j, rows] = spec.evaluate_batch(
                    np.conj(bwd[..., ::-1]), 8)
                terms[1, j, rows] = spec.evaluate_batch(coeffs[rows], 8) * g
        return np.mean(terms, axis=-1)

    @pytest.mark.parametrize("fault", ["one_row_overflows", "all_overflow",
                                       "estimate_misses"])
    def test_undecided_rows_fall_back(self, monkeypatch, fault):
        # a solve at 2h that overflows on one kept row, or on every kept
        # row, or that moves some rows' states by 1%, leaves those rows
        # without an estimate at h: they, and only they, are solved again
        # at h/2 and accepted there, and the outputs are those of the rows
        # accepted at h and at h/2
        d, cut, coeffs, keep = self.kept_rows()
        kept = coeffs[keep]
        faulty = np.zeros(kept.shape[0], dtype=bool)
        faulty[{"one_row_overflows": [1], "all_overflow": slice(None),
                "estimate_misses": slice(None, None, 4)}[fault]] = True

        def failing(rows, m_ambient, t, p):
            hit = np.array([self.contains(kept[faulty], row) for row in rows],
                           dtype=bool)
            out = evolve_batch(rows, m_ambient, t, p)
            if p.step == 2 * d.step:
                if fault == "estimate_misses":
                    out[hit] *= 1.01
                else:
                    out[hit] = np.nan   # as the flow returns an overflowing row
            return out

        obs = default_observable_battery(3)
        calls, _ = self.evolve_calls(monkeypatch, d, cut, 300, 40,
                                     observables=obs)
        assert [step for step, _, _ in calls] == [2 * d.step, d.step]
        calls, result = self.evolve_calls(monkeypatch, d, cut, 300, 40,
                                          evolve=failing, observables=obs)
        assert [step for step, _, _ in calls] == [2 * d.step, d.step,
                                                  d.step / 2]
        assert np.array_equal(calls[-1][2], kept[faulty])
        assert result.counts["refined"] == np.sum(faulty)
        assert result.counts["unresolved"] == 0
        assert result.counts["non_finite"] == 0
        steps = np.where(faulty, d.step / 2, d.step)
        lhs, rhs = self.expected_means(coeffs, keep, steps, d, obs)
        for j, res in enumerate(result.comparisons):
            assert res.lhs.estimate == pytest.approx(lhs[j], rel=1e-12)
            assert res.rhs.estimate == pytest.approx(rhs[j], rel=1e-12)

    def test_overflow_at_the_step_is_nan(self, monkeypatch):
        # a row the flow returns as NaN at h and at every finer step has no
        # estimate on any rung: it goes down the ladder alone, and is NaN in
        # both terms and counted.  A row NaN at h only is compared at h/4
        # with its solve at h/2, and resolved there.
        d, cut, coeffs, keep = self.kept_rows()

        def overflowing(finest):
            def evolve(rows, m_ambient, t, p):
                out = evolve_batch(rows, m_ambient, t, p)
                if finest <= p.step <= d.step:
                    out[0] = np.nan
                return out
            return evolve

        finest = d.step / 2**transport._MAX_HALVINGS
        calls, result = self.evolve_calls(monkeypatch, d, cut, 300, 40,
                                          evolve=overflowing(finest))
        assert [step for step, _, _ in calls[2:]] == [
            d.step / 2**j for j in range(1, transport._MAX_HALVINGS + 1)]
        for _, _, rows in calls[2:]:
            assert np.array_equal(rows, coeffs[keep][:1])
        (res,) = result.comparisons
        assert np.isnan(res.lhs.estimate) and np.isnan(res.rhs.estimate)
        assert result.counts["unresolved"] == 1
        assert result.counts["non_finite"] == 1
        calls, result = self.evolve_calls(monkeypatch, d, cut, 300, 40,
                                          evolve=overflowing(d.step))
        assert [step for step, _, _ in calls[2:]] == [d.step / 2,
                                                      d.step / 4]
        (res,) = result.comparisons
        assert np.isfinite(res.lhs.estimate) and np.isfinite(res.rhs.estimate)
        assert result.counts["refined"] == 1
        assert result.counts["unresolved"] == 0

    def test_evolve_rows_independent_of_batch(self):
        # the compacted batch gives each kept row the bits of the full one
        d, fam = density_setup(n_cut=4, t=0.3)
        m = nt.MeasureParams(s=2.0, m_ambient=16, family=fam)
        coeffs = sample_batch(nt.SeededRng(424242), 64, m)
        full = evolve_batch(coeffs, 16, d.t, d.flow)
        subset = [63, 5, 17, 40]
        assert np.array_equal(evolve_batch(coeffs[subset], 16, d.t, d.flow),
                              full[subset])
        for i in subset:
            assert np.array_equal(
                evolve_batch(coeffs[i:i + 1], 16, d.t, d.flow)[0], full[i])
