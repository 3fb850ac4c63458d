import warnings

import numpy as np
import pytest

import nls_transport as nt
from nls_transport.flow import (_ROW_BLOCK, _steps, evolve_batch,
                                jacobian_det, trajectory_batch)
from nls_transport.measures import MeasureParams, SeededRng, sample_batch
from nls_transport.spectral import (TWO_PI, conserved_c_batch, grid_values,
                                    quintic_batch, wavenumbers)

from conftest import mu_like_coeffs, random_coeffs
from oracles import (ContractionRadiusExceeded, check_factorization,
                     flow_per_stage, jacobian_det_per_stage, picard_iterates,
                     picard_local_time, picard_solve)


def plane_wave(m_ambient, k, c):
    return nt.FourierState.from_modes(m_ambient, {k: c})


def rk4_ungauged(u0, t, n_cut, h, n_points):
    """Independent second code path: plain RK4 on the untwisted equation
    du/dt = i u_xx - i Pi_N(|Pi_N u|^4 Pi_N u)."""
    ks = wavenumbers(u0.m_ambient).astype(float)
    low = np.abs(ks) <= n_cut
    c = u0.coeffs.copy()

    def f(c):
        nl = quintic_batch(c[None, :], u0.m_ambient, n_cut, n_points)[0]
        return -1j * (ks**2 * c * low + nl)

    n = int(round(abs(t) / h))
    dt = t / n
    high = ~low
    for _ in range(n):
        k1 = f(c); k2 = f(c + dt / 2 * k1)
        k3 = f(c + dt / 2 * k2); k4 = f(c + dt * k3)
        cl = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        c = np.where(low, cl, c)
    c[high] = np.exp(-1j * ks[high] ** 2 * t) * u0.coeffs[high]
    return nt.FourierState(u0.m_ambient, c)


class TestEvolve:
    def test_step_need_only_be_positive(self):
        # the (0, 0.1] bound on a step is the CLI's; the flow takes any
        # positive step, as the coarse solve of a density's ladder does
        got = nt.evolve(plane_wave(2, 1, 0.5), 0.3,
                        nt.FlowParams(n_cut=2, step=0.2))
        expect = 0.5 * np.exp(-1j * (1.0 + 0.5**4) * 0.3)
        assert abs(got.coeff(1) - expect) <= 1e-8
        for step in (0.0, -1e-3):
            with pytest.raises(ValueError, match="positive"):
                nt.FlowParams(n_cut=2, step=step)

    def test_plane_wave_closed_form(self):
        p = nt.FlowParams(n_cut=4, step=1e-3)
        c, k, t = 0.5, 1, 1.0
        got = nt.evolve(plane_wave(4, k, c), t, p)
        expect = c * np.exp(-1j * (k**2 + abs(c) ** 4) * t)
        assert abs(got.coeff(k) - expect) <= 1e-12

    def test_high_frequency_free_rotation(self):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        u0 = nt.FourierState.from_modes(6, {4: 0.3 + 0.4j, -5: 1.0})
        got = nt.evolve(u0, 0.7, p)
        ks = u0.wavenumbers().astype(float)
        expect = np.exp(-1j * ks**2 * 0.7) * u0.coeffs
        assert np.max(np.abs(got.coeffs - expect)) <= 1e-14

    def test_zero_state(self):
        p = nt.FlowParams(n_cut=3, step=1e-3)
        got = nt.evolve(nt.FourierState.zero(3), 0.5, p)
        assert np.all(got.coeffs == 0)

    def test_time_zero_identity(self, rng):
        p = nt.FlowParams(n_cut=3, step=1e-3)
        u = nt.FourierState(3, random_coeffs(rng, 3))
        got = nt.evolve(u, 0.0, p)
        assert np.array_equal(got.coeffs, u.coeffs)

    def test_reversibility(self, rng):
        u = nt.FourierState(8, mu_like_coeffs(rng, 8))
        p = nt.FlowParams(n_cut=8, step=1e-3)
        back = nt.evolve(nt.evolve(u, 1.0, p), -1.0, p)
        err = np.sqrt(nt.sobolev_norm_sq_sigma(
            nt.FourierState(8, back.coeffs - u.coeffs), 1.0))
        assert err <= 1e-7

    def test_gauge_consistency_two_paths(self, rng):
        u = nt.FourierState(4, mu_like_coeffs(rng, 4))
        p = nt.FlowParams(n_cut=4, step=1e-4)
        a = nt.evolve(u, 0.3, p)
        b = rk4_ungauged(u, 0.3, 4, 1e-4, nt.default_grid(4))
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10

    def test_non_finite_detected(self):
        p = nt.FlowParams(n_cut=1, step=0.1)
        u = nt.FourierState.from_modes(1, {0: 1e80})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(nt.NonFiniteState):
                nt.evolve(u, 1.0, p)

    def test_overflowing_rows_come_back_nan(self):
        # a row that overflows, at the first stage or after some steps, is
        # NaN in every coefficient, with no warning; each other row has the
        # bits of a solve of the block without it
        p = nt.FlowParams(n_cut=3, step=0.05)
        rng = np.random.default_rng(3)
        block = np.stack([random_coeffs(rng, 3, scale=0.2) for _ in range(6)])
        block[2] = plane_wave(3, 1, 3.0).coeffs
        block[4] = plane_wave(3, 0, 1e80).coeffs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evolve_batch(block, 3, 0.5, p)
        tame = [0, 1, 3, 5]
        assert np.all(np.isnan(got[[2, 4]]))
        assert np.all(np.isfinite(got[tame]))
        assert np.array_equal(got[tame], evolve_batch(block[tame], 3, 0.5, p))

    def test_fortran_ordered_block(self):
        # the memory order of a block changes no bit of its flow
        block = 0.5 * gaussian_rows(12, 4).reshape(3, 4, 9)
        fortran = np.asfortranarray(block)
        assert not fortran.flags.c_contiguous
        p = nt.FlowParams(n_cut=2, step=1e-2)
        assert same_bits(evolve_batch(fortran, 4, 0.2, p),
                         evolve_batch(block, 4, 0.2, p))
        assert same_bits(trajectory_batch(fortran, 4, 0.2, p, 5)[1],
                         trajectory_batch(block, 4, 0.2, p, 5)[1])

    def test_batch_matches_single(self, rng):
        p = nt.FlowParams(n_cut=3, step=1e-3)
        block = np.stack([random_coeffs(rng, 5, scale=0.3) for _ in range(4)])
        batch = evolve_batch(block, 5, 0.2, p)
        for i in range(4):
            single = nt.evolve(nt.FourierState(5, block[i]), 0.2, p)
            assert np.array_equal(batch[i], single.coeffs)

    @pytest.mark.parametrize("n_cut, m_ambient", [(2, 2), (4, 16), (8, 8)])
    @pytest.mark.parametrize("t", [0.3, -0.3])
    def test_time_reversal(self, n_cut, m_ambient, t):
        # with conj(u)_k = conj(u_{-k}), Phi_N(-t)(conj u) = conj(Phi_N(t) u),
        # and the RK4 step keeps this to rounding; transport-mc reads its
        # forward states off the backward solve by it
        def conj(w):
            return np.conj(w[..., ::-1])

        coeffs = gaussian_rows(32, m_ambient)
        p = nt.FlowParams(n_cut=n_cut, step=1e-3)
        fwd = evolve_batch(coeffs, m_ambient, t, p)
        got = conj(evolve_batch(conj(coeffs), m_ambient, -t, p))
        scale = np.max(np.abs(fwd), axis=-1, keepdims=True)
        assert np.max(np.abs(got - fwd) / scale) <= 1e-12


class TestTrajectory:
    def test_zero_window(self, rng):
        u = nt.FourierState(2, random_coeffs(rng, 2))
        p = nt.FlowParams(n_cut=2, step=1e-3)
        traj = nt.evolve_trajectory(u, 0.0, p, 5)
        assert len(traj.states) == 1 and traj.times[0] == 0.0

    def test_overflow_raises(self):
        # a trajectory has no use for a NaN row: it raises instead
        p = nt.FlowParams(n_cut=3, step=0.05)
        block = np.stack([np.zeros(7), plane_wave(3, 1, 3.0).coeffs])
        with pytest.raises(nt.NonFiniteState,
                           match="non-finite coefficients at t="):
            trajectory_batch(block, 3, 0.5, p, 6)

    def test_snapshot_count_and_endpoints(self, rng):
        u = nt.FourierState(3, random_coeffs(rng, 3, scale=0.3))
        p = nt.FlowParams(n_cut=3, step=1e-3)
        traj = nt.evolve_trajectory(u, 0.5, p, 6)
        assert len(traj.states) == 6
        assert traj.times[0] == 0.0 and traj.times[-1] == 0.5
        assert np.array_equal(traj.states[0].coeffs, u.coeffs)
        direct = nt.evolve(u, 0.5, p)
        assert np.max(np.abs(traj.states[-1].coeffs - direct.coeffs)) <= 1e-9

    def test_plane_wave_phases(self):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        c, k = 0.8, 2
        traj = nt.evolve_trajectory(plane_wave(2, k, c), 1.0, p, 5)
        for time, state in zip(traj.times, traj.states):
            expect = c * np.exp(-1j * (k**2 + abs(c) ** 4) * time)
            assert abs(state.coeff(k) - expect) <= 1e-10

    @pytest.mark.parametrize("t_final", [0.5, -0.5])
    def test_node_intervals_take_whole_steps(self, t_final):
        # the linspace intervals over t = 0.5 land a few ulp off h; each
        # still takes one step, which ends exactly on its node
        times = np.linspace(0.0, t_final, 501)
        for a, b in zip(times[:-1], times[1:]):
            steps = _steps(b - a, 1e-3)
            assert len(steps) == 1 and steps[0] == b - a

    @pytest.mark.parametrize("t, h, want", [
        (0.0025, 1e-3, [1e-3, 1e-3, 0.0025 - 2e-3]),
        (-0.0025, 1e-3, [-1e-3, -1e-3, -0.0025 + 2e-3]),
        (4e-4, 1e-3, [4e-4]),
        (1e-3 + 1e-11, 1e-3, [1e-3, (1e-3 + 1e-11) - 1e-3]),
    ])
    def test_fractional_remainder_keeps_its_step(self, t, h, want):
        assert _steps(t, h) == want

    def test_backward_times(self, rng):
        u = nt.FourierState(2, random_coeffs(rng, 2, scale=0.3))
        p = nt.FlowParams(n_cut=2, step=1e-3)
        traj = nt.evolve_trajectory(u, -0.4, p, 5)
        assert np.all(np.diff(traj.times) < 0)


class TestPicard:
    def test_high_frequency_fixed_point(self):
        u0 = nt.FourierState.from_modes(6, {5: 0.3 + 0.1j, -6: 0.2})
        p = nt.FlowParams(n_cut=2, step=1e-3)
        got = picard_solve(u0, 5e-4, p, 1)
        ks = u0.wavenumbers().astype(float)
        expect = np.exp(-1j * ks**2 * 5e-4) * u0.coeffs
        assert np.max(np.abs(got.coeffs - expect)) == 0.0

    def test_plane_wave_convergence(self):
        u0 = plane_wave(4, 1, 0.5)
        p = nt.FlowParams(n_cut=4, step=1e-3)
        got = picard_solve(u0, 0.01, p, 6)
        expect = 0.5 * np.exp(-1j * (1 + 0.5**4) * 0.01)
        assert abs(got.coeff(1) - expect) <= 1e-8

    def test_contraction_ratio(self, rng):
        u0 = nt.FourierState(3, random_coeffs(rng, 3, scale=0.4))
        p = nt.FlowParams(n_cut=3, step=1e-3)
        t = 0.9 * picard_local_time(u0)
        iters = picard_iterates(u0, t, p, 5)
        dists = [np.linalg.norm(a.coeffs - b.coeffs)
                 for a, b in zip(iters, iters[1:])]
        ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-16]
        assert all(r <= 2.0 / 3.0 for r in ratios)

    def test_window_enforced(self):
        u0 = plane_wave(2, 1, 2.0)
        p = nt.FlowParams(n_cut=2, step=1e-3)
        with pytest.raises(ContractionRadiusExceeded):
            picard_solve(u0, 1.0, p, 3)

    def test_agrees_with_evolve(self, rng):
        u0 = nt.FourierState(3, random_coeffs(rng, 3, scale=0.25))
        p = nt.FlowParams(n_cut=3, step=1e-5)
        t = 0.8 * picard_local_time(u0)
        a = picard_solve(u0, t, p, 10, n_quad=128)
        b = nt.evolve(u0, t, p)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-9


class TestLiouville:
    def test_divergence_zero_state(self):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        assert nt.divergence_at(nt.FourierState.zero(2), p) == \
            pytest.approx(0.0, abs=1e-12)

    def test_divergence_small(self, rng):
        for n_cut in (1, 2, 3):
            p = nt.FlowParams(n_cut=n_cut, step=1e-3)
            u = nt.FourierState(n_cut, random_coeffs(rng, n_cut, scale=0.4))
            assert abs(nt.divergence_at(u, p)) <= 1e-6

    def test_divergence_exact_trace(self, rng):
        """The trace is taken exactly, so only rounding is left."""
        for n_cut in (1, 2, 3):
            p = nt.FlowParams(n_cut=n_cut, step=1e-3)
            for _ in range(10):
                u = nt.FourierState(n_cut, random_coeffs(rng, n_cut))
                assert abs(nt.divergence_at(u, p)) <= 1e-12

    def test_requires_pure_state(self, rng):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        u = nt.FourierState(4, random_coeffs(rng, 4))
        with pytest.raises(ValueError):
            nt.divergence_at(u, p)

    def test_det_at_time_zero(self, rng):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        u = nt.FourierState(2, random_coeffs(rng, 2))
        assert nt.jacobian_det(u, 0.0, p) == 1.0

    def test_det_near_one(self, rng):
        c = random_coeffs(rng, 2)
        u = nt.FourierState(2, c / max(1.0, np.sqrt(
            nt.sobolev_norm_sq_sigma(nt.FourierState(2, c), 1.0))))
        p = nt.FlowParams(n_cut=2, step=1e-3)
        assert abs(nt.jacobian_det(u, 0.5, p) - 1.0) <= 1e-6

    def test_det_composition(self, rng):
        c = random_coeffs(rng, 1, scale=0.4)
        u = nt.FourierState(1, c)
        p = nt.FlowParams(n_cut=1, step=1e-3)
        whole = nt.jacobian_det(u, 0.4, p)
        first = nt.jacobian_det(u, 0.25, p)
        mid = nt.evolve(u, 0.25, p)
        second = nt.jacobian_det(mid, 0.15, p)
        assert whole == pytest.approx(first * second, abs=1e-8)


class TestGrowthMonitor:
    def test_plane_wave_mass_constant(self):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        traj = nt.evolve_trajectory(plane_wave(2, 1, 0.7), 1.0, p, 9)
        report = nt.growth_monitor(traj, sigma=1.0, n_cut=2)
        assert report.mass_drift <= 1e-12

    def test_drift_small_and_fourth_order(self, rng):
        u = nt.FourierState(8, mu_like_coeffs(rng, 8))
        drifts = []
        for h in (2e-3, 1e-3):
            p = nt.FlowParams(n_cut=8, step=h)
            traj = nt.evolve_trajectory(u, 1.0, p, 9)
            report = nt.growth_monitor(traj, sigma=1.0, n_cut=8, c_tol=1e-6,
                                       mass_tol=1e-6)
            drifts.append(report.c_drift)
        assert drifts[1] <= 1e-8
        assert drifts[0] / drifts[1] == pytest.approx(16.0, rel=0.5)

    def test_violation_raises(self, rng):
        u = nt.FourierState(4, random_coeffs(rng, 4, scale=0.4))
        p = nt.FlowParams(n_cut=4, step=1e-3)
        traj = nt.evolve_trajectory(u, 0.5, p, 7)
        with pytest.raises(nt.BoundViolated):
            nt.growth_monitor(traj, sigma=1.0, n_cut=4, c_tol=1e-18)

    def test_drift_is_that_of_the_truncated_energy(self):
        # a free mode above N = 2: c_drift is the relative drift of E_N,
        # C(u) less what the free mode adds to int |u|^6
        u = nt.FourierState.from_modes(6, {1: 0.9, -2: 0.5, 6: 0.4})
        p = nt.FlowParams(n_cut=2, step=1e-2)
        traj = nt.evolve_trajectory(u, 1.0, p, 9)
        report = nt.growth_monitor(traj, sigma=1.0, mass_tol=1.0, c_tol=1.0,
                                   n_cut=2)
        low = np.abs(wavenumbers(6)) <= 2

        def l6(c):
            vals = grid_values(c, 6, 6 * 6 + 2)
            return TWO_PI * np.mean(np.abs(vals) ** 6)

        e_n = np.array([conserved_c_batch(s.coeffs[None, :], 6)[0]
                        - (l6(s.coeffs) - l6(np.where(low, s.coeffs, 0.0))) / 6
                        for s in traj.states])
        drift = np.max(np.abs(e_n - e_n[0])) / e_n[0]
        assert drift > 1e-10    # integrator drift, well above rounding
        assert report.c_drift == pytest.approx(drift, rel=1e-4)


class TestFactorization:
    def test_random_states(self, rng):
        p = nt.FlowParams(n_cut=3, step=1e-3)
        for _ in range(3):
            u = nt.FourierState(6, random_coeffs(rng, 6, scale=0.3))
            assert check_factorization(u, 0.4, p) <= 1e-12

    def test_time_zero(self, rng):
        p = nt.FlowParams(n_cut=3, step=1e-3)
        u = nt.FourierState(5, random_coeffs(rng, 5))
        assert check_factorization(u, 0.0, p) == 0.0

    def test_high_frequency_only(self):
        p = nt.FlowParams(n_cut=2, step=1e-3)
        u = nt.FourierState.from_modes(5, {4: 1.0, -3: 2.0})
        assert check_factorization(u, 0.6, p) == 0.0


class TestApproximationProperty:
    def test_gap_shrinks_with_cut(self, rng):
        """Distance to the reference truncation decreases as the
        truncation grows through 4, 8, 16."""
        u = nt.FourierState(64, random_coeffs(rng, 64, scale=0.05))
        ref = nt.evolve(u, 0.25, nt.FlowParams(n_cut=64, step=1e-3))
        gaps = []
        for n_cut in (4, 8, 16, 32):
            p = nt.FlowParams(n_cut=n_cut, step=1e-3)
            got = nt.evolve(u, 0.25, p)
            diff = nt.FourierState(64, got.coeffs - ref.coeffs)
            gaps.append(np.sqrt(nt.sobolev_norm_sq_sigma(diff, 1.0)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def same_bits(a, b) -> bool:
    return (np.array_equal(a.real, b.real, equal_nan=True)
            and np.array_equal(a.imag, b.imag, equal_nan=True))


def gaussian_rows(rows, m_ambient, seed=7):
    fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
    return sample_batch(SeededRng(seed), rows, MeasureParams(
        s=2.0, m_ambient=m_ambient, family=fam))


class TestPerStageReference:
    """The flow keeps every bit of the per-stage RK4 of tests/oracles.py,
    which allocates its arrays and computes its twist in each stage."""

    @pytest.mark.parametrize("rows, n_cut, m_ambient, t, h", [
        (1, 2, 4, 0.3, 1e-3),          # 300 steps: two blocks of phases
        (2, 32, 32, -0.05, 2.5e-4),
        (8, 8, 8, -0.2537, 1e-2),      # a fractional last step
        (8, 4, 4, 0.5 + 1e-13, 1e-3),  # a remainder folded into the last
        (440, 4, 16, 0.3, 1e-3),
        (_ROW_BLOCK + 88, 2, 4, -0.01, 1e-3),   # two blocks of rows
    ])
    def test_evolve_batch(self, rows, n_cut, m_ambient, t, h):
        coeffs = gaussian_rows(rows, m_ambient)
        p = nt.FlowParams(n_cut=n_cut, step=h)
        assert same_bits(evolve_batch(coeffs, m_ambient, t, p),
                         flow_per_stage(coeffs, m_ambient, [t], p)[0])

    def test_steps_of_the_cases(self):
        # the fractional and the folded case above are what they say
        assert _steps(-0.2537, 1e-2)[-1] != -1e-2
        folded = _steps(0.5 + 1e-13, 1e-3)
        assert len(folded) == 500 and folded[-1] != 1e-3

    def test_overflowing_row_beside_tame_rows(self):
        p = nt.FlowParams(n_cut=3, step=0.05)
        block = gaussian_rows(5, 3)
        block[1] = plane_wave(3, 1, 3.0).coeffs
        block[3] = plane_wave(3, 0, 1e80).coeffs
        got = evolve_batch(block, 3, 0.5, p)
        assert np.all(np.isnan(got[[1, 3]]))
        assert same_bits(got, flow_per_stage(block, 3, [0.5], p)[0])

    @pytest.mark.parametrize("rows, n_cut, m_ambient, t, n_snapshots", [
        (3, 8, 8, -0.1, 101),
        (_ROW_BLOCK + 88, 2, 4, -0.03, 4),   # two row blocks, 3 intervals
    ])
    def test_trajectory_batch(self, rows, n_cut, m_ambient, t, n_snapshots):
        coeffs = gaussian_rows(rows, m_ambient, seed=3)
        p = nt.FlowParams(n_cut=n_cut, step=1e-3)
        times, got = trajectory_batch(coeffs, m_ambient, t, p, n_snapshots)
        want = flow_per_stage(coeffs, m_ambient, times[1:], p)
        assert same_bits(got[:, 0], coeffs)
        assert all(same_bits(got[:, i], w) for i, w in enumerate(want, 1))

    def test_jacobian_det(self):
        u = nt.FourierState(2, 0.3 * gaussian_rows(1, 2, seed=4)[0])
        p = nt.FlowParams(n_cut=2, step=1e-3)
        assert jacobian_det(u, 0.5, p) == jacobian_det_per_stage(u, 0.5, p)
