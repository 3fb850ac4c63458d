import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nls_transport as nt
from nls_transport.energies import EnergyParams, low_norm_sq_batch
from nls_transport.spectral import (TWO_PI, conserved_c_batch, grid_values,
                                    quintic_batch, sextic_integral_batch,
                                    state_to_dict, truncated_energy_batch,
                                    wavenumbers)

from conftest import random_coeffs
from oracles import quintic_band_per_stage, quintic_oracle


def state_strategy(max_m=4, scale=1.0):
    def build(m, reals, imags):
        dim = 2 * m + 1
        c = np.array(reals[:dim]) + 1j * np.array(imags[:dim])
        return nt.FourierState(m, scale * c)
    tiny = st.floats(-1.5, 1.5, allow_nan=False)
    return st.integers(0, max_m).flatmap(
        lambda m: st.builds(build, st.just(m),
                            st.lists(tiny, min_size=2 * m + 1, max_size=2 * m + 1),
                            st.lists(tiny, min_size=2 * m + 1, max_size=2 * m + 1)))


class TestFourierState:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            nt.FourierState(2, np.zeros(4, dtype=complex))

    def test_non_finite_rejected(self):
        c = np.zeros(5, dtype=complex)
        c[0] = np.nan
        with pytest.raises(ValueError):
            nt.FourierState(2, c)

    def test_coeffs_read_only(self):
        u = nt.FourierState.zero(3)
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0


class TestNorms:
    """sum_k m(k) |u_k|^2 for the family's multiplier, as low_norm_sq_batch
    forms it on the full band N = M."""

    @staticmethod
    def norm_sq(u, fam):
        p = EnergyParams(n_cut=u.m_ambient, family=fam)
        return low_norm_sq_batch(u.coeffs[None, :], u.m_ambient, p)[0]

    def test_equivalent_norm_example(self):
        u = nt.FourierState.from_modes(4, {3: 2.0})
        fam = nt.WeightFamily(nt.WeightKind.EQUIVALENT_NORM, 2.0)
        assert self.norm_sq(u, fam) == pytest.approx(328.0, rel=1e-14)

    def test_japanese_bracket_example(self):
        u = nt.FourierState.from_modes(4, {3: 2.0})
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        assert self.norm_sq(u, fam) == pytest.approx(400.0, rel=1e-14)

    def test_zero(self, fam_eq):
        assert self.norm_sq(nt.FourierState.zero(3), fam_eq) == 0.0

    @given(state_strategy())
    @settings(max_examples=50, deadline=None)
    def test_dominates_mass(self, u):
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        assert self.norm_sq(u, fam) >= nt.mass(u) / (2 * np.pi) - 1e-12


class TestInvariants:
    """C = mass/2 + H, with H = (1/2) int |u_x|^2 + (1/6) int |u|^6."""

    @staticmethod
    def c_and_h(u):
        conserved = conserved_c_batch(u.coeffs[None, :], u.m_ambient)[0]
        return conserved, conserved - 0.5 * nt.mass(u)

    def test_zero_state(self):
        u = nt.FourierState.zero(2)
        assert nt.mass(u) == 0.0
        assert self.c_and_h(u) == (0.0, 0.0)

    def test_constant_state(self):
        c = 1.3
        u = nt.FourierState.from_modes(2, {0: c})
        assert nt.mass(u) == pytest.approx(2 * np.pi * c**2, rel=1e-14)
        got_c, got_h = self.c_and_h(u)
        assert got_h == pytest.approx(2 * np.pi / 6 * c**6, rel=1e-13)
        assert got_c == pytest.approx(np.pi * c**2 + np.pi / 3 * c**6,
                                      rel=1e-13)

    def test_single_wave(self):
        u = nt.FourierState.from_modes(2, {1: 1.0})
        assert self.c_and_h(u)[1] == pytest.approx(np.pi + np.pi / 3,
                                                   rel=1e-13)

    def test_parseval(self, rng):
        m = 5
        u = nt.FourierState(m, random_coeffs(rng, m))
        for g in (2 * m + 1, 16, 64):
            vals = grid_values(u.coeffs[None, :], m, g)[0]
            quad = 2 * np.pi * np.mean(np.abs(vals) ** 2)
            assert quad == pytest.approx(nt.mass(u), rel=1e-13)


class TestSexticRule:
    def test_derived_grid_matches_oversampled_quadrature(self, rng):
        # the 6M + 2 points the module derives against four times as many
        for m in range(1, 17):
            coeffs = np.stack([random_coeffs(rng, m) for _ in range(4)])
            vals = grid_values(coeffs, m, 4 * (6 * m + 2))
            want = TWO_PI * np.mean(np.abs(vals) ** 6, axis=-1)
            assert np.allclose(sextic_integral_batch(coeffs, m), want,
                               rtol=1e-13, atol=0.0), m


class TestTruncatedEnergy:
    """E_N, the invariant of the truncated flow: C with |Pi_N u|^6 in place
    of |u|^6."""

    def test_full_band_is_c(self, rng):
        coeffs = np.stack([random_coeffs(rng, 5) for _ in range(8)])
        got = truncated_energy_batch(coeffs, 5, 5)
        want = conserved_c_batch(coeffs, 5)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_free_modes_leave_the_sextic_term(self):
        # modes k = 1 and 6 at N = 2: E_N is C(u) less what the free mode
        # adds to int |u|^6, while its quadratic part is that of C
        u = nt.FourierState.from_modes(6, {1: 0.7, 6: 0.4j})
        n_points = 6 * 6 + 2

        def l6(c):
            return TWO_PI * np.mean(np.abs(grid_values(c, 6, n_points)) ** 6)

        low = np.where(np.abs(wavenumbers(6)) <= 2, u.coeffs, 0.0)
        want = (conserved_c_batch(u.coeffs[None, :], 6)[0]
                - (l6(u.coeffs) - l6(low)) / 6.0)
        got = truncated_energy_batch(u.coeffs[None, :], 6, 2)[0]
        assert got == pytest.approx(want, rel=1e-14)


class TestQuintic:
    def test_single_mode(self):
        c = 0.7 - 0.2j
        u = nt.FourierState.from_modes(4, {2: c})
        out = nt.quintic_nonlinearity(u, 4)
        expect = abs(c) ** 4 * c
        assert out.coeff(2) == pytest.approx(expect, rel=1e-14)
        mask = np.ones(9, dtype=bool)
        mask[2 + 4] = False
        assert np.max(np.abs(out.coeffs[mask])) <= 1e-15

    def test_high_support_gives_zero(self):
        u = nt.FourierState.from_modes(6, {5: 1.0, -6: 2.0})
        out = nt.quintic_nonlinearity(u, 2)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_three_mode_oracle(self):
        u = nt.FourierState.from_modes(1, {-1: 1.0, 0: 1.0, 1: 1.0})
        out = nt.quintic_nonlinearity(u, 1)
        expect = quintic_oracle(u.coeffs, 1, 1)
        assert np.allclose(out.coeffs, expect, rtol=1e-12, atol=1e-12)

    @given(state_strategy(max_m=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_convolution_oracle(self, u):
        n_cut = u.m_ambient
        out = nt.quintic_nonlinearity(u, n_cut)
        expect = quintic_oracle(u.coeffs, u.m_ambient, n_cut)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(out.coeffs - expect)) <= 1e-12 * scale

    def test_batched_matches_single(self, rng):
        block = np.stack([random_coeffs(rng, 4) for _ in range(7)])
        batch = quintic_batch(block, 4, 3, 32)
        for i in range(7):
            single = quintic_batch(block[i][None, :], 4, 3, 32)[0]
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("shape, m_ambient, n_cut, strided", [
        ((), 4, 3, False),        # one state
        ((5,), 8, 3, False),      # a batch with N < M
        ((2, 3), 4, 4, False),    # a batch with N = M, two leading axes
        ((6,), 8, 3, True),       # the (rows, 2N+1) column view of Q
    ])
    def test_matches_per_stage_product(self, rng, shape, m_ambient, n_cut,
                                       strided):
        # Q's v = Pi_N(|u|^4 u) has the bits of the per-stage reference
        # product of tests/oracles.py on the band and is zero off it
        coeffs = rng.standard_normal(shape + (2 * m_ambient + 1, 2)) @ [1, 1j]
        band = slice(m_ambient - n_cut, m_ambient + n_cut + 1)
        if strided:
            coeffs = coeffs[:, band]
            assert not coeffs.flags.c_contiguous
            m_ambient, band = n_cut, slice(None)
        n_points = nt.default_grid(n_cut)
        got = quintic_batch(coeffs, m_ambient, n_cut, n_points)
        assert np.array_equal(got[..., band],
                              quintic_band_per_stage(coeffs[..., band],
                                                     n_points))
        off = np.ones(got.shape[-1], dtype=bool)
        off[band] = False
        assert not np.any(got[..., off])


class TestSnapshotFile:
    def test_schema(self):
        u = nt.FourierState.from_modes(1, {0: 1 + 2j})
        assert state_to_dict(u) == {
            "m_ambient": 1, "coeffs": [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]}
