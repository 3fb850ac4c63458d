import math

import numpy as np
import pytest
from numpy.random import Philox

import nls_transport as nt
from nls_transport.energies import EnergyParams
from nls_transport.measures import (SAMPLE_CHUNK, cutoff_indicator_batch,
                                    lp_norm_mc, mean_report, moment_growth_mc,
                                    ndtri, normals_from_raw, philox_raw,
                                    sample_batch)
from nls_transport.spectral import (bracket_multiplier, conserved_c_batch,
                                    wavenumbers)

from conftest import random_coeffs


def measure(s=2.0, m_ambient=8, cutoff=None,
            kind=nt.WeightKind.JAPANESE_BRACKET):
    fam = nt.WeightFamily(kind, s)
    return nt.MeasureParams(s=s, m_ambient=m_ambient, family=fam,
                            cutoff_r=cutoff)


class TestSeededRng:
    def test_reproducible(self):
        a = nt.SeededRng(123, 5).normals(16)
        b = nt.SeededRng(123, 5).normals(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = nt.SeededRng(123, 0).normals(16)
        b = nt.SeededRng(123, 1).normals(16)
        assert not np.allclose(a, b)

    def test_normal_moments(self):
        z = nt.SeededRng(7, 0).normals(200000)
        assert abs(np.mean(z)) <= 4 / np.sqrt(z.size)
        assert abs(np.std(z) - 1.0) <= 4 / np.sqrt(z.size)

    def test_batch_split_invariance(self):
        m = measure()
        rng = nt.SeededRng(99)
        whole = sample_batch(rng, 10, m)
        parts = np.vstack([sample_batch(rng, 4, m),
                           sample_batch(rng.substream(4), 6, m)])
        assert np.array_equal(whole, parts)

    def test_split_across_row_blocks(self):
        # the splits fall inside the row blocks of the whole draw
        m = measure(m_ambient=3)
        rng = nt.SeededRng(31, 7)
        whole = sample_batch(rng, 1025, m)
        parts = np.vstack([sample_batch(rng.substream(lo), hi - lo, m)
                           for lo, hi in ((0, 300), (300, 1000), (1000, 1025))])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**63, 2**64 - 1])
    def test_raw_words_equal_numpy_philox(self, seed):
        # stream ids 2^64 - 2 .. 2^64 + 1 wrap to 2^64 - 2, 2^64 - 1, 0, 1
        for stream in (0, 2**63 - 1, 2**64 - 2):
            for n in (1, 3, 4, 66, 67):
                got = philox_raw(seed, stream, 4, n)
                for i in range(4):
                    key = np.array([seed, (stream + i) % 2**64],
                                   dtype=np.uint64)
                    assert np.array_equal(got[i],
                                          Philox(key=key).random_raw(n))

    @pytest.mark.parametrize("pair", [(2**63 + 5, 2**63 + 6), (-5, -6)])
    def test_seeds_past_int64_do_not_collide(self, pair):
        a, b = (nt.SeededRng(seed).normals(8) for seed in pair)
        assert not np.array_equal(a, b)

    def test_thread_count_invariance(self, monkeypatch):
        # four chunks, reduced at one and at four workers
        m = measure(m_ambient=4)
        n = 3 * SAMPLE_CHUNK + 5
        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "1")
        a = moment_growth_mc(m, 1.0, 4, n, nt.SeededRng(5))
        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "4")
        assert moment_growth_mc(m, 1.0, 4, n, nt.SeededRng(5)) == a

    def test_chunks_join_in_sample_order(self, monkeypatch):
        # three chunks, the last of five samples
        m = measure(m_ambient=4)
        n = 2 * SAMPLE_CHUNK + 5

        def mode_sq(coeffs, m_ambient):
            return np.abs(coeffs[..., m_ambient + 1]) ** 2

        def estimates():
            return (moment_growth_mc(m, 1.0, 4, n, nt.SeededRng(8)),
                    lp_norm_mc(mode_sq, 3.0, m, n, nt.SeededRng(8)))

        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "1")
        one = estimates()
        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "2")
        assert estimates() == one
        block = sample_batch(nt.SeededRng(8), n, m)
        mult = bracket_multiplier(wavenumbers(4), 1.0)
        norms = np.sqrt(np.sum(mult * np.abs(block) ** 2, axis=-1))
        for k, est, _ in one[0]:
            assert est == float(np.mean(norms**k) ** (1.0 / k))
        base = mean_report(np.abs(mode_sq(block, 4)) ** 3.0)
        est = base.estimate ** (1.0 / 3.0)
        assert one[1] == nt.McReport(
            est, base.stderr * est / (3.0 * base.estimate), n)


# the ends of the uniforms and of the Cephes branches: exp(-2), where the
# middle branch begins, its neighbours and those of 1 - exp(-2), exp(-32),
# where the far tail begins, and 1e-16, 1e-300 and the least subnormal
NDTRI_EDGES = np.array([
    2.0**-54, 1.0 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 0.5 - 2.0**-53,
    math.exp(-2), np.nextafter(math.exp(-2), 1.0),
    np.nextafter(math.exp(-2), 0.0), 1.0 - math.exp(-2),
    np.nextafter(1.0 - math.exp(-2), 1.0),
    np.nextafter(1.0 - math.exp(-2), 0.0), math.exp(-32),
    np.nextafter(math.exp(-32), 1.0), np.nextafter(math.exp(-32), 0.0),
    1e-16, 1e-300, 5e-324])


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


class TestInverseCdf:
    def test_bit_identical_to_scipy_on_philox_uniforms(self):
        special = pytest.importorskip("scipy.special")
        for seed in range(4):   # 4 x 8192 x 66 = 2,162,688 uniforms
            raw = philox_raw(1000 + seed, 7 * seed, SAMPLE_CHUNK, 66)
            u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
            assert same_bits(ndtri(u), special.ndtri(u)), seed

    def test_bit_identical_to_scipy_on_edge_values(self):
        special = pytest.importorskip("scipy.special")
        assert same_bits(ndtri(NDTRI_EDGES), special.ndtri(NDTRI_EDGES))
        mirrored = 1.0 - NDTRI_EDGES[NDTRI_EDGES >= 2.0**-53]
        assert same_bits(ndtri(mirrored), special.ndtri(mirrored))

    def test_extreme_words_give_finite_normals(self):
        # the word of 53 one bits would round its uniform to 1 (ndtri +inf);
        # it is held at 1 - 2^-53, and every other word keeps its uniform
        top = np.uint64(2**64 - 1)
        z = normals_from_raw(np.array([0, top], dtype=np.uint64))
        assert np.all(np.isfinite(z))
        assert same_bits(z, ndtri(np.array([2.0**-54, 1.0 - 2.0**-53])))
        raw = np.array([top - np.uint64(2**11), 2**63, 12345], dtype=np.uint64)
        assert same_bits(normals_from_raw(raw),
                         ndtri((raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54))


class TestSampleState:
    def test_mode_mean_and_variance(self):
        m = measure(s=2.0, m_ambient=4)
        block = sample_batch(nt.SeededRng(11), 100000, m)
        n = block.shape[0]
        mean1 = np.mean(block[:, 1 + 4])
        assert abs(mean1) <= 4 * np.sqrt(0.25 / n)
        var1 = np.mean(np.abs(block[:, 1 + 4]) ** 2)
        se = np.std(np.abs(block[:, 1 + 4]) ** 2) / np.sqrt(n)
        assert abs(var1 - 2.0**-2.0) <= 4 * se

    def test_covariance_every_mode(self):
        m = measure(s=2.0, m_ambient=6)
        block = sample_batch(nt.SeededRng(12), 100000, m)
        ks = np.arange(-6, 7)
        target = (1.0 + ks**2.0) ** -2.0
        mods = np.abs(block) ** 2
        z = (np.mean(mods, axis=0) - target) / (np.std(mods, axis=0)
                                                / np.sqrt(block.shape[0]))
        assert np.max(np.abs(z)) <= 4.0

    def test_modes_decorrelated(self):
        m = measure(m_ambient=4)
        block = sample_batch(nt.SeededRng(13), 50000, m)
        a, b = block[:, 1 + 4], block[:, 2 + 4]
        corr = np.mean(a * np.conj(b)) / np.sqrt(
            np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
        assert abs(corr) <= 4 / np.sqrt(block.shape[0])

    def test_rotation_invariance(self):
        # e^{-i k^2 t} g_k has the same law as g_k: compare a battery of
        # moments between the two ensembles
        m = measure(m_ambient=5)
        block = sample_batch(nt.SeededRng(14), 50000, m)
        ks = np.arange(-5, 6).astype(float)
        rotated = np.exp(-1j * ks**2 * 0.37) * block
        n = block.shape[0]
        for f in (lambda z: np.abs(z) ** 2, lambda z: np.abs(z) ** 4,
                  lambda z: z.real * z.imag):
            a, b = f(block), f(rotated)
            diff = np.mean(a, axis=0) - np.mean(b, axis=0)
            se = np.sqrt((np.var(a, axis=0) + np.var(b, axis=0)) / n)
            assert np.max(np.abs(diff) / np.maximum(se, 1e-30)) <= 4.0


class TestCutoff:
    def test_zero_state_inside(self):
        m = measure(cutoff=1.0)
        u = nt.FourierState.zero(8)
        assert cutoff_indicator_batch(u.coeffs[None, :], m)[0] == 1

    def test_huge_state_outside(self):
        m = measure(cutoff=1.0)
        u = nt.FourierState.from_modes(8, {0: 50.0})
        assert cutoff_indicator_batch(u.coeffs[None, :], m)[0] == 0

    def test_boundary_tie_included(self):
        m0 = measure(m_ambient=2)
        u = nt.FourierState.from_modes(2, {1: 0.7})
        r_exact = conserved_c_batch(u.coeffs[None, :], 2)[0]
        on_tie = nt.MeasureParams(s=m0.s, m_ambient=2, family=m0.family,
                                  cutoff_r=r_exact)
        assert cutoff_indicator_batch(u.coeffs[None, :], on_tie)[0] == 1

    def test_boundary_tie_included_random_states(self, rng):
        m0 = measure(m_ambient=3)
        for _ in range(200):
            coeffs = random_coeffs(rng, 3)[None, :]
            on_tie = nt.MeasureParams(s=m0.s, m_ambient=3, family=m0.family,
                                      cutoff_r=conserved_c_batch(coeffs, 3)[0])
            assert cutoff_indicator_batch(coeffs, on_tie)[0] == 1

    def test_missing_cutoff(self):
        with pytest.raises(nt.MissingCutoff):
            cutoff_indicator_batch(nt.FourierState.zero(2).coeffs[None, :],
                                   measure(m_ambient=2))


class TestMoments:
    def test_m2_matches_closed_form(self):
        m = measure(s=2.0, m_ambient=16)
        pts = nt.moment_growth_mc(m, 0.0, 2, 40000, nt.SeededRng(314))
        ks = np.arange(-16, 17)
        exact = np.sqrt(np.sum((1.0 + ks**2.0) ** -2.0))
        mm, est, ratio = pts[0]
        assert mm == 2
        assert est == pytest.approx(exact, rel=0.02)
        assert ratio == est / np.sqrt(2.0)

    def test_ratio_bounded(self):
        from nls_transport import pinned
        m = measure(s=2.0, m_ambient=16)
        pts = nt.moment_growth_mc(m, 0.0, 16, 20000, nt.SeededRng(314))
        assert max(r for _, _, r in pts) <= pinned.MOMENT_RATIO_BOUND

    def test_degenerate_single_point(self):
        m = measure(m_ambient=4)
        pts = nt.moment_growth_mc(m, 0.5, 2, 2000, nt.SeededRng(2))
        assert len(pts) == 1

    def test_sigma_validated(self):
        m = measure(s=2.0)
        with pytest.raises(ValueError):
            nt.moment_growth_mc(m, 1.6, 4, 1000, nt.SeededRng(1))


class TestLpNorm:
    def test_constant_observable(self):
        m = measure(m_ambient=4)
        rep = lp_norm_mc(lambda c, _: np.ones(c.shape[0]), 2.0, m, 2000,
                         nt.SeededRng(5))
        assert rep.estimate == 1.0 and rep.stderr == 0.0

    def test_indicator_frequency_consistency(self):
        m = measure(m_ambient=4)
        thresh = 0.25

        def f(coeffs, m_amb):
            return (np.abs(coeffs[:, m_amb]) ** 2 > thresh).astype(float)

        rep = lp_norm_mc(f, 2.0, m, 20000, nt.SeededRng(6))
        block = sample_batch(nt.SeededRng(6), 20000, m)
        freq = np.mean(f(block, 4))
        assert rep.estimate == pytest.approx(freq ** 0.5, rel=1e-12)

    def test_exp_abs_r_stable_in_cut(self):
        """L^2 norms of the cutoff exponential weight stay finite and of
        one scale as the correction's truncation varies."""
        m = measure(s=2.0, m_ambient=32, cutoff=8.0)
        vals = []
        for n_cut in (4, 8, 16):
            energy = EnergyParams(n_cut=n_cut, family=m.family)

            def f(coeffs, m_amb, energy=energy):
                from nls_transport.energies import r_correction_batch
                ind = cutoff_indicator_batch(coeffs, m)
                r = r_correction_batch(coeffs, m_amb, energy)
                return ind * np.exp(np.abs(np.where(ind > 0, r, 0.0)))

            rep = lp_norm_mc(f, 2.0, m, 4000, nt.SeededRng(777))
            assert np.isfinite(rep.estimate)
            vals.append(rep.estimate)
        spread = max(vals) / max(min(vals), 1e-300)
        assert spread <= 2.0
