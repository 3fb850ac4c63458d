import numpy as np
import pytest

import nls_transport as nt
from nls_transport.resonance import (ALT_SIGNS, _count_vector, block_values,
                                     psi_bound_ratios, tuple_table)

from oracles import constrained_count_oracle, counting_oracle


class TestEnumeration:
    def test_zero_cut(self):
        cols, om = tuple_table(0)
        assert cols.tolist() == [[0, 0, 0, 0, 0, 0]] and om.tolist() == [0]

    def test_non_resonant_membership(self):
        cols, om = tuple_table(1)
        assert [1, 0, -1, 0, 0, 0] in cols[om != 0].tolist()

    @pytest.mark.parametrize("n_cut", [0, 1, 2, 3])
    def test_counts_match_six_loop_oracle(self, n_cut):
        _, om = tuple_table(n_cut)
        assert om.size == constrained_count_oracle(n_cut, "all")
        assert np.sum(om != 0) == constrained_count_oracle(n_cut,
                                                           "non_resonant")
        assert np.sum(om == 0) == constrained_count_oracle(n_cut, "resonant")

    def test_omega_column(self):
        # constrained rows, lexicographic in (k1..k5), each with its Omega
        cols, om = tuple_table(2)
        assert np.all(cols @ ALT_SIGNS == 0)
        assert np.array_equal(np.lexsort(cols[:, 4::-1].T),
                              np.arange(len(cols)))
        assert np.array_equal(om, (ALT_SIGNS * cols**2).sum(axis=1))


class TestCounting:
    def test_two_factor_example(self):
        res = nt.counting_check([2, 2], [1, -1], 0)
        assert res == (4, 2, 2.0)

    def test_out_of_range(self):
        res = nt.counting_check([2, 2], [1, 1], 50)
        assert res.count == 0

    def test_triple_oracle(self):
        for kappa in (-3, 0, 1, 4):
            res = nt.counting_check([2, 2, 2], [1, -1, 1], kappa)
            assert res.count == counting_oracle([2, 2, 2], [1, -1, 1],
                                                kappa, block_values)
            assert res.bound == 4

    def test_count_vector_cached_read_only(self):
        hist, offset = _count_vector((2, 4), (1, -1))
        assert not hist.flags.writeable
        assert _count_vector((2, 4), (1, -1))[0] is hist
        assert nt.counting_check([2, 4], [1, -1], 0).count == hist[-offset]

    def test_block_convention(self):
        assert set(block_values(1)) == {-1, 0, 1}
        assert set(block_values(4)) == {k for k in range(-7, 8) if 4 <= abs(k)}

    def test_sweep_hits_pinned_maximum(self):
        from itertools import product

        from nls_transport import pinned
        best = 0.0
        for m in (2, 3):
            for blocks in product([1, 2, 4], repeat=m):
                for signs in product([1, -1], repeat=m):
                    for kappa in range(-16, 17):
                        best = max(best, nt.counting_check(
                            list(blocks), list(signs), kappa).ratio)
        assert best <= pinned.COUNTING_SWEEP_MAX_RATIO


class TestPsiRatio:
    def test_s_one_is_bounded_by_one(self):
        # psi_2 = Omega and |k_(1)|^0 = 1, so the ratio is at most 1
        for n_cut in (2, 4):
            assert nt.psi_bound_ratio(n_cut, 1.0) <= 1.0 + 1e-12

    def test_monotone_in_cut(self):
        r4 = nt.psi_bound_ratio(4, 2.0)
        r8 = nt.psi_bound_ratio(8, 2.0)
        assert r8 >= r4

    def test_pinned_value(self):
        from nls_transport import pinned
        assert nt.psi_bound_ratio(8, 2.0) == pytest.approx(
            pinned.PSI_RATIO[(2.0, 8)], rel=1e-12)

    def test_batched_matches_whole_table(self):
        # every k1, negative ones included, and one exponent at a time
        s_list = (1.6, 2.0, 2.5)
        cols, om = tuple_table(4)
        mags = np.sort(np.abs(cols), axis=1)[:, ::-1].astype(np.float64)
        want = []
        for s in s_list:
            psi_v = np.sum(ALT_SIGNS * np.abs(cols).astype(np.float64)
                           ** (2 * s), axis=1)
            denom = (np.where(mags[:, 0] > 0, mags[:, 0] ** (2 * s - 2), 0.0)
                     * (np.abs(om) + mags[:, 2] ** 2))
            good = denom != 0
            assert np.all(psi_v[~good] == 0)
            want.append(float(np.max(np.abs(psi_v[good]) / denom[good])))
        assert psi_bound_ratios(4, s_list) == want
        assert [nt.psi_bound_ratio(4, s) for s in s_list] == want


class TestStrichartzSum:
    def test_single_tuple(self):
        mods = [np.array([0.0, 1.0, 0.0])] * 6  # indicator of k = 0, n_cut=1
        brute, quad = nt.strichartz_sum(1, 0, mods)
        assert brute == pytest.approx(1.0, abs=0)
        assert quad == pytest.approx(1.0, abs=1e-12)

    def test_far_kappa_zero(self):
        rng = np.random.default_rng(0)
        mods = [np.abs(rng.standard_normal(5)) for _ in range(6)]
        brute, quad = nt.strichartz_sum(2, 6 * 4, mods)
        assert brute == 0.0
        assert abs(quad) <= 1e-10

    def test_random_agreement(self):
        rng = np.random.default_rng(3)
        mods = [np.abs(rng.standard_normal(7)) for _ in range(6)]
        brute, quad = nt.strichartz_sum(3, 2, mods)
        assert abs(brute - quad) <= 1e-10 * max(1.0, brute)

    @pytest.mark.parametrize("n_cut", [2, 3, 4])
    def test_agreement_sweep(self, n_cut):
        rng = np.random.default_rng(n_cut)
        mods = [np.abs(rng.standard_normal(2 * n_cut + 1)) for _ in range(6)]
        for kappa in (0, 1, -2):
            brute, quad = nt.strichartz_sum(n_cut, kappa, mods)
            assert abs(brute - quad) <= 1e-10 * max(1.0, brute)
