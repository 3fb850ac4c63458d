import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nls_transport as nt
from nls_transport.energies import (EnergyParams, _fast_len,
                                    low_norm_sq_batch, q_components_batch,
                                    q_derivative_batch, r_correction_batch)

from conftest import random_coeffs
from oracles import enumerated_sums, q_derivative_oracle, q_oracle, r_oracle


def params(n_cut, fam):
    return EnergyParams(n_cut=n_cut, family=fam)


class TestRCorrection:
    def test_single_mode_vanishes(self, fam_eq):
        u = nt.FourierState.from_modes(3, {2: 0.7 - 0.4j})
        assert nt.r_correction(u, params(3, fam_eq)) == 0.0

    def test_low_pair_support_vanishes(self, fam_eq):
        # on {0,1} the constraint forces every tuple resonant
        u = nt.FourierState.from_modes(2, {0: 0.3 + 1j, 1: 0.7})
        assert nt.r_correction(u, params(2, fam_eq)) == 0.0

    def test_pinned_three_mode_value(self, fam_eq):
        # oracle: exhaustive 6-loop scan of {-1,0,1}^6 summing psi_4/Omega;
        # every non-resonant tuple contributes 1, and there are 48 of them
        u = nt.FourierState.from_modes(1, {-1: 1.0, 0: 1.0, 1: 1.0})
        assert nt.r_correction(u, params(1, fam_eq)) == pytest.approx(8.0, rel=1e-14)

    def test_pinned_complex_value(self, fam_eq):
        u = nt.FourierState.from_modes(
            1, {-1: 0.4 - 0.3j, 0: 0.8 + 0.1j, 1: -0.2 + 0.6j})
        assert nt.r_correction(u, params(1, fam_eq)) == pytest.approx(
            0.36074999999999996, rel=1e-13)

    def test_truncation_error(self, fam_eq):
        u = nt.FourierState.zero(2)
        with pytest.raises(nt.TruncationExceedsAmbient):
            nt.r_correction(u, params(3, fam_eq))

    @pytest.mark.parametrize("n_cut,m_amb", [(0, 2), (1, 2), (2, 3), (3, 3)])
    def test_matches_loop_oracle(self, n_cut, m_amb, fam_jb, rng):
        for _ in range(4):
            u = nt.FourierState(m_amb, random_coeffs(rng, m_amb))
            expect, _ = r_oracle(u.coeffs, m_amb, n_cut, fam_jb)
            got = nt.r_correction(u, params(n_cut, fam_jb))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-13)

    def test_paths_agree_at_larger_cut(self, fam_jb, rng):
        u = nt.FourierState(8, random_coeffs(rng, 8))
        a, _, _, _ = enumerated_sums(u.coeffs, 8, 8, fam_jb)
        b = nt.r_correction(u, params(8, fam_jb))
        assert b == pytest.approx(a, rel=1e-11)


class TestModifiedEnergy:
    def test_zero(self, fam_eq):
        assert nt.e_modified(nt.FourierState.zero(2), params(2, fam_eq)) == 0.0

    def test_single_mode(self, fam_eq):
        c = 0.6 + 0.8j
        u = nt.FourierState.from_modes(3, {2: c})
        expect = 0.5 * (1.0 + 2.0**4) * abs(c) ** 2
        assert nt.e_modified(u, params(3, fam_eq)) == pytest.approx(expect, rel=1e-14)

    def test_decomposition(self, fam_jb, rng):
        # E is defined as the sum of the two parts; recovering R is exact
        # up to one rounding of the final addition
        u = nt.FourierState(3, random_coeffs(rng, 3))
        p = params(2, fam_jb)
        norm_part = 0.5 * low_norm_sq_batch(u.coeffs[None, :], 3, p)[0]
        assert nt.e_modified(u, p) - norm_part == pytest.approx(
            nt.r_correction(u, p), rel=1e-12, abs=1e-14)


def q_row(u, p, grid):
    """(q0, q1, q2) of one state, as the row of q_components_batch."""
    return tuple(complex(q[0]) for q in
                 q_components_batch(u.coeffs[None, :], u.m_ambient, p, grid))


class TestQComponents:
    def test_single_mode_zero(self, fam_eq):
        u = nt.FourierState.from_modes(3, {1: 1.2 - 0.1j})
        q = q_row(u, params(3, fam_eq), nt.default_grid(3))
        assert q == (0, 0, 0)

    def test_low_pair_support_q_derivative_zero(self, fam_eq):
        # on {0,1} the resonant sum is empty and the two non-resonant sums
        # are complex conjugates (the quintic slot reaches outside the
        # support, so they do not vanish individually), leaving Q = 0
        u = nt.FourierState.from_modes(2, {0: 0.5, 1: 0.9j})
        q0, q1, q2 = q_row(u, params(2, fam_eq), nt.default_grid(2))
        assert q0 == 0.0
        assert q2 == pytest.approx(np.conj(q1), rel=1e-13)
        assert nt.q_derivative(u, params(2, fam_eq), nt.default_grid(2)) == \
            pytest.approx(0.0, abs=1e-13)

    def test_pinned_three_mode_value(self, fam_eq):
        # oracle: direct sums over {-1,0,1}^9 free indices
        u = nt.FourierState.from_modes(1, {-1: 1.0, 0: 1.0, 1: 1.0})
        q0, q1, q2 = q_row(u, params(1, fam_eq), nt.default_grid(1))
        assert q0 == 0.0
        assert q1 == pytest.approx(2280.0, rel=1e-12)
        assert q2 == pytest.approx(2280.0, rel=1e-12)

    def test_pinned_complex_value(self, fam_eq):
        u = nt.FourierState.from_modes(
            1, {-1: 0.4 - 0.3j, 0: 0.8 + 0.1j, 1: -0.2 + 0.6j})
        q0, q1, q2 = q_row(u, params(1, fam_eq), nt.default_grid(1))
        assert q0 == 0.0
        assert q1 == pytest.approx(19.559083862500003 + 1.450605j, rel=1e-12)
        assert q2 == pytest.approx(19.559083862500003 - 1.450605j, rel=1e-12)

    @pytest.mark.parametrize("n_cut,m_amb", [(0, 1), (1, 2), (2, 2), (3, 4)])
    def test_matches_direct_sum_oracle(self, n_cut, m_amb, fam_jb, rng):
        u = nt.FourierState(m_amb, random_coeffs(rng, m_amb))
        e0, e1, e2 = q_oracle(u.coeffs, m_amb, n_cut, fam_jb)
        g0, g1, g2 = q_row(u, params(n_cut, fam_jb), nt.default_grid(n_cut))
        scale = max(1.0, abs(e1))
        assert abs(g0 - e0) <= 1e-12 * max(1.0, abs(e0))
        assert abs(g1 - e1) <= 1e-12 * scale
        assert abs(g2 - e2) <= 1e-12 * scale
        qd = nt.q_derivative(u, params(n_cut, fam_jb), nt.default_grid(n_cut))
        assert qd == pytest.approx(
            q_derivative_oracle(u.coeffs, m_amb, n_cut, fam_jb),
            rel=1e-11, abs=1e-12)

    def test_matches_enumerated_reference_at_larger_cut(self, fam_jb, rng):
        u = nt.FourierState(8, random_coeffs(rng, 8))
        _, e0, e1, e2 = enumerated_sums(u.coeffs, 8, 8, fam_jb)
        got = q_row(u, params(8, fam_jb), nt.default_grid(8))
        for g, e in zip(got, (e0, e1, e2)):
            assert abs(g - e) <= 1e-11 * abs(e)

    def test_grid_too_small(self, fam_jb):
        u = nt.FourierState.zero(4)
        with pytest.raises(nt.GridTooSmall):
            q_row(u, params(4, fam_jb), 16)


class TestGridLength:
    def test_fast_len_equals_scipy_next_fast_len(self):
        fft = pytest.importorskip("scipy.fft")
        assert [_fast_len(n) for n in range(1, 5000)] == [
            fft.next_fast_len(n) for n in range(1, 5000)]


class TestWorkSpace:
    def test_q_within_stated_memory_bound(self):
        """q_derivative_batch, in a fresh interpreter, raises the peak RSS by
        no more than the energies docstring states: on 8 rows at N = 32, and
        on a (1000 samples, 201 nodes, 2M+1) trajectory block at N = 4,
        M = 16, whose size must not enter the work space.  It runs on eight
        workers, more than ever compute tiles, as the worker count must not
        enter the work space either.  The tiles run in forked workers, so
        the rise is the caller's own plus, for each worker used, the
        workers' peak RSS above the caller's RSS at the call."""
        from nls_transport import energies
        bound = float(re.search(r"at most (\d+) MiB", energies.__doc__)[1])
        script = textwrap.dedent("""
            import os
            import resource
            import sys
            import numpy as np
            import nls_transport as nt
            from nls_transport.energies import (_TILES_IN_FLIGHT, EnergyParams,
                                                q_derivative_batch)
            from nls_transport.measures import (MeasureParams, SeededRng,
                                                sample_batch)
            m_ambient, n_cut, rows, nodes = map(int, sys.argv[1:])
            fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
            coeffs = sample_batch(SeededRng(2), rows, MeasureParams(
                s=2.0, m_ambient=m_ambient, family=fam))
            if nodes:   # a trajectory-shaped block, built in one allocation
                coeffs = np.repeat(coeffs[:, None, :], nodes, axis=1)
            with open("/proc/self/statm") as fh:   # the RSS now, in KiB
                at_call = (int(fh.read().split()[1])
                           * os.sysconf("SC_PAGE_SIZE") // 1024)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            started = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            q_derivative_batch(coeffs, m_ambient, EnergyParams(n_cut, fam),
                               nt.default_grid(n_cut))
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            # every worker is forked at the call; both blocks have more
            # tiles than the cap, so the call uses _TILES_IN_FLIGHT of them
            workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            assert workers > started, "no tile ran in a worker"
            rise = own + _TILES_IN_FLIGHT * max(0, workers - at_call)
            print(rise / 1024.0)   # ru_maxrss is in KiB
        """)
        src = str(Path(energies.__file__).resolve().parent.parent)
        for args in (("32", "32", "8", "0"), ("16", "4", "1000", "201")):
            out = subprocess.run([sys.executable, "-c", script, *args],
                                 check=True, capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=src,
                                          NLS_TRANSPORT_THREADS="8"))
            assert float(out.stdout) <= bound, args


class TestInvariances:
    @given(st.integers(0, 200), st.floats(0, 2 * np.pi, allow_nan=False),
           st.floats(0, 2 * np.pi, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_gauge_invariance(self, seed, theta, alpha):
        rng = np.random.default_rng(seed)
        fam = nt.WeightFamily(nt.WeightKind.JAPANESE_BRACKET, 2.0)
        u = nt.FourierState(3, random_coeffs(rng, 3))
        ks = u.wavenumbers()
        rotated = nt.FourierState(3, np.exp(1j * theta) * u.coeffs)
        translated = nt.FourierState(3, np.exp(1j * ks * alpha) * u.coeffs)
        p = params(3, fam)
        grid = nt.default_grid(3)
        base_r = nt.r_correction(u, p)
        base_q = nt.q_derivative(u, p, grid)
        for v in (rotated, translated):
            assert nt.r_correction(v, p) == pytest.approx(
                base_r, rel=1e-10, abs=1e-12)
            assert nt.q_derivative(v, p, grid) == pytest.approx(
                base_q, rel=1e-9, abs=1e-11)

    def test_rows_independent_of_batch(self, fam_jb, rng):
        # 130 rows at N = 8 fill 22 tiles of six rows each
        coeffs = np.stack([random_coeffs(rng, 8) for _ in range(130)])
        p, grid = params(8, fam_jb), nt.default_grid(8)
        r = r_correction_batch(coeffs, 8, p)
        q = q_derivative_batch(coeffs, 8, p, grid)
        for rows in ([0], [109], [110], [129, 3, 110]):
            assert np.array_equal(r_correction_batch(coeffs[rows], 8, p), r[rows])
            assert np.array_equal(q_derivative_batch(coeffs[rows], 8, p, grid),
                                  q[rows])

    @pytest.mark.parametrize("n_cut,n_rows", [(4, 60), (8, 13), (16, 2),
                                              (32, 2)])
    def test_rows_independent_of_threads_and_tiles(self, n_cut, n_rows,
                                                   fam_jb, rng, monkeypatch):
        # 60 rows at N = 4 and 13 at N = 8 fill several tiles of whole rows;
        # at N = 16 and 32 a tile is a slice of one row's nodes.  Tiles of
        # 2^20 cells and of 4096 cells (which splits the rows at
        # N = 8) must give the same bits as the production tile.
        from nls_transport import energies
        coeffs = np.stack([random_coeffs(rng, n_cut)
                           for _ in range(n_rows)])
        p, grid = params(n_cut, fam_jb), nt.default_grid(n_cut)

        def both():
            return (r_correction_batch(coeffs, n_cut, p),
                    q_derivative_batch(coeffs, n_cut, p, grid))

        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "1")
        r, q = both()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # threads interleave as often as they can
        try:
            for threads in ("2", "3"):
                monkeypatch.setenv("NLS_TRANSPORT_THREADS", threads)
                for tile in (energies._TILE, 1 << 20, 1 << 12):
                    with monkeypatch.context() as patch:
                        patch.setattr(energies, "_TILE", tile)
                        r_t, q_t = both()
                    assert np.array_equal(r_t, r), (threads, tile)
                    assert np.array_equal(q_t, q), (threads, tile)
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("n_cut", [4, 8, 16, 32])
    def test_reused_buffers_carry_nothing_over(self, n_cut, fam_jb, rng,
                                               monkeypatch):
        # on one thread each tile reuses the buffers of the tile before it;
        # a row must keep its bits alone and last behind rows ten times as
        # large: at N = 4 and 8 in a partial last tile of rows, at N = 16
        # and 32 over node slices whose last one is shorter
        from nls_transport import energies
        phases, _, n_points = energies._space_time_rule(n_cut)
        n_nodes = phases.shape[0]
        tile_r, tile_j = energies._tile_shape(n_nodes, n_points)
        if n_cut <= 8:
            assert tile_j == n_nodes and tile_r > 2
            n_big = tile_r + 1   # a full tile, then one big row and the row
        else:
            assert tile_r == 1 and n_nodes % tile_j != 0
            n_big = 2
        row = random_coeffs(rng, n_cut)
        coeffs = np.stack([10.0 * random_coeffs(rng, n_cut)
                           for _ in range(n_big)] + [row])
        p, grid = params(n_cut, fam_jb), nt.default_grid(n_cut)
        monkeypatch.setenv("NLS_TRANSPORT_THREADS", "1")
        assert np.array_equal(r_correction_batch(coeffs, n_cut, p)[-1:],
                              r_correction_batch(row[None, :], n_cut, p))
        assert np.array_equal(
            q_derivative_batch(coeffs, n_cut, p, grid)[-1:],
            q_derivative_batch(row[None, :], n_cut, p, grid))

    def test_outputs_are_real_floats(self, fam_jb, rng):
        u = nt.FourierState(2, random_coeffs(rng, 2))
        assert isinstance(nt.r_correction(u, params(2, fam_jb)), float)
        assert isinstance(
            nt.q_derivative(u, params(2, fam_jb), nt.default_grid(2)), float)


class TestNormalFormIdentity:
    def test_de_dt_equals_q(self, fam_eq, rng):
        """Five-point central difference of E along the flow vs Q."""
        n_cut = 4
        u = nt.FourierState(n_cut, random_coeffs(rng, n_cut, scale=0.3))
        p = params(n_cut, fam_eq)
        flow = nt.FlowParams(n_cut=n_cut, step=1e-4)
        delta = 1e-4
        for tau in (0.1, 0.35):
            base = nt.evolve(u, tau, flow)
            es = {m: nt.e_modified(nt.evolve(base, m * delta, flow), p)
                  for m in (-2, -1, 1, 2)}
            fd = (es[-2] - 8 * es[-1] + 8 * es[1] - es[2]) / (12 * delta)
            q = nt.q_derivative(base, p, nt.default_grid(n_cut))
            assert fd == pytest.approx(q, rel=2e-7)

    def test_two_point_difference_converges(self, fam_eq, rng):
        # the plain central difference approaches Q at second order
        n_cut = 3
        u = nt.FourierState(n_cut, random_coeffs(rng, n_cut, scale=0.3))
        p = params(n_cut, fam_eq)
        flow = nt.FlowParams(n_cut=n_cut, step=5e-5)
        q = nt.q_derivative(u, p, nt.default_grid(n_cut))
        errs = []
        for delta in (2e-3, 1e-3, 5e-4):
            fd = (nt.e_modified(nt.evolve(u, delta, flow), p)
                  - nt.e_modified(nt.evolve(u, -delta, flow), p)) / (2 * delta)
            errs.append(abs(fd - q))
        assert errs[2] < errs[0]
        assert errs[0] / max(errs[1], 1e-16) == pytest.approx(4.0, rel=0.35)
