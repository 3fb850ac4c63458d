"""The constrained 6-tuple table with its resonance function, and
executable forms of the deterministic counting lemmas.

A 6-tuple (k1..k6) is *constrained* when its alternating sum
k1 - k2 + k3 - k4 + k5 - k6 vanishes; the resonance function
Omega = sum_j (-1)^(j-1) k_j^2 splits the constrained set into the
resonant (Omega = 0) and non-resonant parts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

ALT_SIGNS = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)


@lru_cache(maxsize=8)
def tuple_table(n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized constrained-tuple table: (T, 6) wavenumbers and (T,) Omega.

    Every constrained tuple with all |k_j| <= n_cut, lexicographic in
    (k1..k5); k6 is solved from the constraint and range-checked.  Cached
    for small n_cut; larger sweeps should chunk via tuple_table_k1.
    """
    return tuple_table_k1(n_cut, -n_cut, n_cut)


def tuple_table_k1(n_cut: int, k1_lo: int, k1_hi: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.arange(-n_cut, n_cut + 1, dtype=np.int64)
    k1, k2, k3, k4, k5 = np.meshgrid(
        np.arange(k1_lo, k1_hi + 1, dtype=np.int64), r, r, r, r, indexing="ij"
    )
    k6 = k1 - k2 + k3 - k4 + k5
    ok = np.abs(k6) <= n_cut
    cols = np.stack([k[ok] for k in (k1, k2, k3, k4, k5, k6)], axis=1)
    om = (cols[:, 0] ** 2 - cols[:, 1] ** 2 + cols[:, 2] ** 2
          - cols[:, 3] ** 2 + cols[:, 4] ** 2 - cols[:, 5] ** 2)
    return cols, om


# ---------------------------------------------------------------------------
# counting lemma

def block_values(n_block: int) -> np.ndarray:
    """Wavenumbers of a dyadic block: |k| <= 1 for block 1, else N <= |k| < 2N."""
    if n_block == 1:
        return np.arange(-1, 2, dtype=np.int64)
    if n_block < 1 or (n_block & (n_block - 1)) != 0:
        raise ValueError(f"{n_block} is not a dyadic block size")
    mags = np.arange(n_block, 2 * n_block, dtype=np.int64)
    return np.concatenate([-mags[::-1], mags])


class CountingResult(NamedTuple):
    count: int
    bound: int
    ratio: float


@lru_cache(maxsize=64)
def _count_vector(blocks: tuple, signs: tuple) -> tuple[np.ndarray, int]:
    """(hist, offset): hist[kappa - offset] is the number of solutions of
    sum_j eps_j k_j = kappa, one exact integer convolution of the block
    indicator vectors.  Read-only, since the cache shares it."""
    hist = None
    offset = 0
    for n_block, eps in zip(blocks, signs):
        vals = eps * block_values(n_block)
        lo = int(vals.min())
        vec = np.zeros(int(vals.max()) - lo + 1, dtype=np.int64)
        vec[vals - lo] = 1
        if hist is None:
            hist, offset = vec, lo
        else:
            hist = np.convolve(hist, vec)
            offset += lo
    hist.flags.writeable = False
    return hist, offset


def counting_checks(blocks, signs, kappas) -> list[CountingResult]:
    """Exact number of solutions of sum_j eps_j k_j = kappa with k_j in its
    dyadic block, against the product bound N_(2)...N_(m), for each kappa.

    The counts for every kappa are read from one count vector per
    (blocks, signs), which enumerates the same solution set as nested
    loops.
    """
    if not 2 <= len(blocks) <= 6 or len(signs) != len(blocks):
        raise ValueError("need 2..6 blocks with matching signs")
    hist, offset = _count_vector(tuple(int(b) for b in blocks),
                                 tuple(int(e) for e in signs))
    ordered = sorted(int(b) for b in blocks)[::-1]
    bound = 1
    for b in ordered[1:]:
        bound *= b
    out = []
    for kappa in kappas:
        idx = int(kappa) - offset
        count = int(hist[idx]) if 0 <= idx < len(hist) else 0
        out.append(CountingResult(count, bound, count / bound))
    return out


def counting_check(blocks, signs, kappa: int) -> CountingResult:
    """counting_checks at the one level kappa."""
    return counting_checks(blocks, signs, [kappa])[0]


# ---------------------------------------------------------------------------
# psi estimate

def psi_bound_ratios(n_cut: int, s_list) -> list[float]:
    """For each s of s_list, the max over constrained tuples (|k_j| <=
    n_cut, not all zero) of |psi_2s| / (|k_(1)|^(2s-2) (|Omega| + |k_(3)|^2)).
    Here psi_2s = sum_j (-1)^(j-1) |k_j|^(2s), the symmetrized multiplier.

    Tuples with vanishing denominator are checked to have psi = 0 and
    skipped; the returned maxima are the empirical lemma constants.  Each
    tuple table slice, its sorted magnitudes and Omega are built once for
    all s.  Negating a tuple keeps it constrained and leaves every |k_j|
    and Omega, so the slices k1 >= 0 already hold every value.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    best = [0.0] * len(s_list)
    mag = np.arange(n_cut + 1, dtype=np.float64)
    for k1_lo in range(0, n_cut + 1):
        cols, om = tuple_table_k1(n_cut, k1_lo, k1_lo)
        abs_cols = np.abs(cols)
        mags = np.sort(abs_cols, axis=1)   # |k_(1)| is column 5, |k_(3)| 3
        gap = np.abs(om) + mag[mags[:, 3]] ** 2
        for i, s in enumerate(s_list):
            # powers of the n_cut + 1 magnitudes, gathered per tuple
            psi_v = np.sum(ALT_SIGNS * (mag ** (2 * s))[abs_cols], axis=1)
            denom = np.where(mags[:, 5] > 0, (mag ** (2 * s - 2))[mags[:, 5]],
                             0.0) * gap
            bad = denom == 0
            if np.any(np.abs(psi_v[bad]) > 0):
                raise AssertionError("tuple with zero denominator but psi != 0")
            good = ~bad
            if np.any(good):
                best[i] = max(best[i],
                              float(np.max(np.abs(psi_v[good]) / denom[good])))
    return best


def psi_bound_ratio(n_cut: int, s: float) -> float:
    """psi_bound_ratios at the one exponent s."""
    return psi_bound_ratios(n_cut, [s])[0]


# ---------------------------------------------------------------------------
# sum-as-integral identity

def strichartz_sum(n_cut: int, kappa: int, mods) -> tuple[float, float]:
    """The constrained moduli sum at resonance level kappa, two ways.

    (a) brute force over the tuple table;
    (b) the space-time quadrature (1/2pi)^2 iint F1 conj(F2) ... conj(F6)
        with F1 = e^{it dxx} e^{it kappa} F01, Fj = e^{it dxx} F0j, and
        F0j built from the moduli |f_j|.  Both grids are large enough that
        the trigonometric integrand is integrated exactly.
    """
    mods = [np.abs(np.asarray(f, dtype=np.float64)) for f in mods]
    if len(mods) != 6 or any(f.shape != (2 * n_cut + 1,) for f in mods):
        raise ValueError("need six arrays on wavenumbers -n_cut..n_cut")

    cols, om = tuple_table(n_cut)
    sel = om == kappa
    brute = 0.0
    if np.any(sel):
        idx = cols[sel] + n_cut
        prod = np.ones(idx.shape[0], dtype=np.float64)
        for j in range(6):
            prod *= mods[j][idx[:, j]]
        brute = float(np.sum(prod))

    # time frequencies are Omega - kappa with |Omega| <= 3 n^2
    t_points = max(12 * n_cut * n_cut + 2, 3 * n_cut * n_cut + abs(kappa) + 1)
    n_space = 6 * n_cut + 2

    ks = np.arange(-n_cut, n_cut + 1)
    ts = 2.0 * np.pi * np.arange(t_points) / t_points
    # phases[t, k] = e^{-i k^2 t}; F_j(t, x) = ifft of (|f_j|_k e^{-i k^2 t})
    phases = np.exp(-1j * np.outer(ts, ks.astype(np.float64) ** 2))
    vals = []
    for j, f in enumerate(mods):
        spec = np.zeros((t_points, n_space), dtype=np.complex128)
        coeff = phases * f
        if j == 0:
            coeff = coeff * np.exp(1j * kappa * ts)[:, None]
        spec[:, ks % n_space] = coeff
        vals.append(np.fft.ifft(spec, axis=1) * n_space)
    integrand = (vals[0] * np.conj(vals[1]) * vals[2] * np.conj(vals[3])
                 * vals[4] * np.conj(vals[5]))
    quad = float(np.mean(integrand).real)
    return brute, quad
