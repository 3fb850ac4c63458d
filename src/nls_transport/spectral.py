"""Torus functions as finite Fourier series, norms, invariants, and the
dealiased quintic nonlinearity.

Conventions: the torus is [0, 2pi) with Lebesgue measure dx, functions are
u(x) = sum_k u_k e^{ikx} with k = -M..M, and the Fourier pairing is
u_k = (1/2pi) int u e^{-ikx} dx.  All physical-space products are evaluated
on grids large enough that no aliased mode can reach the retained band, so
spectral results agree with exact convolutions to roundoff.  This module
derives both grids, and no caller chooses one:

  quintic rule  Pi_N(|u|^4 u) of a band |k| <= N needs G >= 6N + 2: the
                product has bandwidth 5N, and an alias k -> k - G lands in
                |k| <= N only if G <= 6N.  default_grid(N), the power of
                two >= max(16, 8N), is quintic_product's grid for the flow,
                the Liouville checks and Q.
  sextic rule   int |u|^6 of a band |k| <= M, the mean of a band-6M
                product, is exact on G > 6M points; sextic_integral_batch
                uses G = 6M + 2, for C(u), E_N and the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridTooSmall

TWO_PI = 2.0 * np.pi


def wavenumbers(m_ambient: int) -> np.ndarray:
    return np.arange(-m_ambient, m_ambient + 1)


@dataclass(frozen=True)
class FourierState:
    """Complex Fourier coefficients of a torus function, indexed k = -M..M.

    Immutable after construction; the coefficient array is copied and
    marked read-only so states can be shared freely.
    """

    m_ambient: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.m_ambient < 0:
            raise ValueError("m_ambient must be >= 0")
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.shape != (2 * self.m_ambient + 1,):
            raise ValueError(
                f"need {2 * self.m_ambient + 1} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def wavenumbers(self) -> np.ndarray:
        return wavenumbers(self.m_ambient)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.m_ambient:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.m_ambient])

    @classmethod
    def from_modes(cls, m_ambient: int, modes: dict[int, complex]) -> "FourierState":
        c = np.zeros(2 * m_ambient + 1, dtype=np.complex128)
        for k, v in modes.items():
            if abs(k) > m_ambient:
                raise ValueError(f"mode {k} outside ambient band {m_ambient}")
            c[k + m_ambient] = v
        return cls(m_ambient, c)

    @classmethod
    def zero(cls, m_ambient: int) -> "FourierState":
        return cls(m_ambient, np.zeros(2 * m_ambient + 1, dtype=np.complex128))


class WeightKind(Enum):
    JAPANESE_BRACKET = "japanese_bracket"   # m(k) = (1+k^2)^s
    EQUIVALENT_NORM = "equivalent_norm"     # m(k) = 1 + |k|^(2s)


@dataclass(frozen=True)
class WeightFamily:
    """Fourier multiplier behind both the Sobolev form and the Gaussian
    covariance: Japanese bracket <k>^(2s) or the equivalent 1 + |k|^(2s)."""

    kind: WeightKind
    s: float

    def __post_init__(self):
        if not self.s > 1.5:
            raise ValueError("weight family requires s > 3/2")

    def multiplier(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.float64)
        if self.kind is WeightKind.JAPANESE_BRACKET:
            return (1.0 + ks * ks) ** self.s
        return 1.0 + np.abs(ks) ** (2.0 * self.s)


def bracket_multiplier(ks, sigma: float) -> np.ndarray:
    """Generic <k>^(2 sigma) multiplier for auxiliary sigma-norms."""
    ks = np.asarray(ks, dtype=np.float64)
    return (1.0 + ks * ks) ** sigma


def default_grid(n_cut: int) -> int:
    """The quintic rule's point count for a band |k| <= N."""
    g = 16
    while g < 8 * n_cut:
        g *= 2
    return g


# ---------------------------------------------------------------------------
# batched kernels: coefficients as (batch, 2M+1) arrays

def grid_values(coeffs: np.ndarray, m_ambient: int, n_points: int) -> np.ndarray:
    """Evaluate u(x_j) on the equispaced grid x_j = 2pi j / G, batched.
    The grid array is transformed and scaled in place, so that one
    (batch, G) array is alive at a time."""
    ks = wavenumbers(m_ambient)
    if n_points < 2 * m_ambient + 1:
        raise GridTooSmall(f"grid {n_points} cannot hold band {m_ambient}")
    spec = np.zeros(coeffs.shape[:-1] + (n_points,), dtype=np.complex128)
    spec[..., ks % n_points] = coeffs
    np.fft.ifft(spec, axis=-1, out=spec)
    spec *= n_points
    return spec


def modulus_sq(vals: np.ndarray) -> np.ndarray:
    """|v|^2 per cell as re^2 + im^2: no hypot, and squared again for |v|^4
    without a pow."""
    return vals.real ** 2 + vals.imag ** 2


def quintic_product(n_cut: int, n_points: int, rows: int):
    """product(phase, w) = Pi_N(|u|^4 u) for u = phase * w on `rows` rows
    of band coefficients k = -N..N, exact when n_points >= 6N + 2.  u is
    copied into the band slots of a zero-padded grid array, whose gap is
    never written; the inverse transform (unscaled, norm="forward") goes
    into a value grid, which is multiplied by |u|^4 = (re^2 + im^2)^2 and
    transformed forward (by 1/G) in place; the result is gathered into the
    band array, which the next call overwrites.  The buffers and their
    views are made here, once, so a call allocates and slices nothing."""
    band = np.empty((rows, 2 * n_cut + 1), dtype=np.complex128)
    padded = np.zeros((rows, n_points), dtype=np.complex128)
    vals = np.empty_like(padded)
    mod, sq = np.empty((2, rows, n_points))
    b_hi, b_lo = band[:, n_cut:], band[:, :n_cut]
    p_hi, p_lo = padded[:, :n_cut + 1], padded[:, n_points - n_cut:]
    v_hi, v_lo = vals[:, :n_cut + 1], vals[:, n_points - n_cut:]
    re, im = vals.real, vals.imag

    def product(phase, w):
        np.multiply(phase, w, out=band)
        np.copyto(p_hi, b_hi)
        np.copyto(p_lo, b_lo)
        np.fft.ifft(padded, axis=-1, norm="forward", out=vals)
        np.square(re, out=mod)
        np.square(im, out=sq)
        np.add(mod, sq, out=mod)
        np.multiply(mod, mod, out=mod)
        np.multiply(vals, mod, out=vals)
        np.fft.fft(vals, axis=-1, norm="forward", out=vals)
        np.copyto(b_hi, v_hi)
        np.copyto(b_lo, v_lo)
        return band

    return product


def quintic_batch(coeffs: np.ndarray, m_ambient: int, n_cut: int,
                  n_points: int) -> np.ndarray:
    """Pi_N(|Pi_N u|^4 Pi_N u) for a (..., 2M+1) coefficient block, from
    one quintic_product at phase 1 on its band rows; the grid needs to
    dealias the quintic band, not to hold the full ambient spectrum."""
    if n_points < 6 * n_cut + 2:
        raise GridTooSmall(f"grid {n_points} < {6 * n_cut + 2} for quintic")
    keep = slice(max(m_ambient - n_cut, 0), m_ambient + n_cut + 1)
    band = coeffs[..., keep]
    rows = band.reshape(-1, band.shape[-1])
    product = quintic_product(band.shape[-1] // 2, n_points, rows.shape[0])
    out = np.zeros_like(coeffs)
    out[..., keep] = product(1.0, rows).reshape(band.shape)
    return out


def conserved_c_batch(coeffs: np.ndarray, m_ambient: int) -> np.ndarray:
    """Per row C(u) = mass/2 + H(u), with H = int |u_x|^2/2 + |u|^6/6."""
    ks = wavenumbers(m_ambient)
    mass_v = TWO_PI * np.sum(np.abs(coeffs) ** 2, axis=-1)
    grad_v = TWO_PI * np.sum(ks**2 * np.abs(coeffs) ** 2, axis=-1)
    l6 = sextic_integral_batch(coeffs, m_ambient)
    return 0.5 * mass_v + 0.5 * grad_v + l6 / 6.0


def sextic_integral_batch(coeffs: np.ndarray, m_ambient: int) -> np.ndarray:
    """Exact int |u|^6 dx per row, on the 6M + 2 points of the sextic rule."""
    vals = grid_values(coeffs, m_ambient, 6 * m_ambient + 2)
    return TWO_PI * np.mean(np.abs(vals) ** 6, axis=-1)


def truncated_energy_batch(coeffs: np.ndarray, m_ambient: int,
                           n_cut: int) -> np.ndarray:
    """E_N(u) = C(Pi_N u) + (1/2)||(1 - Pi_N) u||_{H^1}^2, the invariant of
    the truncated flow: C with |Pi_N u|^6 in place of |u|^6.  It is
    C(u) bit for bit at n_cut = m_ambient."""
    ks = wavenumbers(m_ambient)
    high = np.abs(ks) > n_cut
    quad_high = np.pi * np.sum((1.0 + ks[high] ** 2)
                               * np.abs(coeffs[..., high]) ** 2, axis=-1)
    return conserved_c_batch(np.where(high, 0.0, coeffs), m_ambient) + quad_high


# ---------------------------------------------------------------------------
# single-state norms and the quintic term

def sobolev_norm_sq_sigma(u: FourierState, sigma: float) -> float:
    """sum_k <k>^(2 sigma) |u_k|^2, the generic sigma-norm."""
    return float(np.sum(bracket_multiplier(u.wavenumbers(), sigma)
                        * np.abs(u.coeffs) ** 2))


def mass(u: FourierState) -> float:
    """L^2 norm squared, 2pi sum |u_k|^2."""
    return float(TWO_PI * np.sum(np.abs(u.coeffs) ** 2))


def quintic_nonlinearity(u: FourierState, n_cut: int) -> FourierState:
    """Pi_N(|Pi_N u|^4 Pi_N u) on the quintic grid; exact convolution."""
    return FourierState(u.m_ambient, quintic_batch(
        u.coeffs, u.m_ambient, n_cut, default_grid(n_cut)))


# ---------------------------------------------------------------------------
# snapshot schema

def state_to_dict(u: FourierState) -> dict:
    return {
        "m_ambient": u.m_ambient,
        "coeffs": [[float(c.real), float(c.imag)] for c in u.coeffs],
    }
