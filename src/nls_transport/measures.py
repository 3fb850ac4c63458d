"""Sampling the Gaussian ensemble with covariance 1/m(k), cutoffs, weighted
measure weights, and Monte Carlo estimators.

Reproducibility contract: every variate is a pure function of
(master_seed, stream_id, draw index).  A stream is the counter-based
Philox4x64-10 generator (Salmon et al., SC 2011) keyed by the exact
uint64 pair (master_seed mod 2^64, stream_id mod 2^64); its draws are the
four words of the blocks at counters 1, 2, ..., as numpy's
Philox(key=...).random_raw gives them.  One stream per sample, so any
batch split or execution order reproduces identical ensembles.
Gaussians are produced by the inverse-CDF transform applied to 53-bit
uniforms built directly from the raw counter output (fixed choice, never
change it).  The rounds are computed in numpy for a whole block of
streams at once, with the 64 x 64 -> 128-bit products built from 32-bit
halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .energies import EnergyParams, r_correction_batch
from .errors import MissingCutoff, NlsTransportError, WeightOverflow
from .parallel import run_chunked
from .spectral import (FourierState, WeightFamily, bracket_multiplier,
                       conserved_c_batch, wavenumbers)

LOG_WEIGHT_LIMIT = 700.0
SAMPLE_CHUNK = 8192  # fixed chunk so reductions are split-independent
_ROW_BLOCK = 256     # streams drawn together; 1024 added 3 MiB of peak RSS

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit product m * x, for a constant
    m and a uint64 array x, from the 32-bit halves of both."""
    m_lo, m_hi = np.uint64(m & _LOW32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> 32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    carry = (lo_lo >> 32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    high = x_hi * m_hi + (hi_lo >> 32) + (lo_hi >> 32) + (carry >> 32)
    return high, x * np.uint64(m)


def philox_raw(key0: int, key1: int, rows: int, n: int) -> np.ndarray:
    """(rows, n) raw words of Philox4x64-10; row i is keyed by the exact
    uint64 pair (key0, key1 + i) mod 2^64 and holds its first n draws, the
    blocks at counters 1, 2, ... in word order."""
    n_blocks = -(-n // 4)
    k0 = key0 % 2**64
    k1 = np.arange(rows, dtype=np.uint64) + np.uint64(key1 % 2**64)
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64),
                         (rows, n_blocks))
    c1 = c2 = c3 = np.zeros((rows, n_blocks), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        bump0 = np.uint64((k0 + r * _PHILOX_W[0]) % 2**64)
        bump1 = k1 + np.uint64(r * _PHILOX_W[1] % 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ bump0, lo1, hi0 ^ c3 ^ bump1[:, None], lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(rows, -1)[:, :n]


@dataclass(frozen=True)
class SeededRng:
    """Counter-based stream: (master_seed, stream_id) keys a Philox block."""

    master_seed: int
    stream_id: int = 0

    def substream(self, offset: int) -> "SeededRng":
        return SeededRng(self.master_seed, self.stream_id + offset)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals of this stream; one row of normal_rows."""
        return self.normal_rows(1, n)[0]

    def normal_rows(self, rows: int, n: int) -> np.ndarray:
        """(rows, n) standard normals, row i from substream(i): inverse CDF
        on (0,1) uniforms from the raw 64-bit counter stream."""
        raw = philox_raw(self.master_seed, self.stream_id, rows, n)
        uniforms = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
        return ndtri(uniforms)


@dataclass(frozen=True)
class MeasureParams:
    s: float
    m_ambient: int
    family: WeightFamily
    cutoff_r: float | None = None

    def __post_init__(self):
        if self.cutoff_r is not None and not self.cutoff_r > 0:
            raise ValueError("cutoff_r must be positive when present")
        if self.family.s != self.s:
            raise ValueError("family exponent must equal the measure's s")


@dataclass(frozen=True)
class McReport:
    estimate: float
    stderr: float
    n: int


def mean_report(values: np.ndarray) -> McReport:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    est = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return McReport(est, std / np.sqrt(n), n)


# ---------------------------------------------------------------------------
# sampling

def sample_batch(rng: SeededRng, n: int, p: MeasureParams) -> np.ndarray:
    """(n, 2M+1) coefficients; sample i is drawn from rng.substream(i) as
    u_k = (a + i b) sqrt(1/2) / sqrt(m(k)), a,b standard normals in k order.
    The streams are drawn in blocks of _ROW_BLOCK rows."""
    dim = 2 * p.m_ambient + 1
    scale = np.sqrt(0.5 / p.family.multiplier(wavenumbers(p.m_ambient)))
    out = np.empty((n, dim), dtype=np.complex128)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(n, lo + _ROW_BLOCK)
        z = rng.substream(lo).normal_rows(hi - lo, 2 * dim)
        out[lo:hi] = (z[:, :dim] + 1j * z[:, dim:]) * scale
    return out


def sample_map(f, rng: SeededRng, n: int, p: MeasureParams) -> np.ndarray:
    """f(coeffs) over samples 0..n-1 of rng, drawn in the fixed chunks of
    SAMPLE_CHUNK on the pool; f puts a chunk's samples on the last axis of
    its array, and the chunks are joined along it in sample order."""
    return np.concatenate(run_chunked(
        lambda lo, hi: f(sample_batch(rng.substream(lo), hi - lo, p)),
        n, SAMPLE_CHUNK), axis=-1)


def sample_state(rng: SeededRng, p: MeasureParams) -> FourierState:
    """One draw of the Gaussian ensemble: independent standard complex
    Gaussians per mode, scaled by 1/sqrt(m(k))."""
    return FourierState(p.m_ambient, sample_batch(rng, 1, p)[0])


# ---------------------------------------------------------------------------
# cutoff and weights

def cutoff_indicator_batch(coeffs: np.ndarray, p: MeasureParams) -> np.ndarray:
    if p.cutoff_r is None:
        raise MissingCutoff("MeasureParams.cutoff_r is not set")
    c = conserved_c_batch(coeffs, p.m_ambient)
    return (c <= p.cutoff_r).astype(np.float64)


def cutoff_indicator(u: FourierState, p: MeasureParams) -> int:
    """1 iff the conserved energy C(u) <= R, ties included."""
    return int(cutoff_indicator_batch(u.coeffs[None, :], p)[0])


def log_wgm_weight_batch(coeffs: np.ndarray, p: MeasureParams,
                         energy: EnergyParams):
    """(indicator, log-weight) arrays; weight of the reweighted ensemble is
    indicator * exp(-R)."""
    if energy.family != p.family:
        raise ValueError("energy and measure must share one weight family")
    ind = cutoff_indicator_batch(coeffs, p)
    log_w = -r_correction_batch(coeffs, p.m_ambient, energy)
    live = ind > 0
    if np.any(log_w[live] > LOG_WEIGHT_LIMIT):
        raise WeightOverflow("log weight exceeds safe exponentiation range")
    return ind, log_w


def wgm_weight(u: FourierState, p: MeasureParams,
               energy: EnergyParams) -> float:
    """Unnormalized weight 1_{C(u) <= R} exp(-R_corr(u)) of the weighted
    ensemble against the Gaussian one."""
    ind, log_w = log_wgm_weight_batch(u.coeffs[None, :], p, energy)
    return float(ind[0] * np.exp(log_w[0])) if ind[0] > 0 else 0.0


def partition_estimate(p: MeasureParams, energy: EnergyParams,
                       n_samples: int, rng: SeededRng) -> McReport:
    """Monte Carlo normalizing constant of the weighted ensemble; strictly
    positive and finite by construction of the weight."""
    if n_samples < 1000:
        raise ValueError("partition estimate needs n >= 1e3")

    def weight(coeffs):
        ind, log_w = log_wgm_weight_batch(coeffs, p, energy)
        return ind * np.exp(np.where(ind > 0, log_w, 0.0))

    report = mean_report(sample_map(weight, rng, n_samples, p))
    if not np.isfinite(report.estimate) or report.estimate <= 0.0:
        raise NlsTransportError("partition estimate must be positive finite")
    return report


# ---------------------------------------------------------------------------
# moment and L^p estimators

def moment_growth_mc(p: MeasureParams, sigma: float, m_max: int,
                     n_samples: int, rng: SeededRng):
    """(E ||u||_{H^sigma}^m)^(1/m) for m = 2, 4, ..., m_max, with the ratio
    to sqrt(m); Gaussian moment growth keeps the ratio bounded."""
    if not sigma < p.s - 0.5:
        raise ValueError("sigma must be below s - 1/2")
    if m_max < 2 or m_max % 2:
        raise ValueError("m_max must be even and >= 2")
    mult = bracket_multiplier(wavenumbers(p.m_ambient), sigma)
    norms = sample_map(
        lambda coeffs: np.sqrt(np.sum(mult * np.abs(coeffs) ** 2, axis=-1)),
        rng, n_samples, p)
    out = []
    for m in range(2, m_max + 1, 2):
        est = float(np.mean(norms**m) ** (1.0 / m))
        out.append((m, est, est / np.sqrt(m)))
    return out


def lp_norm_mc(f, p_exp: float, measure: MeasureParams, n: int,
               rng: SeededRng) -> McReport:
    """(E |f(u)|^p)^(1/p) for a batch observable f(coeffs, m_ambient) -> (B,).

    The standard error is for the p-th root, by the delta method on the
    mean of |f|^p.
    """
    if p_exp < 1.0:
        raise ValueError("p_exp must be >= 1")
    base = mean_report(sample_map(
        lambda coeffs: np.abs(f(coeffs, measure.m_ambient)) ** p_exp,
        rng, n, measure))
    est = base.estimate ** (1.0 / p_exp)
    if base.estimate > 0:
        stderr = base.stderr * est / (p_exp * base.estimate)
    else:
        stderr = 0.0
    return McReport(est, stderr, n)
