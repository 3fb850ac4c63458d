"""Sampling the Gaussian ensemble with covariance 1/m(k), cutoffs, weighted
measure weights, and Monte Carlo estimators.

Reproducibility contract: every variate is a pure function of
(master_seed, stream_id, draw index).  Streams use counter-based Philox
keyed by (master_seed, stream_id); one stream per sample, so any batch
split or execution order reproduces identical ensembles.  Gaussians are
produced by the inverse-CDF transform applied to 53-bit uniforms built
directly from the raw counter output (fixed choice, never change it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .energies import EnergyParams, r_correction_batch
from .errors import MissingCutoff, NlsTransportError, WeightOverflow
from .parallel import run_chunked
from .spectral import (FourierState, WeightFamily, bracket_multiplier,
                       conserved_c_batch, wavenumbers)

LOG_WEIGHT_LIMIT = 700.0
SAMPLE_CHUNK = 8192  # fixed chunk so reductions are split-independent


@dataclass(frozen=True)
class SeededRng:
    """Counter-based stream: (master_seed, stream_id) keys a Philox block."""

    master_seed: int
    stream_id: int = 0

    def substream(self, offset: int) -> "SeededRng":
        return SeededRng(self.master_seed, self.stream_id + offset)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via inverse CDF on (0,1) uniforms from the
        raw 64-bit counter stream."""
        raw = Philox(key=[self.master_seed % 2**64,
                          self.stream_id % 2**64]).random_raw(n)
        uniforms = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
        return ndtri(uniforms)


@dataclass(frozen=True)
class MeasureParams:
    s: float
    m_ambient: int
    family: WeightFamily
    cutoff_r: float | None = None

    def __post_init__(self):
        if not self.s > 1.5:
            raise ValueError("measure requires s > 3/2")
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
    u_k = (a + i b) sqrt(1/2) / sqrt(m(k)), a,b standard normals in k order."""
    dim = 2 * p.m_ambient + 1
    scale = np.sqrt(0.5 / p.family.multiplier(wavenumbers(p.m_ambient)))
    out = np.empty((n, dim), dtype=np.complex128)
    for i in range(n):
        z = rng.substream(i).normals(2 * dim)
        out[i] = (z[:dim] + 1j * z[dim:]) * scale
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
