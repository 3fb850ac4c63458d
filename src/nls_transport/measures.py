"""Sampling the Gaussian ensemble with covariance 1/m(k), the cutoff
indicator, and Monte Carlo estimators.

Reproducibility contract: every variate is a pure function of
(master_seed, stream_id, draw index).  A stream is the counter-based
Philox4x64-10 generator (Salmon et al., SC 2011) keyed by the exact
uint64 pair (master_seed mod 2^64, stream_id mod 2^64); its draws are the
four words of the blocks at counters 1, 2, ..., as numpy's
Philox(key=...).random_raw gives them.  One stream per sample, so any
batch split or execution order reproduces identical ensembles.
Gaussians are produced by the inverse-CDF transform applied to 53-bit
uniforms built directly from the raw counter output (fixed choice, never
change it); the inverse CDF is a numpy port of Cephes `ndtri` that gives
its bits.  The rounds are computed in numpy for a whole block of
streams at once, with the 64 x 64 -> 128-bit products built from 32-bit
halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingCutoff
from .parallel import run_chunked
from .spectral import (WeightFamily, bracket_multiplier, conserved_c_batch,
                       wavenumbers)

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


# ---------------------------------------------------------------------------
# inverse normal CDF: Cephes ndtri (S. L. Moshier), with its branches,
# constants and Horner order, so that each value keeps the bits of the C
# function (scipy.special.ndtri).  Numpy's float arithmetic and sqrt round
# as C's do; its log does not always match the C library's, so the two
# logarithms of the tail branch are math.log, the C library's log.

_EXPM2 = 0.13533528323661269189     # exp(-2)
_S2PI = 2.50662827463100050242      # sqrt(2 pi)
# |y - 1/2| <= 1/2 - exp(-2): x/sqrt(2 pi) = y + y^3 P0(y^2)/Q0(y^2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, z = 1/sqrt(-2 log y): P1/Q1 for 2 <= 1/z < 8, P2/Q2 for 1/z >= 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner, as Cephes polevl."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], as Cephes p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, memoryview(x)), np.float64, x.size)


def ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u in the open interval (0, 1),
    bit for bit the value of Cephes ndtri."""
    u = np.asarray(u, dtype=np.float64)
    upper = u > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - u, u)
    # the middle branch on every y, as (ym + ym (y2 P0 / Q0)) sqrt(2 pi) in
    # place (+ and * commute exactly); y2 <= 1/4, where Q0 has no zero, and
    # the tail values are replaced below
    ym = y - 0.5
    y2 = ym * ym
    out = _polevl(y2, _P0)
    out *= y2
    out /= _p1evl(y2, _Q0)
    out *= ym
    out += ym
    out *= _S2PI
    tail = np.flatnonzero(y <= _EXPM2)
    x = np.sqrt(-2.0 * _libm_log(y.ravel()[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = x >= 8.0           # y < exp(-32), once in some 4e13 uniforms
    if np.any(far):
        x1[far] = z[far] * _polevl(z[far], _P2) / _p1evl(z[far], _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper.ravel()[tail])
    out.ravel()[tail] = x0
    return out


def normals_from_raw(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit words: the inverse CDF of the
    uniform (top 53 bits) 2^-53 + 2^-54, which rounds to 1 for the word of
    53 one bits and is then held at 1 - 2^-53, inside (0, 1)."""
    uniforms = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(np.minimum(uniforms, 1.0 - 2.0**-53, out=uniforms))


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
        return normals_from_raw(
            philox_raw(self.master_seed, self.stream_id, rows, n))


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


def sample_map(f, rng: SeededRng, n: int, p: MeasureParams):
    """f(coeffs) over samples 0..n-1 of rng, drawn in the fixed chunks of
    SAMPLE_CHUNK on the pool; f puts a chunk's samples on the last axis of
    its array, or of each array of a tuple, and the chunks are joined along
    it in sample order."""
    parts = run_chunked(
        lambda lo, hi: f(sample_batch(rng.substream(lo), hi - lo, p)),
        n, SAMPLE_CHUNK)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(arrays, axis=-1)
                     for arrays in zip(*parts))
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# cutoff

def cutoff_indicator_batch(coeffs: np.ndarray, p: MeasureParams) -> np.ndarray:
    """1 per row iff the conserved energy C(u) <= R, ties included."""
    if p.cutoff_r is None:
        raise MissingCutoff("MeasureParams.cutoff_r is not set")
    c = conserved_c_batch(coeffs, p.m_ambient)
    return (c <= p.cutoff_r).astype(np.float64)


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
