"""Normal-form energy quantities on truncated states.

  r_correction  R = (1/6) Re sum_{constraint, Omega != 0} (psi/Omega) *
                    u_{k1} conj(u_{k2}) ... conj(u_{k6})
  e_modified    E = (1/2) sum m(k) |Pi_N u_k|^2 + R
  q_derivative  Q = Im(-(1/6) q0 + (1/2) q1 - (1/2) q2) = dE/dt on the flow

q0 runs over the resonant set with weight psi; q1/q2 over the non-resonant
set with weight psi/Omega, slot 1 resp. 2 holding v = Pi_N(|w|^4 w).

One space-time kernel gives all three (the sum-as-integral lemma of
`resonance.strichartz_sum`).  Let F(t, x) = sum_k u_k e^{i(kx + k^2 t)} =
e^{-it dxx} P_N u, and F_m, V, V_m the same fields of m u, v and m v.  A
mean over x of six fields keeps the constrained tuples with the phase
e^{i Omega t}; splitting psi over the slots gives g(t) = mean_x |F|^4
Im(F_m conj F) = (1/6i) sum psi P e^{i Omega t}.  As Omega is even and
(1/2pi) int_0^{2pi} (pi - t) e^{i Omega t} dt = i/Omega (0 at Omega = 0),
with K = floor(3N^2/2), T = 2K + 1 nodes t_j = j pi / T and the sine kernel
w_j = (1/T) sum_{kappa=1}^K sin(2 kappa t_j) / kappa, exactly

  R  = sum_j w_j g(t_j),        q0 = 6i mean_j g(t_j),
  q1 = -i sum_j w_j h(t_j),     q2 = conj(q1),
  h  = mean_x [(V_m conj F - 3 V conj F_m) |F|^4 + 2 V F_m conj(F)^2 |F|^2].

q2 = conj(q1) as (k1..k6) -> (k2, k1, k4, k3, k6, k5) conjugates the
six-product and keeps psi/Omega.  The x grid has G points, the smallest
integer >= 6N + 1 with no prime factor above 11 (a fast FFT length, the
length scipy.fft.next_fast_len gives), enough for the mean of a band-6N
product.

Tiles: fields are built in (rows, nodes, G) tiles of about _TILE = 2^15
complex cells: whole rows where a row fits (N <= 8), else one row and a
slice of its nodes (N = 16, 32), with v built once per tile of rows.  Each
process that runs tiles allocates its work buffers once per call, _TILE
cells each: complex f, fm, v and two scratch arrays, real |f|^2 and two
scratch arrays.  A tile writes its fields and the integrands of g and h into
views of them with out= and in-place ufuncs, in the operation order of the
formulas above, so the buffers change no bit; `_fields` zeroes the padding
of its buffer again on each use.  With some 25 fresh temporaries per tile
instead, Q spends most of its time in the allocator.  Two one-thread sweeps
of Q at N = 8 and 16 with the buffers (BENCH_qbuffers.json) put 2^15 in the
flat bottom, 2^14 to 2^16, of both; 2^12 pays more Python overhead per tile,
and 2^18 or more takes 1.3 to 1.8 times as long.  2^15 also needs half the
buffers of 2^16.  A tile stores g and h per node, then sums each row over
all its nodes with one np.sum, so each R, q0 and q1 adds the same terms in
the same order whatever the tile.
`parallel.run_chunked_capped` hands the row tiles to at most
_TILES_IN_FLIGHT = 4 worker processes, and each tile returns the sums of
its rows.  A call with no more tiles than that runs them inline: forking a
pool costs 10 to 40 ms, more than a few tiles take (R on the 4 endpoint
rows of `density-check` took 28-40 ms on a pool of two and 3-4 ms
inline, scripts/time_rq_kernel.py).  Tiles depend only on N, so a row's
value depends neither on its batch nor on the worker count.

Memory: a process's buffers take 5 x 16 + 3 x 8 bytes per cell, 3.25 MiB,
and it frees them once its tiles are done.  So the work space grows with
the processes that ran tiles, not with the tiles run.  With at most four
such workers, a call needs at most 64 MiB of work space beyond a few floats
per row, whatever the batch size and the worker count (a test holds
q_derivative_batch to it on eight workers, summing the peaks the workers
reach above the caller's memory).

Rounding: W = sum |u_k| bounds |F|, so W^5 W_m bounds the integrand of g.
A value within _ROUNDING times such a bound is rounding noise of an exact
zero (a single mode, a support with no non-resonant tuple) and returns 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationExceedsAmbient
from .parallel import run_chunked_capped
from .spectral import (FourierState, GridSpec, WeightFamily, quintic_batch,
                       wavenumbers)

_TILE = 1 << 15        # complex cells (rows x time nodes x grid points) per tile
_TILES_IN_FLIGHT = 4   # workers that compute tiles, which bounds the work space
_ROUNDING = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class EnergyParams:
    """Truncation N and weight family for the normal-form quantities.
    The untruncated functionals' finite proxy is N = the state's own
    truncation M."""

    n_cut: int
    family: WeightFamily

    def resolve_cut(self, m_ambient: int) -> int:
        """n_cut, checked against the ambient truncation of the states."""
        if self.n_cut > m_ambient:
            raise TruncationExceedsAmbient(
                f"n_cut={self.n_cut} exceeds ambient truncation {m_ambient}")
        if self.n_cut < 0:
            raise ValueError("n_cut must be >= 0")
        return self.n_cut


def _band(coeffs: np.ndarray, m_ambient: int, n_cut: int) -> np.ndarray:
    """The block -N..N of (..., 2M+1) coefficients as (rows, 2N+1), a view
    unless the rows must be gathered into one array first."""
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    return rows[:, m_ambient - n_cut:m_ambient + n_cut + 1]


def _fast_len(n: int) -> int:
    """The smallest integer >= n >= 1 whose prime factors are 2, 3, 5, 7
    and 11 only."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@lru_cache(maxsize=8)
def _space_time_rule(n_cut: int):
    """(phases, weights, G): e^{i k^2 t_j} as (T, 2N+1), the sine kernel
    w_j and the x grid size."""
    top = 3 * n_cut * n_cut // 2
    n_nodes = 2 * top + 1
    ks = np.arange(-n_cut, n_cut + 1)
    # k^2 t_j = pi k^2 j / T, reduced modulo 2 pi in integers
    turns = (ks[None, :] ** 2 * np.arange(n_nodes)[:, None]) % (2 * n_nodes)
    inverse = np.zeros(n_nodes)
    inverse[1:top + 1] = 1.0 / np.arange(1, top + 1)
    return (np.exp(1j * np.pi / n_nodes * turns), np.fft.ifft(inverse).imag,
            _fast_len(6 * n_cut + 1))


def _fields(band: np.ndarray, phases: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{i(k x_l + k^2 t_j)} for each row of a (rows, 2N+1) band
    and each node of `phases`, written into `out`, (rows, nodes, G).  The
    band k = 0..N goes to the first N + 1 points, k = -N..-1 to the last N,
    and the padding between them is zeroed again, as `out` is reused."""
    n_cut, n_points = phases.shape[-1] // 2, out.shape[-1]
    np.multiply(band[:, None, n_cut:], phases[:, n_cut:],
                out=out[..., :n_cut + 1])
    np.multiply(band[:, None, :n_cut], phases[:, :n_cut],
                out=out[..., n_points - n_cut:])
    out[..., n_cut + 1:n_points - n_cut] = 0.0
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


def _tile_shape(n_nodes: int, n_points: int) -> tuple[int, int]:
    """(rows, nodes) per tile: whole rows while one fits in _TILE cells,
    else one row and a slice of its nodes."""
    tile_j = min(n_nodes, max(1, _TILE // n_points))
    return max(1, _TILE // (tile_j * n_points)), tile_j


def _snap(values: np.ndarray, bound: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) <= _ROUNDING * bound, 0.0, values)


def _kernel(coeffs: np.ndarray, m_ambient: int, p: EnergyParams,
            grid: GridSpec | None = None):
    """(R, q0, q1) per row of a (..., 2M+1) block, flattened; q0 and q1 are
    None unless a grid for the quintic product v is given."""
    n_cut = p.resolve_cut(m_ambient)
    phases, weights, n_points = _space_time_rule(n_cut)
    mult = p.family.multiplier(np.arange(-n_cut, n_cut + 1))

    def wiener(band):   # sum |c_k| and sum m(k) |c_k| per row
        return np.sum(np.abs(band), axis=-1), np.sum(mult * np.abs(band), axis=-1)

    wb = _band(coeffs, m_ambient, n_cut)
    n_nodes = weights.size
    tile_r, tile_j = _tile_shape(n_nodes, n_points)
    cells = tile_r * tile_j * n_points
    dtypes = [np.complex128] * 2 + [np.float64] * 3
    if grid is not None:
        dtypes += [np.complex128] * 3
    buffers = []   # the work buffers of this process, for this call only

    def work_space(shape):
        """This process's buffers as `shape` views: f, fm, |f|^2, two real
        scratch arrays and, for Q, v and two complex scratch arrays."""
        if not buffers:
            buffers.extend(np.empty(cells, dtype) for dtype in dtypes)
        size = shape[0] * shape[1] * shape[2]
        return [b[:size].reshape(shape) for b in buffers]

    def tile(lo, hi):
        """The sums of a tile's rows, as one array for few pickled objects:
        W, W_m and the w-weighted and plain sums of g, and for Q also the W
        and W_m of v and the real and imaginary parts of the w-weighted sum
        of h."""
        band = wb[lo:hi]
        band_m = mult * band
        g = np.empty((hi - lo, n_nodes))
        h = np.empty((hi - lo, n_nodes), dtype=np.complex128)
        if grid is not None:
            vb = quintic_batch(band, n_cut, n_cut, grid.n_points)
            vb_m = mult * vb
        for j in range(0, n_nodes, tile_j):
            nodes, ph = slice(j, j + tile_j), phases[j:j + tile_j]
            f, fm, a, r1, r2, *vbufs = work_space((hi - lo, ph.shape[0],
                                                   n_points))
            _fields(band, ph, f)
            _fields(band_m, ph, fm)
            # g = mean |f|^4 (fm.imag f.real - fm.real f.imag)
            np.square(f.real, out=a)
            np.square(f.imag, out=r1)
            np.add(a, r1, out=a)
            np.multiply(fm.imag, f.real, out=r1)
            np.multiply(fm.real, f.imag, out=r2)
            np.subtract(r1, r2, out=r1)
            np.multiply(a, a, out=r2)
            np.multiply(r2, r1, out=r2)
            g[:, nodes] = np.mean(r2, axis=-1)
            if grid is not None:
                # h = mean a ((vm a + 2 v fm conj f) conj f - 3 v conj(fm) a)
                v, c1, c2 = vbufs
                _fields(vb, ph, v)
                _fields(vb_m, ph, c1)
                np.conjugate(f, out=f)
                np.multiply(c1, a, out=c1)
                np.multiply(2.0, v, out=c2)
                np.multiply(c2, fm, out=c2)
                np.multiply(c2, f, out=c2)
                np.add(c1, c2, out=c1)
                np.multiply(c1, f, out=c1)
                np.conjugate(fm, out=fm)
                np.multiply(3.0, v, out=c2)
                np.multiply(c2, fm, out=c2)
                np.multiply(c2, a, out=c2)
                np.subtract(c1, c2, out=c1)
                np.multiply(a, c1, out=c1)
                h[:, nodes] = np.mean(c1, axis=-1)
        sums = [*wiener(band), np.sum(weights * g, axis=-1),
                np.sum(g, axis=-1)]
        if grid is not None:
            wh = np.sum(weights * h, axis=-1)
            sums += [*wiener(vb), wh.real, wh.imag]
        return np.stack(sums)

    # an empty block has no tiles, and its one empty tile gives the rows
    inline = wb.shape[0] <= _TILES_IN_FLIGHT * tile_r
    table = np.concatenate(run_chunked_capped(
        tile, wb.shape[0], tile_r, 1 if inline else _TILES_IN_FLIGHT)
        or [tile(0, 0)], axis=1)
    buffers.clear()   # the per-row arithmetic below may reuse that memory
    big, big_m, r_sum, g_sum = table[:4]

    spread = np.sum(np.abs(weights))
    r = _snap(r_sum, spread * big ** 5 * big_m)
    if grid is None:
        return r, None, None
    q0 = _snap(6j * g_sum / n_nodes, 6.0 * big ** 5 * big_m)
    big_v, big_vm = table[4:6]
    h_sum = np.ascontiguousarray(table[6:].T).view(np.complex128)[:, 0]
    q1 = _snap(-1j * h_sum,
               spread * big ** 4 * (big_vm * big + 5.0 * big_v * big_m))
    return r, q0, q1


def r_correction_batch(coeffs: np.ndarray, m_ambient: int,
                       p: EnergyParams) -> np.ndarray:
    return _kernel(coeffs, m_ambient, p)[0].reshape(coeffs.shape[:-1])


def r_correction(u: FourierState, p: EnergyParams) -> float:
    """Normal-form energy correction R of the truncated state."""
    return float(r_correction_batch(u.coeffs[None, :], u.m_ambient, p)[0])


def low_norm_sq_batch(coeffs: np.ndarray, m_ambient: int,
                      p: EnergyParams) -> np.ndarray:
    """S(Pi_N u) = sum_{|k| <= N} m(k) |u_k|^2 per row of a (..., 2M+1)
    block.  A basic slice keeps each row contiguous, so every row is summed
    in the same order whatever the batch around it."""
    n_cut = p.resolve_cut(m_ambient)
    low = slice(m_ambient - n_cut, m_ambient + n_cut + 1)
    mult = p.family.multiplier(wavenumbers(m_ambient)[low])
    return np.sum(mult * np.abs(coeffs[..., low]) ** 2, axis=-1)


def e_modified(u: FourierState, p: EnergyParams) -> float:
    """Modified energy: half the weighted norm square of Pi_N u plus R."""
    norm_sq = float(low_norm_sq_batch(u.coeffs[None, :], u.m_ambient, p)[0])
    return 0.5 * norm_sq + r_correction(u, p)


def q_components_batch(coeffs: np.ndarray, m_ambient: int, p: EnergyParams,
                       grid: GridSpec):
    _, q0, q1 = _kernel(coeffs, m_ambient, p, grid)
    lead = coeffs.shape[:-1]
    return q0.reshape(lead), q1.reshape(lead), np.conj(q1).reshape(lead)


def q_derivative_batch(coeffs: np.ndarray, m_ambient: int, p: EnergyParams,
                       grid: GridSpec) -> np.ndarray:
    q0, q1, q2 = q_components_batch(coeffs, m_ambient, p, grid)
    return (-q0 / 6.0 + q1 / 2.0 - q2 / 2.0).imag


def q_derivative(u: FourierState, p: EnergyParams, grid: GridSpec) -> float:
    """dE/dt along the truncated flow at u: Im(-q0/6 + q1/2 - q2/2)."""
    return float(q_derivative_batch(u.coeffs[None, :], u.m_ambient, p, grid)[0])
