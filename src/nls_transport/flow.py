"""The truncated flow: exact linear phases on high modes, gauged RK4 on the
low-mode nonlinear block.

The low modes are integrated in the twisted variable w_k = e^{i k^2 t} u_k,
in which the stiff linear phases are removed exactly and the remaining ODE

    i dw_k/dt = sum_{k1-k2+k3-k4+k5=k} e^{-i t Omega} w_{k1} conj(w_{k2}) ...

is handled by classical RK4 with a fixed step and a fractional last step
(a rounding-level remainder joins the last whole step instead).
Each stage untwists to u, applies the dealiased quintic product, and twists
back.  High modes |k| > N are multiplied by e^{-i k^2 t} exactly, realizing
the flow's product structure (nonlinear block times free rotation).  The
Liouville checks differentiate this same map.  Rows are solved
independently: `evolve_batch` returns a row that overflows as NaN and the
others with their bits, and `evolve` and `trajectory_batch` raise
NonFiniteState instead.

On the few rows of a `convergence` solve a stage costs numpy call overhead,
not arithmetic, so no stage allocates.  Each solve (one `_flow_at` call,
all the intervals of a trajectory) makes its quintic products once, one
per row-block size and so at most two; each holds the zero-padded grid
array, whose gap is never written, the value grid and the modulus scratch
of one block.  Blocks have at most _ROW_BLOCK rows, which are solved
together and keep the buffers near the cache; rows are independent, so a
row's bits do not depend on its block.  `_rk4` allocates its stage arrays
once per call, and takes the phases e^{-i k^2 tau} and -i e^{i k^2 tau} of
the stage times of _PHASE_BLOCK steps from one np.exp call (the phase
table), with tau accumulated as the per-stage loop accumulated it.  The
bits are those of that loop, which allocated every stage and computed two
twists in each (tests/oracles.py keeps it as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, NonFiniteState
from .spectral import (FourierState, default_grid, grid_coefficients,
                       grid_values, modulus_sq, quintic_band,
                       sobolev_norm_sq_sigma, truncated_energy_batch,
                       wavenumbers)

GROWTH_C_SIGMA = 1.0         # pinned constant in the a-priori growth bound


@dataclass(frozen=True)
class FlowParams:
    n_cut: int
    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if len(self.states) != t.size or t.size < 1:
            raise ValueError("times and states must match and be non-empty")
        if t.size > 1:
            d = np.diff(t)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("times must be strictly monotone")
        m = self.states[0].m_ambient
        if any(s.m_ambient != m for s in self.states):
            raise ValueError("states must share one ambient truncation")
        object.__setattr__(self, "times", t)

    @property
    def m_ambient(self) -> int:
        return self.states[0].m_ambient


_FOLD = 1e-9   # a remainder within _FOLD * h of a whole number of steps
_PHASE_BLOCK = 256   # steps whose stage phases one np.exp call computes
_ROW_BLOCK = 512     # rows solved together, so that the buffers stay small


def _steps(t: float, h: float):
    """Steps of length h over t and a last, fractional one for the rest.
    A rest within _FOLD * h of zero joins the last whole step instead: it
    is the rounding of the interval's ends, a few ulp of t (below 1e-14
    for |t| <= 4), as between the linspace nodes of trajectory_batch, and
    a step of its own would nearly double the steps (968 instead of 500
    over 500 intervals of t = 0.5 at h = 1e-3).  The joined step is within
    a factor 1 + 1e-9 of h, which moves its RK4 error by a relative 5e-9."""
    n_whole = int(abs(t) / h)
    sgn = 1.0 if t > 0 else -1.0
    rem = t - sgn * h * n_whole
    out = [sgn * h] * n_whole
    if n_whole and abs(rem) <= _FOLD * h:
        out[-1] += rem
    elif rem != 0.0:
        out.append(rem)
    return out


def _rk4(y: np.ndarray, t_start: float, t: float, h: float,
         ik2: np.ndarray, product) -> np.ndarray:
    """Classical RK4 for the twisted field dw/dtau = -i e^{i k^2 tau}
    product(e^{-i k^2 tau}, w), ik2 = -i k^2, from t_start over t in the
    steps of _steps(t, h); the one RK4 loop of the package.  y is advanced
    in place and returned; the five stage arrays are allocated once per
    call.  The stage times of each block of _PHASE_BLOCK steps are
    accumulated as tau, tau + dt/2, tau + dt, then tau += dt, and their
    twists e^{-i k^2 tau} and untwists -i e^{i k^2 tau} come from one
    np.exp call; stages 2 and 3 share the middle one.  Each stage writes
    untwist * product into its stage array, and the stages combine with
    out= in the operation order of y + (dt/2) s1, y + (dt/2) s2,
    y + dt s3 and y + (dt/6)(s1 + 2 s2 + 2 s3 + s4), so no stage
    allocates."""
    steps = _steps(t, h)
    s1, s2, s3, s4, arg = np.empty((5,) + y.shape, dtype=np.complex128)
    tau = t_start
    for lo in range(0, len(steps), _PHASE_BLOCK):
        block = steps[lo:lo + _PHASE_BLOCK]
        taus = np.empty((len(block), 3))
        for i, dt in enumerate(block):
            taus[i] = tau, tau + dt / 2, tau + dt
            tau += dt
        twist = np.exp(ik2 * taus[..., None])
        untwist = -1j * np.conj(twist)
        for (tw0, tw1, tw2), (un0, un1, un2), dt in zip(twist, untwist, block):
            np.multiply(un0, product(tw0, y), out=s1)
            np.multiply(dt / 2, s1, out=arg)
            np.add(y, arg, out=arg)
            np.multiply(un1, product(tw1, arg), out=s2)
            np.multiply(dt / 2, s2, out=arg)
            np.add(y, arg, out=arg)
            np.multiply(un1, product(tw1, arg), out=s3)
            np.multiply(dt, s3, out=arg)
            np.add(y, arg, out=arg)
            np.multiply(un2, product(tw2, arg), out=s4)
            np.multiply(2, s2, out=s2)
            np.add(s1, s2, out=s1)
            np.multiply(2, s3, out=s3)
            np.add(s1, s3, out=s1)
            np.add(s1, s4, out=s1)
            np.multiply(dt / 6, s1, out=s1)
            np.add(y, s1, out=y)
    return y


def _quintic_product(n_cut: int, n_points: int, rows: int):
    """product(phase, w) = Pi_N(|u|^4 u) for u = phase * w on `rows` rows
    of band coefficients k = -N..N, with the bits of spectral.quintic_band.
    u is formed as one contiguous (rows, 2N+1) product and its halves
    copied into the band slots of a zero-padded grid array, whose gap is
    never written; the inverse transform goes into a value grid, which the
    modulus scratch multiplies by |u|^4 and the forward transform
    overwrites; the result is gathered into the band array, which the next
    call overwrites.  The buffers and their views are made here, once, so
    a call allocates and slices nothing."""
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


def _flow_at(coeffs: np.ndarray, m_ambient: int, times, p: FlowParams):
    """Yield the flow of a (batch, 2M+1) block at each of the monotone
    times in turn.  The rows are solved in blocks of at most _ROW_BLOCK,
    one after the other.  The call makes one quintic product per distinct
    block size, at most two, and they serve every interval; each `_rk4`
    call allocates its stage arrays.  A row that went non-finite is NaN in
    every coefficient, with no warning; the other rows keep their bits."""
    ks = wavenumbers(m_ambient)
    low = np.abs(ks) <= p.n_cut
    k2 = ks.astype(np.float64) ** 2
    ik2 = -1j * k2[low]
    wb = np.ascontiguousarray(coeffs[..., low])
    rows = wb.reshape(-1, wb.shape[-1])   # a view, which _rk4 advances
    blocks = [rows[lo:lo + _ROW_BLOCK]
              for lo in range(0, rows.shape[0], _ROW_BLOCK)]
    n_points = default_grid(p.n_cut).n_points
    products = {len(b): _quintic_product(p.n_cut, n_points, len(b))
                for b in blocks}
    t_prev = 0.0
    for t in times:
        with np.errstate(over="ignore", invalid="ignore"):
            if t != t_prev:
                for b in blocks:
                    _rk4(b, t_prev, t - t_prev, p.step, ik2, products[len(b)])
            out = np.exp(-1j * k2 * t) * coeffs
            out[..., low] = np.exp(-1j * k2[low] * t) * wb
        out[~np.all(np.isfinite(out), axis=-1)] = np.nan
        yield out
        t_prev = t


def require_finite(out: np.ndarray, t: float) -> np.ndarray:
    """out, unless a row of it is NaN: then NonFiniteState."""
    if np.isnan(out.real).any():
        raise NonFiniteState(f"non-finite coefficients at t={t}")
    return out


def evolve_batch(coeffs: np.ndarray, m_ambient: int, t: float,
                 p: FlowParams) -> np.ndarray:
    """Truncated flow applied to a (batch, 2M+1) coefficient block; a row
    that overflows comes back as NaN (see `_flow_at`)."""
    if p.n_cut > m_ambient:
        raise ValueError("flow n_cut exceeds ambient truncation")
    if t == 0.0:
        return coeffs.copy()
    return next(_flow_at(coeffs, m_ambient, [t], p))


def evolve(u0: FourierState, t: float, p: FlowParams) -> FourierState:
    """Flow map at time t applied to u0; evolve(u0, 0) is u0 exactly."""
    return FourierState(u0.m_ambient, require_finite(
        evolve_batch(u0.coeffs[None, :], u0.m_ambient, t, p), t)[0])


def trajectory_batch(coeffs: np.ndarray, m_ambient: int, t_final: float,
                     p: FlowParams, n_snapshots: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced snapshots (including both endpoints) for a batch; returns
    (times, states) with states shaped (batch, n_snapshots, 2M+1)."""
    if n_snapshots < 2:
        raise ValueError("need at least 2 snapshots")
    times = np.linspace(0.0, t_final, n_snapshots)
    out = np.empty(coeffs.shape[:-1] + (n_snapshots, coeffs.shape[-1]),
                   dtype=np.complex128)
    out[..., 0, :] = coeffs
    for i, state in enumerate(_flow_at(coeffs, m_ambient, times[1:], p), 1):
        out[..., i, :] = require_finite(state, times[i])
    return times, out


def evolve_trajectory(u0: FourierState, t_final: float, p: FlowParams,
                      n_snapshots: int) -> Trajectory:
    if t_final == 0.0:
        # degenerate window: a single snapshot keeps times strictly monotone
        return Trajectory(np.zeros(1), (u0,))
    times, block = trajectory_batch(u0.coeffs[None, :], u0.m_ambient,
                                    t_final, p, n_snapshots)
    states = tuple(FourierState(u0.m_ambient, block[0, i])
                   for i in range(block.shape[1]))
    return Trajectory(times, states)


# ---------------------------------------------------------------------------
# Liouville checks on the pure low-mode block

def _require_pure(u: FourierState, p: FlowParams):
    if u.m_ambient != p.n_cut:
        raise ValueError("state must live on the truncated block exactly")


def _tangent_apply(u: np.ndarray, h: np.ndarray, n_points: int) -> np.ndarray:
    """DN(u)[h] = Pi_N(3|u|^4 h + 2|u|^2 u^2 conj(h)), the derivative of the
    quintic product N(u) = Pi_N(|u|^4 u), for band coefficients u (2N+1,)
    and each row of h (n, 2N+1).  It is real- but not complex-linear.
    |u|^2 is quintic_band's modulus_sq, so the derivative is taken of the
    formula the flow evaluates."""
    m = u.shape[-1] // 2
    vals = grid_values(u, m, n_points)
    hv = grid_values(h, m, n_points)
    mod2 = modulus_sq(vals)
    dnl = 3.0 * (mod2 * mod2) * hv + 2.0 * mod2 * vals**2 * np.conj(hv)
    return grid_coefficients(dnl, wavenumbers(m))


def divergence_at(u: FourierState, p: FlowParams) -> float:
    """Trace of the Jacobian of the (FNLS) field -i(k^2 u + N(u)) at u over
    the real coordinates, exactly: the sum over j of Re d_j(e_j) and
    Im d_j(i e_j) for the tangent map d = -i DN(u).  The -i k^2 part has
    zero trace, so a Hamiltonian field gives zero up to rounding."""
    _require_pure(u, p)
    dim = u.coeffs.size
    basis = np.vstack([np.eye(dim), 1j * np.eye(dim)])
    d = -1j * _tangent_apply(u.coeffs, basis,
                             default_grid(p.n_cut).n_points)
    return float(np.sum(np.diagonal(d[:dim]).real)
                 + np.sum(np.diagonal(d[dim:]).imag))


def jacobian_det(u0: FourierState, t: float, p: FlowParams) -> float:
    """Determinant of the flow's Jacobian at u0 over the real coordinates;
    its distance from one measures integrator quality, the exact flow being
    volume preserving.  The twisted state (row 0, stepped as evolve steps
    it) and its tangents along e_j and i e_j share the RK4 steps; the twist
    rotates each mode and leaves the determinant unchanged."""
    _require_pure(u0, p)
    dim, n_points = u0.coeffs.size, default_grid(p.n_cut).n_points
    out = np.empty((2 * dim + 1, dim), dtype=np.complex128)

    def product(phase, w):
        """The quintic product of the state (row 0) and its derivative
        along each tangent (the other rows), into one array."""
        u = phase * w
        out[:1] = quintic_band(u[:1], n_points)
        out[1:] = _tangent_apply(u[0], u[1:], n_points)
        return out

    y0 = np.vstack([u0.coeffs, np.eye(dim), 1j * np.eye(dim)])
    ik2 = -1j * wavenumbers(u0.m_ambient).astype(np.float64) ** 2
    tangents = _rk4(y0, 0.0, t, p.step, ik2, product)[1:]
    if not np.all(np.isfinite(tangents)):
        raise NonFiniteState("variational matrix became non-finite")
    # rows are the images of the real directions: the transposed Jacobian
    return float(np.linalg.det(np.hstack([tangents.real, tangents.imag])))


# ---------------------------------------------------------------------------
# growth monitor

@dataclass(frozen=True)
class GrowthReport:
    c0: float
    max_norm_ratio: float     # max over snapshots of ||u(t)|| / (||u0|| e^{C0 |t|})
    mass_drift: float         # max relative mass drift
    c_drift: float            # max relative drift of the conserved energy


def growth_monitor(traj: Trajectory, sigma: float, n_cut: int,
                   mass_tol: float = 1e-8, c_tol: float = 1e-8) -> GrowthReport:
    """Check the exponential a-priori bound and conservation along a
    trajectory; raises BoundViolated on failure (integrator trouble).

    The monitored energy is the truncated flow's own invariant
    (1/2)||u||^2 + (1/2)||u_x||^2 + (1/6)||Pi_N u||_{L^6}^6, with n_cut the
    N of the flow that made the trajectory.
    """
    m = traj.m_ambient
    coeffs = np.stack([s.coeffs for s in traj.states])
    u0 = traj.states[0]
    h1 = np.sqrt(sobolev_norm_sq_sigma(u0, 1.0))
    c0 = GROWTH_C_SIGMA * (1.0 + h1) ** 12
    norm0 = np.sqrt(sobolev_norm_sq_sigma(u0, sigma))
    ks = wavenumbers(m)
    mults = (1.0 + ks.astype(np.float64) ** 2) ** sigma
    norms = np.sqrt(np.sum(mults * np.abs(coeffs) ** 2, axis=-1))
    # bound checked in log space: c0 can make exp overflow harmlessly
    log_excess = (np.log(np.maximum(norms, 1e-300)) - np.log(max(norm0, 1e-300))
                  - c0 * np.abs(traj.times - traj.times[0]))
    ratio = float(np.exp(np.clip(np.max(log_excess), -700.0, 700.0)))

    mass_v = np.sum(np.abs(coeffs) ** 2, axis=-1)
    c_v = truncated_energy_batch(coeffs, m, n_cut)
    mass_drift = float(np.max(np.abs(mass_v - mass_v[0]))
                       / max(mass_v[0], 1e-300))
    c_drift = float(np.max(np.abs(c_v - c_v[0])) / max(abs(c_v[0]), 1e-300))

    report = GrowthReport(c0=c0, max_norm_ratio=ratio,
                          mass_drift=mass_drift, c_drift=c_drift)
    if ratio > 1.0 + 1e-12:
        raise BoundViolated(f"H^sigma growth bound violated: ratio {ratio}")
    if mass_drift > mass_tol:
        raise BoundViolated(f"mass drift {mass_drift} > {mass_tol}")
    if c_drift > c_tol:
        raise BoundViolated(f"conserved energy drift {c_drift} > {c_tol}")
    return report

