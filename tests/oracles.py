"""Independent brute-force reference implementations.

These deliberately follow the defining sums index by index (nested loops,
constraints solved one variable at a time) and share no code with the
package's evaluation paths, so agreement is a genuine cross-check.  The
Duhamel (Picard) reference of the flow shares only `spectral.quintic_batch`
and `spectral.sobolev_norm_sq_sigma` with the package, and raises its own
ContractionRadiusExceeded outside its local window; `check_factorization`
recombines two production flows.  `holder_c_lower_bound` is the cutoff
prefilter's first bound, the reference its sharper successor must not fall
below.  The per-stage RK4 (`flow_per_stage`, `jacobian_det_per_stage`) is
the flow as it was before its work buffers and phase table: each stage
allocates its arrays and computes its own twist; the production flow must
equal it bit for bit.
"""

import itertools

import numpy as np

from nls_transport.errors import NlsTransportError
from nls_transport.flow import _steps, _tangent_apply, evolve
from nls_transport.spectral import (FourierState, default_grid,
                                    modulus_sq, quintic_batch,
                                    sextic_integral_batch,
                                    sobolev_norm_sq_sigma,
                                    truncated_energy_batch, wavenumbers)


def quintic_oracle(coeffs, m_ambient, n_cut):
    """Pi_N(|Pi_N u|^4 Pi_N u) by five nested loops."""
    c = {k: coeffs[k + m_ambient] if abs(k) <= n_cut else 0.0
         for k in range(-n_cut, n_cut + 1)}
    out = np.zeros(2 * m_ambient + 1, dtype=complex)
    rng = range(-n_cut, n_cut + 1)
    for p1, p2, p3, p4, p5 in itertools.product(rng, repeat=5):
        k = p1 - p2 + p3 - p4 + p5
        if abs(k) <= n_cut:
            out[k + m_ambient] += (c[p1] * np.conj(c[p2]) * c[p3]
                                   * np.conj(c[p4]) * c[p5])
    return out


def _mult(k, family):
    return float(family.multiplier(np.array([k]))[0])


def r_oracle(coeffs, m_ambient, n_cut, family):
    """(1/6) Re sum over the non-resonant constrained set of
    (psi/Omega) u_{k1} conj(u_{k2}) ... conj(u_{k6}), six nested loops."""
    rng = range(-n_cut, n_cut + 1)
    c = {k: coeffs[k + m_ambient] for k in rng}
    m = {k: _mult(k, family) for k in rng}
    tot = 0.0 + 0.0j
    for ks in itertools.product(rng, repeat=6):
        if ks[0] - ks[1] + ks[2] - ks[3] + ks[4] - ks[5] != 0:
            continue
        om = (ks[0] ** 2 - ks[1] ** 2 + ks[2] ** 2 - ks[3] ** 2
              + ks[4] ** 2 - ks[5] ** 2)
        if om == 0:
            continue
        psi = m[ks[0]] - m[ks[1]] + m[ks[2]] - m[ks[3]] + m[ks[4]] - m[ks[5]]
        tot += ((psi / om) * c[ks[0]] * np.conj(c[ks[1]]) * c[ks[2]]
                * np.conj(c[ks[3]]) * c[ks[4]] * np.conj(c[ks[5]]))
    return tot.real / 6.0, tot


def q_oracle(coeffs, m_ambient, n_cut, family):
    """(q0, q1, q2) by direct summation over all free indices.

    q0: five free indices (k2..k6), k1 solved from the constraint.
    q1/q2: nine free indices; the inner quintic sums are evaluated as
    written, index quintuple by index quintuple, never through a transform.
    Vectorized over the inner quadruple for speed, but the formula is the
    literal one.
    """
    n = n_cut
    rng = range(-n, n + 1)
    c = {k: (coeffs[k + m_ambient] if abs(k) <= n else 0.0) for k in
         range(-5 * n - 1, 5 * n + 2)}
    m = {k: _mult(k, family) for k in rng}

    r4 = np.arange(-n, n + 1)
    p1g, p2g, p3g, p4g = np.meshgrid(r4, r4, r4, r4, indexing="ij")
    carr = np.zeros(12 * n + 3, dtype=complex)
    for k in rng:
        carr[k + 6 * n + 1] = c[k]

    def quintic_at(k1):
        """sum over p1-p2+p3-p4+p5 = k1 of c_{p1} conj(c_{p2}) ... c_{p5}."""
        p5 = k1 - p1g + p2g - p3g + p4g
        ok = np.abs(p5) <= n
        vals = (carr[p1g + 6 * n + 1] * np.conj(carr[p2g + 6 * n + 1])
                * carr[p3g + 6 * n + 1] * np.conj(carr[p4g + 6 * n + 1])
                * np.where(ok, carr[np.clip(p5, -n, n) + 6 * n + 1], 0.0))
        return complex(np.sum(vals))

    conv = {k1: quintic_at(k1) for k1 in rng}

    q0 = 0.0 + 0.0j
    q1 = 0.0 + 0.0j
    q2 = 0.0 + 0.0j
    for k2, k3, k4, k5, k6 in itertools.product(rng, repeat=5):
        k1 = k2 - k3 + k4 - k5 + k6
        if abs(k1) > n:
            continue
        om = k1**2 - k2**2 + k3**2 - k4**2 + k5**2 - k6**2
        psi = m[k1] - m[k2] + m[k3] - m[k4] + m[k5] - m[k6]
        tail = (np.conj(c[k2]) * c[k3] * np.conj(c[k4]) * c[k5]
                * np.conj(c[k6]))
        if om == 0:
            q0 += psi * c[k1] * tail
        else:
            q1 += (psi / om) * conv[k1] * tail
            q2 += ((psi / om) * c[k1] * np.conj(conv[k2]) * c[k3]
                   * np.conj(c[k4]) * c[k5] * np.conj(c[k6]))
    return q0, q1, q2


def q_derivative_oracle(coeffs, m_ambient, n_cut, family):
    q0, q1, q2 = q_oracle(coeffs, m_ambient, n_cut, family)
    return (-q0 / 6.0 + q1 / 2.0 - q2 / 2.0).imag


_ALT_SIGNS = np.array([1, -1, 1, -1, 1, -1])


def _tuples_at(n_cut, k1):
    """Constrained tuples with leading index k1, as (T, 6), and their Omega."""
    rng = np.arange(-n_cut, n_cut + 1)
    k2, k3, k4, k5 = (g.ravel() for g in
                      np.meshgrid(rng, rng, rng, rng, indexing="ij"))
    k6 = k1 - k2 + k3 - k4 + k5
    ok = np.abs(k6) <= n_cut
    cols = np.stack([np.full(int(ok.sum()), k1), k2[ok], k3[ok], k4[ok],
                     k5[ok], k6[ok]], axis=1)
    return cols, np.sum(_ALT_SIGNS * cols ** 2, axis=1)


def _quintic_by_convolution(band):
    """Pi_N(|w|^4 w) on the band -N..N by exact discrete convolutions."""
    n = band.size // 2
    rev = np.conj(band[::-1])
    full = band
    for factor in (rev, band, rev, band):
        full = np.convolve(full, factor)
    return full[4 * n:6 * n + 1]


def enumerated_sums(coeffs, m_ambient, n_cut, family):
    """(R, q0, q1, q2) by vectorised enumeration of the constrained tuples,
    one leading index k1 at a time.  The reference at truncations where the
    nested-loop oracles are too slow (N = 8); q2 is summed on its own, not
    taken as conj(q1)."""
    n = n_cut
    band = np.asarray(coeffs)[m_ambient - n:m_ambient + n + 1]
    v = _quintic_by_convolution(band)
    mult = family.multiplier(np.arange(-n, n + 1))
    r = q0 = q1 = q2 = 0.0 + 0.0j
    for k1 in range(-n, n + 1):
        cols, om = _tuples_at(n, k1)
        idx = cols + n
        psi = np.sum(_ALT_SIGNS * mult[idx], axis=1)
        tail = (np.conj(band[idx[:, 1]]) * band[idx[:, 2]]
                * np.conj(band[idx[:, 3]]) * band[idx[:, 4]]
                * np.conj(band[idx[:, 5]]))
        res = om == 0
        nz = ~res
        weight = psi[nz] / om[nz]
        q0 += np.sum(psi[res] * band[idx[res, 0]] * tail[res])
        r += np.sum(weight * band[idx[nz, 0]] * tail[nz])
        q1 += np.sum(weight * v[idx[nz, 0]] * tail[nz])
        q2 += np.sum(weight * band[idx[nz, 0]] * np.conj(v[idx[nz, 1]])
                     * band[idx[nz, 2]] * np.conj(band[idx[nz, 3]])
                     * band[idx[nz, 4]] * np.conj(band[idx[nz, 5]]))
    return r.real / 6.0, q0, q1, q2


def counting_oracle(blocks, signs, kappa, block_values):
    """Nested-loop count of solutions of sum eps_j k_j = kappa."""
    count = 0
    for ks in itertools.product(*[block_values(b) for b in blocks]):
        if sum(e * k for e, k in zip(signs, ks)) == kappa:
            count += 1
    return count


def constrained_count_oracle(n_cut, which="all"):
    """Count of constrained tuples by six nested loops with a filter."""
    rng = range(-n_cut, n_cut + 1)
    count = 0
    for ks in itertools.product(rng, repeat=6):
        if ks[0] - ks[1] + ks[2] - ks[3] + ks[4] - ks[5] != 0:
            continue
        om = (ks[0] ** 2 - ks[1] ** 2 + ks[2] ** 2 - ks[3] ** 2
              + ks[4] ** 2 - ks[5] ** 2)
        if which == "non_resonant" and om == 0:
            continue
        if which == "resonant" and om != 0:
            continue
        count += 1
    return count


class ContractionRadiusExceeded(NlsTransportError):
    """Requested time exceeds the Picard iteration's local window."""


# algebra constant in the local-time window 1/(3 C R^4); calibrated so the
# 2/3 contraction holds with margin throughout the admitted window
PICARD_CONTRACTION_C = 0.75


def picard_local_time(u0):
    """Local window of the contraction argument, 1/(3 C R^4) with
    R = 1 + 2 ||u0||_{H^1}."""
    radius = 1.0 + 2.0 * np.sqrt(sobolev_norm_sq_sigma(u0, 1.0))
    return 1.0 / (3.0 * PICARD_CONTRACTION_C * radius**4)


def picard_iterates(u0, t_small, p, n_iter, n_quad=64):
    """Successive Duhamel iterates at time t_small (geometric convergence
    inside the local window); the integral uses composite Simpson on the
    iterate's time grid."""
    if abs(t_small) > picard_local_time(u0):
        raise ContractionRadiusExceeded(
            f"|t|={abs(t_small)} exceeds local window {picard_local_time(u0)}"
        )
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if n_quad % 2 or n_quad < 2:
        raise ValueError("n_quad must be even and >= 2")
    m = u0.m_ambient
    ks = wavenumbers(m)
    k2 = ks.astype(np.float64) ** 2
    taus = np.linspace(0.0, t_small, n_quad + 1)
    free = np.exp(-1j * np.outer(taus, k2))      # e^{i tau dxx} on each node
    iterate = free * u0.coeffs                    # linear evolution of u0
    h = taus[1] - taus[0]
    n_points = default_grid(p.n_cut).n_points
    out = []
    for _ in range(n_iter):
        nl = quintic_batch(iterate, m, p.n_cut, n_points)
        g = np.conj(free) * nl                    # e^{-i tau dxx} N(u(tau))
        integral = np.zeros_like(g)
        for j in range(0, n_quad - 1, 2):
            integral[j + 1] = integral[j] + (h / 12.0) * (
                5.0 * g[j] + 8.0 * g[j + 1] - g[j + 2])
            integral[j + 2] = integral[j] + (h / 3.0) * (
                g[j] + 4.0 * g[j + 1] + g[j + 2])
        iterate = free * (u0.coeffs - 1j * integral)
        out.append(FourierState(m, iterate[-1]))
    return out


def picard_solve(u0, t_small, p, n_iter, n_quad=64):
    """Independent small-time solution via the Duhamel fixed point."""
    return picard_iterates(u0, t_small, p, n_iter, n_quad)[-1]


def check_factorization(u0, t, p):
    """l^2 distance between the flow of u0 and (nonlinear block on low
    modes) + (free rotation on high modes); structurally zero, guards
    regressions."""
    full = evolve(u0, t, p)
    ks = u0.wavenumbers()
    low = np.abs(ks) <= p.n_cut
    low_part = evolve(FourierState(u0.m_ambient, np.where(low, u0.coeffs, 0)),
                      t, p)
    recombined = low_part.coeffs.copy()
    high = ~low
    recombined[high] = (np.exp(-1j * ks[high].astype(np.float64) ** 2 * t)
                        * u0.coeffs[high])
    return float(np.linalg.norm(full.coeffs - recombined))


def holder_c_lower_bound(coeffs, m_ambient, n_cut, t):
    """E_N(u) - ||a||_6^5 ||b(t)||_6 - 1e-3 E_N(u), the first lower bound on
    C(Phi_N(t) u) of the cutoff prefilter, from |a + b|^6 >= |a|^6
    - 6 |a|^5 |b| and Hoelder, with ||a||_6^6 <= 6 (E_N - quad(b)
    - pi sum_{|k|<=N} |u_k|^2); a the modes |k| <= N, b the others."""
    ks = wavenumbers(m_ambient)
    high = np.abs(ks) > n_cut
    e_n = truncated_energy_batch(coeffs, m_ambient, n_cut)
    quad = np.pi * np.where(high, 1.0 + ks**2, 1.0) * np.abs(coeffs) ** 2
    a6 = np.maximum(6.0 * (e_n - np.sum(quad, axis=-1)), 0.0)
    phases = np.exp(-1j * ks.astype(np.float64) ** 2 * t)
    b6 = sextic_integral_batch(np.where(high, phases, 0.0) * coeffs,
                               m_ambient)
    return e_n - a6 ** (5.0 / 6.0) * b6 ** (1.0 / 6.0) - 1e-3 * e_n


# ---------------------------------------------------------------------------
# the per-stage RK4 of the flow

def rk4_per_stage(f, y, t_start, t, h):
    """Classical RK4 in the steps of flow._steps, fresh arrays per stage."""
    tau = t_start
    for dt in _steps(t, h):
        s1 = f(tau, y)
        s2 = f(tau + dt / 2, y + (dt / 2) * s1)
        s3 = f(tau + dt / 2, y + (dt / 2) * s2)
        s4 = f(tau + dt, y + dt * s3)
        y = y + (dt / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
        tau += dt
    return y


def twisted_per_stage(k2, product):
    """-i e^{i k^2 tau} product(e^{-i k^2 tau} w), its twist computed per
    stage."""
    def f(tau, w):
        tw = np.exp(-1j * k2 * tau)
        return -1j * np.conj(tw) * product(tw * w)
    return f


def quintic_band_per_stage(band, n_points):
    """Pi_N(|u|^4 u) of (..., 2N+1) band coefficients on a fresh grid."""
    idx = wavenumbers(band.shape[-1] // 2) % n_points
    vals = np.zeros(band.shape[:-1] + (n_points,), dtype=np.complex128)
    vals[..., idx] = band
    np.fft.ifft(vals, axis=-1, norm="forward", out=vals)
    mod4 = modulus_sq(vals)
    mod4 *= mod4
    vals *= mod4
    return np.fft.fft(vals, axis=-1, norm="forward", out=vals)[..., idx]


def flow_per_stage(coeffs, m_ambient, times, p):
    """The flow of a (batch, 2M+1) block at each of the monotone times, a
    row that went non-finite as NaN, as flow.evolve_batch and
    flow.trajectory_batch compute it."""
    ks = wavenumbers(m_ambient)
    low = np.abs(ks) <= p.n_cut
    k2 = ks.astype(np.float64) ** 2
    n_points = default_grid(p.n_cut).n_points
    field = twisted_per_stage(k2[low],
                              lambda u: quintic_band_per_stage(u, n_points))
    wb, t_prev, outs = coeffs[..., low], 0.0, []
    for t in times:
        with np.errstate(over="ignore", invalid="ignore"):
            if t != t_prev:
                wb = rk4_per_stage(field, wb, t_prev, t - t_prev, p.step)
            out = np.exp(-1j * k2 * t) * coeffs
            out[..., low] = np.exp(-1j * k2[low] * t) * wb
        out[~np.all(np.isfinite(out.view(np.float64)), axis=-1)] = np.nan
        outs.append(out)
        t_prev = t
    return outs


def jacobian_det_per_stage(u0, t, p):
    """flow.jacobian_det on the per-stage RK4."""
    dim, n_points = u0.coeffs.size, default_grid(p.n_cut).n_points

    def product(u):
        return np.vstack([quintic_band_per_stage(u[:1], n_points),
                          _tangent_apply(u[0], u[1:], n_points)])

    field = twisted_per_stage(
        wavenumbers(u0.m_ambient).astype(np.float64) ** 2, product)
    y0 = np.vstack([u0.coeffs, np.eye(dim), 1j * np.eye(dim)])
    tangents = rk4_per_stage(field, y0, 0.0, t, p.step)[1:]
    return float(np.linalg.det(np.hstack([tangents.real, tangents.imag])))
