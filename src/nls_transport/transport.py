"""Transported-measure densities and the Monte Carlo studies that verify
them.

The sampled Gaussian ensemble has per-mode law exp(-m(k) |u_k|^2), so its
exponent quadratic form is GAUSS_FORM_FACTOR times the coefficient sum
S(u) = sum m(k) |u_k|^2 (the familiar "e^{-1/2 ||u||^2}" notation refers to
that doubled form: for complex Gaussians the Cameron-Martin norm is twice
the naive Fourier-side sum).  All density formulas below are exact for the
sampled ensemble:

  log G(t, u) = -(1/2) * GAUSS_FORM_FACTOR * [S(P_N Phi_N(-t) u) - S(P_N u)]
              = GAUSS_FORM_FACTOR * [R(Phi_N(-t)u) - R(u)
                                     - int_0^{-t} Q(Phi_N(tau) u) dtau]

with R, Q the normal-form quantities of `energies`.  At finite ambient
truncation these are theorems, not approximations, so the Monte Carlo
change-of-measure z-scores measure nothing but sampling noise and the
numerical error of the flow and the quadrature.

That error is controlled, not assumed small.  `DensityParams.step` is the
starting step h: each row's direct log G is evaluated at 2h and h, and the
Richardson estimate |L_2h - L_h|/15 of the error of L_h is held against
DENSITY_TOL.  A row within it keeps L_h.  The others move on to h/2, h/4,
..., keeping the first L_{h'} whose estimate |L_{2h'} - L_{h'}|/15 is within
DENSITY_TOL.  A pair estimates only when its coarse solve takes a full
step of 2h', so at 0 < |t| < 2h the ladder starts at the largest
h' = h/2^j with 2h' <= |t|.  A non-finite value (the flow returns a row
that overflows as NaN) estimates nothing, and a row still above the
tolerance after _MAX_HALVINGS halvings of the starting step comes back as
NaN; no study raises on it, and its NaN fails the study's verdict.
`density_pieces` reads all three log densities of a batch off that solve
and one backward trajectory per accepted step: R at its ends, and Q on the
`quad_points` nodes, integrated by Simpson extrapolated by Richardson
(Boole's rule), with |S_h - S_2h|/15 kept as error estimate.

`change_of_measure_test` evolves forward only the rows the cutoff may keep
after the flow.  The truncated flow conserves E_N (C with |Pi_N u|^6 in
place of |u|^6) and moves the modes above N by exact phases, which bounds
C(Phi_N(t) u) >= E_N(u) - [X - (X^{1/6} - ||b(t)||_6)_+^6]/6 from below
without a solve, with a the modes |k| <= N, b the others and X an upper
bound on ||a||_6^6 (`_forward_c_lower_bound`).  A row with C(u) > R and a
bound above R + 1e-3 E_N(u), the margin covering rounding and the
integrator's drift of E_N, has both indicators 0.  Its two terms are then
exact zeros without the solve, as they were with it: indicator times
observable gave 0.0 for the finite, non-negative observables of the
battery, and G is not computed where C(u) > R.

The bound is loose where it is needed most, on rows whose C(u) is just
above R.  Those doubtful rows, C(u) > R with a bound that does not exceed
R + 1e-3 E_N(u), go through a screen: a coarse solve at H = _SCREEN_FACTOR
times the step and another at 2H (`_coarse_forward_c`).  A row whose C_H
exceeds R by the same margin 1e-3 E_N(u), and whose Richardson estimate
|C_H - C_2H|/15 is within a sixteenth of that margin, is skipped as well.
The screen assumes what every Richardson estimate of the package assumes:
that at H the flow is in its fourth-order regime, so the estimate bounds
the step error of C_H, and C at the step then exceeds R.  A row whose
coarse value is NaN, as the flow returns a row that overflows, or whose
estimate is larger, is evolved at the step, and so is every doubtful row
where |t| < 2H.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .energies import (EnergyParams, low_norm_sq_batch, q_derivative_batch,
                       r_correction_batch)
from .errors import MissingCutoff, NlsTransportError
from .flow import FlowParams, evolve_batch, trajectory_batch
from .measures import (McReport, MeasureParams, SeededRng,
                       cutoff_indicator_batch, mean_report, sample_batch,
                       sample_map)
from .parallel import run_chunked
from .spectral import (FourierState, WeightFamily, bracket_multiplier,
                       conserved_c_batch, default_grid, sextic_integral_batch,
                       truncated_energy_batch, wavenumbers)

GAUSS_FORM_FACTOR = 2.0
DENSITY_TOL = 5e-7   # absolute bound on the estimated step error of log G

_MAX_HALVINGS = 6    # finest step tried is start_step / 2**_MAX_HALVINGS
_SCREEN_FACTOR = 16  # the screen's coarse step H is this times d.step
_DENSITY_CHUNK = 512  # samples per chunk of the lp-density solves


@dataclass(frozen=True)
class DensityParams:
    """Settings of the log-density evaluation: G_{s,N}(t, .) with s and N
    those of `energy`, the flow truncated at the same N.

    `step` is the starting RK4 step h, and `flow` the truncated flow at it.
    `start_step` is the step the ladder starts at: h, or the largest
    h/2^j with 2h/2^j <= |t| where 0 < |t| < 2h.  The step error of log G
    at it is estimated against a solve at twice it, and rows are refined by
    halving until the estimated error is within DENSITY_TOL (see
    `_controlled_direct`).
    `quad_points` are the equispaced Simpson nodes of the Q integral, which
    Richardson extrapolation combines with the Simpson rule on every other
    node; with quad_points - 1 a multiple of 4 the combination covers the
    whole window, otherwise the last two intervals keep plain Simpson.
    """

    t: float
    energy: EnergyParams
    step: float
    quad_points: int = 501

    def __post_init__(self):
        if self.quad_points < 3 or self.quad_points % 2 == 0:
            raise ValueError("quad_points must be odd and >= 3")
        self.flow   # FlowParams rejects a step that is not positive

    @property
    def flow(self) -> FlowParams:
        return FlowParams(n_cut=self.energy.n_cut, step=self.step)

    @property
    def start_step(self) -> float:
        start = self.step
        while self.t != 0.0 and abs(self.t) < 2.0 * start:
            start /= 2
        return start


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _quadrature_weights(n_nodes: int, h: float):
    """(rule, estimate) weight vectors on n_nodes equispaced nodes: Simpson
    extrapolated by Richardson against Simpson on every other node, and the
    Richardson estimate (S_h - S_2h)/15 of the plain Simpson error.  The
    extrapolation needs a multiple of 4 intervals; two left-over intervals
    at the end keep plain Simpson and stay out of the estimate."""
    head = n_nodes if (n_nodes - 1) % 4 == 0 else n_nodes - 2
    rule = np.zeros(n_nodes)
    estimate = np.zeros(n_nodes)
    if head > 1:
        rule[:head] = _simpson_weights(head, h)
        estimate[:head] = rule[:head]
        estimate[:head:2] -= _simpson_weights((head + 1) // 2, 2.0 * h)
        estimate /= 15.0
        rule += estimate
    if head < n_nodes:
        rule[head - 1:] += _simpson_weights(3, h)
    return rule, estimate


def _controlled_direct(coeffs: np.ndarray, m_ambient: int, d: DensityParams):
    """(log G, accepted step) per row of a (batch, dim) block.

    With h0 the starting step, each row is solved at 2h0 and h0, then at
    h0/2, h0/4, ... as long as it is unresolved.  A row accepts the first
    L_{h'}, h' = h0, h0/2, ..., h0/2**_MAX_HALVINGS, whose Richardson
    estimate |L_{2h'} - L_{h'}|/15 is within DENSITY_TOL; L_{h'} is then
    bit for bit the fixed-step formula at h'.  The estimate holds only when
    the coarse solve takes at least one full step of 2h': below that the
    two solves are one step of t or nearly so, and their errors cancel.  So
    h0 = d.start_step is d.step where |t| >= 2 d.step or t = 0 (both
    solves are then the identity), and otherwise the largest d.step/2^j
    with 2h0 <= |t|.
    A non-finite value, such as the NaN the flow returns for a row that
    overflows, gives no estimate and resolves no row.  A row unresolved at
    the finest step is NaN in both log G and its step."""
    s0 = low_norm_sq_batch(coeffs, m_ambient, d.energy)

    def direct(rows, step):
        bwd = evolve_batch(coeffs[rows], m_ambient, -d.t,
                           replace(d.flow, step=step))
        with np.errstate(over="ignore"):
            s1 = low_norm_sq_batch(bwd, m_ambient, d.energy)
        return -0.5 * GAUSS_FORM_FACTOR * (s1 - s0[rows])

    start = d.start_step
    log_g, steps = np.full((2, coeffs.shape[0]), np.nan)
    rows = np.arange(coeffs.shape[0])
    coarse = direct(rows, 2.0 * start)
    for halving in range(_MAX_HALVINGS + 1):
        step = start / 2**halving
        fine = direct(rows, step)
        ok = np.abs(coarse - fine) / 15.0 <= DENSITY_TOL
        log_g[rows[ok]] = fine[ok]
        steps[rows[ok]] = step
        rows, coarse = rows[~ok], fine[~ok]
        if rows.size == 0:
            break
    return log_g, steps


def log_density_direct_batch(coeffs: np.ndarray, m_ambient: int,
                             d: DensityParams) -> np.ndarray:
    """Step-controlled direct log G per row of a block, NaN if unresolved."""
    return _controlled_direct(coeffs, m_ambient, d)[0]


def density_direct(u: FourierState, d: DensityParams) -> float:
    """log of the transported-measure density, from the defining quadratic
    form difference along the backward flow."""
    return float(log_density_direct_batch(u.coeffs[None, :], u.m_ambient, d)[0])


@dataclass(frozen=True)
class DensityPieces:
    """Per-row pieces of the log densities of a (batch, dim) block."""

    log_g: np.ndarray     # the direct log G
    delta_r: np.ndarray   # R(Phi_N(-t)u) - R(u)
    q_int: np.ndarray     # extrapolated Simpson integral of Q over [0, -t]
    q_error: np.ndarray   # Richardson estimate of the plain Simpson error
    steps: np.ndarray     # the step each row was accepted at, NaN if none

    @property
    def normal_form(self) -> np.ndarray:
        return GAUSS_FORM_FACTOR * (self.delta_r - self.q_int)

    @property
    def weighted(self) -> np.ndarray:
        """Weighted-ensemble log density: log G with one R-difference less."""
        return ((GAUSS_FORM_FACTOR - 1.0) * self.delta_r
                - GAUSS_FORM_FACTOR * self.q_int)


def density_pieces(coeffs: np.ndarray, m_ambient: int,
                   d: DensityParams) -> DensityPieces:
    """Each resolved row's trajectory is integrated once, at the step its
    direct log G was accepted at, into one snapshot block for one R and one
    Q call.  A row the ladder leaves unresolved is NaN in every piece."""
    log_g, steps = _controlled_direct(coeffs, m_ambient, d)
    if d.t == 0.0:
        z = np.zeros(coeffs.shape[:-1])
        return DensityPieces(log_g, z, z, z, steps)
    ok = np.isfinite(steps)
    snaps = np.empty((np.count_nonzero(ok), d.quad_points, coeffs.shape[-1]),
                     dtype=np.complex128)   # the resolved rows only
    for step in np.unique(steps[ok]):
        rows = steps[ok] == step
        snaps[rows] = trajectory_batch(coeffs[ok][rows], m_ambient, -d.t,
                                       replace(d.flow, step=step),
                                       d.quad_points)[1]
    r = r_correction_batch(snaps[:, [0, -1]], m_ambient, d.energy)
    qs = q_derivative_batch(snaps, m_ambient, d.energy,
                            default_grid(d.energy.n_cut))
    # the node spacing of trajectory_batch's linspace, bit for bit
    rule, estimate = _quadrature_weights(d.quad_points,
                                         -d.t / (d.quad_points - 1))
    pieces = np.full((3,) + steps.shape, np.nan)   # delta_r, q_int, q_error
    # a sum along each contiguous row, unlike a matrix-vector product, does
    # not depend on the rows around it
    pieces[:, ok] = (r[:, 1] - r[:, 0], np.sum(qs * rule, axis=-1),
                     np.abs(np.sum(qs * estimate, axis=-1)))
    return DensityPieces(log_g, *pieces, steps)


def density_normal_form(u: FourierState, d: DensityParams) -> float:
    """log density via the normal form: the energy-correction difference at
    the endpoints minus the integrated modified-energy derivative."""
    return float(density_pieces(u.coeffs[None, :], u.m_ambient, d).normal_form[0])


def density_wgm(u: FourierState, d: DensityParams) -> float:
    """See DensityPieces.weighted."""
    return float(density_pieces(u.coeffs[None, :], u.m_ambient, d).weighted[0])


def _masked_log_density(coeffs: np.ndarray, m_ambient: int, d: DensityParams,
                        keep: np.ndarray) -> np.ndarray:
    """Direct log G on the rows where keep holds and -inf on the others, so
    that exp gives an exact 0 there and no discarded row is integrated."""
    out = np.full(coeffs.shape[0], -np.inf)
    if np.any(keep):
        out[keep] = log_density_direct_batch(coeffs[keep], m_ambient, d)
    return out


# ---------------------------------------------------------------------------
# observables

class ObservableKind(Enum):
    MODE_MODULUS_SQ = "mode_modulus_sq"
    LOW_NORM_SQ = "low_norm_sq"
    BOUNDED_EXP = "bounded_exp"
    HIGH_MASS_ONLY = "high_mass_only"


@dataclass(frozen=True)
class ObservableSpec:
    """Bounded or integrable test functions for the transport identity."""

    kind: ObservableKind
    k: int = 0
    sigma: float = 0.0
    n_cut: int = 0
    scale: float = 1.0

    @property
    def name(self) -> str:
        if self.kind is ObservableKind.MODE_MODULUS_SQ:
            return f"|u_{self.k}|^2"
        if self.kind is ObservableKind.LOW_NORM_SQ:
            return f"low_norm_sq(sigma={self.sigma}, n={self.n_cut})"
        if self.kind is ObservableKind.BOUNDED_EXP:
            return f"exp(-{self.scale} * norm_sq(sigma={self.sigma}))"
        return f"high_mass(|k|>{self.n_cut})"

    def evaluate_batch(self, coeffs: np.ndarray, m_ambient: int) -> np.ndarray:
        ks = wavenumbers(m_ambient)
        if self.kind is ObservableKind.MODE_MODULUS_SQ:
            if abs(self.k) > m_ambient:
                raise ValueError("mode outside ambient band")
            return np.abs(coeffs[..., self.k + m_ambient]) ** 2
        if self.kind is ObservableKind.LOW_NORM_SQ:
            keep = np.abs(ks) <= self.n_cut
            mult = bracket_multiplier(ks[keep], self.sigma)
            return _column_sum(mult * np.abs(coeffs[..., keep]) ** 2)
        if self.kind is ObservableKind.BOUNDED_EXP:
            mult = bracket_multiplier(ks, self.sigma)
            return np.exp(-self.scale
                          * np.sum(mult * np.abs(coeffs) ** 2, axis=-1))
        keep = np.abs(ks) > self.n_cut
        return _column_sum(np.abs(coeffs[..., keep]) ** 2)


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis column by column, as np.sum adds up a masked
    batch, so that a row has the same bits alone and in any batch."""
    out = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        out += terms[..., j]
    return out


def default_observable_battery(n_cut: int) -> list[ObservableSpec]:
    return [
        ObservableSpec(ObservableKind.MODE_MODULUS_SQ, k=0),
        ObservableSpec(ObservableKind.MODE_MODULUS_SQ, k=1),
        ObservableSpec(ObservableKind.MODE_MODULUS_SQ, k=-2),
        ObservableSpec(ObservableKind.LOW_NORM_SQ, sigma=1.0, n_cut=n_cut),
        ObservableSpec(ObservableKind.BOUNDED_EXP, sigma=0.0, scale=1.0),
        ObservableSpec(ObservableKind.HIGH_MASS_ONLY, n_cut=n_cut),
    ]


@dataclass(frozen=True)
class ObservableComparison:
    observable: ObservableSpec
    lhs: McReport       # E[f(Phi_N(t) u)]
    rhs: McReport       # E[f(u) G(u)]
    z: float


def _forward_c_lower_bound(coeffs: np.ndarray, m_ambient: int, n_cut: int,
                           t: float) -> np.ndarray:
    """A lower bound on C(Phi_N(t) u) for each row, found without a solve,
    less a margin of 1e-3 E_N(u); n_cut is the N of the flow.

    Write Phi_N(t) u = a + b with a its modes |k| <= N and b the others;
    b = e^{-i k^2 t} u_high is exact, so beta = ||b(t)||_6 is too.  The
    truncated flow conserves E_N = C(a + b) with |a|^6 in place of
    |a + b|^6 (spectral `truncated_energy_batch`) and the mass of a, so
    C(Phi_N(t) u) = E_N - X/6 + ||a + b||_6^6 / 6 with X = ||a||_6^6.
    Minkowski gives ||a + b||_6 >= (X^{1/6} - beta)_+, hence

        C(Phi_N(t) u) >= E_N - [X - (X^{1/6} - beta)_+^6] / 6,

    a bound that decreases in X, so an upper bound on X may stand in for
    it.  With E' = E_N - quad(b), quad(b) = pi sum_{|k|>N} (1+k^2)|u_k|^2,
    the conserved split pi sum (1+k^2)|a_k|^2 = E' - X/6 gives
    X <= 6 (E' - pi sum |a_k|^2).  Cauchy-Schwarz on the band gives
    ||a||_inf^2 <= c_N sum (1+k^2)|a_k|^2, c_N = sum_{|k|<=N} 1/(1+k^2),
    and X <= ||a||_inf^4 mass(a), so X <= A (E' - X/6)^2 with
    A = mass(a) (c_N/pi)^2: X is at most 6 (E' - y) with
    y = 6E' / (3 + sqrt(9 + 6 A E')), the root of A y^2 = 6 (E' - y).
    The smaller of the two is used.  The deficit is taken as
    min(beta, x) sum_j x^{5-j} z^j / 6 with x = X^{1/6} and
    z = (x - beta)_+, which is exactly 0 with no free modes.

    The margin covers rounding and the RK4 drift of E_N along the computed
    flow: while that drift stays below 1e-3 E_N, a row whose value exceeds
    R has C(evolve_batch(u)) > R.  A non-finite row gives NaN, which
    exceeds no R.
    """
    ks = wavenumbers(m_ambient)
    high = np.abs(ks) > n_cut
    e_n = truncated_energy_batch(coeffs, m_ambient, n_cut)
    mod2 = np.abs(coeffs) ** 2
    e_free = e_n - np.pi * np.sum(np.where(high, (1.0 + ks**2) * mod2, 0.0),
                                  axis=-1)
    half_mass = np.pi * np.sum(np.where(high, 0.0, mod2), axis=-1)
    c_n = np.sum(1.0 / (1.0 + ks[~high] ** 2.0))
    a_coef = 2.0 * half_mass * (c_n / np.pi) ** 2
    root = 6.0 * e_free / (3.0 + np.sqrt(9.0 + 6.0 * a_coef * e_free))
    x = np.maximum(6.0 * (e_free - np.maximum(half_mass, root)),
                   0.0) ** (1.0 / 6.0)
    phases = np.exp(-1j * ks.astype(np.float64) ** 2 * t)
    b = np.where(high, phases, 0.0) * coeffs
    beta = sextic_integral_batch(b, m_ambient) ** (1.0 / 6.0)
    z = np.maximum(x - beta, 0.0)
    # x^6 - z^6 = (x - z) sum_j x^{5-j} z^j, with x - z = min(beta, x)
    power_sum = x**5 + x**4 * z + x**3 * z**2 + x**2 * z**3 + x * z**4 + z**5
    deficit = np.minimum(beta, x) * power_sum / 6.0
    return e_n - deficit - 1e-3 * e_n


def _coarse_forward_c(coeffs: np.ndarray, m_ambient: int,
                      d: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """(C_H, |C_H - C_2H| / 15) for each row of a block, with C_H the
    C(Phi_N(t) u) of the flow at the coarse step H = _SCREEN_FACTOR d.step
    and C_2H that at 2H: a coarse value and the Richardson estimate of its
    step error.  The flow returns a row that overflows as NaN, and both
    are NaN on every row where |t| < 2H: the solve at 2H then takes no full
    step, and the errors of the two solves cancel (see `_controlled_direct`)."""
    coarse = _SCREEN_FACTOR * d.step
    if abs(d.t) < 2.0 * coarse:
        nan = np.full(coeffs.shape[0], np.nan)
        return nan, nan

    def forward_c(step):
        fwd = evolve_batch(coeffs, m_ambient, d.t, replace(d.flow, step=step))
        with np.errstate(over="ignore", invalid="ignore"):
            return conserved_c_batch(fwd, m_ambient)

    c_h = forward_c(coarse)
    return c_h, np.abs(c_h - forward_c(2.0 * coarse)) / 15.0


@dataclass(frozen=True)
class ChangeOfMeasureResult:
    """What change_of_measure_test found, and how its samples went through
    the cutoff prefilter.  `counts` are totals over the samples: "samples";
    "kept_at_start", C(u) <= R; "bound_skipped" and "screen_skipped", not
    evolved; "screen_fallbacks", rows the screen could not decide;
    "evolved", evolved at the step; "kept_at_end", C(Phi_N(t) u) <= R;
    "non_finite", samples whose lhs or rhs term is not finite.  Without a
    cutoff every sample is kept and evolved."""

    comparisons: list   # one ObservableComparison per observable
    counts: dict


def change_of_measure_test(d: DensityParams, m: MeasureParams, observables,
                           n: int, rng: SeededRng) -> ChangeOfMeasureResult:
    """Paired Monte Carlo comparison of E[f(Phi_N(t)u)] against
    E[f(u) G(u)] over common samples; when a cutoff is configured both
    sides carry the indicator, each evaluated at its own argument (the
    push-forward identity holds for the product indicator*f verbatim, and
    the two indicators agree pathwise up to truncation coupling).

    The identity is exact at finite ambient truncation, so z is sampling
    noise plus integrator error only.

    With a cutoff, a row with C(u) > R is not evolved when its
    `_forward_c_lower_bound` exceeds R, nor, if the bound keeps it, when
    the screen skips it: its C_H of `_coarse_forward_c` exceeds
    R + 1e-3 E_N(u), and its estimate |C_H - C_2H|/15 is within a
    sixteenth of that margin.  While the estimate bounds the step error of
    C_H, the value at d.step, whose own step error is 16^4 times smaller,
    exceeds R (the module docstring states the assumption).  Every other
    row is evolved at d.step, and the two terms of a skipped row are 0.0.
    The evolved rows keep their bits, since each row of a flow solve is
    independent of the rows around it.  A row that overflows at d.step, or
    whose log G is unresolved, makes its terms NaN, and so their means and z.
    """
    if d.energy.family != m.family:
        raise ValueError("density and measure must share one weight family")
    d.energy.resolve_cut(m.m_ambient)   # raises before any sample is drawn
    obs = list(observables)

    def body(coeffs):
        ind_u = ind_fwd = np.ones(coeffs.shape[0])
        live = np.ones(coeffs.shape[0], dtype=bool)
        bound_kept = live
        fallback = np.zeros_like(live)
        if m.cutoff_r is not None:
            ind_u = cutoff_indicator_batch(coeffs, m)
            bound = _forward_c_lower_bound(coeffs, m.m_ambient,
                                           d.energy.n_cut, d.t)
            bound_kept = ~((ind_u == 0) & (bound > m.cutoff_r))
            live = bound_kept.copy()
            doubtful = np.flatnonzero(bound_kept & (ind_u == 0))
            if doubtful.size:
                c_h, err = _coarse_forward_c(coeffs[doubtful], m.m_ambient, d)
                margin = 1e-3 * truncated_energy_batch(
                    coeffs[doubtful], m.m_ambient, d.energy.n_cut)
                decided = err <= margin / 16.0
                fallback[doubtful[~decided]] = True
                live[doubtful[decided & (c_h > m.cutoff_r + margin)]] = False
        fwd = evolve_batch(coeffs[live], m.m_ambient, d.t, d.flow)
        if m.cutoff_r is not None:
            ind_fwd = cutoff_indicator_batch(fwd, m)
        g = np.exp(_masked_log_density(coeffs, m.m_ambient, d, ind_u > 0))
        vals = np.zeros((2, len(obs), coeffs.shape[0]))
        for j, spec in enumerate(obs):
            vals[0, j, live] = ind_fwd * spec.evaluate_batch(fwd, m.m_ambient)
            vals[1, j] = ind_u * spec.evaluate_batch(coeffs, m.m_ambient) * g
        kept_at_end = np.zeros_like(live)
        kept_at_end[live] = ind_fwd > 0
        return vals, np.array([ind_u > 0, ~bound_kept, bound_kept & ~live,
                               fallback, live, kept_at_end,
                               ~np.all(np.isfinite(vals), axis=(0, 1))])

    (lhs_vals, rhs_vals), flags = sample_map(body, rng, n, m)
    counts = {"samples": n, **{
        key: int(total) for key, total in zip(
            ("kept_at_start", "bound_skipped", "screen_skipped",
             "screen_fallbacks", "evolved", "kept_at_end", "non_finite"),
            np.sum(flags, axis=-1))}}
    out = []
    for j, spec in enumerate(obs):
        diff = mean_report(lhs_vals[j] - rhs_vals[j])
        z = float(diff.estimate / diff.stderr) if diff.stderr != 0 else 0.0
        out.append(ObservableComparison(spec, mean_report(lhs_vals[j]),
                                        mean_report(rhs_vals[j]), z))
    return ChangeOfMeasureResult(out, counts)


# ---------------------------------------------------------------------------
# convergence and L^p studies

class StudyKind(Enum):
    R = "R"
    Q = "Q"
    G = "G"


@dataclass(frozen=True)
class StudyRow:
    kind: str
    n_cut: int
    sup_diff: float


def convergence_study(kind: StudyKind, family: WeightFamily, t: float,
                      n_states: int, n_list, m_ambient: int, rng: SeededRng,
                      step: float) -> list[StudyRow]:
    """sup over a fixed sample set of |X_M - X_N| for X in {R, Q, log G},
    N running through n_list with reference at the ambient truncation M,
    as rows in increasing N.  The states are drawn from the Gaussian
    measure of `family` (s = family.s); log G starts its ladder at `step`.

    The finite sample ensemble with a pinned seed stands in for a compact
    set; callers check that the sup decreases strictly in N.

    log G is computed one truncation per chunk of `run_chunked`, the
    largest N first, as its solve costs the most.  R and Q are computed one
    truncation after the other, since their kernels hand out tiles of
    their own.
    """
    if max(n_list) > m_ambient:
        raise ValueError("n_list entries must not exceed m_ambient")
    meas = MeasureParams(s=family.s, m_ambient=m_ambient, family=family)
    coeffs = sample_batch(rng, n_states, meas)

    def values_at(n_cut: int) -> np.ndarray:
        energy = EnergyParams(n_cut=n_cut, family=family)
        if kind is StudyKind.R:
            return r_correction_batch(coeffs, m_ambient, energy)
        if kind is StudyKind.Q:
            return q_derivative_batch(coeffs, m_ambient, energy,
                                      default_grid(n_cut))
        d = DensityParams(t=t, energy=energy, step=step)
        return log_density_direct_batch(coeffs, m_ambient, d)

    cuts = [m_ambient] + sorted(n_list, reverse=True)
    if kind is StudyKind.G:
        ref, *values = [v for chunk in run_chunked(
            lambda lo, hi: [values_at(n_cut) for n_cut in cuts[lo:hi]],
            len(cuts), 1) for v in chunk]
    else:
        ref, *values = [values_at(n_cut) for n_cut in cuts]
    rows = [StudyRow(kind.value, n_cut, float(np.max(np.abs(ref - v))))
            for n_cut, v in zip(cuts[1:], values)]
    return rows[::-1]


@dataclass(frozen=True)
class LpStudyRow:
    n_cut: int
    p_exp: float
    norm_g: float
    diff_norm: float   # || G_M - G_N ||_p, 0 for the reference row


def lp_density_study(d: DensityParams, m: MeasureParams, p_list, n: int,
                     rng: SeededRng, n_list) -> list[LpStudyRow]:
    """L^p norms of the truncated densities G_N, N in n_list, under the
    restricted normalized ensemble, and the L^p distance from the
    ambient-truncation reference G_M; d gives t, the weight family and the
    step; each G_N re-truncates its energy, NaN on an unresolved kept row."""
    if m.cutoff_r is None:
        raise MissingCutoff("lp_density_study requires the energy cutoff")
    if d.energy.family != m.family:
        raise ValueError("density and measure must share one weight family")
    coeffs = sample_batch(rng, n, m)
    ind = cutoff_indicator_batch(coeffs, m)
    mass = float(np.mean(ind))
    if mass == 0.0:
        raise NlsTransportError("cutoff keeps no samples; raise cutoff_r")

    def log_g_at(n_cut: int) -> np.ndarray:
        dd = replace(d, energy=replace(d.energy, n_cut=n_cut))

        def body(lo, hi):   # a row's log G does not depend on its chunk
            return _masked_log_density(coeffs[lo:hi], m.m_ambient, dd,
                                       ind[lo:hi] > 0)

        return np.concatenate(run_chunked(body, n, _DENSITY_CHUNK))

    g_ref = np.exp(log_g_at(m.m_ambient))
    rows = []
    for n_cut in sorted(set(list(n_list) + [m.m_ambient])):
        g = np.exp(log_g_at(n_cut)) if n_cut != m.m_ambient else g_ref
        for p_exp in p_list:
            norm_g = float((np.mean(g**p_exp) / mass) ** (1.0 / p_exp))
            diff = float((np.mean(np.abs(g_ref - g) ** p_exp)
                          / mass) ** (1.0 / p_exp))
            rows.append(LpStudyRow(n_cut, p_exp, norm_g, diff))
    return rows
