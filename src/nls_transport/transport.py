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

`change_of_measure_test` cuts off by E_N(u) <= R, with E_N the invariant
of the truncated flow (C with |Pi_N u|^6 in place of |u|^6), so the
indicator of Phi_N(t) u is that of u, and reads both of its terms off the
ladder's one backward solve.  The flow is time-reversible: with
conj(u)_k = conj(u_{-k}), Phi_N(-t)(conj u) = conj(Phi_N(t) u), and mu and
E_N are invariant under u -> conj u.  So E[1(u) f(Phi_N(t) u)] is
E[1(u) f(conj Phi_N(-t) u)], and the state the ladder accepts for log G(u)
serves the lhs as well.
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
from .parallel import run_chunked, start_chunked
from .spectral import (FourierState, WeightFamily, bracket_multiplier,
                       default_grid, truncated_energy_batch, wavenumbers)

GAUSS_FORM_FACTOR = 2.0
DENSITY_TOL = 5e-7   # absolute bound on the estimated step error of log G

_MAX_HALVINGS = 6    # finest step tried is start_step / 2**_MAX_HALVINGS
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
    """(log G, accepted step, accepted end state Phi_N(-t) u) per row of a
    (batch, dim) block.

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
    the finest step is NaN in log G, its step and its state.  A resolved
    row's state is, bit for bit, evolve_batch's at its accepted step."""
    s0 = low_norm_sq_batch(coeffs, m_ambient, d.energy)

    def direct(rows, step):
        bwd = evolve_batch(coeffs[rows], m_ambient, -d.t,
                           replace(d.flow, step=step))
        with np.errstate(over="ignore"):
            s1 = low_norm_sq_batch(bwd, m_ambient, d.energy)
        return -0.5 * GAUSS_FORM_FACTOR * (s1 - s0[rows]), bwd

    start = d.start_step
    log_g, steps = np.full((2, coeffs.shape[0]), np.nan)
    states = np.full(coeffs.shape, np.nan, dtype=np.complex128)
    rows = np.arange(coeffs.shape[0])
    coarse = direct(rows, 2.0 * start)[0]
    for halving in range(_MAX_HALVINGS + 1):
        step = start / 2**halving
        fine, bwd = direct(rows, step)
        ok = np.abs(coarse - fine) / 15.0 <= DENSITY_TOL
        log_g[rows[ok]] = fine[ok]
        steps[rows[ok]] = step
        states[rows[ok]] = bwd[ok]
        rows, coarse = rows[~ok], fine[~ok]
        if rows.size == 0:
            break
    return log_g, steps, states


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
    log_g, steps, _ = _controlled_direct(coeffs, m_ambient, d)
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


@dataclass(frozen=True)
class ChangeOfMeasureResult:
    """What change_of_measure_test found, and how its samples went through
    the cutoff.  `counts` are totals over the samples: "samples"; "kept",
    E_N(u) <= R, every sample without a cutoff; "refined", kept rows the
    ladder accepted below its starting step; "unresolved", kept rows it
    left NaN; "non_finite", samples whose lhs or rhs term is not finite.
    `max_energy_drift` is the largest |E_N(Phi_N(-t) u) - E_N(u)| / E_N(u)
    over the kept, resolved rows (0.0 if there are none): the integrator's
    drift of the invariant whose value at the start stands in for its
    value at the end."""

    comparisons: list   # one ObservableComparison per observable
    counts: dict
    max_energy_drift: float


def change_of_measure_test(d: DensityParams, m: MeasureParams, observables,
                           n: int, rng: SeededRng) -> ChangeOfMeasureResult:
    """Paired Monte Carlo comparison of E[F(Phi_N(t)u)] against
    E[F(u) G(u)] over common samples, with F = 1(u) f(u) and 1 the
    indicator of E_N(u) <= R when a cutoff is configured (1 otherwise).
    E_N is the invariant of the flow, whose N is that of d, so the
    indicator of Phi_N(t) u is that of u and both terms carry 1(u).

    Only the kept rows are solved, by the ladder of `_controlled_direct`,
    whose accepted backward state w = Phi_N(-t) u gives both terms
    (see the module docstring): lhs = 1(u) f(conj w) and
    rhs = 1(u) f(u) G(u), with conj w = np.conj(w[..., ::-1]).  The
    identity is exact at finite ambient truncation, so z is sampling noise
    plus integrator error only.  A kept row the ladder leaves unresolved
    is NaN in both terms, and so are their means and z.
    """
    if d.energy.family != m.family:
        raise ValueError("density and measure must share one weight family")
    d.energy.resolve_cut(m.m_ambient)   # raises before any sample is drawn
    obs = list(observables)

    def body(coeffs):
        e_n = truncated_energy_batch(coeffs, m.m_ambient, d.energy.n_cut)
        keep = np.ones(coeffs.shape[0], dtype=bool)
        if m.cutoff_r is not None:
            keep = e_n <= m.cutoff_r
        kept = coeffs[keep]
        log_g, steps, states = _controlled_direct(kept, m.m_ambient, d)
        fwd = np.conj(states[..., ::-1])   # Phi_N(t) conj(u), by reversal
        g = np.exp(log_g)
        vals = np.zeros((2, len(obs), coeffs.shape[0]))
        for j, spec in enumerate(obs):
            vals[0, j, keep] = spec.evaluate_batch(fwd, m.m_ambient)
            vals[1, j, keep] = spec.evaluate_batch(kept, m.m_ambient) * g
        resolved = np.isfinite(steps)
        rows = np.flatnonzero(keep)[resolved]
        drift = np.zeros(coeffs.shape[0])
        e_end = truncated_energy_batch(states[resolved], m.m_ambient,
                                       d.energy.n_cut)
        drift[rows] = np.abs(e_end - e_n[rows]) / e_n[rows]
        flags = np.zeros((4, coeffs.shape[0]), dtype=bool)
        flags[0] = keep
        flags[1, keep] = steps < d.start_step
        flags[2, keep] = ~resolved
        flags[3] = ~np.all(np.isfinite(vals), axis=(0, 1))
        return vals, flags, drift

    (lhs_vals, rhs_vals), flags, drift = sample_map(body, rng, n, m)
    counts = {"samples": n, **{
        key: int(total) for key, total in zip(
            ("kept", "refined", "unresolved", "non_finite"),
            np.sum(flags, axis=-1))}}
    out = []
    for j, spec in enumerate(obs):
        diff = mean_report(lhs_vals[j] - rhs_vals[j])
        z = float(diff.estimate / diff.stderr) if diff.stderr != 0 else 0.0
        out.append(ObservableComparison(spec, mean_report(lhs_vals[j]),
                                        mean_report(rhs_vals[j]), z))
    return ChangeOfMeasureResult(out, counts,
                                 float(np.max(drift, initial=0.0)))


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


def convergence_study(family: WeightFamily, t: float, n_states: int, n_list,
                      m_ambient: int, rng: SeededRng,
                      step: float) -> dict[StudyKind, list[StudyRow]]:
    """sup over a fixed sample set of |X_M - X_N| for X in {R, Q, log G},
    N running through n_list with reference at the ambient truncation M,
    as rows in increasing N for each kind.  The states are drawn once from
    the Gaussian measure of `family` (s = family.s); log G starts its
    ladder at `step`.

    The finite sample ensemble with a pinned seed stands in for a compact
    set; callers check that the sup decreases strictly in N.

    log G costs the most, so its truncations are started first, one per
    chunk of `start_chunked`, the largest N first.  R and Q are computed in
    the calling process while those chunks run; their kernels then run
    their tiles inline, as any chunked call does while a pool is pending.
    """
    if max(n_list) > m_ambient:
        raise ValueError("n_list entries must not exceed m_ambient")
    meas = MeasureParams(s=family.s, m_ambient=m_ambient, family=family)
    coeffs = sample_batch(rng, n_states, meas)
    cuts = [m_ambient] + sorted(n_list, reverse=True)

    def energy(n_cut: int) -> EnergyParams:
        return EnergyParams(n_cut=n_cut, family=family)

    def log_g(lo, hi):
        return [log_density_direct_batch(
            coeffs, m_ambient, DensityParams(t=t, energy=energy(n_cut),
                                             step=step))
                for n_cut in cuts[lo:hi]]

    with start_chunked(log_g, len(cuts), 1) as collect:
        values = {
            StudyKind.R: [r_correction_batch(coeffs, m_ambient, energy(n_cut))
                          for n_cut in cuts],
            StudyKind.Q: [q_derivative_batch(coeffs, m_ambient, energy(n_cut),
                                             default_grid(n_cut))
                          for n_cut in cuts]}
        values[StudyKind.G] = [v for chunk in collect() for v in chunk]
    return {kind: [StudyRow(kind.value, n_cut, float(np.max(np.abs(ref - v))))
                   for n_cut, v in zip(cuts[1:], rest)][::-1]
            for kind, (ref, *rest) in values.items()}


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

    cuts = sorted(set(n_list) | {m.m_ambient})

    def body(lo, hi):
        """log G of each cut (a row each) on the kept samples, -inf on the
        others, so that exp gives an exact 0 there and no discarded row is
        integrated."""
        keep = ind[lo:hi] > 0
        out = np.full((len(cuts), hi - lo), -np.inf)
        if np.any(keep):
            for i, n_cut in enumerate(cuts):
                out[i, keep] = log_density_direct_batch(
                    coeffs[lo:hi][keep], m.m_ambient,
                    replace(d, energy=replace(d.energy, n_cut=n_cut)))
        return out

    gs = np.exp(np.concatenate(run_chunked(body, n, _DENSITY_CHUNK), axis=1))
    g_ref = gs[cuts.index(m.m_ambient)]
    rows = []
    for n_cut, g in zip(cuts, gs):
        for p_exp in p_list:
            norm_g = float((np.mean(g**p_exp) / mass) ** (1.0 / p_exp))
            diff = float((np.mean(np.abs(g_ref - g) ** p_exp)
                          / mass) ** (1.0 / p_exp))
            rows.append(LpStudyRow(n_cut, p_exp, norm_g, diff))
    return rows
