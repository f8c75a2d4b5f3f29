"""Verification suites for the conformal, dilation and Morawetz estimates.

Each suite evaluates one cluster of claims along a computed flow and returns
an EstimateReport whose checks each state their pass rule once, as clauses
(measured, relation, bound).  Inequalities stated up to an unknowable
constant are operationalized as: the measured ratio stays below the declared
cap, and its fitted growth trend below observables.TREND_CAP, on the
validity window.  Each section ends with its suite's ``Suite``, and
``SUITES`` names them.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptors import (AdaptorOperator, QSelection, build_adaptor,
                       commutator_closure_defect, commutator_columns, negative_part,
                       positive_part, remainder_expectation, residual_weighted_scan,
                       weighted_propagator_norm)
from .evolution import (Trajectory, _distinct, gaussian_state, h_half_norm_sq,
                        trajectory_linear, validity_horizon)
from .grids import Grid, make_grid, norm, transit_energy_limit, weight_vector
from .observables import (CheckResult, EstimateReport, ObservableSeries,
                          PropagationObservable, bounded_check, centered_derivative,
                          commutator_form, expectation_value, fit_decay_rate,
                          heisenberg_consistency, log_growth_fit, observable_series,
                          pres_check, series_along, trend_slope)
from .operators import (ConformalFactor, HermitianOperator, OperatorSum, Potential,
                        TimeDependentPotential, _row_blocks, _symmetrize,
                        central_difference, commutator_i, conformal_value, dilation,
                        laplacian, momentum, multiplication)
from .spectral import (BOUND, SpectralData, free_spectral_data, genericity_margin,
                       resolution_energy_limit)

#: the window of a halving ratio for an error of order two
ORDER2_WINDOW = (3.5, 4.5)


# ---------------------------------------------------------------------------
# the suite protocol


class Suite:
    """Everything a run needs to know about one suite: its (config path,
    what is needed, test on the config) preconditions, checked at parse time
    (``needs``); the scipy subpackages its own code calls, whatever the
    config (``scipy``); whether it reads the run's spectrum, so a config with
    a potential diagonalizes H (``spectrum``), and whether it presumes an H
    with no spectrum at zero, so it is skipped on a near-threshold spectrum
    (``clean_threshold``).  Before any suite runs, ``plan(run)`` returns the
    sample times it reads off the run's flow and the per-step observer that
    flow feeds (or None); ``run(run)`` gets them back from
    ``run.planned(self)`` and returns its report.  ``run`` is the run
    context, read through its public members."""

    needs: tuple = ()
    scipy: tuple = ()
    spectrum = True
    clean_threshold = False

    def plan(self, run):
        return (), None


class _Monitored(Suite):
    """A suite that reads ``[evolution].samples`` times from t = 1 to the horizon."""

    def plan(self, run):
        return run.sample_times(lo=1.0, hi=run.horizon, count=run.config.samples), None


_RADIAL = ("[grid].kind", "kind = radial3d (it checks a 3d radial estimate)",
           lambda c: c.grid_kind == "radial3d")
_FROM_ONE = ("[evolution].t_max", "t_max > 1 (it measures from t = 1)", lambda c: c.t_max > 1.0)
_THREE_FROM_ONE = ("[evolution].t_max",
                   "3 times of the dt lattice in [1, t_max] (its window from t = 1 needs 3 samples)",
                   lambda c: math.floor(c.t_max / c.dt + 1e-9) - math.ceil(1.0 / c.dt - 1e-9) >= 2)
_W_FLOW = ("[timedep].type", "a time-dependent W (type = self_similar)",
           lambda c: c.timedep_type == "self_similar")
_V_NONNEGATIVE = ("[potential].gaussians", "V >= 0 on the grid", lambda c: Potential(
    c.potential_terms).is_nonnegative(make_grid(c.grid_kind, c.grid_n, c.grid_extent).points))


def _lattice_floor(t: float, dt: float) -> float:
    """Largest k dt not beyond t (up to 1e-9), so a sweep to it can end on the lattice."""
    return math.floor(t / dt + 1e-9) * dt


def _lattice_ceil(targets, dt: float):
    """The first time k dt at or after each of ``targets`` (up to 1e-9),
    distinct and ascending: where a ``StepIntegral`` records its checkpoints."""
    return _distinct(np.ceil((np.asarray(targets, dtype=float) - 1e-9) / dt) * dt)


class StepIntegral:
    """The per-step observer of a Strang sweep: the trapezoid integral of each
    component of ``integrand(t, u)`` (a tuple of floats) over the sweep's
    lattice times in [lo, hi], and each component's running peak
    (``integrals``, ``peaks``).  At each of ``checkpoints``, lattice times
    in [lo, hi], it records the integrals so far; ``series`` reads them."""

    def __init__(self, integrand, lo: float, hi: float, checkpoints):
        self.integrand, self.lo, self.hi = integrand, lo, hi
        self.checkpoints = np.asarray(checkpoints, dtype=float)
        self.integrals = self.peaks = self._prev = self._t_prev = None
        self._rows = []

    def __call__(self, t, u):
        if t < self.lo - 1e-12 or t > self.hi + 1e-9:
            return
        vals = self.integrand(t, u)
        if self._prev is None:
            self.integrals, self.peaks = [0.0] * len(vals), list(vals)
        else:
            half = 0.5 * (t - self._t_prev)
            self.integrals = [s + half * (a + b) for s, a, b in zip(self.integrals, self._prev, vals)]
            self.peaks = [max(p, v) for p, v in zip(self.peaks, vals)]
        self._prev, self._t_prev = vals, t
        if len(self._rows) < len(self.checkpoints) and t >= self.checkpoints[len(self._rows)] - 1e-9:
            self._rows.append(self.integrals)

    def series(self, k: int, label: str) -> ObservableSeries:
        """Component ``k``'s integrals at the checkpoints the sweep has passed."""
        return ObservableSeries(self.checkpoints[:len(self._rows)],
                                np.array([row[k] for row in self._rows]), label)


# ---------------------------------------------------------------------------
# the propagation observable of the conformal identity


class _ConformalTerms:
    """The banded operators the conformal family is combined from, each
    built and checked Hermitian once: C(t) (``ConformalFactor``), V and the
    W profile.  Each returns the (coefficient, operator) terms of k times its
    quantity: ``c`` C(t), ``c_dt`` dC/dt, ``vw`` V + W(t), ``w_at`` W(t) and
    ``w_dt`` dW/dt; ``prob`` is the conformal family they combine into."""

    def __init__(self, grid: Grid, potential: Potential | None,
                 w_t: TimeDependentPotential | None):
        x, self.w_t = grid.points, w_t
        factor = ConformalFactor(grid)
        self.c, self.c_dt = factor.terms, factor.dt_terms
        self.v = multiplication(grid, potential.v(x) if potential is not None else np.zeros(grid.n))
        self.w_profile = w_t.profile(x) if w_t is not None else None
        self.w = multiplication(grid, self.w_profile) if w_t is not None else None

    def vw(self, t, k):
        return [(k, self.v)] + self.w_at(t, k)

    def w_at(self, t, k):
        return [] if self.w is None else [(k * self.w_t.amplitude(t), self.w)]

    def w_dt(self, t, k):
        return [] if self.w is None else [(k * self.w_t.d_amplitude(t), self.w)]

    def prob(self, adaptor) -> PropagationObservable:
        b = [] if adaptor is None else [(1.0, adaptor)]

        def builder(t):
            if t <= 0:
                raise ValueError("the scaled observable needs t > 0")
            return OperatorSum(tuple(self.c(t, 1.0 / t) + self.vw(t, 4.0 * t) + b))

        def db_dt(t):
            return OperatorSum(tuple(self.c_dt(t, 1.0 / t) + self.c(t, -1.0 / t**2)
                                     + self.vw(t, 4.0) + self.w_dt(t, 4.0 * t)))

        return PropagationObservable(label="conformal[inverse_t]", builder=builder, db_dt=db_dt)


def conformal_prob(grid: Grid, potential: Potential | None,
                   w_t: TimeDependentPotential | None,
                   adaptor) -> PropagationObservable:
    """B(t) = C(t)/t + 4t(V+W) + B, the 1/t scale of the conformal estimates.

    B(t) and dB/dt are OperatorSums of banded terms and B, so no
    banded-plus-dense sum is formed.  ``adaptor`` is B (an AdaptorOperator,
    or anything with ``apply``), or None.
    """
    return _ConformalTerms(grid, potential, w_t).prob(adaptor)


# ---------------------------------------------------------------------------
# operator identities (weak form, with h-refinement ratios)


def dilation_identity_residual(grid: Grid, potential: Potential | None, state) -> float:
    """Weak residual of i[H, A] = 2(-lap) - x.grad V on one smooth state.

    <phi, i[H,A] phi> = -2 Im <H phi, A phi>, all by banded matvecs.  The gap
    is the O(h^2) mismatch between the central-difference momentum squared
    and the stencil Laplacian, plus the tridiagonal-versus-diagonal gap of
    i[V,A].
    """
    phi = np.asarray(state, dtype=complex)
    v = potential.v(grid.points) if potential is not None else 0.0
    lap_phi = laplacian(grid).apply(phi)
    a_phi = dilation(grid).apply(phi)
    lhs = commutator_form(grid, lap_phi + v * phi, a_phi)
    xdv = potential.xdv(grid.points) if potential is not None else 0.0
    rhs = 2.0 * float(np.real(grid.inner(phi, lap_phi))) - grid.expect(xdv, phi)
    return abs(lhs - rhs)


def free_conformal_residual(grid: Grid, state, t: float, dt_offset: float) -> float:
    """Residual of d/dt <C(t)/t> = -<C(t)>/t^2 along the exact free flow,
    whose three states come from one ``SpectralData.flow`` block.

    The free flow conserves <C(t)> on the lattice (wall rows aside), so the
    residual isolates the centered-difference O(dt^2) error.
    """
    if t <= 0:
        raise ValueError("needs t > 0")
    ts = (t - dt_offset, t, t + dt_offset)
    bwd, mid, fwd = (conformal_value(grid, u, s)
                     for u, s in zip(free_spectral_data(grid).flow(state, ts), ts))
    lhs = (fwd / ts[2] - bwd / ts[0]) / (2.0 * dt_offset)
    return abs(lhs + mid / t**2)


def operator_identity_suite(n: int, extent: float, potential: Potential,
                            state_width: float = 2.5, dt_ref: float = 4e-3,
                            abs_cap: float = 1e-4) -> EstimateReport:
    """Weak-form dilation-commutator and free conformal-conservation residuals
    (the latter at t = 1) with their refinement ratios (h and dt halved
    together)."""
    report = EstimateReport("operator identities (weak form)")
    resids_eq4, resids_conf = [], []
    for level, (n_lvl, dt_lvl) in enumerate([(n, dt_ref), (2 * n + 1, dt_ref / 2.0)]):
        grid = make_grid("line", n_lvl, extent)
        phi = gaussian_state(grid, width=state_width)
        resids_eq4.append(dilation_identity_residual(grid, potential, phi))
        resids_conf.append(free_conformal_residual(grid, phi, 1.0, dt_lvl))

    report.add("dilation commutator residual", (resids_eq4[0], "<=", abs_cap))
    report.add("dilation commutator h-halving ratio",
               (resids_eq4[0] / resids_eq4[1], "in", ORDER2_WINDOW))
    report.add("free conformal conservation residual", (resids_conf[0], "<=", abs_cap))
    report.add("free conformal refinement ratio",
               (resids_conf[0] / resids_conf[1], "in", ORDER2_WINDOW))
    return report


class _OperatorIdentities(Suite):
    spectrum = False

    def run(self, run):
        c = run.config
        return operator_identity_suite(c.grid_n, c.grid_extent, run.potential,
                                       state_width=c.state_width, dt_ref=c.dt)


# ---------------------------------------------------------------------------
# adapted conformal identity


class _BlockApplied:
    """B_V applied to a block of states by one ``apply``: ``apply(u)`` reads
    back the column of a state of the block (the same array), and applies
    B_V to any other state."""

    def __init__(self, adaptor: AdaptorOperator, states):
        self.adaptor, self.states = adaptor, list(states)
        self.block = adaptor.apply(np.column_stack(self.states)) if self.states else None

    def apply(self, state):
        k = next((k for k, u in enumerate(self.states) if u is state), None)
        return self.adaptor.apply(state) if k is None else self.block[:, k]


class AdaptedConformal:
    """The adapted conformal identity at the 1/t scale for one (grid, V, W,
    B_V), read by matvecs, with the truncation remainder through its n x |S|
    factor (``remainder``).  B_V is applied once, to the block of ``states``
    the identity reads."""

    def __init__(self, spec: SpectralData, potential: Potential | None,
                 w_t: TimeDependentPotential | None,
                 adaptor: AdaptorOperator | None, states=()):
        grid, x = spec.grid, spec.grid.points
        self.grid, self.w_t, self.adaptor = grid, w_t, adaptor
        self.remainder = remainder_expectation(spec, adaptor) if adaptor is not None else None
        self.b = _BlockApplied(adaptor, states) if adaptor is not None else None
        self.terms = _ConformalTerms(grid, potential, w_t)
        self.prob = self.terms.prob(self.b)
        self.v_neg = []  # the time-independent term [4 x.grad V + 4V]_-
        if potential is not None:
            neg = negative_part(4.0 * potential.xdv(x) + 4.0 * potential.v(x))
            self.v_neg.append((1.0, multiplication(grid, neg)))
        if w_t is not None:
            self.xdw = multiplication(grid, x * w_t.d_profile(x))

    def rhs(self, t: float, state) -> float:
        """<u, RHS(t) u> for RHS = -C/t^2 + [4 x.grad V + 4V]_- +
        (4 x.grad W + 4W + 4t dW/dt) + i[W, B]: the banded terms as one
        OperatorSum, and <u, i[W, B] u> by ``commutator_form``."""
        grid, w_t = self.grid, self.w_t
        parts = self.terms.c(t, -1.0 / t**2) + self.v_neg
        if w_t is not None:
            parts += [(4.0 * w_t.amplitude(t), self.xdw)] + self.terms.w_at(t, 4.0) \
                + self.terms.w_dt(t, 4.0 * t)
        value = expectation_value(grid, OperatorSum(tuple(parts)), state)
        if w_t is not None and self.adaptor is not None:
            w_u = (w_t.amplitude(t) * self.terms.w_profile) * state
            value += commutator_form(grid, w_u, self.b.apply(state))
        return value

    def residual(self, traj: Trajectory, t: float, dt_offset: float,
                 include_truncation_term: bool = False):
        """|d/dt <B(t)> - <RHS(t)>| at t > 0, with the exact expectation of
        the adaptor truncation term returned alongside for the tolerance
        budget.

        The derivative is a centered difference of the quadratic form, so the
        residual is O(dt_offset^2 + h^2) plus that term.  With
        ``include_truncation_term`` the remainder joins the right side, which
        isolates the pure O(dt^2 + h^2) behavior for convergence checks.
        ``traj`` samples t and t +- dt_offset.
        """
        if t <= 0:
            raise ValueError("conformal identity is evaluated at t > 0")
        lhs = centered_derivative(traj, self.prob, t, dt_offset)
        state = traj.state_at(t)
        rhs = self.rhs(t, state)
        bv_term = 0.0
        if self.adaptor is not None and self.adaptor.horizon > 0:
            rem = self.remainder(state)
            if include_truncation_term:
                rhs -= rem
            else:
                bv_term = abs(rem)
        return abs(lhs - rhs), bv_term


def conformal_identity_suite(traj: Trajectory, spec: SpectralData,
                             potential: Potential | None,
                             w_t: TimeDependentPotential | None,
                             adaptor: AdaptorOperator | None, eval_ts,
                             delta: float, h_of_t,
                             free_traj: Trajectory | None = None) -> EstimateReport:
    """Adapted conformal identity at ``eval_ts`` (``traj`` also samples t +-
    delta, caps 5 (delta^2 + h^2) + truncation term), Heisenberg
    consistency, on ``free_traj`` constancy of C, and on the free flow (no
    V, W or B) the propagation inequality, where D_H (C/t) =
    -||(x - 2tp) u / t||^2 with no remainder.  Every value is a quadratic
    form read by matvecs."""
    grid = traj.grid
    report = EstimateReport("adapted conformal identity")
    cap_scheme = 5.0 * (delta**2 + grid.h**2)
    identity = AdaptedConformal(spec, potential, w_t, adaptor, traj.states)
    for t in eval_ts:
        resid, bv = identity.residual(traj, float(t), delta)
        report.add(f"identity residual at t={t:g}", (resid, "<=", cap_scheme + bv))

    prob = identity.prob
    b_series = report.series["prob_expectation"] = observable_series(traj, prob, eval_ts)
    h_resid, bv_mid = math.nan, 0.0  # no evaluation time: the window is past the horizon
    if len(eval_ts):
        t_mid = float(eval_ts[len(eval_ts) // 2])
        h_resid = heisenberg_consistency(traj, prob, h_of_t, t_mid, delta)
        bv_mid = abs(identity.remainder(traj.state_at(t_mid))) if adaptor is not None else 0.0
    report.add("Heisenberg consistency", (h_resid, "<=", cap_scheme + bv_mid))

    if free_traj is not None:
        factor = report.series["conformal_factor"] = series_along(
            free_traj, free_traj.times, "conformal factor", lambda t, u: conformal_value(grid, u, t))
        drift = float(np.abs(factor.values - factor.values[0]).max() / factor.values[0])
        report.add("free conformal factor constant", (drift, "<=", 1e-6))

    free = (potential is None or potential.is_zero) and w_t is None and adaptor is None
    if free and len(eval_ts):
        c_sq = series_along(traj, b_series.times, "||C psi||^2",
                            lambda t, u: conformal_value(grid, u, t) / t**2)
        report.checks.append(pres_check(b_series, c_sq, 0.0))
    elif not free:
        report.warnings.append(f"{prob.label}: no positive-part decomposition, "
                               "propagation inequality skipped")
    return report


class _ConformalIdentity(Suite):
    needs = (_FROM_ONE, ("[timedep].lambda", "lambda = 0 (its identities have no cubic term)",
                         lambda c: c.nonlinearity == 0))

    @staticmethod
    def _times(run):
        """(eval_ts, delta, all_ts, free_ts): evaluation times, the centered
        difference offset, the times the identity reads, and the free-flow
        times (None unless V and W vanish)."""
        c = run.config
        delta = max(10.0 * c.dt, 0.02) if run.stepped else c.dt
        eval_ts = run.sample_times(lo=1.0, hi=min(0.5 * run.horizon + 1.0, run.horizon), count=4)
        eval_ts = eval_ts[eval_ts - delta > 0]
        all_ts = _distinct(np.concatenate([eval_ts, eval_ts - delta, eval_ts + delta]))
        free_ts = None
        if not c.potential_terms and run.w_t is None:
            free_ts = run.sample_times(lo=0.0, hi=min(2.0, c.t_max), count=9)
        return eval_ts, delta, all_ts, free_ts

    def plan(self, run):
        _, _, all_ts, free_ts = self._times(run)
        return (all_ts if free_ts is None else np.concatenate([all_ts, free_ts])), None

    def run(self, run):
        c = run.config
        eval_ts, delta, all_ts, free_ts = self._times(run)
        free_traj = run.trajectory(free_ts) if free_ts is not None else None
        return conformal_identity_suite(
            run.trajectory(all_ts), run.spec, run.potential, run.w_t,
            run.adaptor() if c.potential_terms else None, eval_ts, delta, run.h_of_t,
            free_traj=free_traj)


# ---------------------------------------------------------------------------
# adaptor construction


def adaptor_suite(spec: SpectralData, h_op: HermitianOperator,
                  adaptor: AdaptorOperator, traj: Trajectory,
                  validity_horizon: float) -> EstimateReport:
    """Invariants of B_V (Hermitian, on Ran P_c, PSD for -Q >= 0), closure of
    the truncated commutator, the weighted residual over horizons up to
    ``validity_horizon`` (weight <x>^-1), and the decay of <B> along ``traj``,
    each read from B's factors: the core's Hermiticity defect and spectrum,
    B Phi_b, i[H, B] by column blocks, and B applied to the block of states."""
    report = EstimateReport("adaptor operator construction")
    scale = max(adaptor.norm_bound, 1e-30)
    report.add("hermiticity", (adaptor.hermiticity, "<=", adaptor.hermiticity_bound))

    phi_b = spec.eigenvectors[:, spec.indices(BOUND)]  # B - P_c B P_c = P_b (B - B P_b) + B P_b
    b_phi = adaptor.apply(phi_b)
    phi_h, phi_h_b = phi_b.conj().T, b_phi.conj().T  # Phi_b^* B = (B Phi_b)^*, B Hermitian
    phi_h_b -= (phi_h_b @ phi_b) @ phi_h  # Phi_b^* (B - B P_b); rows of the sum by blocks
    supp = float(np.max([np.abs(phi_b[r] @ phi_h_b + b_phi[r] @ phi_h).max()
                         for r in _row_blocks(spec.grid.n)]))
    report.add("continuous-subspace support", (supp, "<=", 1e-10 * max(1.0, scale)))

    min_eig = adaptor.min_eigenvalue if scale > 1e-20 else 0.0
    report.add("positivity (for -Q >= 0)", (min_eig, ">=", -1e-8 * scale))

    closure = commutator_closure_defect(spec, h_op, adaptor)
    q_scale = max(float(np.abs(adaptor.q.samples).max()), 1e-30)
    report.add("truncated commutator closure", (closure, "<=", 1e-8 * q_scale))

    lo, hi = max(adaptor.horizon / 4.0, 0.5), min(validity_horizon, 2 * adaptor.horizon)
    excess, note = math.nan, ""
    if hi > lo:
        horizons = np.linspace(lo, hi, 6)
        scan = residual_weighted_scan(spec, adaptor.q, horizons)
        excess = np.max(np.diff(scan) - 0.02 * scan[:-1])
        note = f"scan {np.array2string(scan, precision=4)}"
        report.series["residual_scan"] = ObservableSeries(horizons, scan, "weighted residual vs horizon")
    report.add("weighted residual non-increasing in horizon",
               (excess, "<=", 1e-9, "worst step excess"), (hi - lo, ">", 0.0, "scan span"),
               note=note)

    ts, vals = traj.times, np.empty(0)  # no time past the horizon: both clauses read NaN
    if len(ts):
        bu = adaptor.apply(np.column_stack(traj.states))  # one block over the sampled states
        vals = np.array([float(np.real(spec.grid.inner(u, b_u))) for u, b_u in zip(traj.states, bu.T)])
    report.series["adaptor_expectation"] = ObservableSeries(ts, vals, "adaptor expectation")
    report.add("expectation nonnegative",
               (float(vals.min()) if len(vals) else math.nan, ">=", -1e-8 * scale))
    slope, _ = fit_decay_rate(ObservableSeries(ts, np.maximum(vals, 1e-300), "bv"))
    report.rates["adaptor_expectation"] = slope
    report.add("expectation decay slope <= -0.8", (slope, "<=", -0.8))
    return report


def weighted_decay_suite(spec: SpectralData, fit_t_lo: float, fit_t_hi: float) -> EstimateReport:
    """Pointwise weighted decay: the fitted slope of ||W e^{-iHt} P_c W||,
    W = <x>^-1 (sigma = 1), on [fit_t_lo, fit_t_hi], over the band no wave
    leaves the box by fit_t_hi and the lattice resolves, and the contraction
    at t = 0."""
    sigma = 1.0
    report = EstimateReport("pointwise weighted decay")
    e_cut = min(transit_energy_limit(spec.grid, fit_t_hi), resolution_energy_limit(spec.grid))
    modes = len(spec.continuum_basis(e_max=e_cut)[1])
    slope = width = math.nan
    if modes:
        ts = np.geomspace(fit_t_lo, fit_t_hi, 10)
        vals = np.array([weighted_propagator_norm(spec, sigma, float(t), e_max=e_cut) for t in ts])
        series = ObservableSeries(ts, vals, "weighted propagator norm")
        report.series["weighted_norm"] = series
        slope, width = fit_decay_rate(series)
    report.rates["weighted_norm"] = slope
    report.add("weighted norm decay slope", (slope, "in", (-1.25, -0.80)),
               (modes, ">=", 1, "continuum modes in band"),
               note=f"band E<={e_cut:g}, width {width:.3f}")
    t0_val = weighted_propagator_norm(spec, sigma, 0.0, e_max=None)
    report.add("contraction at t=0", (t0_val, "<=", 1.0 + 1e-9))
    return report


class _Adaptor(Suite):
    clean_threshold = True
    needs = (("[potential].gaussians", "V != 0 (with V = 0, B_V = 0 and its expectation cannot decay)",
              lambda c: any(amp for amp, _, _ in c.potential_terms)), _FROM_ONE)

    def plan(self, run):
        return run.sample_times(lo=1.0, hi=run.horizon, count=12), None

    def run(self, run):
        times, _ = run.planned(self)
        return adaptor_suite(run.spec, run.hamiltonian(), run.adaptor(), run.trajectory(times),
                             run.horizon)


class _WeightedDecay(Suite):
    clean_threshold = True
    needs = (_RADIAL, ("[overrides].fit_t_lo", "0 < fit_t_lo < fit_t_hi (its fit window)",
                       lambda c: 0.0 < c.fit_t_lo < c.fit_t_hi))

    def run(self, run):
        return weighted_decay_suite(run.spec, run.config.fit_t_lo, run.config.fit_t_hi)


# ---------------------------------------------------------------------------
# positive potentials


def conformal_energy_series(traj: Trajectory, potential: Potential, times) -> ObservableSeries:
    """S(t) = ||(x - 2pt) psi||^2 + t^2 <V>, the quantity the sharp
    propagation estimate bounds by the initial L-norm squared."""
    grid = traj.grid
    v = potential.v(grid.points)
    return series_along(traj, times, "conformal+potential energy",
                        lambda t, u: conformal_value(grid, u, t) + t**2 * grid.expect(v, u))


def first_level_series(traj: Trajectory, potential: Potential, times) -> ObservableSeries:
    """sqrt(<C>/t + 4t<V>), the square root of the level-one propagation
    functional; it tracks the 1/sqrt(t) rate the first pass certifies for
    the L^6 norm before the estimate is iterated."""
    grid = traj.grid
    v = potential.v(grid.points)
    return series_along(traj, times, "first-level functional", lambda t, u: math.sqrt(
        max(conformal_value(grid, u, t) / t + 4.0 * t * grid.expect(v, u), 0.0)))


def lp_norm_series(traj: Trajectory, p: float, times) -> ObservableSeries:
    return series_along(traj, times, f"L{p} norm", lambda t, u: norm(traj.grid, u, "Lp", p=p))


def positive_potential_suite(traj: Trajectory, potential: Potential,
                             lnorm0: float, fit_window=None) -> EstimateReport:
    """Sharp propagation estimate for V >= 0, W = 0, and its decay corollaries.

    (a) sup_t [ ||(x-2pt)psi||^2 + t^2 <V> ] <= C Lnorm(psi(0))^2, C <= 10,
        with no growth trend;
    (b) fitted L^6 slope in [-1.25, -0.80] (the iterated rate);
    (c) fitted slope of the first-level functional in [-0.70, -0.35].
    """
    grid = traj.grid
    if not potential.is_nonnegative(grid.points):
        raise ValueError("positive-potential suite is gated to V >= 0")
    report = EstimateReport("positive potentials (sharp propagation + decay)")
    times = traj.valid_window(*(fit_window or (None, None)))
    if len(traj.times) and traj.validity_horizon < traj.times[-1]:
        report.warnings.append(
            f"validity window ends at t={traj.validity_horizon:g} (boundary mass)")

    energy = conformal_energy_series(traj, potential, times)
    ratio = ObservableSeries(energy.times, energy.values / lnorm0**2, "energy/Lnorm^2")
    report.checks.append(bounded_check("uniform conformal+potential bound", ratio, cap=10.0))

    l6 = lp_norm_series(traj, 6.0, times)
    slope6, width6 = fit_decay_rate(l6)
    report.rates["L6"] = slope6
    report.add("L6 decay slope", (slope6, "in", (-1.25, -0.80)), note=f"width {width6:.3f}")

    f1 = first_level_series(traj, potential, times)
    slope1, width1 = fit_decay_rate(f1)
    report.rates["first_level"] = slope1
    report.add("first-level decay slope", (slope1, "in", (-0.70, -0.35)),
               note=f"width {width1:.3f}")
    report.series = {"l6_norm": l6, "conformal_energy": energy, "first_level": f1}
    return report


class _PositivePotential(_Monitored):
    needs = (_V_NONNEGATIVE, ("[evolution].t_max", "t_max > 1.5 (its fit window starts there)",
                              lambda c: c.t_max > 1.5))

    def run(self, run):
        times, _ = run.planned(self)
        return positive_potential_suite(run.trajectory(times), run.potential,
                                        norm(run.grid, run.psi0, "Lnorm"),
                                        fit_window=(1.5, run.horizon))


# ---------------------------------------------------------------------------
# general time-independent potentials


def iterated_bound_series(traj: Trajectory, potential: Potential, times) -> ObservableSeries:
    """<psi(t), t^2 [(-x.grad V)]_+ psi(t)>, the quantity that must stay
    of order one once the estimate is iterated."""
    grid = traj.grid
    prof = positive_part(-potential.xdv(grid.points))
    return series_along(traj, times, "t^2 [(-x.grad V)]_+ expectation",
                        lambda t, u: t**2 * grid.expect(prof, u))


def lens_positivity_values(spec: SpectralData, potential: Potential, times,
                           e_max: float | None = None) -> np.ndarray:
    """Smallest eigenvalue of the continuum compression of 4Vt + C(t)/t at
    each t in ``times``.

    The lens conjugation turns C(t)/t into 4t p^2, so on the continuum
    subspace the combination is 4t H up to O(1/t) mixing through the bound
    states; boundedness from below, uniformly in t, is the claim.  The band
    limit strips lattice modes whose discrete momentum misrepresents their
    energy.  Since C(t)/t = x^2/t - 4A + 4t p^2, the compressions of x^2, A
    and V + p^2 onto the band, taken once, give each t as a k x k
    combination and one eigvalsh.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ValueError("lens positivity needs t > 0")
    grid = spec.grid
    if e_max is None:
        e_max = resolution_energy_limit(grid)
    cols, _ = spec.continuum_basis(e_max=e_max)
    factor = ConformalFactor(grid)

    def compress(m):
        return _symmetrize(cols.conj().T @ (m @ cols))

    x2, a = compress(factor.x2.matrix), compress(factor.a.matrix)
    vp2 = compress(factor.p2.matrix + multiplication(grid, potential.v(grid.points)).matrix)
    return np.array([np.linalg.eigvalsh(x2 / t - 4.0 * a + 4.0 * t * vp2)[0] for t in times])


def general_potential_suite(spec: SpectralData, lap: HermitianOperator,
                            potential: Potential, traj: Trajectory,
                            lens_times, e_max: float | None = None) -> EstimateReport:
    """Conformal estimate machinery for potentials with negative parts:
    genericity margin, lens positivity uniform in t, iterated boundedness."""
    report = EstimateReport("general time-independent potentials")
    delta = genericity_margin(spec, lap)
    report.rates["delta_star"] = delta
    report.add("genericity margin delta* > 0", (delta, ">", 0.0))

    vals = lens_positivity_values(spec, potential, lens_times, e_max=e_max)
    c_neg = np.maximum(0.0, -vals)
    scale = max(float(np.abs(vals).max()), 1.0)
    early = c_neg[: max(1, len(c_neg) // 2)]
    floor = max(float(early.max()), 1e-8 * scale)
    report.add("lens lower bound uniform in t", (c_neg.max(), "<=", 2.0 * floor),
               note=f"min eig range [{vals.min():.3g}, {vals.max():.3g}]")

    times = traj.valid_window()
    iterated = iterated_bound_series(traj, potential, times)
    report.checks.append(bounded_check("iterated t^2 [(-x.grad V)]_+ bound", iterated, cap=10.0))
    return report


class _GeneralPotential(Suite):
    """Reads its own exact flow: of psi0's continuum part, normalized, from
    t = 1 to that flow's validity horizon."""

    clean_threshold = True
    scipy = ("scipy.linalg",)

    def run(self, run):
        c, spec = run.config, run.spec
        psi = spec.continuum_part(run.psi0)
        psi = psi / norm(run.grid, psi, "L2")
        horizon = validity_horizon(spec, psi, c.t_max)
        traj = trajectory_linear(spec, psi, np.geomspace(1.0, max(horizon, 1.5), c.samples))
        return general_potential_suite(spec, laplacian(run.grid), run.potential, traj,
                                       np.geomspace(1.0, 50.0, 8),
                                       e_max=resolution_energy_limit(run.grid))


# ---------------------------------------------------------------------------
# defocusing cubic flow


def nls_suite(traj: Trajectory, mass0: float, at_one, fit_window) -> EstimateReport:
    """Defocusing cubic flow: mass conservation along ``traj`` against the
    initial ``mass0``, the order-2 step-halving ratio of ``at_one`` (the
    states at t = 1 stepped at dt, dt/2 and dt/4), and the sup-norm decay
    slope on ``fit_window``."""
    grid = traj.grid
    report = EstimateReport("defocusing cubic flow")
    masses = np.array([norm(grid, s, "L2") ** 2 for s in traj.states])
    drift = float(np.abs(masses - mass0).max())
    report.add("mass conservation", (drift, "<=", 1e-10))

    u1, u2, u4 = at_one
    d1 = norm(grid, u1 - u2, "L2")
    d2 = norm(grid, u2 - u4, "L2")
    ratio = d1 / d2 if d2 > 0 else math.inf
    report.add("order-2 step convergence ratio", (ratio, "in", ORDER2_WINDOW))

    window = traj.valid_window(*fit_window)
    linf = report.series["sup_norm"] = series_along(traj, window, "sup norm",
                                                    lambda t, u: norm(grid, u, "Lp", p=math.inf))
    slope, width = fit_decay_rate(linf)
    report.rates["sup_norm"] = slope
    report.add("sup-norm decay slope <= -0.3", (slope, "<=", -0.3), note=f"width {width:.3f}")
    return report


class _Nls(Suite):
    spectrum = False
    needs = (("[grid].kind", "kind = line", lambda c: c.grid_kind == "line"),
             ("[timedep].type", "type = semilinear (it checks the cubic flow alone)",
              lambda c: c.timedep_type == "semilinear"),
             ("[evolution].dt", "a dt that divides 1 (its order-2 check compares states at t = 1)",
              lambda c: abs(math.remainder(1.0, c.dt)) <= 1e-10),
             ("[overrides].fit_t_lo", "fit_t_lo < min(fit_t_hi, t_max) (its fit window)",
              lambda c: c.fit_t_lo < min(c.fit_t_hi, c.t_max)))

    def plan(self, run):
        """The samples of its fit window, then t = 1."""
        c = run.config
        fit_ts = run.sample_times(lo=c.fit_t_lo, hi=min(c.fit_t_hi, c.t_max), count=c.samples)
        return np.append(fit_ts, 1.0), None

    def run(self, run):
        c, (times, _) = run.config, run.planned(self)
        # the state at t = 1 at dt (off the shared sweep), and the order-2 check's
        # auxiliary references at dt/2 and dt/4
        at_one = [run.trajectory([1.0]).states[0]]
        at_one += [run.sweep([1.0], dt=c.dt / k).states[0] for k in (2.0, 4.0)]
        return nls_suite(run.trajectory(times[:-1]), norm(run.grid, run.psi0, "L2") ** 2,
                         at_one, (c.fit_t_lo, c.fit_t_hi))


# ---------------------------------------------------------------------------
# time-dependent potentials


def timedep_integral(grid: Grid, w_t: TimeDependentPotential, t_end: float,
                     dt: float) -> StepIntegral:
    """The step integral over [1, t_end] of the timedep suite's three
    integrands at psi(t) = u, the dispersive (||psi||_L6^2 +
    ||(x-2pt)psi/t||^2) / t, <4 dW/dt> and <4 (p.grad W + grad W.p)>, with
    16 geometric checkpoints from t = 1 to t_end."""
    # weighted samples, so that each sum is one dot product: W = amplitude(t)
    # profile(x), and ||psi||_6^6 = sum l6_weight |u|^6 with psi = u/r on radial grids
    profile = grid.quad_weight * w_t.profile(grid.points)
    d_profile_pairs = np.repeat(grid.quad_weight * w_t.d_profile(grid.points), 2)
    l6_weight = grid.quad_weight / (np.ones(grid.n) if grid.kind == "line" else grid.points**4)

    def integrand(t, u):
        u = np.ascontiguousarray(u, dtype=complex)
        pu = central_difference(grid, u)
        mod2 = u.real**2 + u.imag**2
        l6_sq = float(l6_weight.dot(mod2 * mod2 * mod2)) ** (1.0 / 3.0)
        disp = (l6_sq + conformal_value(grid, u, t, p_state=pu) / t**2) / t
        dtw = 4.0 * w_t.d_amplitude(t) * float(profile.dot(mod2))
        # <pu, dw u> + <u, dw pu> = 2 Re <pu, dw u>, dw = amplitude(t) d_profile
        pgrad = 8.0 * w_t.amplitude(t) * float(d_profile_pairs.dot(u.view(float) * pu.view(float)))
        return disp, dtw, pgrad

    return StepIntegral(integrand, 1.0, t_end, _lattice_ceil(np.geomspace(1.0, t_end, 16), dt))


def timedep_suite(traj: Trajectory, spec: SpectralData, w_t: TimeDependentPotential,
                  integral: StepIntegral, expect_log_growth: bool = False) -> EstimateReport:
    """Dispersive estimates under a time-dependent perturbation W(x, t), from
    ``integral`` (``timedep_integral``), fed by the W-flow to t_end, and
    ``traj``, that flow at its checkpoints (1 to t_end):
    (a) the dispersive integral int [ ||psi||_L6^2 + ||(x-2pt)psi/t||^2 ] dt/t
        against the L-norm at t=1 (at most 10 Lnorm^2, or log-growing when
        the smallness constant is order one);
    (b) boundedness of the H^1 norm (at most 4 Lnorm);
    (c) Cauchy decrease of <psi(t), f(H) psi(t)> for a smooth compactly
        supported f (asymptotic energy);
    (d) the time integration-by-parts identity
        int <4 dW/dt> = [<4W>] - int <4 (p.grad W + grad W.p)>.
    """
    grid, x, ts = traj.grid, traj.grid.points, traj.times
    report = EstimateReport("time-dependent potentials" + (" (log-growth regime)" if expect_log_growth else ""))

    u1, uT = traj.state_at(1.0), traj.states[-1]
    lnorm1 = norm(grid, u1, "Lnorm")
    w1_exp, wT_exp = (4.0 * grid.expect(w_t.w(x, t), u) for u, t in ((u1, 1.0), (uT, ts[-1])))

    disp_arr = integral.series(0, "dispersive integral").values
    disp_series = ObservableSeries(ts, np.maximum(disp_arr, 1e-300), "dispersive integral")

    if not expect_log_growth:
        # convergence certificate: the per-decade increment dI/dlog t must die
        # (a bounded integral has derivative decaying faster than 1/t)
        incs = np.diff(disp_arr) / np.diff(np.log(ts))
        deriv = ObservableSeries(ts[1:], np.maximum(incs, 1e-300), "dI/dlogt")
        dslope = trend_slope(deriv)
        report.add("dispersive integral bounded",
                   (disp_series.values.max() / lnorm1**2, "<=", 10.0),
                   (dslope, "<=", -0.5, "increment decay slope"))
    else:
        alpha, beta = log_growth_fit(disp_series)
        power_slope = trend_slope(disp_series.restricted(ts[len(ts) // 2], ts[-1]))
        report.rates["log_coefficient"] = beta
        report.add("log-growth envelope", (power_slope, "<=", 0.1),
                   (abs(beta), "<", math.inf, "|beta|"),
                   note=f"value ~ {alpha:.3g} + {beta:.3g} log t")

    h1 = series_along(traj, ts, "H1 norm", lambda t, u: norm(grid, u, "H1"))
    report.checks.append(bounded_check("H1 norm bounded", ObservableSeries(
        ts, h1.values / lnorm1, "H1/Lnorm"), cap=4.0))

    s = np.asarray(spec.eigenvalues, dtype=float) - 1.0  # f(H), a smooth bump on (0, 2)
    f_diag, inside = np.zeros_like(s), np.abs(s) < 1.0
    f_diag[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    energy = series_along(traj, ts, "smooth energy expectation", lambda t, u: float(
        np.sum(f_diag * np.abs(spec.coefficients(u)) ** 2) * grid.quad_weight))
    incs = np.abs(np.diff(energy.values))
    half = len(incs) // 2  # a window of fewer than 3 samples reads NaN
    early_inc, late_inc = ((float(incs[:half].max()), float(incs[half:].max())) if half
                           else (math.nan, math.nan))
    report.add("asymptotic energy Cauchy decrease", (late_inc, "<=", early_inc + 1e-12))

    # the identity's discretization share (momentum form vs the stencil the
    # flow actually uses) scales with h^2 times the magnitude of the terms
    _, dtw, pgrad = integral.integrals
    ibp_gap = abs(dtw - (wT_exp - w1_exp - pgrad))
    ibp_scale = abs(dtw) + abs(wT_exp - w1_exp) + abs(pgrad)
    report.add("integration by parts over time",
               (ibp_gap, "<=", max(1e-4, grid.h**2 * ibp_scale)))

    report.rates["disp_integral"] = float(disp_arr[-1])
    report.series = {
        "dispersive_integral": disp_series,
        "h1_norm": h1,
        "asymptotic_energy": energy,
        # the monitor's series; its envelope clause is the gronwall suite's
        "gronwall_monitor": gronwall_monitor(traj, 1.0, ts),
    }
    return report


def gronwall_value(grid: Grid, u, t: float, weight_sq) -> float:
    """M(t) = <u, [ |x-2pt|^2/t^2 + <x>^{-2 sigma} ] u>, ``weight_sq`` the
    samples of <x>^{-2 sigma}."""
    return conformal_value(grid, u, t) / t**2 + grid.expect(weight_sq, u)


def gronwall_monitor(traj: Trajectory, sigma: float, times=None) -> ObservableSeries:
    """M(s) (``gronwall_value``) along ``traj``, at ``times`` or on its valid window."""
    grid = traj.grid
    w2 = weight_vector(grid, 2.0 * sigma)
    ts = traj.valid_window() if times is None else np.asarray(times, dtype=float)
    return series_along(traj, ts[ts > 0], "gronwall monitor",
                        lambda t, u: gronwall_value(grid, u, t, w2))


def _envelope_clause(series: ObservableSeries, d_const: float):
    """M(t_i) <= M(t_0) e^{d (t_i - t_0)} + 1e-12 at every sample, as one clause
    on the worst excess over the samples after the first (the first's is 0 by
    construction); a series of fewer than 2 samples bounds nothing and reads NaN."""
    if len(series.times) < 2:
        return math.nan, "<=", 1e-12, "worst excess"
    envelope = series.values[0] * np.exp(d_const * (series.times - series.times[0]))
    return float((series.values - envelope)[1:].max()), "<=", 1e-12, "worst excess"


def gronwall_suite(traj: Trajectory, delta: float) -> EstimateReport:
    """The Gronwall monitor (sigma = 1) under its envelope, with
    d = max(delta, 1e-3) for the self-similar W of strength delta."""
    report = EstimateReport("Gronwall monitor")
    d_const = max(delta, 1e-3)
    series = report.series["gronwall_monitor"] = gronwall_monitor(traj, 1.0)
    report.add(f"monitor under e^(d(t-1)) envelope, d={d_const:g}",
               _envelope_clause(series, d_const))
    return report


class _Timedep(Suite):
    needs = (_W_FLOW, _FROM_ONE, _THREE_FROM_ONE)

    def plan(self, run):
        """Its step integral of the W-flow to t_end, the horizon (at least 2,
        at most t_max) on the dt lattice, and the checkpoints it records at."""
        c = run.config
        integral = timedep_integral(run.grid, run.w_t, _lattice_floor(
            min(c.t_max, max(run.horizon, 2.0)), c.dt), c.dt)
        return integral.checkpoints, integral

    def run(self, run):
        times, integral = run.planned(self)
        return timedep_suite(run.trajectory(times), run.spec, run.w_t, integral,
                             expect_log_growth=run.config.expect_log_growth)


class _Gronwall(_Monitored):
    needs = (_FROM_ONE,)

    def run(self, run):
        times, _ = run.planned(self)
        return gronwall_suite(run.trajectory(times), run.config.timedep_delta)


# ---------------------------------------------------------------------------
# adapted Morawetz estimate


def morawetz_multiplier(grid: Grid, g_samples) -> HermitianOperator:
    """gamma = G x p + p x G with G = diag g(r); Hermitian by symmetry."""
    g_samples = np.asarray(g_samples, dtype=float)
    if np.any(g_samples <= 0):
        raise ValueError("the Morawetz profile g must be positive")
    gx = multiplication(grid, g_samples * grid.points).matrix
    p = momentum(grid).matrix
    return HermitianOperator(gx @ p + p @ gx, grid, "gamma")


def wall_trimmed(matrix, grid: Grid):
    """Compression dropping the outermost grid point at each artificial wall.

    The Dirichlet wall carries the outgoing-flux term of the virial identity
    (corner entries of size 2 a(wall)/h^2); the zero-wall-flux subspace is
    where the continuum positivity statement lives.  The r=0 end of a radial
    grid is a physical node and keeps its row.
    """
    if grid.kind == "line":
        return matrix[1:-1, 1:-1]
    return matrix[:-1, :-1]


def morawetz_commutator_check(grid: Grid, g_samples) -> CheckResult:
    """min eig of the wall-interior compression of i[-lap, gamma] >= -1e-8 ||.||,
    with the scale max |lambda|, from one eigensolve of its lower bands (it is
    real symmetric, gamma being imaginary)."""
    import scipy.linalg  # here, so that a run without this check does not load it

    comm = commutator_i(laplacian(grid), morawetz_multiplier(grid, g_samples))
    trimmed = wall_trimmed(comm.matrix, grid)
    lower = [np.pad(trimmed.diagonal(-d).real, (0, d)) for d in range(max(trimmed.bands) + 1)]
    evals = scipy.linalg.eigvals_banded(np.array(lower), lower=True)
    scale, min_eig = float(np.abs(evals).max()), float(evals[0])
    return CheckResult("kinetic Morawetz commutator positivity",
                       [(min_eig, ">=", -1e-8 * scale)], note=f"scale {scale:.3g}")


def morawetz_cancellation_check(grid: Grid, spec: SpectralData, potential: Potential,
                                g_samples, horizon: float) -> tuple[CheckResult, AdaptorOperator]:
    """Adaptor cancellation of the bad-sign potential commutator:
    [i[V, gamma]]_- + i[H, B_gamma] vanishes up to the truncation remainder,
    where B_gamma is built from Q = -[i[V, gamma]]_-, measured in the
    <x>^{-1} weighted norm (sigma = 1); the lower triangle of i[H, B_gamma]
    is filled in by column blocks from B_gamma's factors."""
    sigma = 1.0
    x = grid.points
    profile = negative_part(-2.0 * g_samples * potential.xdv(x))
    q = QSelection("custom", -profile, provenance="-[i[V,gamma]]_- profile")
    adaptor = build_adaptor(spec, q, horizon, sigma=sigma)
    h = (laplacian(grid) + multiplication(grid, potential.v(x))).matrix
    total = np.zeros((grid.n, grid.n), dtype=complex)  # its lower triangle, as eigvalsh reads
    for blk, comm in commutator_columns(h, adaptor):
        total[blk.start:, blk] = comm
    total[np.diag_indices(grid.n)] += profile
    w = weight_vector(grid, sigma)
    total *= w[:, None]
    total *= w
    # the weighted matrix is Hermitian, so its 2-norm is its largest |eigenvalue|
    measured = float(np.abs(np.linalg.eigvalsh(total, UPLO="L")).max())
    bound = adaptor.residual_weighted + 1e-8 * max(1.0, float(np.abs(profile).max()))
    return CheckResult("adaptor cancellation of [i[V,gamma]]_-", [(measured, "<=", bound)],
                       note=f"truncation residual {adaptor.residual_weighted:.3g}"), adaptor


def weighted_gradient_sq(grid: Grid, state, weight_samples_mid) -> float:
    """Midpoint-rule weighted gradient integral; on radial grids the state is
    converted to psi = u/r before differencing."""
    u = np.asarray(state, dtype=complex)
    if grid.kind == "line":
        psi = u
        r2 = np.ones(grid.n - 1)
        meas = grid.h
    else:
        psi = u / grid.points
        mid = 0.5 * (grid.points[1:] + grid.points[:-1])
        r2 = mid**2
        meas = 4.0 * math.pi * grid.h
    d = np.diff(psi) / grid.h
    return float(meas * np.sum(weight_samples_mid**2 * r2 * np.abs(d) ** 2))


def smoothing_integral(grid: Grid, t_end: float, dt: float) -> StepIntegral:
    """The step integral over [0, t_end] of the local-smoothing density
    ||<x>^{-1/2-eps} grad psi||^2 + ||<x>^{-1-eps} psi||^2 (eps = 0.1) and of
    ||psi||_{H^{1/2}}^2 at psi(t) = u, with 8 checkpoints from t_end / 6."""
    x, eps_m = grid.points, 0.1
    w_grad_mid = (1.0 + (0.5 * (x[1:] + x[:-1])) ** 2) ** (-(0.5 + eps_m) / 2.0)
    w_loc = (1.0 + x**2) ** (-(1.0 + eps_m))

    def integrand(t, u):
        return (weighted_gradient_sq(grid, u, w_grad_mid)
                + float(grid.quad_weight * np.sum(w_loc * np.abs(u) ** 2)), h_half_norm_sq(grid, u))

    return StepIntegral(integrand, 0.0, t_end, _lattice_ceil(np.linspace(t_end / 6.0, t_end, 8), dt))


def _nnls_two_columns(a, b) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0 for an (m, 2) matrix a, in closed form:
    the least-squares x if it is nonnegative; otherwise the optimum lies on a
    face of the quadrant (the active-set rule of Lawson & Hanson, Solving
    Least Squares Problems, 1974, ch. 23), so it is the better of the two
    one-column fits clamped at zero, or zero."""
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x >= 0):
        return x
    fits = np.zeros((3, 2))  # zero, then each column alone
    for j, col in enumerate(a.T):
        fits[j + 1, j] = max(col @ b, 0.0) / (col @ col) if col @ col > 0 else 0.0
    return min(fits, key=lambda x: np.linalg.norm(a @ x - b))


def morawetz_suite(spec: SpectralData, potential: Potential, l6: Trajectory,
                   smoothing: StepIntegral, refined: StepIntegral,
                   a: float = 0.5, horizon: float = 6.0) -> EstimateReport:
    """Adapted Morawetz estimate: multiplier positivity, adaptor cancellation,
    the local-smoothing integral I(t) = int_0^t of the ``smoothing_integral``
    density with its fitted envelope I(T) ~ C sup_t ||psi||_{H^{1/2}}^2 +
    C' T^{1-a}, C, C' >= 0 (``smoothing``, the step integral of the flow,
    checked stable against ``refined``, the same flow on a finer grid), and
    the theta-weighted conformal corollary: the fitted slope of the L^6 norm
    squared at the times of ``l6`` is at most -theta + 0.1, theta = 1/2."""
    grid = l6.grid
    x = grid.points
    g_samples = 1.0 / np.sqrt(1.0 + x**2)
    if not potential.is_nonnegative(x):
        raise ValueError("the adapted Morawetz suite assumes V >= 0")

    report = EstimateReport("adapted Morawetz estimate")
    report.checks.append(morawetz_commutator_check(grid, g_samples))
    cancel, adaptor = morawetz_cancellation_check(grid, spec, potential, g_samples, horizon)
    report.checks.append(cancel)

    def fit(integral: StepIntegral, key: str):
        """(C, C') fitted to the partial integrals of ``integral``, its series ``key``."""
        series = report.series[key] = integral.series(0, "smoothing integral")
        basis = np.column_stack([np.full_like(series.times, integral.peaks[1]),
                                 series.times ** (1.0 - a)])
        c0, c1 = _nnls_two_columns(basis, series.values)
        return float(c0), float(c1)

    c0, c1 = fit(smoothing, "smoothing_integral")
    integral = report.series["smoothing_integral"]
    fitted = c0 * smoothing.peaks[1] + c1 * integral.times ** (1.0 - a)
    fit_gap = float(np.abs(fitted - integral.values).max() / max(integral.values.max(), 1e-300))
    report.rates["smoothing_C"] = c0
    report.rates["smoothing_Cprime"] = c1
    report.add("smoothing integral envelope fit", (fit_gap, "<=", 0.25),
               note=f"C={c0:.3g}, C'={c1:.3g}")

    c0f, c1f = fit(refined, "smoothing_integral_refined")
    rel = max(abs(c0f - c0) / max(abs(c0), 1e-12), abs(c1f - c1) / max(abs(c1), 1e-12))
    report.add("smoothing constants stable under refinement", (rel, "<=", 0.20),
               note=f"refined C={c0f:.3g}, C'={c1f:.3g}")

    l6sq = report.series["l6_squared"] = series_along(
        l6, l6.times, "L6^2", lambda t, u: norm(grid, u, "Lp", p=6.0) ** 2)
    slope, _ = fit_decay_rate(l6sq)
    report.rates["L6sq_theta"] = slope
    report.add("theta-weighted conformal corollary", (slope, "<=", -0.4))
    return report


class _Morawetz(Suite):
    needs = (_RADIAL, _FROM_ONE, _THREE_FROM_ONE, _V_NONNEGATIVE, _W_FLOW)
    scipy = ("scipy.linalg",)

    def plan(self, run):
        """Its L6 times, 10 from t = 1 on the dt lattice, and the smoothing
        step integral of the W-flow to min(t_max, 10)."""
        c = run.config
        t_end = _lattice_floor(min(c.t_max, 10.0), c.dt)
        return run.sample_times(1.0, t_end, 10), smoothing_integral(run.grid, t_end, c.dt)

    def run(self, run):
        (l6_times, smoothing), grid = run.planned(self), run.grid
        l6 = run.trajectory(l6_times)
        # the refinement check's auxiliary sweep, on about 1.5 times the points
        fine = make_grid(grid.kind, int(round(grid.n * 1.5)) | 1, grid.extent)
        refined = smoothing_integral(fine, smoothing.hi, run.config.dt)
        run.sweep([smoothing.hi], grid=fine, observer=refined)
        return morawetz_suite(run.spec, run.potential, l6, smoothing, refined,
                              a=run.config.timedep_a, horizon=run.t_b)


#: suite name -> its Suite
SUITES = {"operator_identities": _OperatorIdentities(), "conformal_identity": _ConformalIdentity(),
          "adaptor": _Adaptor(), "weighted_decay": _WeightedDecay(),
          "positive_potential": _PositivePotential(), "general_potential": _GeneralPotential(),
          "timedep": _Timedep(), "gronwall": _Gronwall(), "nls": _Nls(), "morawetz": _Morawetz()}
