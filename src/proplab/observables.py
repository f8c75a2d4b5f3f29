"""Propagation observables, their time series along a flow, Heisenberg
consistency, the integrated propagation inequality, decay-rate fitting, and
checks whose verdict is the conjunction of the clauses they print.

A propagation observable is a time-dependent self-adjoint family B(t) whose
Heisenberg derivative D_H B = i[H, B] + dB/dt splits into a nonnegative part
C(t)^* C(t) plus an integrable remainder g(t); integrating the derivative of
<psi(t), B(t) psi(t)> then bounds int ||C psi||^2 dt by sup <B> + ||g||_L1.

Every number here is read from matvecs: <u, B u> from B u, and the
commutator part of D_H B from <u, i[H, B] u> = -2 Im <H u, B u>.  No D_H B
matrix and no banded-plus-dense sum is formed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .evolution import Trajectory
from .grids import Grid
from .operators import HermitianOperator, OperatorSum

REALNESS_TOL = 1e-9
MIN_FIT_SAMPLES = 8
#: largest fitted growth trend a series may show and still count as bounded
TREND_CAP = 0.05

#: what an observable family's members may be; both are read through apply
Operator = HermitianOperator | OperatorSum


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("series times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def restricted(self, lo: float, hi: float) -> "ObservableSeries":
        m = (self.times >= lo - 1e-12) & (self.times <= hi + 1e-12)
        return ObservableSeries(self.times[m], self.values[m], self.label)


@dataclass
class CheckResult:
    """A check passes when every clause ``(measured, relation, bound[, label])``
    holds: relation ``<=``, ``>=``, ``<``, ``>``, or ``in`` a closed window
    ``(lo, hi)``, with any tolerance inside the bound; a NaN fails its clause.
    ``measured`` and ``bound`` read the first clause (a window's upper end)."""

    name: str
    clauses: tuple
    note: str = ""

    def __post_init__(self):
        self.clauses = tuple(_clause(*c) for c in self.clauses)
        self.measured, relation, bound, _ = self.clauses[0]
        self.bound = bound[1] if relation == "in" else bound

    @staticmethod
    def holds(clause) -> bool:
        return bool(_RELATIONS[clause[1]](clause[0], clause[2]))

    @property
    def passed(self) -> bool:
        return all(map(self.holds, self.clauses))

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        note = f" ({self.note})" if self.note else ""
        return f"  [{flag}] {self.name}: " + "; ".join(map(_clause_text, self.clauses)) + note


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
              "in": lambda measured, window: window[0] <= measured <= window[1]}


def _clause(measured, relation, bound, label="measured"):
    bound = tuple(map(float, bound)) if relation == "in" else float(bound)
    return float(measured), relation, bound, label


def _clause_text(clause) -> str:
    """A clause as printed: at 4 significant digits, unless the rounded
    numbers would tell another verdict than the clause; then in full."""
    measured, relation, bound, label = clause
    window = relation == "in"
    for fmt in ("{:.4g}", "{!r}"):
        m, b = fmt.format(measured), [fmt.format(v) for v in (bound if window else [bound])]
        if CheckResult.holds(_clause(m, relation, b if window else b[0])) == CheckResult.holds(clause):
            break
    return f"{label} {m} {relation} " + (f"[{b[0]}, {b[1]}]" if window else b[0])


@dataclass
class EstimateReport:
    theorem: str
    checks: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add(self, name, *clauses, note=""):
        self.checks.append(CheckResult(name, clauses, note))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        head = f"{self.theorem}: {'PASS' if self.passed else 'FAIL'}"
        lines = [head] + [c.line() for c in self.checks]
        for k, v in self.rates.items():
            lines.append(f"  rate {k} = {v:+.4f}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class PropagationObservable:
    """Builder bundle for a time-dependent observable family.

    ``builder(t)`` and ``db_dt(t)`` return Hermitian operators read through
    ``apply``: a HermitianOperator, or an OperatorSum whose banded and dense
    terms are never summed (dB/dt comes from the analytic formula of the
    family, never from differencing matrices).
    """

    label: str
    builder: Callable[[float], Operator]
    db_dt: Callable[[float], Operator]


def expectation_value(grid: Grid, op: Operator, state) -> float:
    """<u, op u> by one ``apply``, with a realness guard for Hermitian op."""
    raw = grid.inner(state, op.apply(state))
    scale = max(1.0, abs(raw))
    if abs(raw.imag) > REALNESS_TOL * scale:
        raise ValueError(f"expectation has imaginary residue {raw.imag:.2e}")
    return float(raw.real)


def commutator_form(grid: Grid, a_u, b_u) -> float:
    """<u, i[A, B] u> = -2 Im <A u, B u>, from A u and B u (A, B Hermitian)."""
    return -2.0 * float(np.imag(grid.inner(a_u, b_u)))


def series_along(traj: Trajectory, times, label: str, value) -> ObservableSeries:
    """The series of ``value(t, u)``, u = psi(t), at the (sampled) ``times``."""
    times = np.asarray(times, dtype=float)
    return ObservableSeries(times, np.array([value(t, traj.state_at(t)) for t in times]), label)


def observable_series(traj: Trajectory, prob: PropagationObservable, times) -> ObservableSeries:
    """<psi(t), B(t) psi(t)> at the requested (sampled) times."""
    return series_along(traj, times, prob.label,
                        lambda t, u: expectation_value(traj.grid, prob.builder(t), u))


def centered_derivative(traj: Trajectory, prob: PropagationObservable,
                        t: float, dt_offset: float) -> float:
    """(<B(t + d)> - <B(t - d)>) / 2d on the states the trajectory samples."""
    grid = traj.grid
    fwd = expectation_value(grid, prob.builder(t + dt_offset), traj.state_at(t + dt_offset))
    bwd = expectation_value(grid, prob.builder(t - dt_offset), traj.state_at(t - dt_offset))
    return (fwd - bwd) / (2.0 * dt_offset)


def heisenberg_expectation(grid: Grid, h_op: Operator, b_op: Operator,
                           db_dt: Operator, state) -> float:
    """<u, (i[H, B] + dB/dt) u>, with <u, i[H, B] u> = -2 Im <H u, B u>."""
    comm = commutator_form(grid, h_op.apply(state), b_op.apply(state))
    return comm + expectation_value(grid, db_dt, state)


def heisenberg_consistency(traj: Trajectory, prob: PropagationObservable,
                           h_of_t: Callable[[float], Operator],
                           t: float, dt_offset: float) -> float:
    """|centered difference of <B> minus <i[H,B] + dB/dt>| at time t.

    The trajectory must sample t and t +- dt_offset.  On smooth states the
    residual is O(dt_offset^2 + h^2); a corrupted dB/dt blows it up.
    """
    d_h = heisenberg_expectation(traj.grid, h_of_t(t), prob.builder(t), prob.db_dt(t),
                                 traj.state_at(t))
    return abs(centered_derivative(traj, prob, t, dt_offset) - d_h)


def pres_check(b_series: ObservableSeries, c_norm_sq: ObservableSeries,
               g_abs_integral: float) -> CheckResult:
    """Integrated propagation inequality:
    int ||C psi||^2 dt <= sup <B> + ||g||_L1 + 1e-9."""
    integral = float(np.trapezoid(c_norm_sq.values, c_norm_sq.times))
    bound = float(np.max(b_series.values)) + abs(g_abs_integral) + 1e-9
    return CheckResult("propagation inequality", [(integral, "<=", bound)])


def fit_decay_rate(series: ObservableSeries):
    """Least-squares slope of log(value) against log(t).

    Returns (slope, width) with width twice the slope's standard error.
    Non-positive values are dropped; with fewer than 8 positive samples both
    read NaN, which fails any clause they enter.
    """
    ts, vs = series.times, series.values
    keep = vs > 0
    ts, vs = ts[keep], vs[keep]
    if len(ts) < MIN_FIT_SAMPLES:
        return math.nan, math.nan
    lx, ly = np.log(ts), np.log(vs)
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    slope = float(coeffs[0])
    width = 2.0 * float(np.sqrt(cov[0, 0]))
    return slope, width


def trend_slope(series: ObservableSeries) -> float:
    """Growth-trend reading of a (positive) series: fitted log-log slope,
    with zero returned for an identically tiny series (and NaN, as from
    ``fit_decay_rate``, for one with too few positive samples)."""
    if np.all(series.values <= 1e-300):
        return 0.0
    return fit_decay_rate(series)[0]


def bounded_check(name: str, series: ObservableSeries, cap: float) -> CheckResult:
    """Operationalized "bounded up to a constant": the series stays below the
    declared cap and its fitted growth trend does not exceed TREND_CAP.  An
    empty series reads NaN, and fails."""
    peak = np.max(series.values) if len(series.values) else np.nan
    return CheckResult(name, [(peak, "<=", cap), (trend_slope(series), "<=", TREND_CAP, "trend")])


def log_growth_fit(series: ObservableSeries):
    """Fit value ~ alpha + beta log t; returns (alpha, beta), both NaN on
    fewer than 2 samples."""
    if len(series.times) < 2:
        return math.nan, math.nan
    lx = np.log(series.times)
    beta, alpha = np.polyfit(lx, series.values, 1)
    return float(alpha), float(beta)
