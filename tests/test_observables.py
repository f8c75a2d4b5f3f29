import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proplab import (ObservableSeries, Potential, fit_decay_rate,
                     free_spectral_data, gaussian_state, laplacian, make_grid,
                     observable_series, pres_check, trajectory_linear)
from proplab.observables import (CheckResult, EstimateReport, bounded_check,
                                 heisenberg_consistency, log_growth_fit)
from proplab.operators import HermitianOperator, conformal_value
from proplab.suites import conformal_prob

from conftest import plant


def free_traj(grid, times, width=1.2):
    spec = free_spectral_data(grid)
    psi = gaussian_state(grid, width=width)
    return trajectory_linear(spec, psi, np.asarray(times, dtype=float)), spec


def test_series_validation():
    with pytest.raises(ValueError, match="increasing"):
        ObservableSeries(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        ObservableSeries(np.array([1.0, 2.0]), np.array([1.0, np.inf]))


def test_identity_observable_is_mass(line_grid):
    times = np.linspace(0.0, 2.0, 6)
    traj, _ = free_traj(line_grid, times)
    from proplab.observables import PropagationObservable
    ident = HermitianOperator(np.eye(line_grid.n, dtype=complex), line_grid, "I")
    zero = HermitianOperator(np.zeros((line_grid.n, line_grid.n), dtype=complex),
                             line_grid, "0")
    prob = PropagationObservable("mass", lambda t: ident, lambda t: zero)
    series = observable_series(traj, prob, times)
    np.testing.assert_allclose(series.values, series.values[0], atol=1e-10)


def test_free_conformal_series_constant():
    g = make_grid("line", 384, 25.0)
    times = np.linspace(0.0, 2.0, 9)
    traj, _ = free_traj(g, times)
    values = np.array([conformal_value(g, traj.state_at(t), t) for t in times])
    rel = np.abs(values - values[0]) / values[0]
    assert rel.max() <= 1e-6
    # at t = 0 the value is <x^2> of the initial state
    psi = traj.state_at(0.0)
    x2 = float(np.real(g.inner(psi, g.points**2 * psi)))
    assert values[0] == pytest.approx(x2, rel=1e-10)


def test_heisenberg_consistency_identity_and_conformal(line_grid):
    t0, dt = 1.0, 0.01
    times = np.array([t0 - dt, t0, t0 + dt])
    traj, spec = free_traj(line_grid, times)
    lap_op = laplacian(line_grid)

    from proplab.observables import PropagationObservable
    ident = HermitianOperator(np.eye(line_grid.n, dtype=complex), line_grid, "I")
    zero = HermitianOperator(np.zeros((line_grid.n, line_grid.n), dtype=complex),
                             line_grid, "0")
    prob_i = PropagationObservable("mass", lambda t: ident, lambda t: zero)
    assert heisenberg_consistency(traj, prob_i, lambda t: lap_op, t0, dt) <= 1e-9

    prob_c = conformal_prob(line_grid, None, None, None)
    # centered-difference error O(dt^2 <C>/t^4)
    assert heisenberg_consistency(traj, prob_c, lambda t: lap_op, t0, dt) <= 5e-4


def test_heisenberg_consistency_converges_and_detects_corruption(monkeypatch):
    g1, g2 = make_grid("line", 256, 15.0), make_grid("line", 513, 15.0)

    def resid(g, dt):
        t0 = 1.0
        times = np.array([t0 - dt, t0, t0 + dt])
        pot = Potential.gaussian(1.0)
        m = laplacian(g).matrix + np.diag(pot.v(g.points))
        h_op = HermitianOperator(m, g, "H")
        from proplab import classify_spectrum, diagonalize
        spec = classify_spectrum(diagonalize(h_op))
        psi = gaussian_state(g, width=1.2)
        traj = trajectory_linear(spec, psi, times)
        prob = conformal_prob(g, pot, None, None)
        return heisenberg_consistency(traj, prob, lambda t: h_op, t0, dt)

    r1, r2 = resid(g1, 0.02), resid(g2, 0.01)
    assert 3.5 <= r1 / r2 <= 6.0  # dt^2 and h^2 parts both quarter

    # corrupted analytic derivative must blow the residual up
    g = g1
    pot = Potential.gaussian(1.0)
    m = laplacian(g).matrix + np.diag(pot.v(g.points))
    h_op = HermitianOperator(m, g, "H")
    from proplab import classify_spectrum, diagonalize
    spec = classify_spectrum(diagonalize(h_op))
    psi = gaussian_state(g, width=1.2)
    times = np.array([0.98, 1.0, 1.02])
    traj = trajectory_linear(spec, psi, times)
    plant(monkeypatch, "negated_db_dt")
    bad = conformal_prob(g, pot, None, None)
    assert heisenberg_consistency(traj, bad, lambda t: h_op, 1.0, 0.02) > 1.0


def test_pres_check_free_flow_and_violation():
    g = make_grid("line", 256, 15.0)
    times = np.linspace(1.0, 4.0, 13)
    traj, _ = free_traj(g, times)
    prob = conformal_prob(g, None, None, None)
    b_series = observable_series(traj, prob, times)
    # D_H (C/t) = -C/t^2 <= 0: the PROB decays, so C = 0 and g = 0 works
    zero_c = ObservableSeries(times, np.zeros_like(times), "0")
    res = pres_check(b_series, zero_c, 0.0)
    assert res.passed
    # the scaled conformal quantity itself as integrand, bounded by sup <B>
    c_series = ObservableSeries(times, b_series.values / times, "C/t^2")
    res2 = pres_check(b_series, c_series, 0.0)
    assert res2.passed and res2.measured <= res2.bound
    # a negative remainder integral enters the bound as |g|, so it only loosens it
    res3 = pres_check(b_series, c_series, -1e9)
    assert res3.passed and res3.bound >= 1e9
    bad = pres_check(ObservableSeries(times, -np.ones_like(times), "B"),
                     ObservableSeries(times, np.ones_like(times), "C"), 0.0)
    assert not bad.passed


def test_propagation_inequality_free_flow_and_skip():
    # the conformal identity suite checks the propagation inequality on the
    # free flow, where D_H (C/t) = -||(x - 2tp) u / t||^2 with no remainder,
    # and skips it, with a warning, once a potential enters
    from proplab.operators import momentum, position
    from proplab.suites import conformal_identity_suite
    g = make_grid("line", 256, 15.0)
    times, delta = np.linspace(1.0, 4.0, 13), 0.02
    traj, spec = free_traj(g, np.sort(np.concatenate([times - delta, times, times + delta])))
    report = conformal_identity_suite(traj, spec, None, None, None, times, delta,
                                      lambda t: laplacian(g))
    res = next(c for c in report.checks if c.name == "propagation inequality")
    assert res.passed and not report.warnings
    # quadrature-level soundness: slack stays below the O(dt^2) budget scale
    assert res.measured <= res.bound
    # the integrand is ||C(t) u||^2 with the factor C(t) = (x - 2tp)/t
    x, p = position(g).matrix, momentum(g).matrix
    c_sq = [g.quad_weight * np.sum(np.abs(((x - 2.0 * t * p) / t) @ traj.state_at(t)) ** 2)
            for t in times]
    assert res.measured == pytest.approx(float(np.trapezoid(c_sq, times)), rel=1e-12)
    report = conformal_identity_suite(traj, spec, Potential.gaussian(1.0), None, None, times,
                                      delta, lambda t: laplacian(g))
    assert "propagation inequality" not in [c.name for c in report.checks]
    assert any("skipped" in w for w in report.warnings)


def test_fit_decay_rate_oracles(rng):
    ts = np.geomspace(1.0, 30.0, 24)
    exact = ObservableSeries(ts, 3.0 / ts, "c/t")
    slope, width = fit_decay_rate(exact)
    assert slope == pytest.approx(-1.0, abs=1e-6)
    const = ObservableSeries(ts, np.full_like(ts, 2.5), "const")
    assert fit_decay_rate(const)[0] == pytest.approx(0.0, abs=1e-12)
    noisy = ObservableSeries(ts, (3.0 / ts) * (1.0 + 0.01 * rng.normal(size=ts.size)), "noisy")
    slope, _ = fit_decay_rate(noisy)
    assert -1.1 <= slope <= -0.9


def test_fit_decay_rate_drops_and_errors():
    ts = np.geomspace(1.0, 10.0, 12)
    vals = 1.0 / ts
    vals[3] = -1.0  # dropped
    slope, _ = fit_decay_rate(ObservableSeries(ts, vals, "mixed"))
    assert slope == pytest.approx(-1.0, abs=1e-6)
    # fewer than 8 positive samples: a NaN slope and width, which fail their clause
    for short in (ObservableSeries(ts, -np.ones_like(ts), "neg"),
                  ObservableSeries(ts[:5], vals[:5], "short")):
        assert all(map(np.isnan, fit_decay_rate(short)))


def test_bounded_check_and_log_fit():
    ts = np.geomspace(1.0, 50.0, 16)
    flat = ObservableSeries(ts, 2.0 + 0.01 / ts, "flat")
    assert bounded_check("flat stays put", flat, cap=3.0).passed
    growing = ObservableSeries(ts, ts**0.5, "sqrt growth")
    assert not bounded_check("growth detected", growing, cap=100.0).passed
    logser = ObservableSeries(ts, 1.0 + 2.0 * np.log(ts), "log")
    alpha, beta = log_growth_fit(logser)
    assert beta == pytest.approx(2.0, abs=1e-9)


def test_report_rendering():
    rep = EstimateReport("demo")
    rep.add("alpha", (1.0, "<=", 2.0))
    rep.add("beta", (3.0, "<=", 2.0), note="over")
    text = rep.render()
    assert "FAIL" in text and "alpha" in text and not rep.passed


_RELATION = {"<=": lambda m, b: m <= b, ">=": lambda m, b: m >= b,
             "<": lambda m, b: m < b, ">": lambda m, b: m > b,
             "in": lambda m, b: b[0] <= m <= b[1]}
_VALUES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 1e-300, math.inf, -math.inf,
                                                  math.nan]))


@st.composite
def _clauses(draw):
    """A clause whose numbers are often equal, or equal once rounded to 4 digits."""
    measured = draw(_VALUES)
    near = st.one_of(_VALUES, st.just(measured),
                     st.floats(-1e-5, 1e-5).map(lambda d: measured + d * abs(measured)))
    relation = draw(st.sampled_from(sorted(_RELATION)))
    bound = (draw(near), draw(near)) if relation == "in" else draw(near)
    return measured, relation, bound, draw(st.sampled_from(["measured", "scan span"]))


def _printed_holds(text):
    """The verdict a reader takes from a printed clause."""
    window = re.fullmatch(r"(.+) (\S+) in \[(\S+), (\S+)\]", text)
    if window:
        m, lo, hi = map(float, window.groups()[1:])
        return lo <= m <= hi
    _, m, relation, b = re.fullmatch(r"(.+) (\S+) (<=|>=|<|>) (\S+)", text).groups()
    return _RELATION[relation](float(m), float(b))


@settings(max_examples=400, deadline=None)
@given(clauses=st.lists(_clauses(), min_size=1, max_size=4))
def test_check_verdict_is_the_conjunction_of_its_printed_clauses(clauses):
    check = CheckResult("random", clauses)
    truths = [_RELATION[r](m, b) for m, r, b, _ in clauses]
    assert check.passed == all(truths)
    m0, r0, b0, _ = clauses[0]
    assert check.measured == m0 or math.isnan(m0)
    assert check.bound == (b0[1] if r0 == "in" else b0) or math.isnan(check.bound)
    head, body = check.line().split(": ", 1)
    assert head == ("  [PASS] random" if check.passed else "  [FAIL] random")
    # no printed clause, rounded or not, tells another verdict than the one tested
    assert [_printed_holds(text) for text in body.split("; ")] == truths


def test_check_prints_four_digits_unless_rounding_would_mislead():
    assert CheckResult("c", [(1.23456, "<=", 2.0)]).line() == "  [PASS] c: measured 1.235 <= 2"
    assert CheckResult("c", [(1.00001, ">", 1.0)]).line() == "  [PASS] c: measured 1.00001 > 1.0"
    assert CheckResult("c", [(1.00001, "<=", 1.0)]).line() == "  [FAIL] c: measured 1.00001 <= 1.0"
    nan = CheckResult("c", [(math.nan, "in", (3.5, 4.5)), (2, ">", 0, "span")], note="n")
    assert nan.line() == "  [FAIL] c: measured nan in [3.5, 4.5]; span 2 > 0 (n)"
    assert not nan.passed and nan.bound == 4.5
