import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proplab import (HermitianOperator, Potential, TimeDependentPotential,
                     build_adaptor, classify_spectrum, conformal_Q, diagonalize,
                     free_spectral_data, gaussian_state, laplacian, make_grid,
                     momentum, multiplication, norm, position, trajectory_linear)
from proplab import suites
from proplab.adaptors import negative_part, remainder_expectation
from proplab.evolution import evolve_split, trajectory_split
from proplab.grids import weight_vector
from proplab.observables import (CheckResult, ObservableSeries, expectation_value,
                                 heisenberg_expectation)
from proplab.operators import central_difference, commutator_i, conformal_value
from proplab.suites import (AdaptedConformal, _envelope_clause, _nnls_two_columns,
                            conformal_prob, first_level_series, gronwall_monitor,
                            lens_positivity_values, morawetz_commutator_check,
                            morawetz_multiplier, morawetz_cancellation_check,
                            operator_identity_suite, positive_potential_suite,
                            wall_trimmed, smoothing_integral,
                            timedep_integral, timedep_suite)

from conftest import dense_adaptor


def classified(grid, pot):
    m = laplacian(grid).matrix + np.diag(pot.v(grid.points))
    return classify_spectrum(diagonalize(HermitianOperator(m, grid, "H")))


def test_free_conformal_identity_residual_tiny():
    g = make_grid("line", 384, 20.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g, width=1.5)
    t, delta = 1.0, 3e-4
    times = np.array([t - delta, t, t + delta])
    traj = trajectory_linear(spec, psi, times)
    resid, bv = AdaptedConformal(spec, None, None, None).residual(traj, t, delta)
    assert bv == 0.0
    assert resid <= 1e-6


def test_conformal_identity_positive_potential():
    g = make_grid("line", 384, 20.0)
    pot = Potential.gaussian(1.0)
    spec = classified(g, pot)
    psi = gaussian_state(g, width=1.5)
    adaptor = build_adaptor(spec, conformal_Q(pot, g), 3.0)
    t, delta = 1.5, 5e-3
    traj = trajectory_linear(spec, psi, np.array([t - delta, t, t + delta]))
    resid, bv = AdaptedConformal(spec, pot, None, adaptor).residual(traj, t, delta)
    assert resid <= 5.0 * (delta**2 + g.h**2) + bv


def test_conformal_identity_negative_part_vanishes_for_wide_bump():
    # with V = e^{-(x/w)^2}, w > sqrt(2) L the profile 4V + 4x.grad V stays
    # nonnegative on the whole box, so the negative-part term is identically 0
    g = make_grid("line", 128, 8.0)
    pot = Potential.gaussian(1.0, width=12.0)
    f = 4.0 * pot.xdv(g.points) + 4.0 * pot.v(g.points)
    assert np.all(f >= 0)
    from proplab.adaptors import negative_part
    assert not np.any(negative_part(f))


def test_conformal_identity_residual_needs_positive_time():
    g = make_grid("line", 128, 8.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g)
    traj = trajectory_linear(spec, psi, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="t > 0"):
        AdaptedConformal(spec, None, None, None).residual(traj, 0.0, 0.1)


def test_conformal_residual_convergence_ratio():
    # with the truncation term on the right side the residual is pure
    # O(h^2 + dt^2): halving both shrinks it by about 4
    def resid(n, delta):
        g = make_grid("line", n, 16.0)
        pot = Potential.gaussian(1.0)
        spec = classified(g, pot)
        psi = gaussian_state(g, width=1.5)
        adaptor = build_adaptor(spec, conformal_Q(pot, g), 2.0)
        t = 1.2
        traj = trajectory_linear(spec, psi, np.array([t - delta, t, t + delta]))
        r, _ = AdaptedConformal(spec, pot, None, adaptor).residual(
            traj, t, delta, include_truncation_term=True)
        return r

    r1, r2 = resid(256, 0.04), resid(513, 0.02)
    assert 3.5 <= r1 / r2 <= 4.5


def test_positive_potential_suite_gates_negative_v(line_grid):
    spec = free_spectral_data(line_grid)
    psi = gaussian_state(line_grid)
    traj = trajectory_linear(spec, psi, np.geomspace(1.0, 3.0, 10))
    with pytest.raises(ValueError, match="V >= 0"):
        positive_potential_suite(traj, Potential.gaussian(-1.0), 1.0)


def test_first_level_series_free_constant_conformal():
    # free flow keeps <C> constant, so the first-level functional is ~ sqrt(C/t);
    # the window stays inside the box-validity horizon of this small grid
    g = make_grid("line", 384, 30.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g, width=1.0)
    times = np.geomspace(1.0, 3.2, 10)
    traj = trajectory_linear(spec, psi, times)
    assert traj.validity_horizon >= times[-1]
    series = first_level_series(traj, Potential.zero(), times)
    slopes = np.diff(np.log(series.values)) / np.diff(np.log(times))
    assert np.allclose(slopes, -0.5, atol=1e-3)


def test_lens_positivity_free_and_errors(line_grid):
    spec = classify_spectrum(diagonalize(laplacian(line_grid)))
    val, = lens_positivity_values(spec, Potential.zero(), [2.0])
    assert val >= -1e-8
    with pytest.raises(ValueError, match="t > 0"):
        lens_positivity_values(spec, Potential.zero(), [2.0, 0.0])


def test_lens_positivity_values_match_per_time_compression():
    # three band compressions taken once against the compression of
    # 4Vt + C(t)/t rebuilt at each t, on a spectrum with bound states
    g = make_grid("radial3d", 160, 30.0)
    pot = Potential([(-6.0, 1.0, 1.5), (0.5, 1.0, 3.5)])
    spec = classified(g, pot)
    assert len(spec.indices("bound")) > 0
    e_max = 20.0
    cols, _ = spec.continuum_basis(e_max=e_max)
    ts = np.geomspace(1.0, 50.0, 5)
    want = []
    for t in ts:
        xp = position(g).matrix - 2.0 * t * momentum(g).matrix
        m = cols.conj().T @ ((4.0 * t) * (pot.v(g.points)[:, None] * cols)
                             + ((xp.conj().T @ xp) @ cols) / t)
        want.append(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    got = lens_positivity_values(spec, pot, ts, e_max=e_max)
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale * ts.max())


def lens_identity_residual(grid, t, state):
    """Weak residual of C(t)/t = U_t (4t p^2) U_t^* on a smooth state,
    U_t = diag(e^{i x^2 / 4t}); O(h^2) on resolved states."""
    u_phase = np.exp(1j * grid.points**2 / (4.0 * t))
    lhs = conformal_value(grid, state, t) / t
    p_chi = central_difference(grid, u_phase.conj() * state)
    return abs(lhs - 4.0 * t * float(grid.quad_weight * np.sum(np.abs(p_chi) ** 2)))


def test_lens_identity_weak_residual_ratio():
    def resid(n):
        g = make_grid("line", n, 16.0)
        psi = gaussian_state(g, width=1.5)
        return lens_identity_residual(g, 1.5, psi)

    r1, r2 = resid(256), resid(513)
    assert 3.5 <= r1 / r2 <= 4.5


def test_gronwall_monitor_free_flow_decreasing():
    g = make_grid("line", 384, 30.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g, width=1.0)
    times = np.geomspace(1.0, 3.2, 10)
    traj = trajectory_linear(spec, psi, times)
    series = gronwall_monitor(traj, 1.0, times=times)
    assert CheckResult.holds(_envelope_clause(series, 0.05))
    assert np.all(np.diff(series.values) < 0)


def test_envelope_clause_reads_the_worst_excess_after_the_first_sample():
    times = np.array([1.0, 2.0, 3.0])
    envelope = 2.0 * np.exp(0.1 * (times - 1.0))
    under = ObservableSeries(times, envelope - np.array([0.0, 0.5, 0.25]), "M")
    assert _envelope_clause(under, 0.1)[:3] == (-0.25, "<=", 1e-12)
    over = ObservableSeries(times, envelope + np.array([0.0, -0.5, 1e-3]), "M")
    assert _envelope_clause(over, 0.1)[0] == pytest.approx(1e-3, rel=1e-9)
    # fewer than 2 samples bound nothing: NaN, which fails the clause
    for k in (0, 1):
        assert np.isnan(_envelope_clause(ObservableSeries(times[:k], envelope[:k], "M"), 0.1)[0])


def test_gronwall_sigma_zero_is_mass_plus_conformal():
    g = make_grid("line", 256, 20.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g, width=1.0)
    times = np.array([1.0, 2.0, 4.0])
    traj = trajectory_linear(spec, psi, times)
    series = gronwall_monitor(traj, 0.0, times=times)
    # sigma = 0 turns the weight term into the conserved mass
    p = momentum(g)
    for t, val in zip(series.times, series.values):
        u = traj.state_at(t)
        xp_u = g.points * u - 2.0 * t * p.apply(u)
        c_val = float(g.quad_weight * np.sum(np.abs(xp_u) ** 2))
        assert val == pytest.approx(c_val / t**2 + 1.0, rel=1e-9)


def test_morawetz_multiplier_guards(radial_grid):
    with pytest.raises(ValueError, match="positive"):
        morawetz_multiplier(radial_grid, -np.ones(radial_grid.n))


def test_morawetz_commutator_positivity_radial(radial_grid):
    g_samples = 1.0 / np.sqrt(1.0 + radial_grid.points**2)
    res = morawetz_commutator_check(radial_grid, g_samples)
    assert res.passed


def test_morawetz_commutator_unit_profile_reduces_to_dilation(line_grid):
    res = morawetz_commutator_check(line_grid, np.ones(line_grid.n))
    assert res.passed


def test_nnls_two_columns_matches_scipy_nnls():
    # the closed form against Lawson & Hanson's active-set solver on seeded
    # 8 x 2 systems: the same active set (the positive coefficients), and
    # agreement to 1e-10 relative (the worst of 20000 draws was 2.3e-12)
    from scipy.optimize import nnls

    rng = np.random.default_rng(5)
    sizes = [0, 0, 0]
    for _ in range(300):
        a, b = rng.standard_normal((8, 2)), rng.standard_normal(8)
        ref, _ = nnls(a, b)
        ours = _nnls_two_columns(a, b)
        sizes[np.count_nonzero(ref > 0)] += 1
        assert np.array_equal(ours > 0, ref > 0)
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=0)
    assert min(sizes) >= 50  # every active-set size, 0, 1 and 2, is drawn
    assert _nnls_two_columns(a, np.zeros(8)).tolist() == [0.0, 0.0] == nnls(a, np.zeros(8))[0].tolist()


def test_morawetz_commutator_check_matches_dense_eigensolve(radial_grid, line_grid):
    # the banded eigensolve against eigvalsh and the SVD 2-norm of the dense
    # wall-trimmed commutator, for a positive, a unit and a sign-flipped profile
    g_radial = 1.0 / np.sqrt(1.0 + radial_grid.points**2)
    flipped = np.where(radial_grid.points > 10.0, 3.0 * g_radial, g_radial)
    for grid, g_samples in ((radial_grid, g_radial), (line_grid, np.ones(line_grid.n)),
                            (radial_grid, flipped)):
        comm = commutator_i(laplacian(grid), morawetz_multiplier(grid, g_samples))
        trimmed = wall_trimmed(comm.matrix, grid).toarray()
        scale = float(np.linalg.norm(trimmed, 2))
        min_eig = float(np.linalg.eigvalsh(trimmed)[0])
        res = morawetz_commutator_check(grid, g_samples)
        assert res.measured == pytest.approx(min_eig, rel=1e-12, abs=1e-14 * scale)
        assert res.bound == pytest.approx(-1e-8 * scale, rel=1e-13)
        assert res.passed == (min_eig >= -1e-8 * scale)


def test_morawetz_commutator_sign_flip_fails(radial_grid):
    # a sign flip in the profile inverts the commutator: strongly indefinite
    g_samples = 1.0 / np.sqrt(1.0 + radial_grid.points**2)
    flipped = np.where(radial_grid.points > 10.0, 3.0 * g_samples, g_samples)
    gam = morawetz_multiplier(radial_grid, flipped)
    lap = laplacian(radial_grid)
    comm = 1j * (lap.matrix @ gam.matrix - gam.matrix @ lap.matrix)
    trimmed = wall_trimmed(comm, radial_grid).toarray()
    min_eig = float(np.linalg.eigvalsh(trimmed)[0])
    # decreasing a(r) region makes p a' p negative: detected
    assert min_eig < -1e-8 * np.linalg.norm(trimmed, 2)


def test_morawetz_cancellation_small_case():
    g = make_grid("radial3d", 200, 40.0)
    pot = Potential.gaussian(1.5, width=1.0, center=3.0)
    spec = classified(g, pot)
    g_samples = 1.0 / np.sqrt(1.0 + g.points**2)
    res, adaptor = morawetz_cancellation_check(g, spec, pot, g_samples, horizon=4.0)
    assert res.passed
    assert adaptor.residual_weighted >= 0.0
    # the lower triangle filled by column blocks (n = 200 spans four) against
    # the whole weighted matrix written out from the n x n oracle of B
    x = g.points
    h = laplacian(g).matrix.toarray() + np.diag(pot.v(x))
    b = dense_adaptor(adaptor)
    total = np.diag(np.minimum(-2.0 * g_samples * pot.xdv(x), 0.0)) + 1j * (h @ b - b @ h)
    w = weight_vector(g, 1.0)
    assert res.measured == pytest.approx(np.linalg.norm(w[:, None] * total * w, 2), rel=1e-10)


def test_operator_identity_suite_small():
    report = operator_identity_suite(256, 16.0, Potential.gaussian(1.0),
                                     state_width=1.5, dt_ref=0.01, abs_cap=5e-3)
    assert report.passed, report.render()


def test_positive_potential_constant_stable_under_refinement():
    # the measured constant of the uniform bound moves by < 20% when the
    # grid is refined by 1.5x
    def constant(n):
        g = make_grid("radial3d", n, 60.0)
        pot = Potential.gaussian(2.0)
        spec = classified(g, pot)
        psi = gaussian_state(g, width=1.0)
        times = np.geomspace(1.0, 4.0, 12)
        traj = trajectory_linear(spec, psi, times)
        from proplab.suites import conformal_energy_series
        series = conformal_energy_series(traj, pot, times)
        return series.values.max() / norm(g, psi, "Lnorm") ** 2

    c1, c2 = constant(256), constant(385)
    assert abs(c2 - c1) / c1 <= 0.20


def timedep_report(grid, pot, spec, w, psi, t_end, dt, expect_log_growth=False):
    # the timedep suite: its step integral fed by one Strang sweep from t = 0,
    # and the sweep's states at the integral's checkpoints
    integral = timedep_integral(grid, w, t_end, dt)
    traj = trajectory_split(grid, pot, w, psi, integral.checkpoints, dt, observer=integral)
    return timedep_suite(traj, spec, w, integral, expect_log_growth)


def test_timedep_suite_gaussian_profile_perturbation():
    # W(x,t) = (delta/(1+t)) e^{-x^2}: a separable perturbation whose time
    # derivative decays one power faster than the envelope requires
    g = make_grid("radial3d", 256, 60.0)
    pot = Potential.gaussian(0.5)
    spec = classified(g, pot)
    w = TimeDependentPotential(lambda t: 0.05 * (1.0 + t) ** -1.0, lambda t: -0.05 * (1.0 + t) ** -2.0,
                               lambda x: np.exp(-x**2), lambda x: -2.0 * x * np.exp(-x**2))
    psi = gaussian_state(g, width=1.0)
    report = timedep_report(g, pot, spec, w, psi, t_end=5.0, dt=5e-3)
    assert report.passed, report.render()


@pytest.mark.parametrize("kind", ["radial3d", "line"])
def test_timedep_integrand_matches_the_sums_it_replaced(kind):
    # the integrand's slice stencil and dot products against the banded momentum
    # and plain weighted sums, at every lattice time of a 300-step W-flow
    g = make_grid(kind, 96, 24.0)
    pot = Potential.gaussian(0.5)
    w = TimeDependentPotential.self_similar(0.3, 2.0, 0.5)
    integrand = timedep_integral(g, w, 1.5, 5e-3).integrand
    x, weight, p = g.points, g.quad_weight, momentum(g)
    l6_weight = weight / (1.0 if kind == "line" else x**4)

    def written_out(t, u):
        pu = p.apply(u)
        mod2 = np.abs(u) ** 2
        c_val = weight * float(np.sum(np.abs(x * u - 2.0 * t * pu) ** 2))
        disp = (float(np.sum(l6_weight * mod2**3)) ** (1.0 / 3.0) + c_val / t**2) / t
        dtw = 4.0 * w.d_amplitude(t) * weight * float(np.sum(w.profile(x) * mod2))
        pgrad_terms = 8.0 * w.amplitude(t) * weight * (np.conj(pu) * w.d_profile(x) * u)
        return (disp, dtw, float(np.sum(pgrad_terms).real)), float(np.abs(pgrad_terms).sum())

    seen = []

    def compare(t, u):
        if t > 0:
            wanted, pgrad_scale = written_out(t, u)
            for value, want, scale in zip(integrand(t, u), wanted,
                                          (wanted[0], wanted[1], pgrad_scale)):
                assert abs(value - want) <= 1e-13 * abs(scale)
            seen.append(t)

    evolve_split(g, pot, w, gaussian_state(g, center=2.0, width=1.0), 1.5, 5e-3, observer=compare)
    assert len(seen) == 300


@pytest.mark.parametrize("kind", ["timedep", "smoothing"])
def test_step_integral_is_a_written_out_trapezoid_and_max(kind):
    # one W-flow sweep past the window's end: the observer's partial integrals
    # at its checkpoints, its final integrals and its peaks, against a trapezoid
    # and a running max written out over the sweep's lattice states in the
    # window, bit for bit (the timedep integrand's three components, the
    # smoothing density and ||psi||_{H^1/2}^2)
    g = make_grid("radial3d", 96, 24.0)
    pot = Potential.gaussian(0.5)
    w = TimeDependentPotential.self_similar(0.3, 2.0, 0.5)
    dt, hi = 5e-3, 2.0
    integral = timedep_integral(g, w, hi, dt) if kind == "timedep" else smoothing_integral(g, hi, dt)
    integrand, lo = integral.integrand, integral.lo
    ts, vals = [], []

    def feed(t, u):
        integral(t, u)
        if lo - 1e-12 <= t <= hi + 1e-9:
            ts.append(t)
            vals.append(integrand(t, u))

    evolve_split(g, pot, w, gaussian_state(g, width=1.0), 2.5, dt, observer=feed)
    ts, vals = np.array(ts), np.array(vals)
    assert len(ts) == round((hi - lo) / dt) + 1 and vals.shape[1] == (3 if kind == "timedep" else 2)
    steps = 0.5 * np.diff(ts)[:, None] * (vals[:-1] + vals[1:])
    running = np.vstack([np.zeros((1, vals.shape[1])), np.add.accumulate(steps, axis=0)])
    at = [int(np.flatnonzero(np.abs(ts - c) <= 1e-9)[0]) for c in integral.checkpoints]
    partials = np.column_stack([integral.series(k, "").values for k in range(vals.shape[1])])
    assert len(at) == (16 if kind == "timedep" else 8)
    assert partials.tobytes() == running[at].tobytes()
    assert np.array(integral.integrals).tobytes() == running[-1].tobytes()
    assert np.array(integral.peaks).tobytes() == vals.max(axis=0).tobytes()


def test_timedep_observer_gronwall_series_is_gronwall_monitor():
    # one W-flow sweep: the timedep suite reads its H1, asymptotic-energy and
    # Gronwall series off the sweep's states at its checkpoints; each equals
    # the value computed from the live state inside the sweep at that lattice
    # time, M(t) from the <C(t)> of the integrand's momentum state, bit for bit
    g = make_grid("radial3d", 96, 24.0)
    pot = Potential.gaussian(0.5)
    spec = classified(g, pot)
    w = TimeDependentPotential.self_similar(0.05, 2.0, 0.5)
    dt, w2, e = 5e-3, weight_vector(g, 2.0), spec.eigenvalues - 1.0
    f_diag, inside = np.zeros_like(e), np.abs(e) < 1.0  # f(H), a smooth bump on (0, 2)
    f_diag[inside] = np.exp(1.0 - 1.0 / (1.0 - e[inside] ** 2))
    integral = timedep_integral(g, w, 2.0, dt)
    times = integral.checkpoints
    live = {"h1_norm": [], "asymptotic_energy": [], "gronwall_monitor": []}

    def feed(t, u):
        integral(t, u)
        if np.any(np.abs(times - t) <= 1e-9):
            c_val = conformal_value(g, u, t, p_state=central_difference(g, u))
            live["h1_norm"].append(norm(g, u, "H1"))
            live["asymptotic_energy"].append(
                float(np.sum(f_diag * np.abs(spec.coefficients(u)) ** 2) * g.quad_weight))
            live["gronwall_monitor"].append(c_val / t**2 + g.expect(w2, u))

    traj = trajectory_split(g, pot, w, gaussian_state(g, width=1.0), times, dt, observer=feed)
    report = timedep_suite(traj, spec, w, integral)
    assert len(times) == 16
    for key, values in live.items():
        assert report.series[key].times.tobytes() == times.tobytes()
        assert report.series[key].values.tobytes() == np.array(values).tobytes(), key
    read_off = gronwall_monitor(traj, 1.0, times=times)
    assert report.series["gronwall_monitor"].values.tobytes() == read_off.values.tobytes()


@pytest.mark.parametrize("log_growth, check, label", [
    (False, "asymptotic energy Cauchy decrease", "measured"),
    (True, "log-growth envelope", "|beta|")])
def test_timedep_observer_one_sample_window_reads_nan(log_growth, check, label):
    # a window holding the sample at t = 1 alone: the Cauchy decrease (which
    # needs 3 samples) and the log-growth fit (2) read NaN and fail their
    # clause instead of raising
    g = make_grid("radial3d", 64, 30.0)
    pot = Potential.gaussian(0.5)
    spec = classified(g, pot)
    w = TimeDependentPotential.self_similar(0.05, 2.0, 0.5)
    report = timedep_report(g, pot, spec, w, gaussian_state(g, width=1.0), t_end=1.0, dt=5e-3,
                            expect_log_growth=log_growth)
    result = {c.name: c for c in report.checks}[check]
    clause = next(c for c in result.clauses if c[3] == label)
    assert np.isnan(clause[0]) and not result.holds(clause) and not report.passed


def test_adapted_conformal_builds_its_conformal_factor_once(monkeypatch):
    # the observable family is combined from the identity's own banded terms
    built = []

    class Counted(suites.ConformalFactor):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(suites, "ConformalFactor", Counted)
    g = make_grid("line", 64, 10.0)
    pot = Potential.gaussian(1.0)
    spec = classified(g, pot)
    AdaptedConformal(spec, pot, TimeDependentPotential.self_similar(0.05, 2.0, 0.5),
                     build_adaptor(spec, conformal_Q(pot, g), 2.0))
    assert len(built) == 1


def test_timedep_suite_zero_w_reduces():
    # delta = 0 switches W off: the smooth energy expectation is exactly
    # conserved and the integration-by-parts identity reads 0 = 0
    g = make_grid("radial3d", 256, 60.0)
    pot = Potential.gaussian(0.5)
    spec = classified(g, pot)
    w0 = TimeDependentPotential.self_similar(0.0, 2.0, 0.5)
    psi = gaussian_state(g, width=1.0)
    report = timedep_report(g, pot, spec, w0, psi, t_end=4.0, dt=0.01)
    assert report.passed, report.render()
    # constant up to the O(dt^2) drift of the splitting itself
    f_series = report.series["asymptotic_energy"]
    assert np.abs(np.diff(f_series.values)).max() <= 1e-6
    ibp = [c for c in report.checks if "integration" in c.name][0]
    assert ibp.measured <= 1e-9


def test_suites_make_no_sweep():
    # every Strang sweep of a run is made by the run context: the suites read
    # trajectories and per-step observers, and step nothing themselves
    assert not hasattr(suites, "evolve_split") and not hasattr(suites, "trajectory_split")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 64), kind=st.sampled_from(["line", "radial3d"]),
       with_v=st.booleans(), with_w=st.booleans(), with_adaptor=st.booleans(),
       t=st.floats(0.2, 5.0), seed=st.integers(0, 2**32 - 1))
def test_conformal_forms_match_dense_formulas(n, kind, with_v, with_w, with_adaptor, t, seed):
    # every quadratic form the conformal suite reads by matvecs, against the
    # dense n x n formula written out here
    grid = make_grid(kind, n, 10.0)
    x, h = grid.points, grid.h
    pot = Potential.gaussian(1.5, width=1.5) if with_v else None
    w_t = TimeDependentPotential.self_similar(0.3, 2.0, 0.5) if with_w else None
    v = pot.v(x) if with_v else np.zeros(n)
    w = w_t.w(x, t) if with_w else np.zeros(n)
    dw = w_t.d_amplitude(t) * w_t.profile(x) if with_w else np.zeros(n)
    spec = classified(grid, pot or Potential.zero())
    # the adaptor's Q comes from a fixed bump, so B_V is nontrivial even with V off
    adaptor = build_adaptor(spec, conformal_Q(Potential.gaussian(1.5, width=1.5), grid), 2.0) \
        if with_adaptor else None

    xm = np.diag(x).astype(complex)
    pm = (np.diag(np.full(n - 1, -1j), 1) + np.diag(np.full(n - 1, 1j), -1)) / (2.0 * h)
    lap = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    vm, wm, dwm = np.diag(v), np.diag(w), np.diag(dw)
    bv = dense_adaptor(adaptor) if with_adaptor else np.zeros((n, n))
    c = (xm - 2.0 * t * pm).conj().T @ (xm - 2.0 * t * pm)
    cdot = -2.0 * (xm @ pm + pm @ xm) + 8.0 * t * pm @ pm
    b = c / t + 4.0 * t * (vm + wm) + bv
    db = cdot / t - c / t**2 + 4.0 * (vm + wm) + 4.0 * t * dwm
    hm = lap + vm + wm
    banded_rhs = -c / t**2 + 4.0 * t * dwm
    if with_v:
        banded_rhs += np.diag(negative_part(4.0 * x * pot.dv(x) + 4.0 * v))
    if with_w:
        banded_rhs += np.diag(4.0 * x * w_t.amplitude(t) * w_t.d_profile(x) + 4.0 * w)
    rhs = banded_rhs + 1j * (wm @ bv - bv @ wm)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def assert_form(got, m, scale_form=None):
        # 1e-12 relative to |u| |M u|, the Cauchy-Schwarz size of the form
        expect = float(np.real(grid.inner(u, m @ u)))
        size = scale_form or grid.quad_weight * np.linalg.norm(u) * np.linalg.norm(m @ u)
        assert abs(got - expect) <= 1e-12 * max(size, 1e-300)

    prob = conformal_prob(grid, pot, w_t, adaptor)
    assert_form(expectation_value(grid, prob.builder(t), u), b)
    assert_form(expectation_value(grid, prob.db_dt(t), u), db)
    h_op = laplacian(grid) + multiplication(grid, v + w)
    d_h = 1j * (hm @ b - b @ hm) + db
    size = grid.quad_weight * (2.0 * np.linalg.norm(hm @ u) * np.linalg.norm(b @ u)
                               + np.linalg.norm(u) * np.linalg.norm(db @ u))
    assert_form(heisenberg_expectation(grid, h_op, prob.builder(t), prob.db_dt(t), u), d_h, size)
    size = grid.quad_weight * (np.linalg.norm(u) * np.linalg.norm(banded_rhs @ u)
                               + 2.0 * np.linalg.norm(wm @ u) * np.linalg.norm(bv @ u))
    # B u applied per state, and read back from a block applied once
    for states in ((), (2.0 * u, u)):
        identity = AdaptedConformal(spec, pot, w_t, adaptor, states=states)
        assert_form(identity.rhs(t, u), rhs, size)
    if with_adaptor:
        cols, e = spec.continuum_basis()
        flow = (cols * np.exp(1j * e * adaptor.horizon)) @ cols.conj().T
        remainder = flow @ np.diag(adaptor.q.samples) @ flow.conj().T
        assert_form(remainder_expectation(spec, adaptor)(u), remainder)
