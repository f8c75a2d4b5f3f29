import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proplab import (HermitianOperator, Potential, QSelection, build_adaptor,
                     classify_spectrum, conformal_Q, diagonalize, dilation_Q, laplacian,
                     load_scenario, make_grid, multiplication, trajectory_linear,
                     weighted_propagator_norm)
from proplab.adaptors import commutator_closure_defect, residual_weighted_scan
from proplab.adaptors import AdaptorOperator, _remainder_factor
from proplab.evolution import gaussian_state
from proplab.grids import Grid, weight_vector
from proplab.operators import _row_blocks
from proplab.scenarios import _Context
from proplab.suites import adaptor_suite
from proplab.spectral import SpectralData, classify_spectrum as classify

from conftest import dense_adaptor


def classified(grid, pot):
    # H banded, as a run builds it: the closure check reads H by its bands
    h = laplacian(grid) + multiplication(grid, pot.v(grid.points))
    return classify_spectrum(diagonalize(h)), h


def commutator_remainder(spec, adaptor):
    """remainder(T) = P_c e^{iHT} Q e^{-iHT} P_c = F diag(q_S) F^*, the term
    closing the truncated commutation identity i[H, B] = P_c Q P_c - remainder,
    from the n x |S| factor the closure check and the residuals use."""
    f, q_s = _remainder_factor(spec, adaptor.q.samples, adaptor.horizon)
    return (f * q_s) @ f.conj().T


def dense_projector(spec):
    """P_c as a dense matrix, from the columns of ``continuum_basis()``."""
    cols, _ = spec.continuum_basis()
    return cols @ cols.conj().T


def brute_force_adaptor(spec, q_samples, horizon, steps=4000):
    """Simpson quadrature of P_c [int_0^T e^{iHs}(-Q)e^{-iHs} ds] P_c built
    directly from matrix exponentials; independent of the kernel formula."""
    idx = spec.continuum_indices()
    cols = spec.eigenvectors[:, idx]
    e = spec.eigenvalues[idx]
    q = np.diag(q_samples).astype(complex)
    ss = np.linspace(0.0, horizon, steps + 1)
    w = np.ones(steps + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (ss[1] - ss[0]) / 3.0
    acc = np.zeros((len(idx), len(idx)), dtype=complex)
    phase0 = cols.conj().T @ (-q) @ cols
    for s, wk in zip(ss, w):
        ph = np.exp(1j * e * s)
        acc += wk * (ph[:, None] * phase0 * ph.conj()[None, :])
    return cols @ acc @ cols.conj().T


def test_conformal_q_closed_form():
    g = make_grid("line", 256, 10.0)
    pot = Potential.gaussian(1.0)
    q = conformal_Q(pot, g)
    x = g.points
    expect = np.where(np.abs(x) < 1.0 / np.sqrt(2.0), -4.0 * np.exp(-x**2) * (1.0 - 2.0 * x**2), 0.0)
    np.testing.assert_allclose(q.samples, expect, atol=1e-12)
    assert np.all(q.samples <= 0)


def test_conformal_q_zero_potential(line_grid):
    assert not np.any(conformal_Q(Potential.zero(), line_grid).samples)


def test_conformal_q_purely_repulsive(line_grid):
    # x.grad V <= -V everywhere makes the positive part vanish
    pot = Potential.custom(lambda x: 1.0 / (1.0 + x**2),
                           lambda x: -2.0 * x / (1.0 + x**2) ** 2)
    f = 4.0 * pot.xdv(line_grid.points) + 4.0 * pot.v(line_grid.points)
    assert np.all(f <= 4.0 / (1.0 + line_grid.points**2) + 1e-12)
    strong = Potential.custom(lambda x: (1.0 + x**2) ** -2,
                              lambda x: -4.0 * x * (1.0 + x**2) ** -3)
    fq = 4.0 * strong.xdv(line_grid.points) + 4.0 * strong.v(line_grid.points)
    mask = np.abs(line_grid.points) >= 1.0
    assert np.all(fq[mask] <= 1e-12)


def test_dilation_q_closed_form(line_grid):
    pot = Potential.gaussian(1.0)
    q = dilation_Q(pot, line_grid)
    x = line_grid.points
    np.testing.assert_allclose(q.samples, 2.0 * np.exp(-x**2) * (1.0 - x**2), atol=1e-12)


def test_dilation_q_homogeneity_oracle(line_grid):
    # mollified 1/|x| profile: x.grad V = -V away from the mollification core,
    # so Q = 2V + x.grad V ~ V there
    a = 0.3
    pot = Potential.custom(lambda x: (x**2 + a**2) ** -0.5,
                           lambda x: -x * (x**2 + a**2) ** -1.5)
    q = dilation_Q(pot, line_grid)
    far = np.abs(line_grid.points) > 3.0
    np.testing.assert_allclose(q.samples[far], pot.v(line_grid.points)[far], rtol=2e-2)


def test_conformal_q_guard():
    g = make_grid("line", 64, 8.0)
    with pytest.raises(ValueError, match="nonpositive"):
        QSelection("conformal", np.ones(g.n), "bad")


def test_build_adaptor_trivial_cases(line_grid):
    # empty support of Q and zero horizon: exact zeros, spectrum included
    spec, _ = classified(line_grid, Potential.gaussian(0.5))
    for q, horizon in ((conformal_Q(Potential.zero(), line_grid), 5.0),
                       (conformal_Q(Potential.gaussian(0.5), line_grid), 0.0)):
        adaptor = build_adaptor(spec, q, horizon)
        u = gaussian_state(line_grid, center=1.0)
        assert np.abs(adaptor.apply(u)).max() == 0.0
        assert np.abs(adaptor.columns(slice(None))).max() == 0.0
        assert np.abs(dense_adaptor(adaptor)).max() == 0.0
        assert (adaptor.norm_bound, adaptor.min_eigenvalue, adaptor.residual_weighted) == (0, 0, 0)


def test_build_adaptor_matches_brute_force_three_level():
    # synthetic 3-level system, all continuum, random symmetric profile
    pts = np.array([1.0, 2.0, 3.0])
    grid = Grid(kind="line", n=3, h=1.0, extent=2.0, points=pts)
    rng = np.random.default_rng(7)
    e = np.array([1.0, 2.0, 4.0])
    spec = classify(SpectralData(grid=grid, eigenvalues=e, eigenvectors=np.eye(3)))
    q_samples = rng.normal(size=3)
    q = QSelection("custom", q_samples, "random")
    horizon = 3.7
    b = build_adaptor(spec, q, horizon)
    b_direct = brute_force_adaptor(spec, q_samples, horizon)
    assert np.abs(dense_adaptor(b) - b_direct).max() <= 1e-6


def test_build_adaptor_matches_brute_force_small_grid():
    grid = make_grid("line", 12, 6.0)
    pot = Potential.gaussian(0.8)
    spec, _ = classified(grid, pot)
    q = conformal_Q(pot, grid)
    b = build_adaptor(spec, q, 2.5)
    b_direct = brute_force_adaptor(spec, q.samples, 2.5, steps=6000)
    assert np.abs(dense_adaptor(b) - b_direct).max() <= 1e-6


def test_build_adaptor_linear_in_q(line_grid):
    pot = Potential.gaussian(1.0)
    spec, _ = classified(line_grid, pot)
    q = conformal_Q(pot, line_grid)
    b1 = build_adaptor(spec, q, 3.0)
    q2 = QSelection("custom", 2.0 * q.samples, "doubled")
    b2 = build_adaptor(spec, q2, 3.0)
    np.testing.assert_allclose(dense_adaptor(b2), 2.0 * dense_adaptor(b1), atol=1e-12)


def test_adaptor_invariants_and_closure(line_grid):
    pot = Potential.gaussian(1.5, width=1.3)
    spec, h = classified(line_grid, pot)
    q = conformal_Q(pot, line_grid)
    adaptor = build_adaptor(spec, q, 4.0)
    b = dense_adaptor(adaptor)
    assert np.abs(b - b.conj().T).max() <= 1e-10
    p_c = dense_projector(spec)
    assert np.abs(b - p_c @ b @ p_c).max() <= 1e-10
    # -Q >= 0 makes the adaptor positive
    assert np.linalg.eigvalsh(b)[0] >= -1e-8 * adaptor.norm_bound
    defect = commutator_closure_defect(spec, h, adaptor)
    assert defect <= 1e-8 * np.abs(q.samples).max()


def test_flipped_q_breaks_positivity(line_grid):
    pot = Potential.gaussian(1.5, width=1.3)
    spec, _ = classified(line_grid, pot)
    q = QSelection("custom", -conformal_Q(pot, line_grid).samples)
    adaptor = build_adaptor(spec, q, 4.0)
    assert np.linalg.eigvalsh(dense_adaptor(adaptor))[0] < -1e-8 * adaptor.norm_bound


def test_residual_scan_monotone_within_horizon():
    grid = make_grid("radial3d", 256, 60.0)
    pot = Potential.gaussian(2.0)
    spec, _ = classified(grid, pot)
    q = conformal_Q(pot, grid)
    horizons = np.linspace(1.0, 6.0, 6)
    scan = residual_weighted_scan(spec, q, horizons)
    assert np.all(np.diff(scan) <= 1e-9)


def test_adaptor_warning_past_horizon(line_grid):
    pot = Potential.gaussian(1.0)
    spec, _ = classified(line_grid, pot)
    q = conformal_Q(pot, line_grid)
    adaptor = build_adaptor(spec, q, 8.0, validity_horizon=4.0)
    assert adaptor.warnings and "exceeds" in adaptor.warnings[0]


def test_expectation_series_zero_and_positive(line_grid):
    pot = Potential.gaussian(1.2)
    spec, _ = classified(line_grid, pot)
    zero_b = build_adaptor(spec, conformal_Q(Potential.zero(), line_grid), 3.0)
    phi = np.exp(-line_grid.points**2 / 2.0).astype(complex)
    flow = spec.flow(phi, np.linspace(0.5, 3, 6))

    def series(b):  # <phi(t), B phi(t)>, as the adaptor suite reads it: one block apply
        b_flow = b.apply(flow.T).T
        return np.array([float(np.real(line_grid.inner(u, b_u))) for u, b_u in zip(flow, b_flow)])

    assert np.abs(series(zero_b)).max() == 0.0
    adaptor = build_adaptor(spec, conformal_Q(pot, line_grid), 3.0)
    assert series(adaptor).min() >= -1e-8 * adaptor.norm_bound


def test_weighted_propagator_norm_contractions(line_grid):
    spec, _ = classified(line_grid, Potential.gaussian(1.0))
    assert weighted_propagator_norm(spec, 1.0, 0.0) <= 1.0 + 1e-9
    free = classify_spectrum(diagonalize(laplacian(line_grid)))
    assert weighted_propagator_norm(free, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        weighted_propagator_norm(spec, 1.0, -1.0)


def test_commutator_remainder_closes_identity(line_grid):
    pot = Potential.gaussian(1.0)
    spec, h = classified(line_grid, pot)
    q = conformal_Q(pot, line_grid)
    adaptor = build_adaptor(spec, q, 2.0)
    p_c = dense_projector(spec)
    b = dense_adaptor(adaptor)
    comm = 1j * (h.matrix @ b - b @ h.matrix)
    q_proj = p_c @ np.diag(q.samples) @ p_c
    rem = commutator_remainder(spec, adaptor)
    assert np.abs(comm - q_proj + rem).max() <= 1e-10 * max(1.0, np.abs(q.samples).max())


# ---------------------------------------------------------------------------
# support-of-Q and thin-QR kernels against the dense n x n formulas


def dense_remainder(spec, q_samples, t):
    """P_c e^{iHt} Q e^{-iHt} P_c through the full continuum compression."""
    idx = spec.continuum_indices()
    cols, e = spec.eigenvectors[:, idx], spec.eigenvalues[idx]
    q_tilde = cols.conj().T @ (q_samples[:, None] * cols)
    ph = np.exp(1j * e * t)
    return cols @ ((ph[:, None] * q_tilde) * ph.conj()[None, :]) @ cols.conj().T


def dense_weighted_norm(grid, m, sigma):
    w = weight_vector(grid, sigma)
    return float(np.linalg.norm((w[:, None] * m) * w[None, :], 2))


def dense_propagator_norm(spec, sigma, t, e_max=None):
    cols, e = spec.continuum_basis(e_max=e_max)
    return dense_weighted_norm(spec.grid, (cols * np.exp(-1j * e * t)) @ cols.conj().T, sigma)


WELL = Potential([(-6.0, 1.0, 1.5), (0.5, 1.0, 3.5)])  # well_with_barrier's profile


def _q_case(name, pot, grid):
    if name == "conformal_well":
        return conformal_Q(pot, grid)
    if name == "dilation":
        return dilation_Q(pot, grid)
    return QSelection("custom", -conformal_Q(pot, grid).samples)


@pytest.fixture(scope="module")
def well_spec():
    grid = make_grid("radial3d", 160, 30.0)
    spec, h = classified(grid, WELL)
    assert len(spec.indices("bound")) > 0  # P_c != I
    return spec, h


@pytest.mark.parametrize("case", ["conformal_well", "dilation", "flipped"])
def test_low_rank_kernels_match_dense_formulas(well_spec, case):
    spec, h = well_spec
    grid = spec.grid
    q = _q_case(case, WELL, grid)
    assert 0 < np.count_nonzero(q.samples)
    if case == "dilation":
        assert np.count_nonzero(q.samples) == grid.n  # full support
    adaptor = build_adaptor(spec, q, 3.0, sigma=1.0)

    rem_dense = dense_remainder(spec, q.samples, 3.0)
    rem = commutator_remainder(spec, adaptor)
    assert np.abs(rem - rem_dense).max() <= 1e-12 * np.abs(rem_dense).max()

    ref = dense_weighted_norm(grid, rem_dense, 1.0)
    assert adaptor.residual_weighted == pytest.approx(ref, rel=1e-12)

    horizons = np.array([0.0, 0.7, 2.0, 4.5])
    scan = residual_weighted_scan(spec, q, horizons, sigma=0.5)
    ref_scan = [dense_weighted_norm(grid, dense_remainder(spec, q.samples, t), 0.5)
                for t in horizons]
    np.testing.assert_allclose(scan, ref_scan, rtol=1e-12, atol=0)

    b = dense_adaptor(adaptor)
    norm = np.linalg.norm(b, 2)
    assert adaptor.norm_bound == pytest.approx(norm, rel=1e-12)
    assert adaptor.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(b)[0], abs=1e-12 * norm)


@pytest.mark.parametrize("sigma, t, e_max", [(1.0, 0.0, None), (1.0, 3.0, 2.0),
                                             (0.5, 7.5, None), (2.0, 12.0, 0.5)])
def test_weighted_propagator_norm_matches_dense(well_spec, sigma, t, e_max):
    spec, _ = well_spec
    ref = dense_propagator_norm(spec, sigma, t, e_max)
    assert weighted_propagator_norm(spec, sigma, t, e_max=e_max) == pytest.approx(ref, rel=1e-12)


def qr_contraction(spec, sigma):
    """||W P_c W|| the dense way: thin QR of W Phi_c, then the SVD of R R^*."""
    w = weight_vector(spec.grid, sigma)
    r = np.linalg.qr(w[:, None] * spec.continuum_basis()[0], mode="r")
    return float(np.linalg.svd(r @ r.conj().T, compute_uv=False)[0])


@pytest.fixture(scope="module")
def shipped_positive_spec():
    spec = _Context(load_scenario("positive_potential_radial")).spec
    assert len(spec.indices("bound")) == 0  # P_c = I
    return spec


@pytest.mark.parametrize("sigma", [1.0, 0.5])
def test_contraction_at_t0_matches_dense(shipped_positive_spec, well_spec, sigma):
    # weighted_propagator_norm at t = 0 over the whole continuum: max w^2 on the
    # shipped positive_potential_radial spectrum (no bound state), one dense
    # eigvalsh on a spectrum with bound states
    for spec in (shipped_positive_spec, well_spec[0]):
        assert weighted_propagator_norm(spec, sigma, 0.0) == \
            pytest.approx(qr_contraction(spec, sigma), rel=1e-12)


def test_empty_band_and_empty_support_give_zero(well_spec):
    spec, _ = well_spec
    e_low = float(spec.eigenvalues[spec.continuum_indices()].min())
    assert weighted_propagator_norm(spec, 1.0, 2.0, e_max=e_low - 1.0) == 0.0
    zero_q = conformal_Q(Potential.zero(), spec.grid)
    scan = residual_weighted_scan(spec, zero_q, [0.5, 1.0, 2.0])
    assert scan.tolist() == [0.0, 0.0, 0.0]


def factored(m, q):
    """An AdaptorOperator whose B is the Hermitian m: Phi_c = I, D = I, core = m."""
    n = len(m)
    return AdaptorOperator(make_grid("radial3d", n, 30.0), np.eye(n), np.ones(n), m, q,
                           3.0, 1.0, 0.0)


def test_support_check_matches_dense_projector_formula(well_spec, rng):
    # a Hermitian matrix off Ran P_c, so that max|B - P_c B P_c| is O(1)
    spec, h = well_spec
    grid = spec.grid
    m = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    m = 0.5 * (m + m.conj().T)
    evals = np.linalg.eigvalsh(m)
    fake = factored(m, conformal_Q(WELL, grid))
    traj = trajectory_linear(spec, gaussian_state(grid, center=5.0), np.linspace(0.5, 3.0, 6))
    report = adaptor_suite(spec, h, fake, traj, 6.0)
    supp = next(c for c in report.checks if c.name == "continuous-subspace support")
    cols = spec.eigenvectors[:, spec.continuum_indices()]
    p_c = cols @ cols.conj().T
    ref = np.abs(m - p_c @ m @ p_c).max()
    assert ref > 1e-2 and not supp.passed
    assert supp.measured == pytest.approx(ref, rel=1e-12)
    positivity = next(c for c in report.checks if c.name.startswith("positivity"))
    assert positivity.measured == evals[0]


def test_closure_defect_row_blocks_match_dense_formula(well_spec, rng):
    # a Hermitian B that does not solve the commutation equation, with a
    # spike on one diagonal entry so that the maximum sits in a chosen row
    # block (n = 160 spans two); the defect is then far above roundoff
    spec, h = well_spec
    grid = spec.grid
    q = conformal_Q(WELL, grid)
    cols = spec.eigenvectors[:, spec.continuum_indices()]
    p_c = cols @ cols.conj().T
    hm = h.matrix.toarray()
    m = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    m = 0.5 * (m + m.conj().T)
    for row in (3, 120, 128, grid.n - 1):
        spiked = m.copy()
        spiked[row, row] += 1e3
        fake = factored(spiked, q)
        dense = np.abs(1j * (hm @ spiked - spiked @ hm) - p_c @ np.diag(q.samples) @ p_c
                       + commutator_remainder(spec, fake)).max()
        assert dense > 1e3
        assert commutator_closure_defect(spec, h, fake) == pytest.approx(dense, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["line", "radial3d"]), n=st.integers(8, 40),
       extent=st.floats(4.0, 20.0), amp=st.floats(-4.0, 4.0).filter(lambda a: abs(a) > 0.05),
       width=st.floats(0.5, 2.0), horizon=st.floats(0.05, 6.0),
       q_kind=st.sampled_from(["conformal", "dilation"]))
def test_truncated_commutator_closure_property(kind, n, extent, amp, width, horizon, q_kind):
    # i[H, B(T)] = P_c Q P_c - remainder(T), with P_c and Q written out densely
    grid = make_grid(kind, n, extent)
    pot = Potential.gaussian(amp, width=width)
    spec, h = classified(grid, pot)
    q = conformal_Q(pot, grid) if q_kind == "conformal" else dilation_Q(pot, grid)
    adaptor = build_adaptor(spec, q, horizon)
    b = dense_adaptor(adaptor)
    cols = spec.eigenvectors[:, spec.continuum_indices()]
    p_c = cols @ cols.conj().T
    hm = h.matrix.toarray()
    comm = 1j * (hm @ b - b @ hm)
    defect = np.abs(comm - p_c @ np.diag(q.samples) @ p_c + commutator_remainder(spec, adaptor)).max()
    assert defect <= 1e-10 * max(1.0, np.abs(q.samples).max())
    assert commutator_closure_defect(spec, h, adaptor) <= 1e-10 * max(1.0, np.abs(q.samples).max())


# ---------------------------------------------------------------------------
# the real symmetric core of build_adaptor against the dense complex formula


def dense_complex_adaptor(spec, q_samples, horizon):
    """B = Phi_c (-q~ o kappa) Phi_c^* with the complex kernel
    kappa = (e^{i omega T} - 1)/(i omega), kappa(0) = T, and its spectrum from
    eigvalsh of the n x n B: (B, max |lambda|, min lambda)."""
    cols, e = spec.continuum_basis()
    cols = cols.astype(complex)
    q_tilde = cols.conj().T @ (q_samples[:, None] * cols)
    omega = e[:, None] - e[None, :]
    small = np.abs(omega) < 1e-13
    kappa = np.where(small, horizon,
                     (np.exp(1j * omega * horizon) - 1.0) / (1j * np.where(small, 1.0, omega)))
    b = cols @ (-q_tilde * kappa) @ cols.conj().T
    b = 0.5 * (b + b.conj().T)
    evals = np.linalg.eigvalsh(b)
    return b, float(np.abs(evals).max()), float(evals[0])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["line", "radial3d"]), n=st.integers(8, 48),
       extent=st.floats(4.0, 20.0), amp=st.floats(-4.0, 4.0).filter(lambda a: abs(a) > 0.05),
       width=st.floats(0.5, 2.0), horizon=st.floats(0.05, 6.0),
       q_kind=st.sampled_from(["conformal_well", "dilation", "flipped"]),
       complex_basis=st.booleans(), seed=st.integers(0, 2**16))
def test_real_core_adaptor_matches_dense_complex_formula(kind, n, extent, amp, width, horizon,
                                                         q_kind, complex_basis, seed):
    grid = make_grid(kind, n, extent)
    pot = Potential.gaussian(amp, width=width)
    h = laplacian(grid).matrix.toarray() + np.diag(pot.v(grid.points))
    if complex_basis:
        # U H U^* with a diagonal phase U: complex H, complex eigenvectors, same Q
        u = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n))
        h = u[:, None] * h * u.conj()[None, :]
    spec = classify_spectrum(diagonalize(HermitianOperator(h, grid, "H")))
    assert np.iscomplexobj(spec.eigenvectors) == complex_basis
    q = _q_case(q_kind, pot, grid)
    adaptor = build_adaptor(spec, q, horizon)
    b, norm_bound, min_eig = dense_complex_adaptor(spec, q.samples, horizon)
    tol = 1e-12 * max(1.0, norm_bound)
    # the bounds from the core, B's columns and B u from the factors
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert abs(adaptor.norm_bound - norm_bound) <= tol
    assert abs(adaptor.min_eigenvalue - min_eig) <= tol
    assert np.abs(adaptor.columns(slice(None)) - b).max() <= tol
    assert np.abs(adaptor.apply(u) - b @ u).max() <= tol * np.linalg.norm(u)


def test_bound_states_add_an_exact_zero_eigenvalue(well_spec):
    # Q = -1: q~ = -I on Ran P_c, so core = T I and B = T P_c, whose spectrum
    # is T on the continuum and exactly 0 on the bound states
    spec, _ = well_spec
    n = spec.grid.n
    assert len(spec.continuum_indices()) < n
    adaptor = build_adaptor(spec, QSelection("custom", -np.ones(n), "uniform"), 7.0)
    cols = spec.continuum_basis()[0]
    assert np.abs(dense_adaptor(adaptor) - 7.0 * cols @ cols.T).max() <= 1e-12 * 7.0
    assert adaptor.min_eigenvalue == 0.0
    assert adaptor.norm_bound == pytest.approx(7.0, rel=1e-12)


def dense_core(spec, q_samples, horizon):
    """The core written out densely: np.sinc over the full outer difference
    of the continuum energies, and the scrub (m + m^*)/2 over the whole
    matrix."""
    cols, e = spec.continuum_basis()
    s = np.flatnonzero(q_samples)
    core = cols[s].conj().T @ (q_samples[s, None] * cols[s])
    core *= -horizon * np.sinc(np.subtract.outer(e, e) * (0.5 * horizon / np.pi))
    return (core + core.conj().T) * 0.5


@pytest.mark.parametrize("complex_basis", [False, True])
def test_blocked_core_equals_dense_formula(complex_basis):
    # bit for bit, on a continuum of n_c = 148 columns (two full row blocks
    # and a partial one); the complex case conjugates H by a diagonal phase
    grid = make_grid("radial3d", 150, 30.0)
    h = laplacian(grid).matrix.toarray() + np.diag(WELL.v(grid.points))
    if complex_basis:
        u = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2 * np.pi, grid.n))
        h = u[:, None] * h * u.conj()[None, :]
    spec = classify_spectrum(diagonalize(HermitianOperator(h, grid, "H")))
    assert len(spec.continuum_indices()) == 148
    for q in (conformal_Q(WELL, grid), dilation_Q(WELL, grid)):
        adaptor = build_adaptor(spec, q, 3.0)
        assert np.array_equal(adaptor.core, dense_core(spec, q.samples, 3.0))


@pytest.mark.parametrize("case", ["radial", "line", "zero"])
def test_columns_and_block_apply_match_oracle(well_spec, case, rng):
    # B's columns over all blocks of ROW_BLOCK, and B applied to a block of
    # states, against the n x n oracle from the same factors: a radial
    # spectrum with bound states (real basis), a line spectrum, and B = 0
    if case == "line":
        grid = make_grid("line", 150, 12.0)
        spec, _ = classified(grid, Potential.gaussian(1.5, width=1.3))
        adaptor = build_adaptor(spec, dilation_Q(Potential.gaussian(1.5, width=1.3), grid), 3.0)
    else:
        spec, grid = well_spec[0], well_spec[0].grid
        adaptor = build_adaptor(spec, conformal_Q(WELL, grid), 0.0 if case == "zero" else 3.0)
    assert (adaptor.core.size == 0) == (case == "zero")
    b = dense_adaptor(adaptor)
    tol = 1e-13 * max(1.0, adaptor.norm_bound)
    blocks = list(_row_blocks(grid.n))
    assert len(blocks) == 3
    for blk in blocks:
        assert np.abs(adaptor.columns(blk) - b[:, blk]).max(initial=0.0) <= tol
    block = rng.normal(size=(grid.n, 5)) + 1j * rng.normal(size=(grid.n, 5))
    b_block = adaptor.apply(block)
    assert b_block.shape == block.shape
    assert np.abs(b_block - b @ block).max() <= tol * np.linalg.norm(block, axis=0).max()
    assert np.abs(adaptor.apply(block[:, 2]) - b_block[:, 2]).max() <= tol * np.linalg.norm(block[:, 2])
    if case == "zero":
        assert not b.any() and not b_block.any()


def test_adaptor_build_and_reads_memory():
    # tracemalloc peaks on the shipped positive_potential_radial spectrum
    # (radial, n = n_c = 768), where one n x n complex array is 9.4 MB.
    # Measured with row-blocked kernel, checks and scrubs: build 6.3 MB;
    # the bounds, the closure check by column blocks and B applied to a
    # block of 12 states 4.3 MB above the held data, so no n x n array is
    # formed (assembling the dense B for them took 14.3 MB)
    ctx = _Context(load_scenario("positive_potential_radial"))
    spec, h = ctx.spec, ctx.hamiltonian()
    ctx.horizon
    states = np.ones((spec.grid.n, 12), dtype=complex)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adaptor = ctx.adaptor()
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adaptor.norm_bound, commutator_closure_defect(spec, h, adaptor), adaptor.apply(states)
        reads_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak - base <= 16e6
    assert reads_peak <= 6e6
