import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from proplab import (HermitianOperator, Potential, classify_spectrum,
                     diagonalize, free_spectral_data, genericity_margin,
                     laplacian, make_grid, momentum, multiplication)
from proplab.grids import Grid
from proplab.operators import Banded
from proplab.spectral import (BOUND, CONTINUUM, SpectralData, default_threshold,
                              free_laplacian_eigenvalues)


def hamiltonian(grid, pot):
    return HermitianOperator(laplacian(grid).matrix + np.diag(pot.v(grid.points)),
                             grid, "H")


def sturm_negative_count(diag, off):
    """Count eigenvalues below zero of a symmetric tridiagonal matrix via the
    signs of the LDL^T pivots (an oracle independent of the eigensolver)."""
    count = 0
    d = diag[0]
    if d < 0:
        count += 1
    for i in range(1, len(diag)):
        d = diag[i] - off[i - 1] ** 2 / d
        if d < 0:
            count += 1
    return count


def test_diagonalize_diagonal_input(line_grid, rng):
    v = np.sort(rng.normal(size=line_grid.n))
    spec = diagonalize(multiplication(line_grid, v))
    np.testing.assert_allclose(spec.eigenvalues, v, atol=1e-12)
    # eigenvectors are a signed permutation of the identity
    np.testing.assert_allclose(np.abs(spec.eigenvectors).max(axis=0), 1.0, atol=1e-12)


def test_diagonalize_two_by_two():
    g = make_grid("line", 8, 4.0)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = m[1, 0] = 1.0
    spec = diagonalize(HermitianOperator(m, g, "swap"))
    np.testing.assert_allclose(spec.eigenvalues[[0, -1]], [-1.0, 1.0], atol=1e-12)


def test_diagonalize_free_laplacian_closed_form(line_grid):
    spec = diagonalize(laplacian(line_grid))
    np.testing.assert_allclose(spec.eigenvalues,
                               free_laplacian_eigenvalues(line_grid), rtol=1e-10)


def test_diagonalize_invariants(line_grid):
    pot = Potential.gaussian(-5.0)
    h = hamiltonian(line_grid, pot)
    spec = diagonalize(h)
    phi = spec.eigenvectors
    scale = np.abs(h.matrix).max()
    assert np.abs(h.matrix @ phi - phi * spec.eigenvalues).max() <= 1e-10 * scale
    assert np.abs(phi.conj().T @ phi - np.eye(line_grid.n)).max() <= 1e-10
    recon = (phi * spec.eigenvalues) @ phi.conj().T
    assert np.abs(recon - h.matrix).max() <= 1e-9 * scale


def test_free_spectral_data_is_exact(line_grid):
    spec = free_spectral_data(line_grid)
    phi = spec.eigenvectors
    assert np.abs(phi.T @ phi - np.eye(line_grid.n)).max() <= 1e-10
    lap = laplacian(line_grid).matrix.real
    assert np.abs(phi @ np.diag(spec.eigenvalues) @ phi.T - lap).max() <= 1e-9 * lap.max()
    for n in (line_grid.n, 150):  # the row-blocked fill against the one-expression formula
        j = np.arange(1, n + 1)
        dense = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
        assert np.array_equal(free_spectral_data(make_grid("line", n, 12.0)).eigenvectors, dense)


def test_classification_free_has_no_bound_states(line_grid):
    spec = classify_spectrum(diagonalize(laplacian(line_grid)))
    assert len(spec.indices(BOUND)) == 0
    assert len(spec.indices(CONTINUUM)) == line_grid.n


def test_deep_well_bound_state_with_sturm_oracle():
    g = make_grid("line", 512, 20.0)
    pot = Potential.gaussian(-8.0)
    spec = classify_spectrum(diagonalize(hamiltonian(g, pot)))
    n_bound = len(spec.indices(BOUND))
    assert n_bound >= 1
    # independent count: negative LDL pivots of the tridiagonal H
    diag = 2.0 / g.h**2 + pot.v(g.points)
    off = np.full(g.n - 1, -1.0 / g.h**2)
    assert sturm_negative_count(diag, off) == np.sum(spec.eigenvalues < 0) == n_bound


def test_shifted_spectrum_reclassifies(line_grid):
    spec = classify_spectrum(diagonalize(laplacian(line_grid)))
    shift = spec.eigenvalues[10] + default_threshold(line_grid) * 4
    shifted = classify_spectrum(
        diagonalize(HermitianOperator(laplacian(line_grid).matrix
                                      - shift * np.eye(line_grid.n), line_grid, "H-c")))
    assert len(shifted.indices(BOUND)) >= 10


def projectors(spec):
    """The dense P_c and P_b of the run's classification: the columns of
    ``continuum_basis()`` and of ``indices(BOUND)``."""
    cols, _ = spec.continuum_basis()
    bound = spec.eigenvectors[:, spec.indices(BOUND)]
    return cols @ cols.conj().T, bound @ bound.conj().T


def test_projectors_free_and_well(line_grid):
    free = classify_spectrum(diagonalize(laplacian(line_grid)))
    np.testing.assert_allclose(projectors(free)[0], np.eye(line_grid.n), atol=1e-10)

    spec = classify_spectrum(diagonalize(hamiltonian(line_grid, Potential.gaussian(-5.0))))
    p_c, p_b = projectors(spec)
    rank = len(spec.indices(BOUND))
    assert rank > 0 and abs(np.trace(p_b).real - rank) <= 0.5
    for p in (p_c, p_b):
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.abs(p_c @ p_b).max() <= 1e-10
    assert np.abs(p_c + p_b - np.eye(line_grid.n)).max() <= 1e-10


def test_bound_states_decay_exponentially():
    # box large enough that even the shallowest bound state (E ~ -0.4,
    # decay rate ~ e^{-1.3|x|}) leaves < 1e-6 of mass beyond L/2
    g = make_grid("line", 500, 25.0)
    spec = classify_spectrum(diagonalize(hamiltonian(g, Potential.gaussian(-5.0))))
    assert len(spec.indices(BOUND)) >= 2
    for k in spec.indices(BOUND):
        phi = spec.eigenvectors[:, k]
        outer = np.abs(g.points) > g.extent / 2.0
        assert np.sum(np.abs(phi[outer]) ** 2) <= 1e-6


def test_function_of_h(line_grid):
    # Phi f(E) Phi^*: the identity, H itself and the unitary e^{-iHt}
    spec = classify_spectrum(diagonalize(hamiltonian(line_grid, Potential.gaussian(1.0))))
    phi = spec.eigenvectors

    def function_of_h(fe):
        return (phi * fe) @ phi.conj().T

    ident = function_of_h(np.ones_like(spec.eigenvalues))
    np.testing.assert_allclose(ident, np.eye(line_grid.n), atol=1e-10)
    h_back = function_of_h(spec.eigenvalues)
    h = hamiltonian(line_grid, Potential.gaussian(1.0)).matrix
    assert np.abs(h_back - h).max() <= 1e-10 * np.abs(h).max()
    u = function_of_h(np.exp(-1j * spec.eigenvalues * 0.7))
    assert np.abs(u @ u.conj().T - np.eye(line_grid.n)).max() <= 1e-10


def test_genericity_margin_free_is_one(line_grid):
    spec = classify_spectrum(diagonalize(laplacian(line_grid)))
    assert genericity_margin(spec, laplacian(line_grid)) == pytest.approx(1.0, abs=1e-10)


def test_genericity_margin_nonnegative_potential(line_grid, rng):
    pot = Potential.gaussian(2.0, width=1.5)
    spec = classify_spectrum(diagonalize(hamiltonian(line_grid, pot)))
    lap = laplacian(line_grid)
    delta = genericity_margin(spec, lap)
    assert delta >= 1.0 - 1e-8
    # random Rayleigh quotients over Ran P_c can only sit above delta*
    cols = spec.eigenvectors[:, spec.continuum_indices()]
    h = hamiltonian(line_grid, pot).matrix
    for _ in range(5):
        u = cols @ rng.normal(size=cols.shape[1])
        quot = float(np.real(np.vdot(u, h @ u) / np.vdot(u, lap.matrix @ u)))
        assert quot >= delta - 1e-8


def test_genericity_margin_phase_invariance(line_grid, rng):
    from dataclasses import replace
    pot = Potential.gaussian(-4.0)
    spec = classify_spectrum(diagonalize(hamiltonian(line_grid, pot)))
    lap = laplacian(line_grid)
    delta = genericity_margin(spec, lap)
    signs = rng.choice([-1.0, 1.0], size=line_grid.n)
    flipped = replace(spec, eigenvectors=spec.eigenvectors * signs)
    assert genericity_margin(flipped, lap) == pytest.approx(delta, abs=1e-8)


def test_evolve_matches_complex_formula(line_grid, rng):
    # real eigenvectors take the real-matvec path, complex ones the complex one
    v = Potential.gaussian(-2.0).v(line_grid.points)
    real_h = laplacian(line_grid) + multiplication(line_grid, v)
    complex_h = real_h + HermitianOperator(0.7 * momentum(line_grid).matrix, line_grid, "p")
    psi = rng.standard_normal(line_grid.n) + 1j * rng.standard_normal(line_grid.n)
    for h_op, is_complex in ((real_h, False), (complex_h, True)):
        spec = diagonalize(h_op)
        assert np.iscomplexobj(spec.eigenvectors) == is_complex
        phi, e = spec.eigenvectors, spec.eigenvalues
        for t in (0.0, 0.37, 5.0):
            expect = phi @ (np.exp(-1j * e * t) * (phi.conj().T @ psi))
            got = spec.evolve(psi, t)
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)
        assert np.linalg.norm(spec.evolve(psi.real, 0.37)
                              - phi @ (np.exp(-0.37j * e) * (phi.conj().T @ psi.real))) \
            <= 1e-13 * np.linalg.norm(psi.real)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(["tridiagonal", "dense", "free"]),
       kind=st.sampled_from(["line", "radial3d"]), n=st.integers(8, 200),
       times=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), max_size=8),
       real_state=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_flow_block_matches_written_out_formula(path, kind, n, times, real_state, seed):
    # the tridiagonal MRRR path and the closed-form sine basis have real
    # eigenvectors; adding a first-order term sends H to dense complex eigh
    grid = make_grid(kind, n, 10.0)
    if path == "free":
        spec = free_spectral_data(grid)
    else:
        h_op = laplacian(grid) + multiplication(grid, Potential.gaussian(-3.0).v(grid.points))
        if path == "dense":
            h_op = h_op + HermitianOperator(0.7 * momentum(grid).matrix, grid, "p")
        spec = diagonalize(h_op)
    assert np.iscomplexobj(spec.eigenvectors) == (path == "dense")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + (0.0 if real_state else 1j * rng.standard_normal(n))

    block = spec.flow(psi, times)
    assert block.shape == (len(times), n) and block.dtype == complex
    assert block.flags.c_contiguous
    phi, e = spec.eigenvectors, spec.eigenvalues
    for t, row in zip(times, block):
        expect = phi @ (np.exp(-1j * e * t) * (phi.conj().T @ psi))
        assert np.linalg.norm(row - expect) <= 1e-13 * np.linalg.norm(psi)
        assert np.array_equal(spec.evolve(psi, t), row)


def grid_of(kind, n, extent):
    # make_grid's spacing at any n >= 1 (make_grid itself needs n >= 8)
    h = (2.0 * extent if kind == "line" else extent) / (n + 1)
    j = np.arange(1, n + 1, dtype=float)
    return Grid(kind, n, h, extent, (-extent + j * h) if kind == "line" else j * h)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 200), kind=st.sampled_from(["line", "radial3d"]),
       extent=st.floats(2.0, 30.0), shape=st.sampled_from(["hamiltonian", "diagonal", "random"]),
       depth=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1))
def test_diagonalize_tridiagonal_matches_dense_eigh(n, kind, extent, shape, depth, seed):
    # the tridiagonal MRRR path against dense eigh of the same matrix: -lap
    # + V with a well deep enough for bound states, a diagonal H, and random
    # real diagonals
    grid = grid_of(kind, n, extent)
    rng = np.random.default_rng(seed)
    if shape == "hamiltonian":
        v = Potential.gaussian(-depth, width=0.2 * extent + 0.5).v(grid.points)
        h_op = laplacian(grid) + multiplication(grid, v)
    elif shape == "diagonal":
        h_op = multiplication(grid, depth * rng.standard_normal(n))
    else:
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        h_op = HermitianOperator(Banded(n, {-1: e, 0: d, 1: e}), grid, "T")
    dense = h_op.matrix.toarray()
    ref_e, ref_v = scipy.linalg.eigh(dense)
    spec = diagonalize(h_op)
    assert not np.iscomplexobj(spec.eigenvectors)
    # the bands go to stemr as they are: the same bits as the solver called directly
    tri_e, tri_v = scipy.linalg.eigh_tridiagonal(dense.diagonal().real, dense.diagonal(-1).real,
                                                 lapack_driver="stemr")
    assert np.array_equal(spec.eigenvalues, tri_e) and np.array_equal(spec.eigenvectors, tri_v)
    scale = max(1.0, float(np.abs(ref_e).max()))
    assert np.abs(spec.eigenvalues - ref_e).max() <= 1e-14 * scale

    ref = SpectralData(grid, ref_e, ref_v)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    for t in (0.3, 2.0 / scale):
        assert np.linalg.norm(spec.evolve(psi, t) - ref.evolve(psi, t)) <= 1e-12
    eps = default_threshold(grid)
    got, expect = classify_spectrum(spec, eps), classify_spectrum(ref, eps)
    for p_got, p_expect in zip(projectors(got), projectors(expect)):
        assert np.abs(p_got - p_expect).max() <= 1e-12


@pytest.mark.parametrize("kind", ["complex", "pentadiagonal", "dense"])
def test_diagonalize_other_hermitian_keeps_dense_eigh(line_grid, rng, kind):
    # a complex tridiagonal H, a real H with a wider band or a dense ndarray
    # H is not handed to the tridiagonal solver: the result is dense eigh's,
    # bit for bit
    h_op = laplacian(line_grid) + multiplication(line_grid, Potential.gaussian(-3.0).v(line_grid.points))
    if kind == "complex":
        h_op = h_op + HermitianOperator(0.7 * momentum(line_grid).matrix, line_grid, "p")
    elif kind == "dense":
        h_op = HermitianOperator(h_op.matrix.toarray(), line_grid, "H")
    else:
        h_op = h_op + HermitianOperator(momentum(line_grid).matrix @ momentum(line_grid).matrix,
                                        line_grid, "p^2")
        assert not np.any(h_op.matrix.toarray().imag)
    ref_e, ref_v = scipy.linalg.eigh(h_op.matrix if kind == "dense" else h_op.matrix.toarray())
    spec = diagonalize(h_op)
    np.testing.assert_array_equal(spec.eigenvalues, ref_e)
    np.testing.assert_array_equal(spec.eigenvectors, ref_v if kind == "complex" else ref_v.real)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["line", "radial3d"]), n=st.integers(8, 64),
       extent=st.floats(4.0, 30.0),
       terms=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.3, 3.0), st.floats(0.0, 1.0)),
                      min_size=0, max_size=3),
       eps_scale=st.floats(0.0, 4.0))
def test_continuous_and_bound_projectors_resolve_identity(kind, n, extent, terms, eps_scale):
    # P_c + P_b = I and P_c P_b = 0, whatever falls near threshold
    grid = make_grid(kind, n, extent)
    pot = Potential([(a, w, c * 0.5 * extent) for a, w, c in terms]) if terms else Potential.zero()
    spec = classify_spectrum(diagonalize(hamiltonian(grid, pot)),
                             eps_thr=eps_scale * default_threshold(grid))
    p_c, p_b = projectors(spec)
    assert np.abs(p_c + p_b - np.eye(n)).max() <= 1e-10
    assert np.abs(p_c @ p_b).max() <= 1e-10


def test_continuum_basis_is_a_read_only_view():
    grid = make_grid("line", 150, 12.0)
    spec = classify_spectrum(diagonalize(hamiltonian(grid, Potential.gaussian(-6.0))))
    idx = spec.continuum_indices()
    assert 0 < idx[0]  # bound states below: the view starts past column 0
    for e_max in (None, 20.0):
        cols, e = spec.continuum_basis(e_max=e_max)
        keep = idx if e_max is None else idx[spec.eigenvalues[idx] <= e_max]
        assert np.array_equal(cols, spec.eigenvectors[:, keep])
        assert np.shares_memory(cols, spec.eigenvectors) and np.shares_memory(e, spec.eigenvalues)
        with pytest.raises(ValueError):
            cols[0, 0] = 1.0
        with pytest.raises(ValueError):
            e[0] = 1.0
    # columns that are no contiguous run come back as copies
    shuffled = classify_spectrum(SpectralData(grid, np.array([2.0, -1.0, 3.0]), np.eye(3)))
    cols, e = shuffled.continuum_basis()
    assert e.tolist() == [2.0, 3.0] and np.array_equal(cols, np.eye(3)[:, [0, 2]])


_PRIME_SUCCESSORS = [p - 1 for p in range(3, 302) if all(p % d for d in range(2, int(p**0.5) + 1))]


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(2, 300), st.sampled_from(_PRIME_SUCCESSORS)),
       kind=st.sampled_from(["line", "radial3d"]), extent=st.floats(2.0, 30.0),
       times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=70),
       seed=st.integers(0, 2**32 - 1))
@example(n=292, kind="line", extent=10.0, times=[0.0, 0.5, 3.0], seed=0)  # n + 1 = 293 is prime
@example(n=2, kind="radial3d", extent=5.0, times=[1.0], seed=1)
def test_free_flow_by_dst_matches_dense_sine_basis(n, kind, extent, times, seed):
    # the free spectrum runs its coefficients and flow as DST-Is and fills
    # no n x n basis for them; against that basis, read afterwards, they
    # match the written-out formulas, and each row of a block is evolve's
    grid = grid_of(kind, n, extent)
    spec = free_spectral_data(grid)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block, coeff = spec.flow(psi, times), spec.coefficients(psi)
    assert block.shape == (len(times), n) and block.flags.c_contiguous
    assert "eigenvectors" not in vars(spec)
    phi, e = spec.eigenvectors, spec.eigenvalues
    tol = 1e-13 * np.linalg.norm(psi)
    assert np.linalg.norm(coeff - phi.T @ psi) <= tol
    for t, row in zip(times, block):
        assert np.linalg.norm(row - phi @ (np.exp(-1j * e * t) * (phi.T @ psi))) <= tol
        assert np.array_equal(spec.evolve(psi, t), row)


def test_free_spectrum_fills_its_basis_once_and_classifies_without_it(line_grid):
    spec = free_spectral_data(line_grid)
    classified = classify_spectrum(spec)
    assert "eigenvectors" not in vars(spec) and "eigenvectors" not in vars(classified)
    phi = spec.eigenvectors
    assert spec.eigenvectors is phi and not phi.flags.writeable
    assert phi.flags.f_contiguous  # LAPACK's column-major layout
    assert np.array_equal(classified.eigenvectors, phi)


def _random_well(seed, n=160):
    # a real tridiagonal H = -lap + V with a random well deep enough for bound states
    grid = make_grid("line", n, 10.0)
    rng = np.random.default_rng(seed)
    v = -rng.uniform(2.0, 8.0) * np.exp(-((grid.points - rng.uniform(-3, 3)) ** 2)) \
        + rng.uniform(0.0, 1.0, n)
    return grid, laplacian(grid) + multiplication(grid, v)


def _old_genericity_margin(spec, lap):
    # reference: the compression in complex arithmetic, symmetrized as a whole matrix
    idx = spec.continuum_indices()
    cols = spec.eigenvectors[:, idx]
    b = cols.conj().T @ (lap.matrix @ cols)
    b = 0.5 * (b + b.conj().T)
    return float(scipy.linalg.eigh(np.diag(spec.eigenvalues[idx]),
                                   b.real if np.abs(b.imag).max() < 1e-13 else b,
                                   eigvals_only=True)[0])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("basis", ["real", "complex"])
def test_continuum_part_and_genericity_margin_match_old_formulas(seed, basis):
    # P_c psi from the continuum columns equals the dense projector's product,
    # and the genericity margin in real arithmetic equals the complex formula
    grid, h_op = _random_well(seed)
    if basis == "complex":
        h_op = h_op + HermitianOperator(0.7 * momentum(grid).matrix, grid, "p")
    spec = classify_spectrum(diagonalize(h_op))
    assert len(spec.indices(BOUND)) >= 1
    assert np.iscomplexobj(spec.eigenvectors) == (basis == "complex")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    got = spec.continuum_part(psi)
    assert got.shape == (grid.n,) and got.dtype == complex
    assert np.linalg.norm(got - projectors(spec)[0] @ psi) \
        <= 1e-13 * np.linalg.norm(psi)
    lap = laplacian(grid)
    old = _old_genericity_margin(spec, lap)
    assert abs(genericity_margin(spec, lap) - old) <= 1e-12 * max(1.0, abs(old))
