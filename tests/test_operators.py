import numpy as np
import pytest

from proplab import (HermitianOperator, Potential, TimeDependentPotential,
                     commutator_i, dilation, laplacian, make_grid, momentum,
                     multiplication, position)
from proplab.evolution import gaussian_state
from proplab.observables import heisenberg_expectation
from proplab.operators import (ROW_BLOCK, Banded, ConformalFactor, OperatorSum,
                                _hermiticity_defect_and_scale, central_difference,
                                conformal_value)
from hypothesis import given, settings, strategies as st


def weak(grid, m, phi):
    return float(np.real(grid.inner(phi, m @ phi)))


def conformal_reference(grid, t):
    """C(t) = (x - 2tp)^*(x - 2tp) and dC/dt = -2(xp + px) + 8t p^2, dense,
    from the banded x and p."""
    x, p = position(grid).matrix.toarray(), momentum(grid).matrix.toarray()
    xp = x - 2.0 * t * p
    return xp.conj().T @ xp, -2.0 * (x @ p + p @ x) + 8.0 * t * (p @ p)


def test_hermitian_operator_rejects_asymmetric(line_grid):
    m = np.zeros((line_grid.n, line_grid.n), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(m, line_grid, "bad")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), complex_entries=st.booleans(), seed=st.integers(0, 2**16))
def test_blocked_hermiticity_reductions_match_dense(n, complex_entries, seed):
    # max |m - m^*| and max |m| by row blocks equal the dense maxima exactly,
    # with both maxima planted in each row block in turn (the last, partial
    # block included); an asymmetry confined to the last block is rejected
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_entries else 0.0)
    m = 0.5 * (m + m.conj().T)
    grid = make_grid("line", 8, 10.0)  # a tag only: the check reads the matrix
    HermitianOperator(m, grid, "exactly Hermitian")
    noisy = m + 1e-13 * rng.normal(size=(n, n))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        planted = noisy.copy()
        planted[rng.integers(lo, hi), rng.integers(lo, hi)] += 50.0
        dense = (float(np.abs(planted - planted.conj().T).max()), float(np.abs(planted).max()))
        assert _hermiticity_defect_and_scale(planted) == dense
    lo = ROW_BLOCK * ((n - 1) // ROW_BLOCK)
    bad = m.astype(complex)
    if lo == n - 1:
        bad[lo, lo] += 1e-6j * np.abs(m).max()  # a one-row last block
    else:
        bad[n - 1, lo] += 1e-6 * np.abs(m).max()
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(bad if complex_entries or lo == n - 1 else bad.real, grid, "bad")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), offsets=st.sets(st.integers(-3, 3), min_size=1),
       other_offsets=st.sets(st.integers(-3, 3)), complex_entries=st.booleans(),
       seed=st.integers(0, 2**16))
def test_banded_matches_its_dense_form(n, offsets, other_offsets, complex_entries, seed):
    # every operation of Banded against the same operation on toarray()
    rng = np.random.default_rng(seed)

    def draw(offs):
        bands = {k: rng.normal(size=n - abs(k)) for k in offs if abs(k) < n}
        if complex_entries:
            bands = {k: b + 1j * rng.normal(size=len(b)) for k, b in bands.items()}
        return Banded(n, bands)

    a, b = draw(offsets), draw(other_offsets)
    da, db = a.toarray(), b.toarray()
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    d = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    sq = rng.normal(size=(n, n))
    lo, hi = sorted(rng.integers(0, n + 1, size=2))
    pairs = [(a @ u, da @ u), (a @ d, da @ d), (d.T @ a, d.T @ da), (sq @ a, sq @ da),
             (u @ a, u @ da), ((a @ b).toarray(), da @ db), ((a + b).toarray(), da + db),
             ((a - b).toarray(), da - db), (a + sq, da + sq), (sq - a, sq - da),
             ((-2.5 * a).toarray(), -2.5 * da), ((a / 3.0).toarray(), da / 3.0),
             (a.conj().T.toarray(), da.conj().T), (np.abs(a).toarray(), np.abs(da)),
             (a[lo:hi, lo:hi].toarray(), da[lo:hi, lo:hi]),
             (a.matmul(d, slice(lo, hi)), (da @ d)[lo:hi])]
    for got, expect in pairs:
        assert got.shape == expect.shape
        assert np.abs(got - expect).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(expect).max(initial=0.0))
    assert a.shape == (n, n) and abs(a).max() == np.abs(da).max()
    for k in range(-n + 1, n):
        assert np.array_equal(a.diagonal(k), np.diagonal(da, k))
    dense_defect = (float(np.abs(da - da.conj().T).max()), float(np.abs(da).max()))
    assert _hermiticity_defect_and_scale(a) == dense_defect
    for misfit in (lambda: a @ np.ones(n + 1), lambda: np.ones(n + 1) @ a,
                   lambda: a @ Banded(n + 1, {})):
        with pytest.raises(ValueError, match="do not align"):
            misfit()


def test_constructors_are_hermitian(line_grid):
    factor = ConformalFactor(line_grid)
    for op in (laplacian(line_grid), momentum(line_grid), dilation(line_grid),
               position(line_grid), factor.x2, factor.p2):
        defect = _hermiticity_defect_and_scale(op.matrix)[0]
        assert defect <= 1e-12 * max(1.0, np.abs(op.matrix).max())


def test_laplacian_zero_vector(line_grid):
    assert np.allclose(laplacian(line_grid).apply(np.zeros(line_grid.n)), 0.0)


def test_laplacian_closed_form_spectrum(line_grid):
    lap = laplacian(line_grid)
    evals = np.linalg.eigvalsh(lap.matrix.toarray())
    n, h = line_grid.n, line_grid.h
    k = np.arange(1, n + 1)
    expect = (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))
    np.testing.assert_allclose(evals, expect, rtol=1e-10)
    assert evals[0] > 0


def test_momentum_on_constant_interior(line_grid):
    c = np.ones(line_grid.n, dtype=complex)
    out = momentum(line_grid).apply(c)
    assert np.abs(out[1:-1]).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["line", "radial3d"]), n=st.integers(8, 300),
       extent=st.floats(2.0, 100.0), t=st.floats(0.0, 20.0), seed=st.integers(0, 2**16))
def test_central_difference_and_conformal_value_match_momentum(kind, n, extent, t, seed):
    # the slice stencil against the banded momentum, and ||(x - 2tp) u||^2
    # against the quadratic form of the banded matrix C(t)
    grid = make_grid(kind, n, extent)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    pu = momentum(grid).apply(u)
    assert np.abs(central_difference(grid, u) - pu).max() <= 1e-15 * np.abs(pu).max()
    c_form = weak(grid, conformal_reference(grid, t)[0], u)
    assert conformal_value(grid, u, t) == pytest.approx(c_form, rel=1e-13)


def test_momentum_plane_wave_symbol(line_grid):
    # P e^{ikx} = (sin kh / h) e^{ikx} exactly at interior points
    k = 0.7
    wave = np.exp(1j * k * line_grid.points)
    out = momentum(line_grid).apply(wave)
    expect = (np.sin(k * line_grid.h) / line_grid.h) * wave
    np.testing.assert_allclose(out[1:-1], expect[1:-1], atol=1e-12)


def test_dilation_expectation_real_and_parity(line_grid, rng):
    a = dilation(line_grid)
    phi = rng.normal(size=line_grid.n) + 1j * rng.normal(size=line_grid.n)
    val = line_grid.inner(phi, a.apply(phi))
    assert abs(val.imag) <= 1e-9 * max(1.0, abs(val))
    even = np.exp(-line_grid.points**2 / 2.0)
    assert abs(weak(line_grid, a.matrix, even.astype(complex))) <= 1e-10


def test_dilation_kinetic_commutator_weak():
    # <phi, i[-lap, A] phi> ~ <phi, 2(-lap) phi> with O(h^2) error
    def residual(n):
        g = make_grid("line", n, 12.0)
        phi = gaussian_state(g, width=1.5)
        comm = commutator_i(laplacian(g), dilation(g))
        return abs(weak(g, comm.matrix, phi) - 2.0 * weak(g, laplacian(g).matrix, phi))

    r1, r2 = residual(256), residual(513)
    assert r1 <= 0.05
    assert 3.5 <= r1 / r2 <= 4.5


def test_multiplication_identity_action_spectrum(line_grid, rng):
    ident = multiplication(line_grid, np.ones(line_grid.n))
    np.testing.assert_allclose(ident.matrix.toarray(), np.eye(line_grid.n))
    v = rng.normal(size=line_grid.n)
    psi = rng.normal(size=line_grid.n) + 1j * rng.normal(size=line_grid.n)
    np.testing.assert_allclose(multiplication(line_grid, v).apply(psi), v * psi)
    np.testing.assert_allclose(np.linalg.eigvalsh(multiplication(line_grid, v).matrix.toarray()),
                               np.sort(v), atol=1e-12)
    with pytest.raises(ValueError, match="real"):
        multiplication(line_grid, v + 0.1j)


def test_conformal_factor_at_zero_and_psd(line_grid, rng):
    factor = ConformalFactor(line_grid)

    def dense(t):
        return sum(k * op.matrix.toarray() for k, op in factor.terms(t))

    np.testing.assert_allclose(dense(0.0), np.diag(line_grid.points**2), atol=1e-12)
    evals = np.linalg.eigvalsh(dense(1.0))
    assert evals[0] >= -1e-9 * np.abs(evals).max()
    # <phi, C phi> = ||(x - 2tp) phi||^2
    phi = rng.normal(size=line_grid.n) + 1j * rng.normal(size=line_grid.n)
    m = position(line_grid).matrix - 2.0 * momentum(line_grid).matrix
    c_phi = OperatorSum(tuple(factor.terms(1.0))).apply(phi)
    assert float(np.real(line_grid.inner(phi, c_phi))) == pytest.approx(
        float(np.real(line_grid.inner(m @ phi, m @ phi))), rel=1e-10)


def test_commutator_self_and_grid_mismatch(line_grid):
    lap = laplacian(line_grid)
    assert np.abs(commutator_i(lap, lap).matrix).max() <= 1e-12
    other = laplacian(make_grid("line", 128, 12.0))
    with pytest.raises(ValueError, match="different grids"):
        commutator_i(lap, other)


def _eq4_residual(n, width):
    g = make_grid("line", n, 12.0)
    pot = Potential.gaussian(1.0)
    phi = gaussian_state(g, width=width)
    h_op = HermitianOperator(laplacian(g).matrix + np.diag(pot.v(g.points)), g, "H")
    comm = commutator_i(h_op, dilation(g))
    target = 2.0 * laplacian(g).matrix - np.diag(pot.xdv(g.points))
    return abs(weak(g, comm.matrix - target, phi))


def test_full_commutator_identity_weak_ratio():
    r1, r2 = _eq4_residual(256, 1.5), _eq4_residual(513, 1.5)
    assert r1 <= 0.05
    assert 3.5 <= r1 / r2 <= 4.5


def _iva_residual(n):
    g = make_grid("line", n, 12.0)
    pot = Potential.gaussian(1.0)
    phi = gaussian_state(g, width=1.5)
    comm = commutator_i(multiplication(g, pot.v(g.points)), dilation(g))
    return abs(weak(g, comm.matrix, phi) - weak(g, np.diag(-pot.xdv(g.points)), phi))


def test_potential_dilation_commutator_weak_ratio():
    r1, r2 = _iva_residual(256), _iva_residual(513)
    assert r1 <= 0.02
    assert 3.5 <= r1 / r2 <= 4.5


# D_H B = i[H, B] + dB/dt, read as the run reads it: <u, D_H B u> by
# heisenberg_expectation, with <u, i[H, B] u> = -2 Im <H u, B u>


def test_heisenberg_derivative_momentum_free(line_grid, rng):
    # D_H p = 0 for H = -lap: shift polynomials commute away from the walls,
    # so the form vanishes on states supported inside and weakly on localized ones
    zero = HermitianOperator(Banded(line_grid.n, {}), line_grid, "0")
    lap, p = laplacian(line_grid), momentum(line_grid)
    inside = np.zeros(line_grid.n, dtype=complex)
    inside[2:-2] = rng.normal(size=line_grid.n - 4) + 1j * rng.normal(size=line_grid.n - 4)
    scale = line_grid.quad_weight * np.linalg.norm(lap.apply(inside)) * np.linalg.norm(p.apply(inside))
    assert abs(heisenberg_expectation(line_grid, lap, p, zero, inside)) <= 1e-10 * scale
    phi = gaussian_state(line_grid, width=1.5)
    assert abs(heisenberg_expectation(line_grid, lap, p, zero, phi)) <= 1e-12


def test_heisenberg_derivative_position_exact(line_grid, rng):
    # i[-lap, x] = 2p exactly on the uniform lattice
    zero = HermitianOperator(Banded(line_grid.n, {}), line_grid, "0")
    lap, p = laplacian(line_grid), momentum(line_grid)
    for _ in range(3):
        u = rng.normal(size=line_grid.n) + 1j * rng.normal(size=line_grid.n)
        got = heisenberg_expectation(line_grid, lap, position(line_grid), zero, u)
        scale = line_grid.quad_weight * np.linalg.norm(lap.apply(u)) * np.linalg.norm(line_grid.points * u)
        assert abs(got - 2.0 * weak(line_grid, p.matrix, u)) <= 1e-12 * scale


def test_heisenberg_derivative_scaled_conformal(line_grid):
    # D_{H0} (C(t)/t) = -C(t)/t^2, weak form on a smooth state
    t = 1.5
    phi = gaussian_state(line_grid, width=1.5)
    factor = ConformalFactor(line_grid)
    b = OperatorSum(tuple(factor.terms(t, 1.0 / t)))
    db_dt = OperatorSum(tuple(factor.dt_terms(t, 1.0 / t) + factor.terms(t, -1.0 / t**2)))
    got = heisenberg_expectation(line_grid, laplacian(line_grid), b, db_dt, phi)
    expect = -weak(line_grid, conformal_reference(line_grid, t)[0], phi) / t**2
    assert got == pytest.approx(expect, abs=1e-8)


def parity_matrix(grid):
    """Order-reversing permutation; commutes with H for even potentials on the line."""
    return np.eye(grid.n)[::-1]


def test_parity_commutes_with_even_hamiltonian(line_grid):
    pot = Potential.gaussian(-3.0, width=1.2)
    h = laplacian(line_grid).matrix + np.diag(pot.v(line_grid.points))
    par = parity_matrix(line_grid)
    assert np.abs(h @ par - par @ h).max() <= 1e-12 * np.abs(h).max()


def test_sparse_builders_match_dense_reference():
    # each banded builder against the same operator assembled densely
    for kind in ("line", "radial3d"):
        for n in (9, 64):
            g = make_grid(kind, n, 10.0)
            ones = np.ones(n - 1)
            lap = (2.0 * np.eye(n) - np.diag(ones, 1) - np.diag(ones, -1)) / g.h**2
            p = (np.diag(ones, -1) - np.diag(ones, 1)) * (1j / (2.0 * g.h))
            x = np.diag(g.points)
            factor = ConformalFactor(g)
            cases = [(laplacian(g), lap), (momentum(g), p), (position(g), x),
                     (dilation(g), 0.5 * (x @ p + p @ x)),
                     (factor.x2, x @ x), (factor.p2, p @ p)]
            for op, dense in cases:
                assert isinstance(op.matrix, Banded), op.label
                np.testing.assert_allclose(op.matrix.toarray(), dense, rtol=0,
                                           atol=1e-13 * np.abs(dense).max(),
                                           err_msg=f"{op.label} on {kind} n={n}")



def test_conformal_factor_terms_match_matrix_forms():
    # the expanded C(t) and dC/dt, applied term by term, against the matrix
    # forms (x - 2tp)^*(x - 2tp) and -2(xp + px) + 8t p^2
    rng = np.random.default_rng(3)
    for kind in ("line", "radial3d"):
        g = make_grid(kind, 64, 10.0)
        u = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        factor = ConformalFactor(g)
        for t, k in ((0.0, 1.0), (0.7, 1.0), (2.5, -0.3)):
            c, c_dt = conformal_reference(g, t)
            pairs = [(OperatorSum(tuple(factor.terms(t, k))), k * c),
                     (OperatorSum(tuple(factor.dt_terms(t, k))), k * c_dt)]
            for terms, m in pairs:
                expect = m @ u
                np.testing.assert_allclose(terms.apply(u), expect, rtol=0,
                                           atol=1e-13 * np.abs(expect).max())

def test_potential_evaluator_consistency(line_grid):
    pot = Potential.gaussian(2.0, width=1.3, center=0.7) + Potential.gaussian(-1.0, width=2.0)
    x = line_grid.points
    np.testing.assert_allclose(pot.xdv(x), x * pot.dv(x), atol=1e-12)
    dx = 1e-6
    fd = (pot.v(x + dx) - pot.v(x - dx)) / (2.0 * dx)
    np.testing.assert_allclose(pot.dv(x), fd, atol=1e-7)


def test_self_similar_envelope(line_grid):
    w = TimeDependentPotential.self_similar(0.05, 2.0, 0.5)
    x = line_grid.points
    for t in (1.0, 3.0, 10.0):
        envelope = 0.5 * 0.05 / t * (1.0 + x**2) ** -1.0
        assert np.all(np.abs(w.d_amplitude(t) * w.profile(x)) <= envelope + 1e-15)
    dx = 1e-6
    fd = (w.w(x + dx, 2.0) - w.w(x - dx, 2.0)) / (2.0 * dx)
    np.testing.assert_allclose(w.amplitude(2.0) * w.d_profile(x), fd, atol=1e-8)
