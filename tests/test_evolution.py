import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dst

from proplab import (HermitianOperator, Potential, TimeDependentPotential,
                     classify_spectrum, diagonalize, evolve_split,
                     free_spectral_data, gaussian_state,
                     laplacian, make_grid, momentum, norm, trajectory_linear,
                     trajectory_split, validity_horizon)
from proplab.evolution import (FLUSH_FLOOR, _SplitStepper, _distinct, _free_propagator,
                               _fast_length, _half_width, h_half_norm_sq,
                               snap_to_lattice)
from proplab import evolution
from proplab.grids import BOUNDARY_MASS_TOL, Grid, boundary_mass
from proplab.scenarios import _Context, load_scenario
from proplab.spectral import SpectralData, _sine_transform, free_laplacian_eigenvalues


def kinetic_step(grid, u, dt):
    """The DST sandwich S diag(e^{-i lam dt}) S u, S the orthonormal DST-I:
    the free Dirichlet flow over dt written out, an oracle for the free
    spectrum's flow and the split stepper's kinetic factor."""
    lam = free_laplacian_eigenvalues(grid)
    return _sine_transform(np.exp(-1j * lam * dt) * _sine_transform(u))


def spec_for(grid, pot=None):
    if pot is None:
        return classify_spectrum(diagonalize(laplacian(grid)))
    m = laplacian(grid).matrix + np.diag(pot.v(grid.points))
    return classify_spectrum(diagonalize(HermitianOperator(m, grid, "H")))


def test_gaussian_state_normalized(line_grid, radial_grid):
    for g in (line_grid, radial_grid):
        psi = gaussian_state(g, width=1.0)
        assert norm(g, psi, "L2") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="momentum"):
        gaussian_state(radial_grid, momentum=1.0)


def test_evolve_linear_identity_at_zero(line_grid):
    spec = spec_for(line_grid)
    psi = gaussian_state(line_grid, width=1.5)
    out = spec.evolve(psi, 0.0)
    np.testing.assert_allclose(out, psi, atol=1e-12)


def test_evolve_linear_eigenstate_phase(line_grid):
    pot = Potential.gaussian(-3.0)
    spec = spec_for(line_grid, pot)
    k = 5
    phi = spec.eigenvectors[:, k]
    out = spec.evolve(phi, 2.3)
    np.testing.assert_allclose(out,
                               np.exp(-1j * spec.eigenvalues[k] * 2.3) * phi, atol=1e-10)


def test_free_flow_variance_growth():
    # <x^2>(t) = <x^2>(0) + 4 t^2 <p^2>(0) for real even data under the free flow
    g = make_grid("line", 512, 30.0)
    spec = free_spectral_data(g)
    psi = gaussian_state(g, width=1.0)
    x2_0 = float(np.real(g.inner(psi, g.points**2 * psi)))
    p_psi = momentum(g).apply(psi)
    p2_0 = float(np.real(g.inner(p_psi, p_psi)))
    t = 2.0
    out = spec.evolve(psi, t)
    x2_t = float(np.real(g.inner(out, g.points**2 * out)))
    assert x2_t == pytest.approx(x2_0 + 4.0 * t**2 * p2_0, rel=1e-4)


def test_evolve_linear_conserves_norm_and_energy(line_grid):
    pot = Potential.gaussian(1.0)
    spec = spec_for(line_grid, pot)
    h = laplacian(line_grid).matrix + np.diag(pot.v(line_grid.points))
    psi = gaussian_state(line_grid, width=1.2)
    e0 = float(np.real(line_grid.inner(psi, h @ psi)))
    out = spec.evolve(psi, 5.0)
    assert norm(line_grid, out, "L2") == pytest.approx(1.0, abs=1e-9)
    e_t = float(np.real(line_grid.inner(out, h @ out)))
    assert e_t == pytest.approx(e0, rel=1e-9)


def test_kinetic_step_matches_free_eigenbasis(line_grid):
    spec = free_spectral_data(line_grid)
    psi = gaussian_state(line_grid, width=1.5)
    t = 1.7
    np.testing.assert_allclose(kinetic_step(line_grid, psi, t),
                               spec.evolve(psi, t), atol=1e-10)
    # bit for bit a row of the free flow's block, on the two grids of the
    # free conformal residual (the shipped free scenario's n and 2n + 1)
    for n in (1024, 2049):
        grid = make_grid("line", n, 20.0)
        psi = gaussian_state(grid, width=2.5)
        ts = (0.996, 1.0, 1.004)
        for t, row in zip(ts, free_spectral_data(grid).flow(psi, ts)):
            assert np.array_equal(kinetic_step(grid, psi, t), row)


def test_split_step_matches_exact_with_order_two():
    g = make_grid("line", 256, 15.0)
    pot = Potential.gaussian(1.0)
    spec = spec_for(g, pot)
    psi = gaussian_state(g, width=1.2)
    exact = spec.evolve(psi, 1.0)

    def gap(dt):
        out = evolve_split(g, pot, None, psi, 1.0, dt)
        return norm(g, out - exact, "L2")

    g1, g2 = gap(0.02), gap(0.01)
    assert 3.5 <= g1 / g2 <= 4.5


def test_split_step_identity_and_unitarity(line_grid):
    pot = Potential.gaussian(0.5)
    psi = gaussian_state(line_grid, width=1.2)
    out = evolve_split(line_grid, pot, None, psi, 0.0, 1e-2)
    np.testing.assert_allclose(out, psi, atol=1e-12)
    out = evolve_split(line_grid, pot, None, psi, 3.0, 1e-2)
    assert norm(line_grid, out, "L2") == pytest.approx(1.0, abs=1e-9)


def test_split_step_time_reversal(line_grid):
    pot = Potential.gaussian(0.8)
    w = TimeDependentPotential.self_similar(0.05, 2.0, 0.5)
    psi = gaussian_state(line_grid, width=1.2)
    fwd = evolve_split(line_grid, pot, w, psi, 2.0, 1e-2)
    back = evolve_split(line_grid, pot, w, fwd, 0.0, 1e-2, t0=2.0)
    assert norm(line_grid, back - psi, "L2") <= 1e-8


def test_evolve_nls_reduces_to_linear(line_grid):
    pot = Potential.gaussian(0.3)
    psi = 0.1 * gaussian_state(line_grid, width=1.0)
    lin = evolve_split(line_grid, pot, None, psi, 1.0, 1e-2)
    nl0 = evolve_split(line_grid, pot, None, psi, 1.0, 1e-2, nonlinearity=0.0)
    np.testing.assert_allclose(nl0, lin, atol=1e-12)


def test_evolve_nls_mass_conservation():
    g = make_grid("line", 512, 40.0)
    pot = Potential.gaussian(0.2)
    psi = 0.1 * gaussian_state(g, width=1.0)
    mass0 = norm(g, psi, "L2") ** 2
    out = evolve_split(g, pot, None, psi, 10.0, 1e-3, nonlinearity=1.0)
    assert abs(norm(g, out, "L2") ** 2 - mass0) <= 1e-10


def nls_energy(grid, potential, lam, state):
    """Conserved energy functional of the cubic flow (up to O(dt^2) drift)."""
    u = np.asarray(state, dtype=complex)
    kinetic = float(np.real(grid.inner(u, laplacian(grid).apply(u))))
    v = potential.v(grid.points) if potential is not None else 0.0
    pot = float(np.real(grid.inner(u, v * u)))
    quart = 0.5 * lam * grid.quad_weight * float(np.sum(np.abs(u) ** 4))
    return kinetic + pot + quart


def test_evolve_nls_energy_drift_order_two():
    g = make_grid("line", 256, 20.0)
    pot = Potential.gaussian(0.2)
    psi = 0.5 * gaussian_state(g, width=1.0)
    e0 = nls_energy(g, pot, 1.0, psi)

    def drift(dt):
        out = evolve_split(g, pot, None, psi, 1.0, dt, nonlinearity=1.0)
        return abs(nls_energy(g, pot, 1.0, out) - e0)

    d1, d2 = drift(0.02), drift(0.01)
    assert 3.5 <= d1 / d2 <= 4.5


def test_evolve_nls_rejects_focusing(line_grid):
    psi = gaussian_state(line_grid, width=1.0)
    with pytest.raises(ValueError, match="focusing"):
        evolve_split(line_grid, None, None, psi, 1.0, 1e-2, nonlinearity=-1.0)


def test_evolve_nls_rejects_radial(radial_grid):
    psi = gaussian_state(radial_grid, width=1.0)
    with pytest.raises(ValueError, match="line"):
        evolve_split(radial_grid, None, None, psi, 1.0, 1e-2, nonlinearity=1.0)


def test_dt_validation(line_grid):
    psi = gaussian_state(line_grid)
    with pytest.raises(ValueError, match="dt"):
        evolve_split(line_grid, None, None, psi, 1.0, -0.1)
    with pytest.raises(ValueError, match="divide"):
        evolve_split(line_grid, None, None, psi, 1.0, 0.3)


def test_step_times_come_from_the_step_index():
    # repeated addition of dt drifts by up to 3.4e-12 over these 2e4 steps;
    # the observer must see t0 + k dt exactly
    g = make_grid("line", 8, 5.0)
    t0, dt, n_steps = 0.5, 1e-3, 20000
    seen = []
    evolve_split(g, None, None, gaussian_state(g), t0 + n_steps * dt, dt, t0=t0,
                 observer=lambda t, u: seen.append(t))
    expect = t0 + np.arange(n_steps + 1) * dt
    assert np.array_equal(np.asarray(seen), expect)
    assert seen[-1] == expect[-1]


def test_trajectory_sampling_and_validity():
    g = make_grid("line", 256, 15.0)
    spec = spec_for(g)
    psi = gaussian_state(g, width=1.0)
    times = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    traj = trajectory_linear(spec, psi, times)
    assert traj.state_at(2.0) is traj.states[2]
    with pytest.raises(ValueError, match="not sampled"):
        traj.state_at(3.0)
    # the packet reaches the wall of this small box well before t = 8
    assert traj.validity_horizon < 8.0
    assert validity_horizon(spec, psi, 10.0) < 10.0


def sequential_horizon(spec, psi, t_max, samples=60):
    # the probe loop validity_horizon replaces: one time at a time, each
    # state from the written-out eigenbasis formula, stopping at the first
    # probe whose boundary mass crosses the tolerance
    phi, e = spec.eigenvectors, spec.eigenvalues
    last_good = 0.0
    for t in np.linspace(0.0, t_max, samples + 1)[1:]:
        u = phi @ (np.exp(-1j * e * t) * (phi.conj().T @ psi))
        if boundary_mass(spec.grid, u) > BOUNDARY_MASS_TOL:
            return last_good
        last_good = float(t)
    return float(t_max)


@pytest.mark.parametrize("center, t_max, expect", [
    (14.0, 10.0, "first"),   # starts at the wall: crosses at the first probe
    (0.0, 10.0, "midway"),
    (0.0, 0.5, "never"),
])
def test_validity_horizon_matches_sequential_probes(center, t_max, expect):
    g = make_grid("line", 256, 15.0)
    spec = spec_for(g, Potential.gaussian(0.5))
    psi = gaussian_state(g, center=center, width=1.0)
    got = validity_horizon(spec, psi, t_max)
    assert got == sequential_horizon(spec, psi, t_max)
    if expect == "first":
        assert got == 0.0
    elif expect == "never":
        assert got == t_max
    else:
        assert 0.0 < got < t_max


def test_exact_flow_consumers_compute_coefficients_once(line_grid, monkeypatch):
    # one Phi^T psi0 per call of each consumer, however many times it samples
    # (a run reads every exact-flow series off one trajectory_linear)
    pot = Potential.gaussian(1.0)
    spec = spec_for(line_grid, pot)
    psi = gaussian_state(line_grid, width=1.0)
    calls = []
    coefficients = SpectralData.coefficients

    def counted(self, state):
        calls.append(1)
        return coefficients(self, state)

    monkeypatch.setattr(SpectralData, "coefficients", counted)
    for k in (1, 7, 40):
        times = np.linspace(0.1, 2.0, k)
        for consumer in (lambda: validity_horizon(spec, psi, 3.0, samples=k),
                         lambda: trajectory_linear(spec, psi, times)):
            calls.clear()
            consumer()
            assert len(calls) == 1


def test_trajectory_split_lattice_check(line_grid):
    psi = gaussian_state(line_grid, width=1.2)
    times = snap_to_lattice(np.array([0.5, 1.0, 1.5]), 0.01)
    traj = trajectory_split(line_grid, None, None, psi, times, 0.01)
    assert len(traj.states) == 3
    with pytest.raises(ValueError, match="lattice|divide"):
        trajectory_split(line_grid, None, None, psi, np.array([0.5005]), 0.01)


@pytest.mark.parametrize("n", [1, 2, 767, 768, 2047, 2048])
def test_sine_transform_is_scipy_dst_bit_for_bit(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wide = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    real = rng.standard_normal(n)
    for data in (u, wide[::2], real):
        out = _sine_transform(data)
        assert out.shape == data.shape
        assert np.array_equal(out, dst(data, type=1, norm="ortho"))


@pytest.mark.parametrize("n", [8, 9, 640, 960, 961])
def test_h_half_norm_sq_matches_sine_transform_form(n):
    # the one-FFT quadratic form against sum_k sqrt(1 + lam_k) |(S u)_k|^2,
    # including n + 1 prime (641) and 5-smooth 2n
    grid = make_grid("radial3d", n, 100.0)
    lam = free_laplacian_eigenvalues(grid)
    rng = np.random.default_rng(n)
    for u in (gaussian_state(grid, center=3.0, width=1.0),
              rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n)):
        ref = grid.quad_weight * np.sum(np.sqrt(1.0 + lam) * np.abs(_sine_transform(u)) ** 2)
        assert h_half_norm_sq(grid, u) == pytest.approx(ref, rel=1e-13)


def test_fast_length_is_the_least_5_smooth_length():
    smooth = sorted(2**i * 3**j * 5**k for i in range(12) for j in range(8) for k in range(6))
    for n in range(1, 2049):
        assert _fast_length(n) == next(m for m in smooth if m >= n)


def test_distinct_is_np_unique():
    rng = np.random.default_rng(3)
    for values in (rng.integers(0, 9, 40) * 0.25, rng.standard_normal(7), np.array([0.0, -0.0, 1.0]),
                   np.array([]), np.array([[2.0, 1.0], [1.0, 3.0]])):
        assert np.array_equal(_distinct(values), np.unique(values))


def test_trajectory_restricted_keeps_samples_and_masses():
    g = make_grid("line", 128, 10.0)
    times = snap_to_lattice([0.5, 1.0, 2.0, 3.0, 4.0], 0.01)
    traj = trajectory_split(g, None, None, gaussian_state(g, width=1.0), times, 0.01)
    view = traj.restricted(times[[1, 3]])
    assert np.array_equal(view.times, times[[1, 3]])
    assert view.states[1] is traj.states[3]
    assert np.array_equal(view.boundary_masses, traj.boundary_masses[[1, 3]])
    with pytest.raises(ValueError, match="not sampled"):
        traj.restricted([1.5])


def _grid_any_n(kind, n, extent=10.0):
    """``make_grid``'s spacing without its n >= 8 floor (the points are unused)."""
    h = (2.0 * extent if kind == "line" else extent) / (n + 1)
    return Grid(kind, n, h, extent, h * np.arange(1.0, n + 1))


def kernel_cells(apply):
    """The free propagator's closure variables by name, among them the state's
    stretch ``middle`` of its padded buffer ``middle.base``, the window view
    ``windows`` and the real Toeplitz matrix ``t``."""
    return dict(zip(apply.__code__.co_freevars, (c.cell_contents for c in apply.__closure__)))


@pytest.mark.parametrize("n", [1, 2, 3, 384, 639, 640, 767, 768, 959, 961, 2047, 2048])
def test_sine_multiplier_matches_dst_sandwich(n):
    # the free propagator is the sine multiplier S diag(e^{-i lam dt}) S of the
    # DST sandwich, whatever the factors of n + 1, for dt of either sign, from
    # a few taps (z = 2|dt|/h^2 small) to one whole period (z >> n + 1), with
    # or without a phase and for any layout of u, from one window or many; the
    # taps it drops, read off the full 2(n + 1)-tap ifft, carry l1 mass at
    # most 2^-60 plus roundoff
    big_n = n + 1
    zs = (1e-3, 0.037, 0.37, 3.0, 10.0 * big_n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wide = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    real = rng.standard_normal(n)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    lag = np.minimum(np.arange(2 * big_n), 2 * big_n - np.arange(2 * big_n))
    for kind in ("line", "radial3d"):
        grid = _grid_any_n(kind, n)
        for z in zs:
            for dt in (0.5 * z * grid.h**2, -0.5 * z * grid.h**2):
                apply = _free_propagator(grid, dt)
                # ceil(n / 16) windows of 2(16 + 2b) floats, 32 apart, and t
                # mapping each to its 16 outputs; one whole period at the cap
                b = _half_width(z, big_n)
                cells = kernel_cells(apply)
                assert cells["windows"].shape == (-(-n // 16), 2 * (16 + 2 * b))
                assert cells["windows"].strides[0] == 32 * 8
                assert cells["t"].shape == (2 * (16 + 2 * b), 32)
                assert z != zs[-1] or b == big_n
                for data, p in ((u, 1.0), (real, 1.0), (wide[::2], phase)):
                    ref = kinetic_step(grid, p * data, dt)
                    out, lo, hi = apply(data, p, 0, n - 1)
                    assert out.shape == (n,) and (lo, hi) == (0, n - 1)
                    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
                lam = np.append(free_laplacian_eigenvalues(grid), 4.0 / grid.h**2)
                e = np.exp(-1j * lam * dt) - 1.0
                taps = np.fft.ifft(np.concatenate([[0.0], e, e[-2::-1]]))
                dropped = np.abs(taps[lag > b]).sum()
                # 2N taps, each off by a few eps (|e| <= 2)
                assert dropped <= 2.0**-60 + 4 * big_n * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), kind=st.sampled_from(["line", "radial3d"]),
       log_z=st.floats(-3.0, 4.0), sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**32 - 1))
def test_free_propagator_matches_dst_sandwich_property(n, kind, log_z, sign, seed):
    # z = 2|dt|/h^2 from a few taps to past the whole-period cap (z = 10^4
    # caps every n <= 300), either sign of dt, a random phase and state
    grid = _grid_any_n(kind, n)
    dt = sign * 0.5 * 10.0**log_z * grid.h**2
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = kinetic_step(grid, phase * u, dt)
    out, _, _ = _free_propagator(grid, dt)(u, phase, 0, n - 1)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_whole_period_kernel_holds_no_n_squared_array():
    # at the cap b = n + 1 a step still costs O(n b), and t holds O(16 b)
    # entries: no array the kernel keeps, nor the one a step returns, has n^2
    grid = make_grid("line", 2048, 240.0)
    dt = 1e3 * grid.h**2
    assert _half_width(2.0 * dt / grid.h**2, grid.n + 1) == grid.n + 1
    apply = _free_propagator(grid, dt)
    cells = kernel_cells(apply)
    assert {"middle", "windows", "t"} <= set(cells)
    held = [a for a in cells.values() if isinstance(a, np.ndarray)] + [cells["middle"].base]
    u = gaussian_state(grid, width=5.0)
    out, _, _ = apply(u, 1.0, 0, grid.n - 1)
    assert max(a.size for a in held + [out.base]) < grid.n**2
    ref = kinetic_step(grid, u, dt)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sweep_from_a_wall_stays_out_of_the_subnormal_range():
    # a width-1 Gaussian at the origin of a long radial box: the exact tail
    # underflows, and the direct product computes that tail down into the
    # subnormal range, whose entries would slow every later step; the kernel
    # flushes them to zero, and every float below FLUSH_FLOOR with them, as
    # the sweep does to its copy of psi0 before the observer first sees it
    grid = make_grid("radial3d", 2048, 400.0)
    dt = 5e-4
    b = _half_width(2.0 * dt / grid.h**2, grid.n + 1)
    assert b <= 8 and kernel_cells(_free_propagator(grid, dt))["windows"].shape == (128, 2 * (16 + 2 * b))
    tiny = np.finfo(float).tiny
    subnormal, below_floor = [], []

    def count(t, u):
        parts = np.abs(u.view(float))
        below_floor.append(int(np.count_nonzero((parts > 0) & (parts < FLUSH_FLOOR))))
        if t > 0:  # the Gaussian itself underflows to subnormals at the far wall
            subnormal.append(int(np.count_nonzero((parts > 0) & (parts < tiny))))

    psi0 = gaussian_state(grid, width=1.0)
    assert np.count_nonzero((np.abs(psi0) > 0) & (np.abs(psi0) < FLUSH_FLOOR)) > 0
    evolve_split(grid, None, None, psi0, 300 * dt, dt, observer=count)
    assert len(subnormal) == 300 and max(subnormal) == 0
    assert len(below_floor) == 301 and max(below_floor) == 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 300), kind=st.sampled_from(["line", "radial3d"]),
       extent=st.floats(5.0, 40.0), amp=st.floats(-5.0, 5.0), width=st.floats(0.3, 3.0),
       with_w=st.booleans(), cubic=st.booleans(), dt=st.floats(1e-3, 5e-2),
       steps=st.integers(1, 40))
def test_split_step_unitary_and_reversible(n, kind, extent, amp, width, with_w, cubic,
                                           dt, steps):
    # every Strang factor is unitary, and the symmetric step run backwards
    # undoes it (the midpoint W and the |u|-invariant cubic phase both agree)
    grid = make_grid(kind, n, extent)
    pot = Potential.gaussian(amp, width, 0.25 * extent)
    w_t = TimeDependentPotential.self_similar(0.5, 2.0, 0.5) if with_w else None
    lam = 1.0 if cubic and kind == "line" else 0.0
    psi0 = gaussian_state(grid, center=0.5 * extent if kind == "radial3d" else 0.0,
                          width=0.1 * extent)
    t_final = steps * dt
    psi = evolve_split(grid, pot, w_t, psi0, t_final, dt, nonlinearity=lam)
    assert abs(norm(grid, psi, "L2") - 1.0) <= 1e-12
    back = evolve_split(grid, pot, w_t, psi, 0.0, dt, t0=t_final, nonlinearity=lam)
    assert np.abs(back - psi0).max() <= 1e-10 * np.abs(psi0).max()


def recomputed_strang_states(grid, pot, lam, psi0, dt, steps):
    """Strang steps with both half phases evaluated from the state they act
    on, every step: the states at t = 0, dt, ..., steps dt."""
    kinetic = _free_propagator(grid, dt)
    v = pot.v(grid.points)

    def half(u):
        angle = (-0.5 * (v + lam * (u.real**2 + u.imag**2))) * dt
        return np.cos(angle) + 1j * np.sin(angle)

    states = [np.asarray(psi0, dtype=complex)]
    for _ in range(steps):
        u, _, _ = kinetic(states[-1], half(states[-1]), 0, grid.n - 1)
        states.append(half(u) * u)
    return states


@pytest.mark.parametrize("lam", [1.0, 0.0])
def test_carried_half_phase_matches_recomputed_phases(lam):
    # without W the sweep reuses each step's last half phase as the next
    # step's first; the observer still sees every lattice state
    grid = make_grid("line", 64, 12.0)
    pot = Potential.gaussian(0.5, 1.0, 1.0)
    psi0 = gaussian_state(grid, center=-1.0, width=1.5, momentum=1.0)
    dt, steps = 0.004, 1200
    seen = []
    evolve_split(grid, pot, None, psi0, steps * dt, dt, nonlinearity=lam,
                 observer=lambda t, u: seen.append(u.copy()))
    ref = recomputed_strang_states(grid, pot, lam, psi0, dt, steps)
    assert len(seen) == steps + 1
    scale = np.abs(np.array(ref)).max(axis=1)
    assert np.all(np.abs(np.array(seen) - ref).max(axis=1) <= 1e-13 * scale)


def test_bare_step_computes_its_phases_and_w_carries_none(rng):
    grid = make_grid("line", 64, 12.0)
    pot = Potential.gaussian(0.5)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)  # not a state of any sweep
    for lam in (1.0, 0.0):
        out, (lo, hi, half) = _SplitStepper(grid, pot, nonlinearity=lam).step(u, 0.3, 0.01)
        ref = recomputed_strang_states(grid, pot, lam, u, 0.01, 1)[1]
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert (lo, hi) == (0, 63) and half is not None
    w_t = TimeDependentPotential.self_similar(0.5, 2.0, 0.5)
    assert _SplitStepper(grid, pot, w_t=w_t).step(u, 0.3, 0.01)[1] == (0, 63, None)
    # a bare step starts a new span: after a wider state, a narrower one
    # steps as on a fresh stepper, with no stale entries in the buffer
    stepper, narrow = _SplitStepper(grid, pot), np.where(np.arange(64) < 20, u, 0.0)
    stepper.step(u, 0.3, 0.01)
    assert np.array_equal(stepper.step(narrow, 0.3, 0.01)[0], _SplitStepper(grid, pot).step(narrow, 0.3, 0.01)[0])


def held_arrays(stepper, carry):
    """Every array the stepper holds, its free propagator's buffer and views of
    it included, and the half phase of the carry a step hands on."""
    cells = [c.cell_contents for c in stepper._kinetic.__closure__]
    held = list(vars(stepper).values()) + cells + list(carry)
    held += [a for c in cells if isinstance(c, tuple) for a in c]
    return [a for a in held if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("case", ["cubic", "w"])
def test_states_never_alias_the_stepper_buffers(case):
    # the free propagator reuses its padded buffer from step to step; an
    # observer that keeps every state without copying must still end up with
    # the states a copying observer sees
    if case == "cubic":
        grid, w_t, lam = make_grid("line", 96, 12.0), None, 1.0
        psi0 = gaussian_state(grid, center=-1.0, width=1.5, momentum=1.0)
    else:
        grid, lam = make_grid("radial3d", 96, 12.0), 0.0
        w_t = TimeDependentPotential.self_similar(0.5, 2.0, 0.5)
        psi0 = gaussian_state(grid, center=4.0, width=1.5)
    pot = Potential.gaussian(0.5, 1.0, 1.0)
    dt, steps = 0.01, 30
    kept, copied = [], []
    evolve_split(grid, pot, w_t, psi0, steps * dt, dt, nonlinearity=lam,
                 observer=lambda t, u: kept.append(u))
    evolve_split(grid, pot, w_t, psi0, steps * dt, dt, nonlinearity=lam,
                 observer=lambda t, u: copied.append(u.copy()))
    assert len(kept) == steps + 1
    assert all(np.array_equal(k, c) for k, c in zip(kept, copied))

    stepper = _SplitStepper(grid, pot, w_t=w_t, nonlinearity=lam)
    out, carry = stepper.step(psi0, 0.0, dt)
    out2, carry = stepper.step(out, dt, dt, carry)
    kinetic_out, _, _ = stepper._kinetic(psi0, 1.0, 0, grid.n - 1)
    held = held_arrays(stepper, carry)
    assert sum(a.size > grid.n + 1 for a in held) >= 2  # the padded buffer and t
    for state in (out, out2, kinetic_out):
        assert not any(np.shares_memory(state, a) for a in held)
    assert not np.shares_memory(out, out2)


def full_grid_kinetic(apply, u, phase):
    """The kinetic factor on the whole grid, an oracle for the span: the phase
    times u written over all of the kernel's buffer, every window multiplied,
    the whole grid added back and flushed."""
    c = kernel_cells(apply)
    middle, b, n, windows, t = c["middle"], c["b"], c["n"], c["windows"], c["t"]
    buf = middle.base
    np.multiply(phase, u, out=middle)
    np.negative(buf[2 * b - 2:b - 1:-1], out=buf[:b - 1])
    np.negative(buf[n + b - 1:n:-1], out=buf[n + b + 1:n + 2 * b])
    out = (windows @ t).view(complex).ravel()[:n]
    np.add(out, middle, out=out)
    parts = out.view(float)
    parts[np.abs(parts) < FLUSH_FLOOR] = 0.0
    return out


def full_grid_strang_step(kinetic, grid, pot, w_t, lam, u, t, dt, first=None):
    """One Strang step with both half phases and the kinetic factor on the
    whole grid, in the stepper's arithmetic (an oracle for the span); returns
    (state, last half phase).  ``first`` is the first half phase, as a sweep
    without W carries it from the step before; None computes it from u."""
    v = pot.v(grid.points)
    if w_t is not None:
        v = v + w_t.amplitude(t + 0.5 * dt) * w_t.profile(grid.points)

    def half(u):
        angle = ((u.real * u.real + u.imag * u.imag) * lam + v) * (-0.5 * dt)
        out = np.empty(grid.n, dtype=complex)
        np.cos(angle, out=out.real)
        np.sin(angle, out=out.imag)
        return out

    u = full_grid_kinetic(kinetic, u, half(u) if first is None else first)
    last = half(u)
    return last * u, last


def compact_state(rng, n, layout):
    """Random complex data on a compact support of the given layout, zero
    elsewhere; index 0 is the radial origin."""
    i = np.sort((rng.uniform(0.0, 1.0, 4) * n).astype(int))
    support = {"interior": [(i[1], i[2])], "wall": [(0, i[1])], "walls": [(0, n - 1)],
               "single": [(i[1], i[1])], "bumps": [(i[0], i[1]), (i[2], i[3])],
               "zero": []}[layout]
    u = np.zeros(n, dtype=complex)
    for a, c in support:
        u[a:c + 1] = rng.standard_normal(c + 1 - a) + 1j * rng.standard_normal(c + 1 - a)
    return u


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), kind=st.sampled_from(["line", "radial3d"]),
       layout=st.sampled_from(["interior", "wall", "walls", "single", "bumps", "zero"]),
       with_w=st.booleans(), cubic=st.booleans(), log_z=st.floats(-3.0, 4.0),
       steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(n=40, kind="line", layout="single", with_w=False, cubic=False, log_z=-3.0, steps=3, seed=0)
def test_span_sweep_matches_full_grid_steps(n, kind, layout, with_w, cubic, log_z, steps, seed):
    # a step works on the span of the state alone; outside it the full-grid
    # step maps zeros to exact zeros, so every state is the same floats, the
    # carried span holds every nonzero entry, and no half phase is read
    # outside the range it was computed on; z = 2 dt/h^2 from a few taps
    # to past the whole-period cap (z = 10^4 caps every n <= 200); the example
    # is a span inside one window, which numpy would multiply as a gemv
    grid = _grid_any_n(kind, n)
    pot = Potential.gaussian(0.7, 0.3 * grid.extent, 0.2 * grid.extent)
    w_t = TimeDependentPotential.self_similar(0.5, 2.0, 0.5) if with_w else None
    lam = 1.0 if cubic and kind == "line" else 0.0
    dt = 0.5 * 10.0**log_z * grid.h**2
    u = want = compact_state(np.random.default_rng(seed), n, layout)
    stepper, oracle = _SplitStepper(grid, pot, w_t=w_t, nonlinearity=lam), _free_propagator(grid, dt)
    computed = stepper._half_phase

    def half_phase(u, lo, hi, t_mid, dt):  # NaN where the phase is unset: a read would show
        half = computed(u, lo, hi, t_mid, dt)
        half[:lo] = half[hi + 1:] = np.nan
        return half

    stepper._half_phase = half_phase
    carry = last = None
    for k in range(steps):
        u, carry = stepper.step(u, k * dt, dt, carry)
        want, last = full_grid_strang_step(oracle, grid, pot, w_t, lam, want, k * dt, dt,
                                           None if with_w else last)
        assert np.array_equal(u, want)
        lo, hi, _ = carry
        nonzero = np.flatnonzero(u)
        assert 0 <= lo and hi < n and (len(nonzero) == 0 or lo <= nonzero[0] <= nonzero[-1] <= hi)
    assert layout != "zero" or not u.any()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), kind=st.sampled_from(["line", "radial3d"]),
       layout=st.sampled_from(["interior", "wall", "walls", "single", "bumps", "zero"]),
       log_z=st.floats(-3.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_kernel_step_flushes_below_the_floor(n, kind, layout, log_z, seed):
    # compact data whose parts range log-uniformly over 1e-320 .. 1, down into
    # the subnormals: one kernel step on its span leaves no float in
    # (0, FLUSH_FLOOR), gives the full-grid oracle's floats, and its span holds
    # every nonzero output
    grid = _grid_any_n(kind, n)
    dt = 0.5 * 10.0**log_z * grid.h**2
    rng = np.random.default_rng(seed)
    u = compact_state(rng, n, layout)
    parts = u.view(float)
    parts[:] = np.sign(parts) * 10.0 ** rng.uniform(-320.0, 0.0, 2 * n)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    nonzero = np.flatnonzero(u)
    lo, hi = (nonzero[0], nonzero[-1]) if len(nonzero) else (0, n - 1)
    out, lo, hi = _free_propagator(grid, dt)(u, phase, lo, hi)
    want = full_grid_kinetic(_free_propagator(grid, dt), u, phase)
    assert np.array_equal(out.view(float), want.view(float))
    out_parts = np.abs(out.view(float))
    assert not np.any((out_parts > 0) & (out_parts < FLUSH_FLOOR))
    nonzero = np.flatnonzero(out)
    assert 0 <= lo and hi < n and (len(nonzero) == 0 or lo <= nonzero[0] <= nonzero[-1] <= hi)


def test_sweep_reads_its_first_span_after_the_flush(monkeypatch):
    # psi0 with one entry below FLUSH_FLOOR far from its bump: the sweep
    # flushes its copy first, so the observer never sees the entry and the
    # first step's span starts at the bump, not at that entry
    grid = make_grid("line", 256, 20.0)
    psi0 = np.zeros(grid.n, dtype=complex)
    psi0[120:136] = 1.0
    psi0[3] = 1e-200
    assert FLUSH_FLOOR == 2.0**-511 and 0 < abs(psi0[3]) < FLUSH_FLOOR
    spans, seen = [], []
    step = _SplitStepper.step

    def recording_step(self, u, t, dt, carry=None):
        u, carry = step(self, u, t, dt, carry)
        spans.append(carry[:2])
        return u, carry

    monkeypatch.setattr(_SplitStepper, "step", recording_step)
    dt = 1e-3
    b = _half_width(2.0 * dt / grid.h**2, grid.n + 1)
    evolve_split(grid, None, None, psi0, 2 * dt, dt, observer=lambda t, u: seen.append(u.copy()))
    assert seen[0][3] == 0 and np.array_equal(seen[0][120:136], psi0[120:136])
    assert psi0[3] == 1e-200  # the caller's array is left alone
    assert len(spans) == 2 and 120 - b <= spans[0][0] and spans[0][1] <= 135 + b


def test_first_step_multiplies_only_the_windows_of_the_span(monkeypatch):
    # on cubic_nls_small's grid, psi0 underflows to exact zeros in the far
    # tail: the first step multiplies only the windows that cover the span
    # widened by b a side, a state that fills the grid all 128 of them
    rows = []

    class CountingWindows(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                rows.append(len(inputs[0]))
            inputs = [x.view(np.ndarray) if isinstance(x, CountingWindows) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    build = evolution._free_propagator

    def counting_propagator(grid, dt):
        apply = build(grid, dt)
        cell = apply.__closure__[apply.__code__.co_freevars.index("windows")]
        cell.cell_contents = cell.cell_contents.view(CountingWindows)
        return apply

    monkeypatch.setattr(evolution, "_free_propagator", counting_propagator)
    ctx = _Context(load_scenario("cubic_nls_small"))
    grid, dt = ctx.grid, ctx.config.dt
    b = _half_width(2.0 * dt / grid.h**2, grid.n + 1)
    nonzero = np.flatnonzero(ctx.psi0)
    span = nonzero[-1] - nonzero[0] + 1
    stepper = _SplitStepper(grid, ctx.potential, nonlinearity=ctx.config.nonlinearity)
    stepper.step(ctx.psi0, 0.0, dt)
    assert grid.n == 2048 and span < 0.2 * grid.n
    assert rows == [rows[0]] and rows[0] <= -(-(span + 2 * b) // 16) + 1
    full = np.random.default_rng(0).standard_normal(grid.n) + 0j
    stepper.step(full, 0.0, dt)
    assert rows[1:] == [128]
