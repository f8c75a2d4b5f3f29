import math

import numpy as np
import pytest

from proplab import make_grid, norm, weight_vector
from proplab.grids import boundary_mass, transit_energy_limit


def test_make_grid_rejects_small_n():
    with pytest.raises(ValueError, match="n too small"):
        make_grid("line", 3, 5.0)


def test_make_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        make_grid("line", 64, 0.0)
    with pytest.raises(ValueError):
        make_grid("radial3d", 64, -2.0)
    with pytest.raises(ValueError):
        make_grid("plane", 64, 2.0)


def test_line_grid_convention():
    g = make_grid("line", 9, 5.0)
    assert g.h == pytest.approx(1.0)
    np.testing.assert_allclose(g.points, np.arange(-4.0, 5.0))


def test_radial_grid_convention():
    g = make_grid("radial3d", 9, 10.0)
    assert g.h == pytest.approx(1.0)
    np.testing.assert_allclose(g.points, np.arange(1.0, 10.0))
    assert np.all(np.diff(g.points) > 0)


def test_weight_vector_values():
    g = make_grid("line", 9, 5.0)
    w = weight_vector(g, 2.0)
    # x = 0 with sigma = 2 gives exactly 1
    assert w[4] == pytest.approx(1.0)
    # <sqrt(3)> = 2, so sigma = 1 gives 1/2
    g3 = make_grid("line", 15, 4.0 * math.sqrt(3))
    w3 = weight_vector(g3, 1.0)
    j = np.argmin(np.abs(g3.points - math.sqrt(3)))
    assert g3.points[j] == pytest.approx(math.sqrt(3))
    assert w3[j] == pytest.approx(0.5)


def test_weight_vector_pointwise_formula():
    g = make_grid("line", 9, 5.0)
    w = weight_vector(g, 1.0)
    np.testing.assert_allclose(w, (1.0 + g.points**2) ** -0.5, rtol=1e-14)
    assert np.all(w > 0) and np.all(w <= 1.0)


def test_weight_rejects_negative_sigma(line_grid):
    with pytest.raises(ValueError):
        weight_vector(line_grid, -0.5)


def test_weight_monotone_in_x_and_sigma(line_grid, rng):
    sigmas = np.sort(rng.uniform(0.1, 4.0, size=5))
    prev = None
    for s in sigmas:
        w = weight_vector(line_grid, s)
        # non-increasing in |x|
        half = w[line_grid.points >= 0]
        assert np.all(np.diff(half) <= 1e-15)
        # non-increasing in sigma, pointwise
        if prev is not None:
            assert np.all(w <= prev + 1e-15)
        prev = w


def test_norm_zero_vector(line_grid):
    z = np.zeros(line_grid.n)
    for kind in ("L2", "H1", "Lnorm"):
        assert norm(line_grid, z, kind) == 0.0
    assert norm(line_grid, z, "Lp", p=4.0) == 0.0


def test_norm_single_entry_is_sqrt_h(line_grid):
    e = np.zeros(line_grid.n)
    e[10] = 1.0
    assert norm(line_grid, e, "L2") == pytest.approx(math.sqrt(line_grid.h))


def test_gaussian_l2_analytic():
    # int e^{-x^2} dx = sqrt(pi), so ||e^{-x^2/2}||_2 = pi^{1/4}
    g = make_grid("line", 512, 20.0)
    psi = np.exp(-g.points**2 / 2.0)
    assert norm(g, psi, "L2") == pytest.approx(math.pi**0.25, rel=1e-6)


def test_radial_lp_reduced_rule():
    g = make_grid("radial3d", 400, 40.0)
    u = g.points * np.exp(-g.points**2 / 2.0)  # psi = e^{-r^2/2}
    # ||psi||_2^2 over R^3 = 4 pi int e^{-r^2} r^2 dr = pi^{3/2}
    assert norm(g, u, "L2") ** 2 == pytest.approx(math.pi**1.5, rel=1e-6)
    # ||psi||_6^6 = 4 pi int e^{-3 r^2} r^2 dr = 4 pi sqrt(pi)/(4*3^{3/2})
    expect6 = (4.0 * math.pi * math.sqrt(math.pi) / (4.0 * 3.0**1.5)) ** (1.0 / 6.0)
    assert norm(g, u, "Lp", p=6.0) == pytest.approx(expect6, rel=1e-6)


def test_sup_norm(line_grid):
    psi = np.exp(-line_grid.points**2)
    assert norm(line_grid, psi, "Lp", p=math.inf) == pytest.approx(psi.max())


def test_lp_requires_valid_p(line_grid):
    with pytest.raises(ValueError):
        norm(line_grid, np.ones(line_grid.n), "Lp", p=0.5)


def test_lnorm_dominates(line_grid, rng):
    for _ in range(5):
        psi = rng.normal(size=line_grid.n) + 1j * rng.normal(size=line_grid.n)
        lnorm = norm(line_grid, psi, "Lnorm")
        assert lnorm >= norm(line_grid, psi, "H1") - 1e-12
        assert lnorm >= norm(line_grid, psi, "L2") - 1e-12


def test_h1_matches_stencil_form(line_grid):
    # the forward-difference gradient form equals <psi, -lap psi> exactly
    from proplab.operators import laplacian
    psi = np.exp(-line_grid.points**2 / 3.0).astype(complex)
    h1_sq = norm(line_grid, psi, "H1") ** 2
    l2_sq = norm(line_grid, psi, "L2") ** 2
    grad_sq = float(np.real(line_grid.inner(psi, laplacian(line_grid).apply(psi))))
    assert h1_sq - l2_sq == pytest.approx(grad_sq, rel=1e-12)


def test_quadrature_consistency_smooth_bound():
    # rectangle rule on smooth data vanishing at the walls: error <= C h^2
    exact = math.sqrt(math.pi)  # int e^{-x^2}
    for n in (128, 256, 512):
        g = make_grid("line", n, 12.0)
        err = abs(norm(g, np.exp(-g.points**2 / 2.0), "L2") ** 2 - exact)
        assert err <= 1.0 * g.h**2


def test_quadrature_h2_ratio_sharp_case():
    # a kink on a grid point activates the h^2 term, so halving h quarters it
    def sq_err(n):
        g = make_grid("line", n, 8.0)
        f = np.exp(-np.abs(g.points))
        exact = 1.0 - math.exp(-2.0 * 8.0)
        return abs(norm(g, f, "L2") ** 2 - exact)

    # n -> 2n+1 halves h exactly; both grids contain x = 0 (odd n)
    e1, e2 = sq_err(255), sq_err(511)
    assert 3.5 <= e1 / e2 <= 4.5


def test_boundary_mass_and_transit_limit(line_grid):
    centered = np.exp(-line_grid.points**2)
    assert boundary_mass(line_grid, centered) < 1e-12
    edge = np.zeros(line_grid.n)
    edge[-1] = 1.0
    assert boundary_mass(line_grid, edge) == pytest.approx(1.0)
    assert transit_energy_limit(line_grid, 10.0) == pytest.approx(
        (0.9 * line_grid.extent / 20.0) ** 2)
    with pytest.raises(ValueError):
        transit_energy_limit(line_grid, 0.0)


@pytest.mark.parametrize("kind", ["line", "radial3d"])
def test_wall_mask_holds_the_outermost_points_on_coarse_grids(kind):
    # below n = 20 on a line (10 radially) no point lies beyond 0.9 of the
    # extent; the outermost point at each wall counts anyway
    for n in range(8, 41):
        grid = make_grid(kind, n, 10.0)
        mask = grid.wall_mask
        assert mask[-1] and mask[0] == (kind == "line")
        assert np.array_equal(mask[1:-1], np.abs(grid.points[1:-1]) > 0.9 * grid.extent)


def test_coarse_line_grid_reads_mass_at_its_walls():
    # h = 2.2: the outermost points +-12.18 lie inside 0.9 L = 12.96, so the
    # boundary mass used to read 0 however far the state had spread
    from proplab import free_spectral_data, gaussian_state, validity_horizon
    grid = make_grid("line", 12, 14.4)
    spec, psi = free_spectral_data(grid), gaussian_state(grid, width=1.0)
    masses = [boundary_mass(grid, u) for u in spec.flow(psi, [1.0, 5.0])]
    assert 0.0 < masses[0] < 1e-6 < masses[1]
    assert validity_horizon(spec, psi, 10.0) < 5.0
