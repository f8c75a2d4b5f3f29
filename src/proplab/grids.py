"""Spatial discretization, measure, weights and norms.

Two geometries are supported, both with Dirichlet walls and the boundary
points excluded from the grid:

* ``line``: x_j = -L + j h, j = 1..n, h = 2L/(n+1), for the interval [-L, L].
* ``radial3d``: r_j = j h, j = 1..n, h = R/(n+1).  The stored vector is the
  reduced radial wave u(r) = r psi(r) of the s-wave sector, so the volume
  element 4 pi r^2 dr turns every quadratic form into a plain h-weighted sum
  times 4 pi.

All norms use the rectangle rule with weight h (times 4 pi on radial grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GRID_KINDS = ("line", "radial3d")

MIN_POINTS = 8

#: fraction of the extent beyond which mass counts as "at the wall"
BOUNDARY_FRACTION = 0.9

#: boundary mass above this invalidates decay measurements
BOUNDARY_MASS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform Dirichlet grid on the line or the reduced radial half-line."""

    kind: str
    n: int
    h: float
    extent: float
    points: np.ndarray = field(repr=False)

    @cached_property
    def wall_mask(self) -> np.ndarray:
        """Points beyond ``BOUNDARY_FRACTION`` of the extent, where
        ``boundary_mass`` reads the mass at the walls, and always the
        outermost point at each wall (first and last on a line, last on a
        radial grid), so that no coarse grid has an empty mask."""
        mask = np.abs(self.points) > BOUNDARY_FRACTION * self.extent
        mask[-1] = True
        mask[0] |= self.kind == "line"
        return mask

    @cached_property
    def paired_points(self) -> np.ndarray:
        """Each point twice, in the order of a complex state's float view."""
        return np.repeat(self.points, 2)

    @property
    def quad_weight(self) -> float:
        """Measure weight of one grid cell (h, or 4 pi h on radial grids)."""
        return self.h if self.kind == "line" else 4.0 * math.pi * self.h

    def inner(self, u, v) -> complex:
        """Measure-weighted inner product <u, v>."""
        return self.quad_weight * np.vdot(u, v)

    def expect(self, f, u) -> float:
        """<u, f u> for a real profile ``f`` sampled on the grid."""
        return float(np.real(self.inner(u, f * u)))


def make_grid(kind: str, n: int, extent: float) -> Grid:
    """Build a grid.

    Parameters
    ----------
    kind : {'line', 'radial3d'}
    n : number of interior points, at least 8.
    extent : half-width L of the line box, or radius R of the radial box.
    """
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    if n < MIN_POINTS:
        raise ValueError(f"n too small: {n} < {MIN_POINTS}")
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    h = (2.0 * extent if kind == "line" else extent) / (n + 1)
    j = np.arange(1, n + 1, dtype=float)
    points = (-extent + j * h) if kind == "line" else j * h
    return Grid(kind=kind, n=n, h=h, extent=float(extent), points=points)


def weight_vector(grid: Grid, sigma: float) -> np.ndarray:
    """Samples of the decay weight <x>^{-sigma} = (1 + x^2)^{-sigma/2} on the
    grid.  Requires sigma >= 0."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative so the weight stays bounded")
    return (1.0 + grid.points**2) ** (-sigma / 2.0)


def _gradient_form(grid: Grid, state) -> float:
    # forward differences with the Dirichlet zeros padded at both walls;
    # equals the stencil-Laplacian quadratic form and, on radial grids,
    # the exact s-wave Dirichlet reduction of the 3d gradient integral
    padded = np.zeros(grid.n + 2, dtype=complex)
    padded[1:-1] = state
    d = np.diff(padded) / grid.h
    return float(grid.quad_weight * np.sum(np.abs(d) ** 2))


def norm(grid: Grid, state, kind: str = "L2", p: float | None = None) -> float:
    """Norm of a state.

    ``kind`` is one of ``'L2'``, ``'Lp'`` (needs ``p >= 1``, ``math.inf``
    allowed), ``'H1'`` and ``'Lnorm'``.  ``Lnorm`` is the sum of the H1 norm
    and the <x>-weighted L2 norm, the size of initial data every conformal
    estimate is measured against.

    On radial grids the state is the reduced wave u = r psi and Lp norms are
    those of psi over R^3: ||psi||_p^p = 4 pi sum_j |u_j / r_j|^p r_j^2 h.
    """
    state = np.asarray(state)
    if kind == "L2":
        return math.sqrt(grid.quad_weight * float(np.sum(np.abs(state) ** 2)))
    if kind == "Lp":
        if p is None or p < 1:
            raise ValueError("Lp norm needs p >= 1")
        if grid.kind == "line":
            if math.isinf(p):
                return float(np.max(np.abs(state))) if state.size else 0.0
            return float((grid.h * np.sum(np.abs(state) ** p)) ** (1.0 / p))
        psi = state / grid.points
        if math.isinf(p):
            return float(np.max(np.abs(psi))) if state.size else 0.0
        val = 4.0 * math.pi * grid.h * np.sum(np.abs(psi) ** p * grid.points**2)
        return float(val ** (1.0 / p))
    if kind == "H1":
        return math.sqrt(norm(grid, state, "L2") ** 2 + _gradient_form(grid, state))
    if kind == "Lnorm":
        weighted = math.sqrt(grid.quad_weight * float(np.sum((1.0 + grid.points**2) * np.abs(state) ** 2)))
        return norm(grid, state, "H1") + weighted
    raise ValueError(f"unknown norm kind {kind!r}")


def boundary_mass(grid: Grid, state) -> float:
    """Fraction of the total mass sitting beyond ``BOUNDARY_FRACTION * extent``
    (``Grid.wall_mask``).

    Decay claims on a finite box are only meaningful while this stays below
    ``BOUNDARY_MASS_TOL``; afterwards the walls reflect.
    """
    prob = np.abs(np.asarray(state)) ** 2
    total = float(np.sum(prob))
    if total == 0.0:
        return 0.0
    return float(np.sum(prob[grid.wall_mask])) / total


def transit_energy_limit(grid: Grid, t_max: float) -> float:
    """Largest energy whose classical speed 2 sqrt(E) cannot reach the wall
    region (beyond ``BOUNDARY_FRACTION`` of the extent) before ``t_max``.
    Decay fits over [t0, t_max] are evaluated on the spectral band below
    this limit."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return (BOUNDARY_FRACTION * grid.extent / (2.0 * t_max)) ** 2
