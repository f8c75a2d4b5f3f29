"""Position-basis operators: Laplacian, momentum, dilation, potentials,
the conformal factor and commutators.

Every position-basis operator here is banded and is stored as its bands
(``Banded``: {offset k: band}, band k holding the entries (j, j + k)),
closed under sum, product, adjoint and i[., .].  Dense matrices come only
from the spectral calculus (eigenvectors, the core of the adaptor B_V); their
elementwise checks and fills run over blocks of ROW_BLOCK rows
(``_row_blocks``).  A real combination of banded operators and B_V is an
``OperatorSum``, applied term by term, so no banded-plus-dense n x n sum is
formed.

The kinetic operator is the 3-point Dirichlet stencil and the momentum is the
central difference; they are independent discretizations, so continuum
identities that mix them hold weakly on smooth states with O(h^2) error.
A few identities are exact on the uniform lattice up to wall rows, e.g.
i[-lap, x^2] = 2(xp + px) and i[-lap, xp + px] = 4 p^2; tests distinguish the
two classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import Grid

HERMITICITY_RTOL = 1e-12
ROW_BLOCK = 64  # rows per block of a dense elementwise pass


def _row_blocks(n: int):
    """Slices of ROW_BLOCK rows covering range(n); the last may reach past n."""
    return (slice(lo, lo + ROW_BLOCK) for lo in range(0, n, ROW_BLOCK))


def _symmetrize(m):
    """m <- (m + m^*)/2 in place by pairs of row blocks, entry by entry as the
    dense formula; returns m."""
    for i in _row_blocks(len(m)):
        for j in _row_blocks(i.stop):
            m[i, j], m[j, i] = (m[i, j] + m[j, i].conj().T) * 0.5, (m[j, i] + m[i, j].conj().T) * 0.5
    return m


def _in_band(k: int, lo: int, hi: int) -> slice:
    """Where band k holds its entries of rows lo..hi-1."""
    return slice(lo - max(0, -k), hi - max(0, -k))


class Banded:
    """An n x n matrix held as its bands {k: band}, band k holding the entries
    (j, j + k) in the order of ``ndarray.diagonal(k)``.  A product sums each
    entry's terms into a zeroed output in the order a CSR product does, so
    it has CSR's bits; a product with a dense matrix runs by row blocks.
    NumPy hands every operator with a Banded operand to the methods here
    (``__array_ufunc__``), so an ndarray never densifies one."""

    def __init__(self, n: int, bands: dict):
        self.n, self.bands = n, dict(sorted(bands.items()))

    shape = property(lambda self: (self.n, self.n))
    dtype = property(lambda self: np.result_type(float, *self.bands.values()))
    T = property(lambda self: Banded(self.n, {-k: b for k, b in self.bands.items()}))
    real = property(lambda self: self._map(np.real))
    imag = property(lambda self: self._map(np.imag))
    conj = lambda self: self._map(np.conj)
    __abs__ = lambda self: self._map(np.abs)
    __neg__ = lambda self: self._map(np.negative)
    __truediv__ = lambda self, c: self * (1.0 / c)  # as CSR divides by a scalar
    __sub__ = lambda self, other: self + -other
    __rsub__ = lambda self, other: -self + other
    diagonal = lambda self, k=0: self.bands.get(k, np.zeros(self.n - abs(k))).copy()

    def _map(self, f) -> "Banded":
        return Banded(self.n, {k: f(b) for k, b in self.bands.items()})

    def __mul__(self, c) -> "Banded":
        return self._map(lambda b: b * c) if np.ndim(c) == 0 else NotImplemented

    def __add__(self, other):
        if not isinstance(other, Banded):
            return other + self.toarray()
        bands = dict(self.bands)
        for k, b in other.bands.items():
            bands[k] = bands[k] + b if k in bands else b
        return Banded(self.n, bands)

    __rmul__, __radd__ = __mul__, __add__

    def __matmul__(self, other):
        if np.shape(other)[0] != self.n:
            raise ValueError(f"matmul: shapes {self.shape} and {np.shape(other)} do not align")
        if not isinstance(other, Banded):
            return self.matmul(other)
        n, bands, dtype = self.n, {}, np.result_type(self.dtype, other.dtype)
        for a, ba in self.bands.items():
            for b, bb in other.bands.items():  # rows i with both (i, i + a) and (i + a, i + a + b)
                lo, hi, c = max(0, -a, -a - b), min(n, n - a, n - a - b), a + b
                if lo < hi:
                    terms = ba[_in_band(a, lo, hi)] * bb[_in_band(b, lo + a, hi + a)]
                    bands.setdefault(c, np.zeros(n - abs(c), dtype))[_in_band(c, lo, hi)] += terms
        return Banded(n, bands)

    def matmul(self, other, rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of self @ other for a dense vector or matrix other."""
        other, (lo, hi, _) = np.asarray(other), rows.indices(self.n)
        out = np.zeros((hi - lo,) + other.shape[1:], np.result_type(self.dtype, other))
        step, col = (ROW_BLOCK, np.s_[:, None]) if other.ndim == 2 else (max(hi - lo, 1), np.s_[:])
        for start in range(lo, hi, step):
            for k, b in self.bands.items():
                i0, i1 = max(start, -k), min(start + step, hi, self.n - k)
                if i0 < i1:
                    out[i0 - lo:i1 - lo] += b[_in_band(k, i0, i1)][col] * other[i0 + k:i1 + k]
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        """other @ self; descending offsets, the row order of CSR's transposed product."""
        other = np.asarray(other)
        if other.shape[-1] != self.n:
            raise ValueError(f"matmul: shapes {other.shape} and {self.shape} do not align")
        out = np.zeros(other.shape[:-1] + (self.n,), np.result_type(self.dtype, other))
        for rows in _row_blocks(len(other)) if other.ndim == 2 else [Ellipsis]:
            for k, b in reversed(self.bands.items()):
                r0, c0 = max(0, -k), max(0, k)
                out[rows, c0:c0 + len(b)] += other[rows, r0:r0 + len(b)] * b
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        name = {np.add: "__radd__", np.subtract: "__rsub__", np.multiply: "__rmul__",
                np.matmul: "__rmatmul__", np.absolute: "__abs__"}.get(ufunc)
        if method != "__call__" or kwargs or name is None or inputs[-1] is not self:
            return NotImplemented
        return getattr(self, name)(*inputs[:-1])

    def __getitem__(self, key) -> "Banded":
        """The principal block [a:b, a:b]."""
        (lo, hi, step), cols = (k.indices(self.n) for k in key)
        if (lo, hi, step) != cols or step != 1:
            raise IndexError("a Banded matrix gives principal blocks [a:b, a:b] only")
        return Banded(max(hi - lo, 0),
                      {k: b[lo:hi - abs(k)] for k, b in self.bands.items() if hi - lo > abs(k)})

    def max(self):
        """The largest entry, the zeros off the bands included."""
        full = sum(map(len, self.bands.values())) == self.n**2
        return max([b.max() for b in self.bands.values() if len(b)] + [0.0] * (not full))

    def toarray(self) -> np.ndarray:
        return sum((np.diag(b, k) for k, b in self.bands.items()), np.zeros(self.shape, self.dtype))


def _hermiticity_defect_and_scale(m) -> tuple:
    """(max |m - m^*|, max |m|); a dense m by row blocks, with no n x n temporary."""
    if isinstance(m, Banded):
        return float(abs(m - m.conj().T).max()), float(abs(m).max())
    defect, scale = np.max([(np.abs(m[r] - m[:, r].conj().T).max(), np.abs(m[r]).max())
                            for r in _row_blocks(len(m))], axis=0)
    return float(defect), float(scale)


def _hermiticity_defect_and_bound(m) -> tuple:
    """(max |m - m^*|, HERMITICITY_RTOL max |m|), or the tolerance itself as
    the bound for m = 0: m counts as Hermitian when the defect is within it."""
    defect, scale = _hermiticity_defect_and_scale(m)
    return defect, HERMITICITY_RTOL * (scale or 1.0)


def _check_hermitian(m, what: str) -> None:
    """Raise unless m is Hermitian by ``_hermiticity_defect_and_bound``."""
    defect, bound = _hermiticity_defect_and_bound(m)
    if defect > bound:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.2e}")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Self-adjoint matrix tagged with its grid and a provenance label: a
    ``Banded`` for banded operators, a dense ndarray for spectral ones."""

    matrix: np.ndarray | Banded = field(repr=False)
    grid: Grid
    label: str = ""

    def __post_init__(self):
        _check_hermitian(self.matrix, f"matrix {self.label!r}")

    def apply(self, state):
        return self.matrix @ state

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _require_same_grid(self, other)
        return HermitianOperator(self.matrix + other.matrix, self.grid,
                                 f"({self.label}+{other.label})")


@dataclass(frozen=True, eq=False)
class OperatorSum:
    """sum_k c_k T_k for real c_k and Hermitian operators T_k (anything with
    ``apply``: banded HermitianOperators, the adaptor B_V), applied term
    by term.  No matrix sum is formed; each term was checked Hermitian where
    it was built, and a real combination of Hermitian terms is Hermitian."""

    terms: tuple  # (coefficient, operator) pairs

    def apply(self, state):
        out = np.zeros(len(state), dtype=complex)
        for coeff, op in self.terms:
            if coeff != 0.0:
                out += coeff * op.apply(state)
        return out


def _require_same_grid(a: HermitianOperator, b: HermitianOperator):
    if a.grid is not b.grid and (a.grid.kind != b.grid.kind or a.grid.n != b.grid.n
                                 or abs(a.grid.h - b.grid.h) > 1e-15):
        raise ValueError(f"operators {a.label!r} and {b.label!r} live on different grids")


def _banded(grid: Grid, diagonals: dict) -> Banded:
    # complex Banded from {offset: band}; a scalar band is broadcast
    return Banded(grid.n, {k: np.full(grid.n - abs(k), b, complex) for k, b in diagonals.items()})


def laplacian(grid: Grid) -> HermitianOperator:
    """Minus the second difference with Dirichlet walls: (2 d_ij - d_{|i-j|,1})/h^2.

    Symmetric positive definite; eigenvalues (2/h^2)(1 - cos(k pi/(n+1))).
    """
    h2 = grid.h**2
    return HermitianOperator(_banded(grid, {-1: -1.0 / h2, 0: 2.0 / h2, 1: -1.0 / h2}),
                             grid, "-lap")


def momentum(grid: Grid) -> HermitianOperator:
    """p = -i d/dx by central differences; Hermitian by antisymmetry."""
    h = grid.h
    return HermitianOperator(_banded(grid, {-1: 1j / (2.0 * h), 1: -1j / (2.0 * h)}),
                             grid, "p")


def position(grid: Grid) -> HermitianOperator:
    return HermitianOperator(_banded(grid, {0: grid.points}), grid, "x")


def multiplication(grid: Grid, samples) -> HermitianOperator:
    """Diagonal operator from real samples (potentials, weights, Q profiles)."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples) and np.abs(samples.imag).max() > 0:
        raise ValueError("multiplication operator needs real samples")
    return HermitianOperator(_banded(grid, {0: samples.real}), grid, "mult")


def dilation(grid: Grid) -> HermitianOperator:
    """Generator of scaling A = (x p + p x)/2."""
    x = position(grid).matrix
    p = momentum(grid).matrix
    return HermitianOperator(0.5 * (x @ p + p @ x), grid, "A")


def central_difference(grid: Grid, state) -> np.ndarray:
    """p u = (u[j+1] - u[j-1]) (-i/2h) with Dirichlet zeros beyond the ends:
    the stencil of ``momentum``, by slices."""
    u = np.asarray(state)
    out = np.empty(len(u), dtype=complex)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[0], out[-1] = u[1], -u[-2]
    out *= -0.5j / grid.h
    return out


def conformal_value(grid: Grid, state, t: float, p_state=None) -> float:
    """<u, C(t) u> = ||(x - 2tp) u||^2 as a real dot product on the float
    views; ``p_state`` is p u (``central_difference``) when the caller
    already has it."""
    u = np.ascontiguousarray(state, dtype=complex)
    pu = central_difference(grid, u) if p_state is None else p_state
    v = grid.paired_points * u.view(float)
    v -= (2.0 * t) * pu.view(float)
    return float(grid.quad_weight * v.dot(v))


class ConformalFactor:
    """C(t) = |x - 2tp|^2 = x^2 - 4tA + 4t^2 p^2 (A the dilation), as
    OperatorSum terms so that one set of banded operators, built and checked
    Hermitian once, serves every t.  ``terms`` and ``dt_terms`` give the
    (coefficient, operator) pairs of k C(t) and k dC/dt = k(-4A + 8t p^2)."""

    def __init__(self, grid: Grid):
        x, p = position(grid).matrix, momentum(grid).matrix
        self.x2 = HermitianOperator(x @ x, grid, "x^2")
        self.a = dilation(grid)
        self.p2 = HermitianOperator(p @ p, grid, "p^2")

    def terms(self, t: float, k: float = 1.0) -> list:
        return [(k, self.x2), (-4.0 * t * k, self.a), (4.0 * t * t * k, self.p2)]

    def dt_terms(self, t: float, k: float = 1.0) -> list:
        return [(-4.0 * k, self.a), (8.0 * t * k, self.p2)]


def commutator_i(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """i[A, B]; Hermitian whenever both inputs are."""
    _require_same_grid(a, b)
    m = 1j * (a.matrix @ b.matrix - b.matrix @ a.matrix)
    return HermitianOperator(m, a.grid, f"i[{a.label},{b.label}]")


class Potential:
    """Static potential with closed-form evaluators for V, grad V and x.grad V.

    Built from Gaussian terms a exp(-((x-c)/w)^2), which add with ``+``, or
    from arbitrary closed-form evaluator callables via ``custom``.
    """

    def __init__(self, terms=(), evaluators=None):
        self.terms = tuple(terms)  # (amplitude, width, center)
        self._evaluators = evaluators

    @classmethod
    def zero(cls) -> "Potential":
        return cls()

    @classmethod
    def gaussian(cls, amplitude: float, width: float = 1.0, center: float = 0.0) -> "Potential":
        if width <= 0:
            raise ValueError("width must be positive")
        return cls([(float(amplitude), float(width), float(center))])

    @classmethod
    def custom(cls, v, dv) -> "Potential":
        """Potential from closed-form evaluators for V and grad V."""
        return cls(evaluators=(v, dv))

    @property
    def is_zero(self) -> bool:
        return not self.terms and self._evaluators is None

    def __add__(self, other: "Potential") -> "Potential":
        if self._evaluators is not None or other._evaluators is not None:
            raise ValueError("custom potentials do not compose with +")
        return Potential(self.terms + other.terms)

    def v(self, x):
        x = np.asarray(x, dtype=float)
        if self._evaluators is not None:
            return np.asarray(self._evaluators[0](x), dtype=float)
        out = np.zeros_like(x)
        for a, w, c in self.terms:
            out += a * np.exp(-(((x - c) / w) ** 2))
        return out

    def dv(self, x):
        x = np.asarray(x, dtype=float)
        if self._evaluators is not None:
            return np.asarray(self._evaluators[1](x), dtype=float)
        out = np.zeros_like(x)
        for a, w, c in self.terms:
            out += a * np.exp(-(((x - c) / w) ** 2)) * (-2.0 * (x - c) / w**2)
        return out

    def xdv(self, x):
        """x . grad V, the dilation commutator profile i[V, A] = -x.grad V."""
        x = np.asarray(x, dtype=float)
        return x * self.dv(x)

    def is_nonnegative(self, x) -> bool:
        return bool(np.all(self.v(x) >= -1e-14))


class TimeDependentPotential:
    """Separable time-dependent part W(x, t) = amplitude(t) profile(x), with
    the analytic derivatives ``d_amplitude`` and ``d_profile``.

    The self-similar family is W = delta (1+t)^{-a} <x>^{-sigma}.  Its time
    derivative obeys |dW/dt| <= a delta t^{-1} <x>^{-sigma}-type envelopes,
    the smallness that lets the conformal estimate bootstrap.
    """

    def __init__(self, amplitude: Callable, d_amplitude: Callable,
                 profile: Callable, d_profile: Callable):
        self.amplitude = amplitude
        self.d_amplitude = d_amplitude
        self.profile = profile
        self.d_profile = d_profile

    @classmethod
    def self_similar(cls, delta: float, sigma: float, a: float) -> "TimeDependentPotential":
        prof = lambda x: (1.0 + np.asarray(x) ** 2) ** (-sigma / 2.0)
        dprof = lambda x: -sigma * np.asarray(x) * (1.0 + np.asarray(x) ** 2) ** (-sigma / 2.0 - 1.0)
        amp = lambda t: delta * (1.0 + t) ** (-a)
        damp = lambda t: -a * delta * (1.0 + t) ** (-a - 1.0)
        return cls(amp, damp, prof, dprof)

    def w(self, x, t):
        return self.amplitude(t) * self.profile(x)
