"""Construction of the adaptor operator B_V.

B_V solves the commutation equation i[H, B] = Q P_c on the continuous
subspace.  On a finite box the infinite-horizon time integral of the
conjugated profile diverges on the spectral diagonal, so the construction is
truncated at a horizon T:

    B(T) = P_c [ integral_0^T e^{iHs} (-Q) e^{-iHs} ds ] P_c,

in the eigenbasis as B = Phi_c (-q~ o kappa) Phi_c^*, q~ = Phi_c^* Q Phi_c,
kappa(omega, T) = (e^{i omega T} - 1)/(i omega) = e^{i omega T/2} K with the real
K = 2 sin(omega T/2)/omega, K(0) = T.  So B = Phi_c D core D^* Phi_c^* with
D = diag(e^{i E_c T/2}) and core = -q~ o K (real symmetric for real eigenvectors),
and spec(B) = spec(core) u {0}^(n - n_c).  B is kept as these factors: B u takes
three products on float views, O(n n_c) each.  The dense n x n B (two real
O(n^2 n_c) products) and the spectrum bounds (one eigvalsh of the core) are
formed on first read, for the checks that need them.  Held dense: the
eigenvectors (Phi_c is a view), the core and B; every other dense elementwise
step (kernel, Hermiticity checks, (M + M^*)/2 scrubs) runs by row blocks.  The
truncation makes the commutation identity exact with a measurable remainder:

    i[H, B(T)] = P_c Q P_c - remainder(T),
    remainder(T) = P_c e^{iHT} Q e^{-iHT} P_c,

whose weighted norm ||<x>^{-sigma} remainder <x>^{-sigma}|| is the residual
diagnostic; local decay of the flow is exactly what drains it as T grows,
until wall reflections refocus the profile (keep T below half the
box-validity horizon).

Q is diagonal: on its support S, F = Phi_c e^{iE_c T} Phi_c[S, :]^* (n x |S|)
gives remainder(T) = F diag(q_S) F^*, and P_c Q P_c at T = 0.  The thin QR
factors R of W F and of W Phi_band (W = <x>^{-sigma}, k band modes) give
||W remainder W|| = ||R diag(q_S) R^*|| and ||W e^{-iHt} P_band W|| =
||R e^{-iEt} R^*||, at O(n^2 |S|) and O(n k^2) cost.  At t = 0 over the
whole continuum that norm is the top eigenvalue of W P_c W = W^2 - B B^*
with B = W Phi_b (bound modes only), which Lanczos iteration reaches at
O(n k_b) per step.  Along a flow, <u, remainder(T) u> = sum_S q_s
|(F^* u)_s|^2 costs O(n |S|) per state once F is built.  The entrywise
closure check runs over row blocks of i[H, B] (H banded) and of the factored
P_c Q P_c and remainder, so it forms no n x n array beyond B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, weight_vector
from .operators import (Banded, HermitianOperator, Potential, _check_hermitian,
                        _row_blocks, _symmetrize)
from .spectral import BOUND, SpectralData, _product


@dataclass(frozen=True, eq=False)
class QSelection:
    """Commutator target profile Q(x) with its provenance."""

    purpose: str  # conformal | dilation | custom
    samples: np.ndarray = field(repr=False)
    provenance: str = ""

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("Q samples must be finite")
        if self.purpose == "conformal" and np.any(self.samples > 1e-12):
            raise ValueError("conformal Q must be nonpositive so that -Q >= 0")

    def flipped(self) -> "QSelection":
        """Sign-flipped copy for negative tests; purpose downgraded to custom."""
        return QSelection("custom", -self.samples, f"sign-flip of ({self.provenance})")


def positive_part(f):
    """[f]_+ = f where f >= 0 else 0, applied pointwise on grid samples."""
    return np.maximum(np.asarray(f), 0.0)


def negative_part(f):
    """[f]_- = f where f <= 0 else 0 (keeps its sign)."""
    return np.minimum(np.asarray(f), 0.0)


def conformal_Q(potential: Potential, grid: Grid) -> QSelection:
    """Q = -[4 x.grad V + 4 V]_+, the choice cancelling the bad-sign part of
    the conformal identity's right side."""
    x = grid.points
    f = 4.0 * potential.xdv(x) + 4.0 * potential.v(x)
    return QSelection("conformal", -positive_part(f),
                      provenance="-[4 x.grad V + 4 V]_+")


def dilation_Q(potential: Potential, grid: Grid) -> QSelection:
    """Q = 2V + x.grad V, so that A + B_V obeys i[H, A + B_V] = 2H."""
    x = grid.points
    f = 2.0 * potential.v(x) + potential.xdv(x)
    return QSelection("dilation", f, provenance="2V + x.grad V")


class AdaptorOperator:
    """Truncated-horizon adaptor with its residual diagnostics and spectrum bounds.

    B is held as its factors (grid, Phi_c, D, core) or, once ``op``/``matrix``
    is read, as the dense matrix they assemble (cached; ``apply`` then uses
    it).  ``norm_bound`` and ``min_eigenvalue`` take one eigvalsh of the core
    on first read, before assembly drops the core.
    """

    def __init__(self, op: HermitianOperator | None, q: QSelection, horizon: float,
                 sigma: float, residual_weighted: float, norm_bound: float | None = None,
                 min_eigenvalue: float | None = None, warnings: tuple = (), factors=None):
        self._op, self._factors = op, factors
        self._bounds = None if norm_bound is None else (float(norm_bound), float(min_eigenvalue))
        self.q, self.horizon, self.sigma = q, horizon, sigma
        self.residual_weighted, self.warnings = residual_weighted, warnings

    def _spectrum_bounds(self) -> tuple:
        if self._bounds is None:
            grid, _, _, core = self._factors
            evals = np.append(np.linalg.eigvalsh(core), np.zeros(min(1, grid.n - len(core))))  # 0 on Ran P_b
            self._bounds = (float(np.abs(evals).max()), float(evals.min()))
        return self._bounds

    norm_bound = property(lambda self: self._spectrum_bounds()[0])
    min_eigenvalue = property(lambda self: self._spectrum_bounds()[1])

    @property
    def op(self) -> HermitianOperator:
        """The dense B; each n x n temporary is freed before the next."""
        if self._op is None:
            self._spectrum_bounds()
            grid, cols, d, core = self._factors
            self._factors = None
            m = d[:, None] * core
            del core
            m *= d.conj()  # D core D^*, its second product in place
            b = _product(cols, m)  # Phi_c M
            del m
            b_h = np.conjugate(b.T, out=np.empty(b.T.shape, dtype=complex))
            del b
            b = _product(cols, b_h)  # Phi_c M^* Phi_c^* = B, M being Hermitian
            del b_h
            _symmetrize(b)  # scrub roundoff asymmetry
            self._op = HermitianOperator(b, grid, f"B_V(T={self.horizon:g})")
        return self._op

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    def apply(self, state):
        """B u: by the assembled B once it exists, else Phi_c D core D^* Phi_c^* u."""
        if self._op is not None:
            return self._op.apply(state)
        _, cols, d, core = self._factors
        c = d.conj() * _product(cols.conj().T, state)
        return _product(cols, d * _product(core, c))


def _spectral_norm(m) -> float:
    """Largest singular value; 0 for an empty matrix (empty band or support)."""
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def _remainder_factor(spec: SpectralData, q_samples, t: float):
    """(F, q_S) with F = Phi_c e^{iE_c t} Phi_c[S, :]^* on the support S of Q,
    so that P_c e^{iHt} Q e^{-iHt} P_c = F diag(q_S) F^*."""
    cols, e = spec.continuum_basis()
    s = np.flatnonzero(q_samples)
    return _product(cols, np.exp(1j * e * t)[:, None] * cols[s].conj().T), q_samples[s]


def _weighted_remainder_norm(spec: SpectralData, q_samples, t: float, sigma: float) -> float:
    """||W remainder(t) W|| = ||R diag(q_S) R^*|| with R from the thin QR of W F."""
    f, q_s = _remainder_factor(spec, q_samples, t)
    f *= weight_vector(spec.grid, sigma)[:, None]
    r = np.linalg.qr(f, mode="r")
    return _spectral_norm((r * q_s) @ r.conj().T)


def build_adaptor(spec: SpectralData, q: QSelection, horizon: float,
                  sigma: float = 1.0, validity_horizon: float | None = None) -> AdaptorOperator:
    """B(T) = Phi_c D core D^* Phi_c^* (module notes), kept as its factors:
    the core is checked Hermitian within HERMITICITY_RTOL and symmetrized;
    the dense B and the spectrum bounds wait for a first read.

    Parameters
    ----------
    spec : classified spectral data of H.
    q : commutator target.
    horizon : truncation time T >= 0.
    sigma : weight exponent for the residual diagnostic.
    validity_horizon : box-validity horizon; a T beyond it gets a warning
        attached (reflections refocus the conjugated profile past it).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    warnings = ()
    if validity_horizon is not None and horizon > validity_horizon:
        warnings = (f"horizon {horizon:g} exceeds box-validity horizon {validity_horizon:g}",)

    grid = spec.grid
    if horizon == 0.0 or not np.any(q.samples):
        b = np.zeros((grid.n, grid.n), dtype=complex)
        op = HermitianOperator(b, grid, "B(0)")
        return AdaptorOperator(op, q, float(horizon), float(sigma), 0.0, 0.0, 0.0, warnings)

    cols, e = spec.continuum_basis()
    s = np.flatnonzero(q.samples)
    core = cols[s].conj().T @ (q.samples[s, None] * cols[s])  # q~
    for rows in _row_blocks(len(e)):  # -q~ o K
        core[rows] *= -horizon * np.sinc(np.subtract.outer(e[rows], e) * (0.5 * horizon / np.pi))
    _check_hermitian(core, f"B_V(T={horizon:g}) core")  # as HermitianOperator checks
    _symmetrize(core)
    residual = _weighted_remainder_norm(spec, q.samples, horizon, sigma)
    return AdaptorOperator(None, q, float(horizon), float(sigma), residual, warnings=warnings,
                           factors=(grid, cols, np.exp(0.5j * horizon * e), core))


def remainder_expectation(spec: SpectralData, adaptor: AdaptorOperator):
    """u -> <u, remainder(T) u> = sum_S q_s |(F^* u)_s|^2, with the n x |S|
    factor F of ``_remainder_factor`` built once: O(n |S|) per state."""
    f, q_s = _remainder_factor(spec, adaptor.q.samples, adaptor.horizon)
    weight = spec.grid.quad_weight
    return lambda state: float(weight * np.sum(q_s * np.abs(np.asarray(state).conj() @ f) ** 2))


def commutator_closure_defect(spec: SpectralData, h_op: HermitianOperator,
                              adaptor: AdaptorOperator) -> float:
    """Max-norm defect of i[H, B] - P_c Q P_c + remainder(T); exact algebra,
    so this is roundoff-level regardless of physics.  Taken over row blocks,
    from rows of B and of the n x |S| factors; the rows of H B come from the
    bands of a Banded H (a dense H gives its rows)."""
    h, b = h_op.matrix, adaptor.matrix
    f0, q_s = _remainder_factor(spec, adaptor.q.samples, 0.0)
    f, _ = _remainder_factor(spec, adaptor.q.samples, adaptor.horizon)
    f0_h, f_h = f0.conj().T, f.conj().T
    defect = 0.0
    for rows in _row_blocks(len(b)):
        hb = h.matmul(b, rows) if isinstance(h, Banded) else h[rows] @ b
        gap = 1j * (hb - b[rows] @ h) - (f0[rows] * q_s) @ f0_h + (f[rows] * q_s) @ f_h
        defect = max(defect, float(np.abs(gap).max()))
    return defect


def residual_weighted_scan(spec: SpectralData, q: QSelection, horizons,
                           sigma: float = 1.0) -> np.ndarray:
    """residual_weighted(T) over a grid of horizons (for monotonicity checks)."""
    return np.array([_weighted_remainder_norm(spec, q.samples, t, sigma) for t in horizons])


def weighted_propagator_norm(spec: SpectralData, sigma: float, t: float,
                             e_max: float | None = None) -> float:
    """Largest singular value of W_sigma e^{-iHt} P_c W_sigma.

    ``e_max`` restricts P_c to the spectral band E <= e_max; decay fits use
    the box-transit limit so that no contributing mode has reflected inside
    the fit window (and the unresolved lattice band is excluded).  At t = 0
    with no band limit, P_c = I - Phi_b Phi_b^* and the value is the top
    eigenvalue of W^2 - (W Phi_b)(W Phi_b)^*, taken by Lanczos iteration.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    w = weight_vector(spec.grid, sigma)
    if t == 0 and e_max is None:
        from scipy.sparse.linalg import LinearOperator, eigsh  # this branch is its only user

        b = w[:, None] * spec.eigenvectors[:, spec.indices(BOUND)]
        op = LinearOperator((len(w), len(w)), dtype=b.dtype,
                            matvec=lambda x: w**2 * x.ravel() - b @ (b.conj().T @ x.ravel()))
        return float(eigsh(op, k=1, which="LA", v0=w, tol=0, return_eigenvectors=False)[0])
    cols, e = spec.continuum_basis(e_max=e_max)
    r = np.linalg.qr(w[:, None] * cols, mode="r")
    return _spectral_norm((r * np.exp(-1j * e * t)) @ r.conj().T)
