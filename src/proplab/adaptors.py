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
and spec(B) = spec(core) u {0}^(n - n_c).  B is only ever these factors; no
n x n B is formed.  B u, or B U for a block of states, takes three products on
float views, O(n n_c) per state; B[:, sl] takes two.  Each check reads the
factor it needs: Hermiticity is the core's defect before its scrub, the
spectrum bounds one eigvalsh of the core, support B Phi_b, and the closure
check and Morawetz cancellation i[H, B] by blocks of ROW_BLOCK columns.  Held
dense: the eigenvectors (Phi_c is a view) and the core; every other dense
elementwise step (kernel, Hermiticity checks, (M + M^*)/2 scrubs) runs by row
blocks.  The truncation makes the commutation identity exact with a
measurable remainder:

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
with B = W Phi_b (bound modes only): max w^2 with no bound mode, else one
dense eigvalsh.  Along a flow, <u, remainder(T) u> = sum_S q_s
|(F^* u)_s|^2 costs O(n |S|) per state once F is built.  The entrywise
closure check runs over column blocks of i[H, B] (H banded), on and below the
diagonal, and of the factored P_c Q P_c and remainder, so it forms no n x n
array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, weight_vector
from .operators import (HERMITICITY_RTOL, Banded, HermitianOperator, Potential,
                        _hermiticity_defect_and_bound, _row_blocks, _symmetrize)
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
    """Truncated-horizon adaptor B = Phi_c D core D^* Phi_c^*, held as its
    factors ``(grid, cols, d, core)`` (cols = Phi_c, d = diag D); no n x n B
    is formed.  ``apply`` takes B to a state or to each column of an (n, K)
    block by three products, ``columns`` gives B[:, sl] by two.
    ``hermiticity`` is the core's defect max |core - core^*| before its
    scrub, and ``hermiticity_bound`` the most a Hermitian matrix may have,
    HERMITICITY_RTOL max |core|; ``norm_bound`` and ``min_eigenvalue`` take
    one eigvalsh of the core on first read.
    """

    def __init__(self, grid: Grid, cols, d, core, q: QSelection, horizon: float,
                 sigma: float, residual_weighted: float, hermiticity: float = 0.0,
                 hermiticity_bound: float = HERMITICITY_RTOL, warnings: tuple = ()):
        self.grid, self.cols, self.d, self.core = grid, cols, d, core
        self.q, self.horizon, self.sigma = q, horizon, sigma
        self.residual_weighted, self.hermiticity = residual_weighted, hermiticity
        self.hermiticity_bound = hermiticity_bound
        self.warnings, self._bounds = warnings, None

    def _spectrum_bounds(self) -> tuple:
        if self._bounds is None:  # spec(B) = spec(core) u {0} on Ran P_b
            evals = np.append(np.linalg.eigvalsh(self.core),
                              np.zeros(min(1, self.grid.n - len(self.core))))
            self._bounds = (float(np.abs(evals).max()), float(evals.min()))
        return self._bounds

    norm_bound = property(lambda self: self._spectrum_bounds()[0])
    min_eigenvalue = property(lambda self: self._spectrum_bounds()[1])

    def apply(self, state):
        """B u for a state u, or B U for an (n, K) block U of states."""
        d = self.d if np.ndim(state) == 1 else self.d[:, None]
        c = d.conj() * _product(self.cols.conj().T, state)
        return _product(self.cols, d * _product(self.core, c))

    def columns(self, sl: slice, rows: slice = slice(None)) -> np.ndarray:
        """B[rows, sl] = Phi_c[rows] (D core D^* Phi_c[sl]^*) by two products
        on float views; callers take it by blocks of about ROW_BLOCK columns."""
        d = self.d[:, None]
        return _product(self.cols[rows], d * _product(self.core, d.conj() * self.cols[sl].conj().T))


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
    the core's Hermiticity defect and its bound are kept, not raised on (the
    adaptor suite's ``hermiticity`` clause reads them), and the core is
    symmetrized; the spectrum bounds wait for a first read.

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
    if horizon == 0.0 or not np.any(q.samples):  # B = 0: no continuum columns
        return AdaptorOperator(grid, np.zeros((grid.n, 0)), np.zeros(0), np.zeros((0, 0)), q,
                               float(horizon), float(sigma), 0.0, warnings=warnings)

    cols, e = spec.continuum_basis()
    s = np.flatnonzero(q.samples)
    core = cols[s].conj().T @ (q.samples[s, None] * cols[s])  # q~
    for rows in _row_blocks(len(e)):  # -q~ o K
        core[rows] *= -horizon * np.sinc(np.subtract.outer(e[rows], e) * (0.5 * horizon / np.pi))
    hermiticity, bound = _hermiticity_defect_and_bound(core)  # HermitianOperator's rule
    _symmetrize(core)
    residual = _weighted_remainder_norm(spec, q.samples, horizon, sigma)
    return AdaptorOperator(grid, cols, np.exp(0.5j * horizon * e), core, q, float(horizon),
                           float(sigma), residual, hermiticity, bound, warnings)


def remainder_expectation(spec: SpectralData, adaptor: AdaptorOperator):
    """u -> <u, remainder(T) u> = sum_S q_s |(F^* u)_s|^2, with the n x |S|
    factor F of ``_remainder_factor`` built once: O(n |S|) per state."""
    f, q_s = _remainder_factor(spec, adaptor.q.samples, adaptor.horizon)
    weight = spec.grid.quad_weight
    return lambda state: float(weight * np.sum(q_s * np.abs(np.asarray(state).conj() @ f) ** 2))


def commutator_columns(h: Banded, adaptor: AdaptorOperator):
    """(blk, i[H, B][lo:, blk]) over blocks blk = lo:hi of ROW_BLOCK columns:
    each block column from the diagonal down, which is all a Hermitian matrix
    needs.  They come from B[lo - w:, blk widened by w], w the bandwidth of
    H: H B through the bands of H, and B H through the matching principal
    block of H."""
    n, width = h.n, max(map(abs, h.bands), default=0)
    for blk in _row_blocks(n):
        lo, hi = blk.start, min(blk.stop, n)
        a, b = max(lo - width, 0), min(hi + width, n)
        cols, inner = adaptor.columns(slice(a, b), slice(a, None)), slice(lo - a, hi - a)
        comm = h[a:, a:].matmul(cols[:, inner])[lo - a:]
        comm -= (cols[lo - a:] @ h[a:b, a:b])[:, inner]
        comm *= 1j
        yield slice(lo, hi), comm


def commutator_closure_defect(spec: SpectralData, h_op: HermitianOperator,
                              adaptor: AdaptorOperator) -> float:
    """Max-norm defect of i[H, B] - P_c Q P_c + remainder(T) for a banded H;
    exact algebra, so this is roundoff-level regardless of physics.  The
    defect is Hermitian, so it is taken on and below the diagonal, over the
    block columns of ``commutator_columns`` and the n x |S| factors."""
    f0, q_s = _remainder_factor(spec, adaptor.q.samples, 0.0)
    f, _ = _remainder_factor(spec, adaptor.q.samples, adaptor.horizon)
    defect = 0.0
    for blk, comm in commutator_columns(h_op.matrix, adaptor):
        low = slice(blk.start, None)
        gap = comm - f0[low] @ (q_s[:, None] * f0[blk].conj().T) + f[low] @ (q_s[:, None] * f[blk].conj().T)
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
    eigenvalue of W^2 - (W Phi_b)(W Phi_b)^*: max w^2 exactly when there is
    no bound state, and otherwise from one dense eigvalsh.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    w = weight_vector(spec.grid, sigma)
    if t == 0 and e_max is None:
        b = w[:, None] * spec.eigenvectors[:, spec.indices(BOUND)]
        if not b.size:  # P_c = I
            return float((w**2).max())
        return float(np.linalg.eigvalsh(np.diag(w**2) - b @ b.conj().T)[-1])
    cols, e = spec.continuum_basis(e_max=e_max)
    r = np.linalg.qr(w[:, None] * cols, mode="r")
    return _spectral_norm((r * np.exp(-1j * e * t)) @ r.conj().T)
