"""Diagonalization, bound/continuum classification, the genericity margin,
and the exact flow e^{-iHt} psi at a block of times (``SpectralData.flow``).

The free stencil's sine eigenbasis is applied by the DST-I
(``_sine_transform``: the imaginary part of one real ``numpy.fft`` of the odd
extension), and its n x n matrix is filled only if something reads
``eigenvectors``.  scipy is imported by the two functions that call it,
``diagonalize`` and ``genericity_margin``, so a free-spectrum run loads none.

On a finite Dirichlet box the spectrum is discrete; the continuous subspace
is modeled as the E > eps_thr cloud, bound states as E < -eps_thr, and the
near-threshold band |E| <= eps_thr is flagged rather than fatal (suites that
assume no zero eigenvalue are gated on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import numpy.fft  # numpy loads it on first use; here it is paid at import, not in a run

from .grids import Grid
from .operators import Banded, HermitianOperator, _row_blocks, _symmetrize

BOUND = "bound"
CONTINUUM = "continuum"
NEAR_THRESHOLD = "near_threshold"


def free_laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Closed-form Dirichlet stencil spectrum (2/h^2)(1 - cos(k pi/(n+1)))."""
    k = np.arange(1, grid.n + 1, dtype=float)
    return (2.0 / grid.h**2) * (1.0 - np.cos(k * np.pi / (grid.n + 1)))


def default_threshold(grid: Grid) -> float:
    """Half the smallest free-Laplacian eigenvalue on the same grid."""
    return 0.5 * float(free_laplacian_eigenvalues(grid)[0])


def resolution_energy_limit(grid: Grid) -> float:
    """Upper edge of the lattice-resolved band, half the band top 4/h^2.

    Stencil modes near the band top carry maximal energy but near-zero
    central-difference momentum (the discrete group velocity vanishes at the
    lattice cutoff), so they are artifacts of the mesh, not continuum states.
    Spectral statements are verified below this limit; it tends to infinity
    with h -> 0.
    """
    return 2.0 / grid.h**2


def _sine_transform(u):
    """Orthonormal DST-I S (the symmetric involution that diagonalizes the
    Dirichlet stencil) along the last axis of a vector or a (K, n) block.

    S u is the imaginary part of the real FFT of the odd extension
    (0, u, 0, -reversed u) of length 2(n + 1) (Martucci, IEEE Trans. Signal
    Process. 42 (1994) 1038-1051), taken of the real and imaginary parts of
    each row by one ``numpy.fft.rfft`` call.  pocketfft computes scipy's
    ``dst(type=1)`` the same way and scales by 1/sqrt(2(n + 1)) in long
    double, so with that factor the result has scipy's bits, and each row has
    the bits of its transform alone.
    """
    u = np.asarray(u, dtype=complex)
    ext, rows = _odd_extension(u.shape)
    rows[...] = u
    return _sine_of_extension(ext)


#: flow rows per DST-I call: the buffers stay a few hundred kB and are
#: reused, where one call over a 60-row block would write several MB of fresh
#: pages, whose first-touch faults cost more than the transform
_SINE_ROWS = 8


def _odd_extension(shape):
    """A complex buffer for the odd extensions of rows of length n = shape[-1],
    with its two zeros set, and the view of it that holds the rows."""
    n = shape[-1]
    ext = np.empty(shape[:-1] + (2 * n + 2,), dtype=complex)
    ext[..., 0] = ext[..., n + 1] = 0.0
    return ext, ext[..., 1:n + 1]


def _sine_of_extension(ext, out=None):
    """S u for the rows u written into an ``_odd_extension`` buffer, into
    ``out`` (a new array by default): fills the odd half, then transforms the
    (..., 2(n + 1), 2) float view along its second-last axis, the real and
    imaginary parts as two columns."""
    n = ext.shape[-1] // 2 - 1
    np.negative(ext[..., n:0:-1], out=ext[..., n + 2:])
    im = np.fft.rfft(ext.view(float).reshape(ext.shape + (2,)), axis=-2).imag[..., 1:n + 1, :]
    out = np.empty(ext.shape[:-1] + (n,), dtype=complex) if out is None else out
    np.multiply(im, -float(1.0 / np.sqrt(np.longdouble(2 * n + 2))),
                out=out.view(float).reshape(im.shape))
    return out


def _phases(angle, out):
    """e^{i angle} of a real array, as cos + i sin written into the real and
    imaginary parts of the complex ``out``; ``angle`` may be ``out.imag``
    (cos is taken first, sin in place)."""
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _product(m, z):
    """m @ z for a complex vector or matrix z.  A real m acts on the float
    view of z, the real and imaginary parts of each column as two columns, so
    neither is cast."""
    z = np.ascontiguousarray(z, dtype=complex)
    if np.iscomplexobj(m):
        return m @ z
    pairs = (z[:, None] if z.ndim == 1 else z).view(float)
    return (m @ pairs).view(complex).reshape((len(m),) + z.shape[1:])


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenpairs of a Hamiltonian plus (optional) classification tags."""

    grid: Grid
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    label: str = ""
    tags: np.ndarray | None = field(default=None, repr=False)
    eps_thr: float | None = None

    def __post_init__(self):  # continuum_basis hands out views of these arrays
        self.eigenvalues.flags.writeable = self.eigenvectors.flags.writeable = False

    def indices(self, tag: str) -> np.ndarray:
        if self.tags is None:
            raise ValueError("spectrum not classified yet")
        return np.flatnonzero(self.tags == tag)

    @property
    def near_threshold_count(self) -> int:
        return int(len(self.indices(NEAR_THRESHOLD)))

    def continuum_indices(self) -> np.ndarray:
        """Continuum plus near-threshold columns (so that P_c + P_b = I)."""
        if self.tags is None:
            raise ValueError("spectrum not classified yet")
        return np.flatnonzero(self.tags != BOUND)

    def continuum_basis(self, e_max: float | None = None):
        """Continuum eigenvector columns and energies, optionally band-limited;
        read-only views when the columns are a contiguous run (ascending E)."""
        idx = self.continuum_indices()
        if e_max is not None:
            idx = idx[self.eigenvalues[idx] <= e_max]
        if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
            idx = slice(idx[0], idx[-1] + 1)
        return self.eigenvectors[:, idx], self.eigenvalues[idx]

    def coefficients(self, state):
        """Phi^* state, the state's eigenbasis coefficients."""
        return _product(self.eigenvectors.conj().T, state)

    def continuum_part(self, state):
        """P_c state as Phi_c (Phi_c^* state), without forming P_c."""
        cols, _ = self.continuum_basis()
        return _product(cols, _product(cols.conj().T, state))

    def flow(self, state, times):
        """e^{-iH t_k} state for every t_k in ``times``, as the C-contiguous
        rows of a (K, n) complex array.

        The coefficients are computed once; the n x K block of phases times
        coefficients then goes back to position space in one call
        (``_synthesize``), and each row has the same bits whatever K is, so
        ``evolve`` equals the row of any block.
        """
        times = np.asarray(times, dtype=float)
        block = np.empty((len(self.eigenvalues), len(times)), dtype=complex)
        _phases(np.multiply.outer(-self.eigenvalues, times, out=block.imag), out=block)
        block *= self.coefficients(state)[:, None]
        return np.ascontiguousarray(self._synthesize(block).T)

    def _synthesize(self, block):
        """Phi block, as one real product on the (n, 2K) float view of the
        block (``_product``); complex Phi enters as the (2n, n) float form
        whose rows 2i and 2i + 1 are Re and Im of row i.  With column-major
        eigenvectors (LAPACK's layout) each column gets the same bits whatever
        K is; complex BLAS kernels, and numpy's matrix-vector call at K = 1,
        do not."""
        v = self.eigenvectors
        if not np.iscomplexobj(v):
            return _product(v, block)
        parts = (np.asfortranarray(v).T.view(float).T @ block.view(float)).view(complex)
        return parts[0::2] + 1j * parts[1::2]

    def evolve(self, state, t: float):
        """e^{-iHt} state: the one-row case of ``flow``."""
        return self.flow(state, [t])[0]


def diagonalize(op: HermitianOperator) -> SpectralData:
    """Full eigendecomposition with orthonormal columns.

    A real Banded H with no bands beyond offsets -1..1 (every shipped
    H = -lap + V) goes straight to LAPACK's MRRR solver (stemr) on its
    diagonal and subdiagonal, the step that dense eigh reaches only after
    reducing its input to that form.  Any other Hermitian matrix is densified
    and goes to eigh.  Eigenvectors are real whenever the matrix is.
    """
    import scipy.linalg  # here, so that a run that diagonalizes nothing never loads it

    m = op.matrix
    if isinstance(m, Banded) and set(m.bands) <= {-1, 0, 1} and not abs(m.imag).max():
        evals, evecs = scipy.linalg.eigh_tridiagonal(m.diagonal(0).real, m.diagonal(-1).real,
                                                     lapack_driver="stemr")
    else:
        m = m.toarray() if isinstance(m, Banded) else m
        evals, evecs = scipy.linalg.eigh(m)
        if np.abs(m.imag).max() == 0.0:
            evecs = evecs.real.astype(float)
    return SpectralData(grid=op.grid, eigenvalues=evals, eigenvectors=evecs, label=op.label)


@dataclass(frozen=True, eq=False)
class _SineSpectralData(SpectralData):
    """The free stencil's spectrum, whose eigenbasis is the symmetric DST-I
    S: the coefficients are S psi and the flow is S e^{-iEt} S psi.  The
    n x n basis is filled on the first read of ``eigenvectors`` and cached;
    it is no init field, so ``dataclasses.replace`` does not fill it.  Its
    flow writes the phase block, K rows of length n, straight into the DST-I's
    odd-extension buffer."""

    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False

    def __getattr__(self, name):  # reached only while the basis is unfilled
        if name != "eigenvectors":
            raise AttributeError(name)
        basis = np.empty((self.grid.n, self.grid.n))
        for rows in _row_blocks(self.grid.n):
            self._basis_rows(rows, out=basis[rows])
        basis.flags.writeable = False
        object.__setattr__(self, name, basis.T)  # symmetric: .T is LAPACK's column-major layout
        return self.eigenvectors

    def _basis_rows(self, rows, out):
        """Rows ``rows`` of sqrt(2/(n+1)) sin(j k pi/(n+1)), in place in ``out``."""
        n = self.grid.n
        j = np.arange(1, n + 1)
        b = np.multiply(np.outer(j[rows], j), np.pi, out=out)
        b /= n + 1
        np.sin(b, out=b)
        b *= np.sqrt(2.0 / (n + 1))

    coefficients = staticmethod(_sine_transform)

    def flow(self, state, times):
        times = np.asarray(times, dtype=float)
        c = self.coefficients(state)
        out = np.empty((len(times), self.grid.n), dtype=complex)
        ext, rows = _odd_extension((min(len(times), _SINE_ROWS), self.grid.n))
        for k in range(0, len(times), _SINE_ROWS):
            t = times[k:k + _SINE_ROWS]
            block = rows[:len(t)]
            _phases(np.multiply.outer(t, -self.eigenvalues, out=block.imag), out=block)
            block *= c
            _sine_of_extension(ext[:len(t)], out=out[k:k + len(t)])
        return out


def free_spectral_data(grid: Grid) -> SpectralData:
    """Closed-form eigenpairs of the free Dirichlet stencil: the orthonormal
    sine basis sqrt(2/(n+1)) sin(j k pi/(n+1)) with the cosine spectrum,
    applied by the DST-I (``_SineSpectralData``)."""
    return _SineSpectralData(grid=grid, eigenvalues=free_laplacian_eigenvalues(grid),
                             label="-lap (closed form)")


def classify_spectrum(spec: SpectralData, eps_thr: float | None = None) -> SpectralData:
    """Tag eigenpairs as bound (E < -eps), continuum (E > eps) or near_threshold."""
    eps = default_threshold(spec.grid) if eps_thr is None else float(eps_thr)
    tags = np.full(spec.eigenvalues.shape, CONTINUUM, dtype=object)
    tags[spec.eigenvalues < -eps] = BOUND
    tags[np.abs(spec.eigenvalues) <= eps] = NEAR_THRESHOLD
    return replace(spec, tags=tags, eps_thr=eps)


def genericity_margin(spec: SpectralData, lap: HermitianOperator) -> float:
    """delta* = min over unit u in Ran P_c of <u, H u>/<u, -lap u>.

    Computed as the smallest generalized eigenvalue of the continuum-basis
    compressions (diag E_c, Phi_c^T (-lap) Phi_c), in real arithmetic when
    the eigenvectors and -lap are real.  The scenario passes the genericity
    gate iff delta* > 0.
    """
    import scipy.linalg  # here, so that a run that never calls it does not load it

    cols, e = spec.continuum_basis()
    if len(e) == 0:
        raise ValueError("empty continuum subspace")
    m = lap.matrix if np.iscomplexobj(cols) or abs(lap.matrix.imag).max() else lap.matrix.real
    # column-major, so LAPACK takes b (and the symmetric diag E_c) without a copy
    b = _symmetrize(((m @ cols).T @ cols.conj()).T)
    vals = scipy.linalg.eigh(np.diag(e).T, b, eigvals_only=True, overwrite_a=True,
                             overwrite_b=True, subset_by_index=[0, 0])
    return float(vals[0])
