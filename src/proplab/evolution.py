"""Time evolution: exact eigenbasis propagation for static H
(``trajectory_linear`` and ``validity_horizon``, each reading all its times
off one ``SpectralData.flow`` block) and one second-order Strang splitting,
``evolve_split``, for time-dependent potentials and the 1d defocusing cubic
NLS; ``trajectory_split`` samples one such sweep.

The kinetic factor of the splitting, S diag(e^{-i lam dt}) S with S the
orthonormal DST-I that diagonalizes the Dirichlet Laplacian L, is the free
propagator e^{-i dt L}: a convolution of the odd extension of the state whose
taps are aliased Bessel coefficients J_r(z), z = 2|dt|/h^2 (Jacobi-Anger,
DLMF 10.12.2).  ``_free_propagator`` keeps the taps inside the half-width b
where the bound (z/2)^r / r! (DLMF 10.14.4) leaves a tail below 2^-60, or one
whole period at the cap b = n + 1, and convolves directly: one real matrix
product over the overlapping windows that reach the span of the state's
nonzeros, O(n b) per step at most.  The exact product computes the far tail
of a state down into the subnormal range, so every float below
``FLUSH_FLOOR`` = 2^-511 is flushed to zero: that is the square root of the
smallest normal float, below which |u|^2 underflows, so no mass, density or
norm sees the entry, while no product of a kept entry and a kept tap goes
subnormal and the span stays narrow.  The floor must not go higher: at
2^-200 last-bit flips already climb the tail into the series.  Every factor is
unitary to roundoff and keeps the zeros beyond the span, grown by b, exact;
mass is conserved to roundoff.
``h_half_norm_sq`` reads S diag(sqrt(1 + lam)) S as a Toeplitz-minus-Hankel
quadratic form (Martucci, IEEE Trans. Signal Process. 42 (1994) 1038-1051)
from one long ``numpy.fft`` transform at a 5-smooth length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import BOUNDARY_MASS_TOL, Grid, boundary_mass, norm
from .operators import Potential, TimeDependentPotential
from .spectral import SpectralData, free_laplacian_eigenvalues

# Strang states keep no float below this: sqrt of the smallest normal float
FLUSH_FLOOR = 2.0**-511


@dataclass(eq=False)
class Trajectory:
    """States sampled along one evolution, with the boundary-mass monitor.

    ``validity_horizon`` is the last sampled time at which the mass beyond
    0.9 extent still sits below 1e-6; decay fits past it are invalid (the
    walls have started to reflect).
    """

    grid: Grid
    times: np.ndarray
    states: list
    boundary_masses: np.ndarray

    def _index(self, t: float) -> int:
        hits = np.flatnonzero(np.abs(self.times - t) <= 1e-9)
        if len(hits) == 0:
            raise ValueError(f"time {t} not sampled by this trajectory")
        return int(hits[0])

    def state_at(self, t: float):
        return self.states[self._index(t)]

    def restricted(self, times) -> Trajectory:
        """The samples at ``times`` alone (each within 1e-9 of a sampled time),
        with their boundary masses; raises for a time that was not sampled."""
        times = np.asarray(times, dtype=float)
        idx = [self._index(t) for t in times]
        return Trajectory(self.grid, times, [self.states[i] for i in idx], self.boundary_masses[idx])

    @property
    def validity_horizon(self) -> float:
        ok = self.boundary_masses <= BOUNDARY_MASS_TOL
        if np.all(ok):
            return float(self.times[-1])
        first_bad = int(np.argmin(ok))
        return float(self.times[first_bad - 1]) if first_bad > 0 else float(self.times[0])

    def valid_window(self, lo: float | None = None, hi: float | None = None):
        """Sample times inside [lo, min(hi, validity_horizon)] (none if none is sampled)."""
        if not len(self.times):
            return self.times
        hi_eff = self.validity_horizon if hi is None else min(hi, self.validity_horizon)
        lo_eff = self.times[0] if lo is None else lo
        mask = (self.times >= lo_eff - 1e-12) & (self.times <= hi_eff + 1e-12)
        return self.times[mask]


def gaussian_state(grid: Grid, center: float = 0.0, width: float = 1.0,
                   momentum: float = 0.0):
    """Gaussian data of unit L2 norm; on radial grids the reduced wave
    r exp(-(r-c)^2/2w^2) (momentum must vanish in the s-wave sector)."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid.points
    if grid.kind == "line":
        psi = np.exp(-((x - center) ** 2) / (2.0 * width**2)).astype(complex)
        if momentum != 0.0:
            psi *= np.exp(1j * momentum * x)
    else:
        if momentum != 0.0:
            raise ValueError("radial s-wave data cannot carry net momentum")
        psi = (x * np.exp(-((x - center) ** 2) / (2.0 * width**2))).astype(complex)
    if not psi.any():
        raise ValueError(f"a Gaussian of width {width:g} samples to 0 at every grid point")
    return psi / norm(grid, psi, "L2")


def trajectory_linear(spec: SpectralData, psi0, times) -> Trajectory:
    times = np.asarray(times, dtype=float)
    states = list(spec.flow(psi0, times))
    bm = np.array([boundary_mass(spec.grid, s) for s in states])
    return Trajectory(spec.grid, times, states, bm)


# ---------------------------------------------------------------------------
# split-step machinery


def _sine_kernel_spectra(e, m: int):
    """Length-m spectra of the Toeplitz and Hankel parts of S diag(1 + e) S - I.

    With N = n + 1 and K(r) = (1/N) sum_k e_k cos(pi r k / N), the matrix
    entry (S diag(1 + e) S)[j, l] is delta_jl + K(j - l) - K(j + l) (1-based
    j, l): the identity plus a Toeplitz and a Hankel part.  Both are linear
    convolutions with lags inside (-n, 2n], so they run circularly at any
    m >= 2n; the Hankel part reads the spectrum U of u at U[(-q) mod m].
    Returned: the spectra of K(r) at the wrapped lags r = -(n - 1) .. n - 1
    and of K(r + 2), r = 0 .. 2n - 2.
    """
    n = len(e)
    k = np.fft.ifft(np.concatenate([[0.0], e, [0.0], e[::-1]]))  # K(r), r = 0 .. 2n + 1
    toeplitz = np.zeros(m, dtype=complex)
    toeplitz[:n] = k[:n]
    toeplitz[m - n + 1:] = k[n - 1:0:-1]
    hankel = np.zeros(m, dtype=complex)
    hankel[:2 * n - 1] = k[2:2 * n + 1]
    return np.fft.fft(toeplitz), np.fft.fft(hankel)


def _fast_length(n: int) -> int:
    """The least m >= n with no prime factor above 5, a fast FFT length."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@lru_cache(maxsize=4)
def _h_half_kernels(grid: Grid):
    """(m, Toeplitz spectrum / m as reals, Hankel spectrum / m) of
    S diag(sqrt(1 + lam) - 1) S on ``grid``, at m = ``_fast_length(2n)``."""
    m = _fast_length(2 * grid.n)
    a, b = _sine_kernel_spectra(np.sqrt(1.0 + free_laplacian_eigenvalues(grid)) - 1.0, m)
    return m, a.real / m, b / m  # K is real and even, so the Toeplitz spectrum is real


def h_half_norm_sq(grid: Grid, state) -> float:
    """<u, (1 + (-lap))^{1/2} u>, with (1 + (-lap))^{1/2} = S diag(sqrt(1 + lam)) S
    read as the identity plus a Toeplitz-minus-Hankel form: with U the FFT of
    the zero-padded u, <u, T u> = (1/m) sum_q a_q |U_q|^2 and
    <u, H u> = (1/m) Re sum_q b_q conj(U_q) U_{-q} (``_sine_kernel_spectra``)."""
    m, a, b = _h_half_kernels(grid)
    u = np.asarray(state, dtype=complex)
    spec = np.fft.fft(u, n=m)
    power = spec.real * spec.real
    power += spec.imag * spec.imag
    reflected = np.concatenate([spec[:1], spec[:0:-1]])  # U_{(-q) mod m}
    form = np.vdot(u, u).real + np.dot(a, power) - np.vdot(spec, b * reflected).real
    return float(grid.quad_weight * form)


def _half_width(z: float, cap: int) -> int:
    """Smallest b >= 1 with 2 sum_{r > b} (z/2)^r / r! <= 2^-60, the tail
    bounded by the geometric series from its first term; ``cap`` if none is."""
    term = 0.5 * z  # (z/2)^b / b! at b = 1
    for b in range(1, cap):
        term *= z / (2 * b + 2)  # the first dropped term, r = b + 1
        ratio = z / (2 * b + 4)  # bounds every later ratio of terms
        if ratio < 1 and 2.0 * term <= 2.0**-60 * (1.0 - ratio):
            return b
    return cap


def _free_propagator(grid: Grid, dt: float):
    """(u, phase, lo, hi) -> (S diag(e^{-i lam dt}) S (phase u), lo', hi'), the free Strang factor.

    S diag(d) S is the identity plus the 2N-periodic convolution (N = n + 1)
    of the odd extension (0, u, 0, -reversed u) with the taps K(r) of d - 1,
    read off one length-2N ifft with lam extended to lam_N = 4/h^2, whose
    alternating term the odd extension cancels.  The taps beyond
    ``_half_width`` carry l1 mass at most 2^-60; at the cap b = N the lags
    (-N, N] are one whole period and the product is exact.  The convolution
    is one real matrix product over overlapping windows (im2col; Chellapilla,
    Puri & Simard 2006): the float view of the extension is read as ceil(n/s)
    windows of 2(s + 2b) floats, 2s apart, and a banded Toeplitz matrix t of
    shape (2(s + 2b), 2s), built once from the taps, maps each to its s
    outputs.  A step costs O(n b) and t holds O(s b) entries; s = 16 was the
    fastest, or within 16% of it, at every b measured.  The exact product
    computes the underflowing tail of a state: its floats below
    ``FLUSH_FLOOR`` (2^-511, where |u|^2 underflows; a higher floor moves the
    outputs, see the module notes) are flushed to zero, so no later product
    of an entry and a tap goes subnormal, and the span grows only by entries
    at or above it.  Adding the input back to the d - 1
    convolution scales the roundoff with what a step changes.  u is zero and
    phase unread outside [lo, hi]: only the windows of outputs lo - b .. hi + b
    are multiplied, zero rows elsewhere, and lo', hi' take in the nonzeros
    within b.  The buffer keeps phase u between calls (not reentrant; spans
    must only grow); output is fresh.  ``apply.reach`` is b.
    """
    n = grid.n
    e = np.exp(-1j * np.append(free_laplacian_eigenvalues(grid), 4.0 / grid.h**2) * dt) - 1.0
    taps = np.fft.ifft(np.concatenate([[0.0], e, e[-2::-1]]))  # K(r), r = 0 .. 2n + 1
    b = _half_width(2.0 * abs(dt) / grid.h**2, n + 1)
    left = min(b, n)  # lags -left .. b; at the cap, (-N, N]
    s = 16
    # output i of a window reads its entry i + w with tap K(b - w), w = 0 .. b + left,
    # as the real 2 x 2 block [[Re K, Im K], [-Im K, Re K]] (re/im in x re/im out)
    band = taps[np.arange(b, -left - 1, -1)]
    pairs = np.stack([band.real, band.imag, -band.imag, band.real], axis=-1).reshape(-1, 2, 2)
    t = np.zeros((s + 2 * b, 2, s, 2))
    for i in range(s):
        t[i:i + b + left + 1, :, i] = pairs
    t = t.reshape(2 * (s + 2 * b), 2 * s)
    # buf[p] is the odd extension at p - b + 1; p = b - 1 and p >= n + b stay 0
    buf = np.zeros(-(-n // s) * s + 2 * b, dtype=complex)
    middle = buf[b:b + n]
    windows = np.lib.stride_tricks.sliding_window_view(buf.view(float), 2 * (s + 2 * b))[::2 * s]
    # the odd extension at 1 - b .. -1 and at N + 1 .. N + b - 1, from its mirror images
    mirrors = (buf[2 * b - 2:b - 1:-1], buf[:b - 1]), (buf[n + b - 1:n:-1], buf[n + b + 1:n + 2 * b])

    def apply(u, phase, lo, hi):
        if hi - lo == n - 1:  # the whole grid, without the views (each ~1% of a step)
            np.multiply(phase, u, middle)
            k0, k1 = 0, len(windows)
        else:  # the windows of outputs lo - b .. hi + b, and two at least, since
            np.multiply(phase[lo:hi + 1], u[lo:hi + 1], middle[lo:hi + 1])
            k0 = max(min((lo - b) // s, len(windows) - 2), 0)  # numpy multiplies one window
            k1 = max((hi + b) // s + 1, k0 + 2)  # as a gemv, which rounds apart from a gemm
        np.negative(*mirrors[0])
        np.negative(*mirrors[1])
        if k0 or k1 < len(windows):  # the product, with zero rows around it
            rows = np.zeros((len(windows), 2 * s))
            np.matmul(windows[k0:k1], t, out=rows[k0:k1])
        else:
            rows = windows @ t
        out = rows.view(complex).ravel()[:n]
        stretch = out[s * k0:s * k1]
        np.add(stretch, middle[s * k0:s * k1], out=stretch)
        parts = stretch.view(float)
        parts[np.abs(parts) < FLUSH_FLOOR] = 0.0
        if lo > 0:  # new nonzeros appear only within b of the span
            hits = out[max(lo - b, 0):lo].nonzero()[0]
            lo = max(lo - b, 0) + hits[0] if len(hits) else lo
        if hi < n - 1:
            hits = out[hi + 1:hi + b + 1].nonzero()[0]
            hi = hi + 1 + hits[-1] if len(hits) else hi
        return out, lo, hi

    apply.reach = b
    return apply


class _SplitStepper:
    """Strang stepper: half potential phase, full kinetic (``_free_propagator``,
    built once per dt), half phase.  The potential phase freezes W at the step
    midpoint, which keeps the scheme second order.  Each factor is unitary to
    roundoff, and every state ``step`` returns is a fresh array."""

    def __init__(self, grid: Grid, potential: Potential | None,
                 w_t: TimeDependentPotential | None = None,
                 nonlinearity: float = 0.0):
        if nonlinearity < 0:
            raise ValueError("focusing nonlinearity (lambda < 0) is out of scope")
        if nonlinearity and grid.kind != "line":
            raise ValueError("the cubic flow is a line-grid scenario")
        self.grid = grid
        self.v = potential.v(grid.points) if potential is not None else np.zeros(grid.n)
        self.w_t = w_t
        # W = amplitude(t) profile(x): the x-dependence is sampled once
        self._w_profile = w_t.profile(grid.points) if w_t is not None else None
        self.lam_nl = float(nonlinearity)
        self._kin_dt = None
        self._kinetic = None

    def _half_phase(self, u, lo, hi, t_mid, dt):
        """e^{-i v dt / 2}, v = V + W(t_mid) + lam |u|^2, from a real angle, on [lo, hi] alone:
        the entries outside it are unset."""
        v = self.v[lo:hi + 1]
        if self.w_t is not None:
            v = v + self.w_t.amplitude(t_mid) * self._w_profile[lo:hi + 1]
        if self.lam_nl:
            u = u[lo:hi + 1]
            dens = u.real * u.real
            dens += u.imag * u.imag
            dens *= self.lam_nl
            dens += v
            v = dens
        angle = v * (-0.5 * dt)  # = (-0.5 v) dt bit for bit: halving is exact
        half = np.empty(len(self.v), dtype=complex)
        part = half[lo:hi + 1]
        np.cos(angle, out=part.real)
        np.sin(angle, out=part.imag)
        return half

    def step(self, u, t: float, dt: float, carry=None):
        """One step from t on the span [lo, hi] holding u's nonzeros; returns (state, carry),
        carry = (lo, hi, half): the state's span and the last half phase, equal to the next
        step's first (V static, |u| invariant), or None with W.  None reads the span off u."""
        if dt != self._kin_dt or carry is None:  # a zeroed buffer for a new span
            self._kinetic, self._kin_dt = _free_propagator(self.grid, dt), dt
        t_mid, last = t + 0.5 * dt, len(u) - 1
        if carry is None:  # u's first and last nonzero, the whole grid if u is zero
            carry = ((u != 0).argmax(), last - (u[::-1] != 0).argmax(), None)
        lo, hi, half = carry
        if half is None:  # cubic: on the span; W alone: on the span grown by b, which holds
            # the next span too; static V: on the whole grid, as later spans reuse it
            reach = 0 if self.lam_nl else self._kinetic.reach if self.w_t is not None else last
            half = self._half_phase(u, max(lo - reach, 0), min(hi + reach, last), t_mid, dt)
        u, lo, hi = self._kinetic(u, half, lo, hi)
        # second half phase: for the cubic flow |u| changed across the kinetic
        # step, so the phase is re-evaluated (still a unitary factor)
        if self.lam_nl:
            half = self._half_phase(u, lo, hi, t_mid, dt)
        if hi - lo < last:  # half may be unset off the span
            u[lo:hi + 1] = half[lo:hi + 1] * u[lo:hi + 1]  # not in place: that can round apart
        else:
            u = half * u
        return u, (lo, hi, half if self.w_t is None else None)


def evolve_split(grid: Grid, potential: Potential | None,
                 w_t: TimeDependentPotential | None, psi0, t_final: float,
                 dt: float, t0: float = 0.0, nonlinearity: float = 0.0,
                 observer=None):
    """Strang evolution of i psi_t = (-lap + V + W(x, t) + lam |psi|^2) psi
    from t0 to t_final; returns the final state.

    Global error O(dt^2).  With lam > 0 (defocusing cubic flow, line grids
    only) the nonlinear phase step is exact, since |psi| is invariant under
    it, so mass is conserved by every factor and the energy
    <T> + <V> + (lam/2) int |psi|^4 drifts at O(dt^2).  dt must divide the
    span; t_final < t0 runs backwards.  ``observer(t, u)`` sees the state at
    every lattice time t0 + k dt, the end points included.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    stepper = _SplitStepper(grid, potential, w_t=w_t, nonlinearity=nonlinearity)
    span = t_final - t0
    n_steps = int(round(abs(span) / dt))
    if n_steps == 0 and abs(span) > 1e-14:
        n_steps = 1
    if n_steps and abs(abs(span) / n_steps - dt) > 1e-9 * max(1.0, dt):
        raise ValueError(f"dt={dt} does not divide the span {span}")
    signed_dt = math.copysign(dt, span) if span != 0 else dt
    u = np.asarray(psi0, dtype=complex).copy()
    parts = u.view(float)
    parts[np.abs(parts) < FLUSH_FLOOR] = 0.0  # as every step flushes, before the span is read
    t, carry = t0, None
    if observer is not None:
        observer(t, u)
    for k in range(1, n_steps + 1):
        u, carry = stepper.step(u, t, signed_dt, carry)
        t = t0 + k * signed_dt  # from the step index: no drift from repeated addition
        if observer is not None:
            observer(t, u)
    return u


def trajectory_split(grid: Grid, potential: Potential | None,
                     w_t: TimeDependentPotential | None, psi0,
                     sample_times, dt: float, nonlinearity: float = 0.0,
                     observer=None) -> Trajectory:
    """Evolve once from t = 0, collecting the state at every requested sample time.

    Sample times must sit on the dt lattice (within 1e-9); the evolution is
    performed in one sweep so repeated runs are bit-identical.
    ``observer(t, u)`` sees every lattice time of that sweep.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(sample_times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    states, bms = [], []
    want = list(sample_times)

    def collect(t, u):
        if observer is not None:
            observer(t, u)
        if want and abs(t - want[0]) <= 1e-9:
            states.append(u.copy())
            bms.append(boundary_mass(grid, u))
            want.pop(0)

    evolve_split(grid, potential, w_t, psi0, float(sample_times[-1]), dt,
                 nonlinearity=nonlinearity, observer=collect)
    if want:
        raise ValueError(f"sample times not on the dt lattice: {want[:3]}")
    return Trajectory(grid, sample_times, states, np.asarray(bms))


def validity_horizon(spec: SpectralData, psi0, t_max: float, samples: int = 60) -> float:
    """The ``Trajectory.validity_horizon`` of the exact flow probed at
    ``samples`` + 1 uniform times from 0 to t_max: the last probe before the
    boundary mass crosses its tolerance, t_max if it never does."""
    return trajectory_linear(spec, psi0, np.linspace(0.0, t_max, samples + 1)).validity_horizon


def snap_to_lattice(times, dt: float):
    """Round times onto the k dt lattice (deduplicated, ascending)."""
    return _distinct(np.maximum(np.round(np.asarray(times, dtype=float) / dt), 0)) * dt


def _distinct(values):
    """The sorted distinct values, as ``np.unique`` gives them, by sort and
    drop-repeats (numpy 2.4's ``np.unique`` imports ``numpy.ma`` on its first
    call, about 20 ms)."""
    values = np.sort(np.ravel(values))
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]
