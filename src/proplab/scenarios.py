"""Scenario configuration, the shipped scenario library, and the pipeline
runner: grid -> operators -> spectrum -> adaptor -> trajectory -> suites,
with delimited-text series and a manifest persisted per run.

One scenario per config document.  The text format is strict INI-style
sections of ``key = value`` lines; unknown sections or keys are rejected
with their path, and ``parse_config(serialize_config(c)) == c``.  A config
sets what a scenario varies; the rest is fixed in code: each suite's caps,
the weight sigma = 1, W's profile <x>^-2, the adaptor horizon (half the
validity horizon), the centered, momentum-free Gaussian state, and the
conformal observable at the 1/t scale, whose windows start at t = 1.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._version import __version__
from .adaptors import build_adaptor, conformal_Q
from .evolution import (Trajectory, _distinct, gaussian_state, eigenstate, snap_to_lattice,
                        trajectory_linear, trajectory_split, validity_horizon)
from .grids import make_grid, norm
from .observables import EstimateReport, ObservableSeries
from .operators import (HermitianOperator, Potential, TimeDependentPotential,
                        laplacian, multiplication)
from .spectral import (SpectralData, classify_spectrum, diagonalize,
                       free_spectral_data, resolution_energy_limit)
from .suites import (adaptor_suite, conformal_identity_suite,
                     general_potential_suite, gronwall_suite, morawetz_suite,
                     nls_suite, operator_identity_suite,
                     positive_potential_suite, weighted_decay_suite,
                     SmoothingObserver, TimedepObserver)


class ConfigError(ValueError):
    """Invalid scenario configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    suites: tuple = ()
    grid_kind: str = "line"
    grid_n: int = 512
    grid_extent: float = 20.0
    potential_terms: tuple = ()          # (amplitude, width, center) triples
    timedep_type: str = "none"           # none | self_similar | semilinear
    timedep_delta: float = 0.0
    timedep_a: float = 0.5
    nonlinearity: float = 0.0
    state_recipe: str = "gaussian"       # gaussian | eigenstate
    state_width: float = 1.0
    state_k: int = 0
    lnorm_target: float = 0.0            # 0 disables rescaling
    dt: float = 0.002
    t_max: float = 10.0
    samples: int = 16
    eps_thr: float = 0.0                 # 0 means spacing-based default
    fit_t_lo: float = 5.0
    fit_t_hi: float = 50.0
    expect_log_growth: bool = False
    corrupt_q_sign: bool = False
    corrupt_db_dt: bool = False


#: section -> key -> (kind, ScenarioConfig field)
_SCHEMA = {
    "scenario": {"name": (str, "name"), "suites": ("suites", "suites")},
    "grid": {"kind": (str, "grid_kind"), "n": (int, "grid_n"),
             "extent": (float, "grid_extent")},
    "potential": {"gaussians": ("gaussians", "potential_terms")},
    "timedep": {"type": (str, "timedep_type"), "delta": (float, "timedep_delta"),
                "a": (float, "timedep_a"), "lambda": (float, "nonlinearity")},
    "initial_state": {"recipe": (str, "state_recipe"), "width": (float, "state_width"),
                      "k": (int, "state_k"), "lnorm_target": (float, "lnorm_target")},
    "evolution": {"dt": (float, "dt"), "t_max": (float, "t_max"), "samples": (int, "samples")},
    "overrides": {key: (kind, key) for key, kind in (
        ("eps_thr", float), ("fit_t_lo", float), ("fit_t_hi", float),
        ("expect_log_growth", bool), ("corrupt_q_sign", bool), ("corrupt_db_dt", bool))},
}


def _parse_value(kind, raw: str, path: str):
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "suites":
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        if kind == "gaussians":
            if raw.lower() in ("none", ""):
                return ()
            terms = []
            for chunk in raw.split(";"):
                parts = chunk.split()
                if len(parts) != 3:
                    raise ValueError(chunk)
                terms.append(tuple(float(p) for p in parts))
            return tuple(terms)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse value {raw!r}") from exc
    raise ConfigError(f"{path}: unhandled kind")


def parse_config(text: str) -> ScenarioConfig:
    """Parse one scenario document; unknown keys are rejected with their path."""
    values = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw = (p.strip() for p in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"[{section}]: unknown key {key!r}")
        kind, fname = _SCHEMA[section][key]
        values[fname] = _parse_value(kind, raw, f"[{section}].{key}")

    if "name" not in values:
        raise ConfigError("[scenario].name is required")
    config = ScenarioConfig(**values)
    _validate(config)
    _import_what_runs(config)
    return config


def _validate(config: ScenarioConfig):
    for section, keys in _SCHEMA.items():  # every float, the Gaussian terms' included
        for key, (kind, fname) in keys.items():
            value = getattr(config, fname)
            numbers = (value,) if kind is float else sum(value, ()) if kind == "gaussians" else ()
            if not all(map(math.isfinite, numbers)):
                raise ConfigError(f"[{section}].{key} must be finite, got {value}")
    if config.grid_kind not in ("line", "radial3d"):
        raise ConfigError(f"[grid].kind: unknown kind {config.grid_kind!r}")
    if config.grid_n < 8 or config.grid_extent <= 0:
        raise ConfigError("[grid]: n >= 8 and extent > 0 required")
    if config.timedep_type not in ("none", "self_similar", "semilinear"):
        raise ConfigError(f"[timedep].type: unknown type {config.timedep_type!r}")
    if config.timedep_type == "self_similar" and not (0.0 < config.timedep_a < 1.0):
        raise ConfigError(f"[timedep].a: need 0 < a < 1, got {config.timedep_a}")
    if config.timedep_type == "semilinear" and config.nonlinearity < 0:
        raise ConfigError("[timedep].lambda: focusing (lambda < 0) is rejected")
    if config.grid_kind == "radial3d" and config.timedep_type == "semilinear":
        raise ConfigError("[timedep].type: the semilinear flow needs [grid].kind = line")
    if config.dt <= 0:
        raise ConfigError(f"[evolution].dt must be positive, got {config.dt}")
    if config.samples < 12:
        raise ConfigError(f"[evolution].samples must be at least 12, got {config.samples}")
    if config.state_recipe not in ("gaussian", "eigenstate"):
        raise ConfigError(f"[initial_state].recipe: unknown recipe {config.state_recipe!r}")
    if config.state_width <= 0:
        raise ConfigError(f"[initial_state].width must be positive, got {config.state_width}")
    if config.state_recipe == "eigenstate" and not 0 <= config.state_k < config.grid_n:
        raise ConfigError(f"[initial_state].k: need 0 <= k < [grid].n = {config.grid_n}, "
                          f"got {config.state_k}")
    if any(width <= 0 for _, width, _ in config.potential_terms):
        raise ConfigError("[potential].gaussians: widths must be positive")
    for s in config.suites:
        if s not in _SUITES:
            raise ConfigError(f"[scenario].suites: unknown suite {s!r}")
        for path, need, holds in _SUITES[s].needs:
            if not holds(config):
                raise ConfigError(f"{path}: suite {s} in [scenario].suites needs {need}")
    if config.nonlinearity != 0 and config.timedep_type != "semilinear":
        raise ConfigError("[timedep].lambda: a cubic term needs type = semilinear, "
                          f"got type {config.timedep_type!r}")


def _stepped(config: ScenarioConfig) -> bool:
    """Whether the run's flow is Strang-stepped: with a W or the semilinear
    type; otherwise it is exact, in the eigenbasis."""
    return config.timedep_type != "none"


def _potential(config: ScenarioConfig) -> Potential:
    terms = [Potential.gaussian(*t) for t in config.potential_terms]
    return sum(terms[1:], terms[0]) if terms else Potential.zero()


def serialize_config(config: ScenarioConfig) -> str:
    """Render a config document that parses back to an equal config."""
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = []
    for section, keys in _SCHEMA.items():
        body = []
        for key, (kind, fname) in keys.items():
            value = getattr(config, fname)
            if kind == "suites":
                body.append(f"{key} = {', '.join(value)}")
            elif kind == "gaussians":
                rendered = "; ".join(" ".join(repr(float(x)) for x in term) for term in value)
                body.append(f"{key} = {rendered or 'none'}")
            else:
                body.append(f"{key} = {fmt(value)}")
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shipped scenario library


def _shipped() -> dict[str, ScenarioConfig]:
    lib = {}
    lib["free"] = ScenarioConfig(
        name="free", suites=("operator_identities", "conformal_identity"),
        grid_kind="line", grid_n=1024, grid_extent=20.0,
        potential_terms=(), state_width=2.5,
        t_max=3.0, samples=12, dt=0.004)
    lib["positive_potential_radial"] = ScenarioConfig(
        name="positive_potential_radial",
        suites=("adaptor", "weighted_decay", "positive_potential", "conformal_identity"),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((2.0, 1.0, 0.0),), state_width=1.0,
        t_max=14.0, samples=20, dt=0.004,
        fit_t_lo=5.0, fit_t_hi=50.0)
    lib["well_with_barrier"] = ScenarioConfig(
        name="well_with_barrier", suites=("general_potential",),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((-6.0, 1.0, 1.5), (0.5, 1.0, 3.5)),
        state_width=1.0, t_max=14.0, samples=16)
    lib["self_similar_W"] = ScenarioConfig(
        name="self_similar_W", suites=("timedep", "gronwall", "conformal_identity"),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((0.5, 1.0, 0.0),),
        timedep_type="self_similar", timedep_delta=0.05, timedep_a=0.5, state_width=1.0,
        dt=0.002, t_max=10.0, samples=16)
    lib["cubic_nls_small"] = ScenarioConfig(
        name="cubic_nls_small", suites=("nls",),
        grid_kind="line", grid_n=2048, grid_extent=240.0,
        potential_terms=((0.2, 1.0, 0.0),),
        timedep_type="semilinear", nonlinearity=1.0,
        state_width=1.0, lnorm_target=0.18,
        dt=0.001, t_max=30.0, samples=14,
        fit_t_lo=1.0, fit_t_hi=30.0)
    lib["morawetz_radial"] = ScenarioConfig(
        name="morawetz_radial", suites=("morawetz",),
        grid_kind="radial3d", grid_n=640, grid_extent=100.0,
        potential_terms=((1.5, 1.0, 3.0),),
        timedep_type="self_similar", timedep_delta=0.05, timedep_a=0.5, state_width=1.0,
        dt=0.002, t_max=10.0, samples=12)
    return lib


SCENARIO_LIBRARY = _shipped()


def list_scenarios() -> list[str]:
    return sorted(SCENARIO_LIBRARY)


def load_scenario(name: str) -> ScenarioConfig:
    try:
        config = SCENARIO_LIBRARY[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; shipped: {list_scenarios()}")
    _import_what_runs(config)
    return config


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class RunArtifact:
    config: ScenarioConfig
    run_dir: str
    passed: bool
    reports: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    series_files: list = field(default_factory=list)


class _Context:
    """Lazy pipeline state shared by the suites of one run.

    A run has one flow of psi0 (``_validate`` rejects every config whose
    suites would need another): exact in the eigenbasis of H, or, with a W or
    the semilinear type, Strang-stepped with the config's W and cubic term,
    and ``sweep`` makes every Strang sweep.  ``plan`` registers, before any
    suite runs, the sample times each suite reads off that flow and the
    per-step observer it feeds (``observers``); the first ``trajectory``
    evaluates the flow once over the union of those times, as one
    ``SpectralData.flow`` block or one sweep, and each suite gets the
    trajectory at its own times.  A row of a flow block, like a state at
    t = k dt of a sweep, has the same bits whatever else is computed with it,
    so sharing changes no output.  An unplanned time raises instead of
    evaluating the flow again.  The other sweeps are the auxiliary flows of
    ``_suite_nls`` (dt/2, dt/4) and ``_suite_morawetz`` (a finer grid).
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.grid = make_grid(config.grid_kind, config.grid_n, config.grid_extent)
        self.warnings: list[str] = []
        self.potential = _potential(config)
        self.w_t = None
        if config.timedep_type == "self_similar":
            self.w_t = TimeDependentPotential.self_similar(  # W's profile <x>^-2
                config.timedep_delta, sigma=2.0, a=config.timedep_a)
        self._spec = None
        self._adaptor = None
        self._psi0 = None
        self._horizon = None
        self._planned: list[float] = []
        self.observers: dict = {}
        self._flow: Trajectory | None = None

    @property
    def spec(self) -> SpectralData:
        if self._spec is None:
            if not self.config.potential_terms:
                spec = free_spectral_data(self.grid)
            else:
                h_op = self.hamiltonian()
                spec = diagonalize(h_op)
            eps = self.config.eps_thr if self.config.eps_thr > 0 else None
            self._spec = classify_spectrum(spec, eps_thr=eps)
            n_thr = self._spec.near_threshold_count
            if n_thr:
                self.warnings.append(f"{n_thr} near-threshold eigenvalues present")
        return self._spec

    def hamiltonian(self) -> HermitianOperator:
        return laplacian(self.grid) + multiplication(self.grid, self.potential.v(self.grid.points))

    def h_of_t(self, t: float) -> HermitianOperator:
        if self.w_t is None:
            return self.hamiltonian()
        return self.hamiltonian() + multiplication(self.grid, self.w_t.w(self.grid.points, t))

    @property
    def psi0(self):
        if self._psi0 is None:
            c = self.config
            if c.state_recipe == "gaussian":
                psi = gaussian_state(self.grid, width=c.state_width)
            else:
                psi = eigenstate(self.spec, c.state_k)
            if c.lnorm_target > 0:
                psi = psi * (c.lnorm_target / norm(self.grid, psi, "Lnorm"))
            self._psi0 = psi
        return self._psi0

    @property
    def horizon(self) -> float:
        """Box-validity horizon of the initial state under the exact flow."""
        if self._horizon is None:
            self._horizon = validity_horizon(self.spec, self.psi0, self.config.t_max)
            if self._horizon < self.config.t_max:
                self.warnings.append(
                    f"validity horizon {self._horizon:g} < t_max {self.config.t_max:g};"
                    " estimates truncated at the horizon")
        return self._horizon

    @property
    def t_b(self) -> float:
        """The adaptor horizon: half the validity horizon."""
        return 0.5 * self.horizon

    def sample_times(self, lo: float, hi: float, count: int):
        """``count`` geometric times on [lo, hi], on the dt lattice (and
        positive) on a stepped run."""
        c = self.config
        times = np.geomspace(max(lo, 1e-6), max(hi, lo * 1.01), count)
        if _stepped(c):
            times = snap_to_lattice(times, c.dt)
            times = times[times > 0]
        return _distinct(times)

    def plan(self, suites):
        """Register what each of ``suites`` reads off the run's flow."""
        for suite in suites:
            if _SUITES[suite].flow is not None:
                times, observer = _SUITES[suite].flow(self)
                self._planned.extend(np.asarray(times, dtype=float))
                if observer is not None:
                    self.observers[suite] = observer

    def sweep(self, times, dt: float | None = None, grid=None, observer=None) -> Trajectory:
        """One Strang sweep of the run's flow (V, W and the cubic term) from
        t = 0 through the lattice times ``times``, at the config's dt or
        ``dt``, on the run's grid or on ``grid`` from psi0 interpolated onto
        it at the same L2 norm."""
        c, psi0, grid = self.config, self.psi0, grid or self.grid
        if grid is not self.grid:
            x, y = grid.points, self.grid.points
            fine = np.interp(x, y, psi0.real) + 1j * np.interp(x, y, psi0.imag)
            psi0 = fine / norm(grid, fine, "L2") * norm(self.grid, psi0, "L2")
        return trajectory_split(grid, self.potential, self.w_t, psi0, times, dt or c.dt,
                                nonlinearity=c.nonlinearity, observer=observer)

    def trajectory(self, times) -> Trajectory:
        """The run's flow at ``times``, each a planned time."""
        if self._flow is None:
            if not self._planned:
                raise ValueError("no sample times were planned for the run's flow")
            ts = np.sort(self._planned)
            union = ts[np.concatenate([[True], np.diff(ts) > 1e-9])]  # one per time
            observers = list(self.observers.values())

            def fan_out(t, u):
                for observer in observers:
                    observer(t, u)

            self._flow = (self.sweep(union, observer=fan_out if observers else None)
                          if _stepped(self.config) else
                          trajectory_linear(self.spec, self.psi0, union))
        return self._flow.restricted(times)

    def adaptor(self):
        if self._adaptor is None:
            q = conformal_Q(self.potential, self.grid)
            if self.config.corrupt_q_sign:
                q = q.flipped()
            self._adaptor = build_adaptor(self.spec, q, self.t_b, validity_horizon=self.horizon)
            self.warnings.extend(self._adaptor.warnings)
        return self._adaptor


def _suite_operator_identities(ctx: _Context) -> EstimateReport:
    c = ctx.config
    return operator_identity_suite(c.grid_n, c.grid_extent, ctx.potential,
                                   state_width=c.state_width, dt_ref=c.dt)


def _conformal_times(ctx: _Context):
    """(eval_ts, delta, all_ts, free_ts): evaluation times, the centered
    difference offset, the times the identity reads, and the free-flow times
    (None unless V and W vanish)."""
    c = ctx.config
    delta = max(10.0 * c.dt, 0.02) if _stepped(c) else c.dt
    eval_ts = ctx.sample_times(lo=1.0, hi=min(0.5 * ctx.horizon + 1.0, ctx.horizon), count=4)
    eval_ts = eval_ts[eval_ts - delta > 0]
    all_ts = _distinct(np.concatenate([eval_ts, eval_ts - delta, eval_ts + delta]))
    free_ts = None
    if not c.potential_terms and ctx.w_t is None:
        free_ts = ctx.sample_times(lo=0.0, hi=min(2.0, c.t_max), count=9)
    return eval_ts, delta, all_ts, free_ts


def _suite_conformal_identity(ctx: _Context) -> EstimateReport:
    c = ctx.config
    eval_ts, delta, all_ts, free_ts = _conformal_times(ctx)
    free_traj = ctx.trajectory(free_ts) if free_ts is not None else None
    return conformal_identity_suite(
        ctx.trajectory(all_ts), ctx.spec, ctx.potential, ctx.w_t,
        ctx.adaptor() if c.potential_terms else None, eval_ts, delta, ctx.h_of_t,
        corrupt_db_dt=c.corrupt_db_dt, free_traj=free_traj)


def _adaptor_times(ctx: _Context):
    return ctx.sample_times(lo=1.0, hi=ctx.horizon, count=12)


def _suite_adaptor(ctx: _Context) -> EstimateReport:
    return adaptor_suite(ctx.spec, ctx.hamiltonian(), ctx.adaptor(),
                         ctx.trajectory(_adaptor_times(ctx)), ctx.horizon)


def _suite_weighted_decay(ctx: _Context) -> EstimateReport:
    c = ctx.config
    return weighted_decay_suite(ctx.spec, c.fit_t_lo, c.fit_t_hi)


def _monitor_times(ctx: _Context):
    """Sample times of the positive-potential and Gronwall suites."""
    c = ctx.config
    return ctx.sample_times(lo=1.0, hi=ctx.horizon, count=c.samples)


def _suite_positive_potential(ctx: _Context) -> EstimateReport:
    traj = ctx.trajectory(_monitor_times(ctx))
    lnorm0 = norm(ctx.grid, ctx.psi0, "Lnorm")
    return positive_potential_suite(traj, ctx.potential, lnorm0, fit_window=(1.5, ctx.horizon))


def _suite_general_potential(ctx: _Context) -> EstimateReport:
    c = ctx.config
    psi = ctx.spec.continuum_part(ctx.psi0)
    psi = psi / norm(ctx.grid, psi, "L2")
    horizon = validity_horizon(ctx.spec, psi, c.t_max)
    times = np.geomspace(1.0, max(horizon, 1.5), c.samples)
    traj = trajectory_linear(ctx.spec, psi, times)
    lens_ts = np.geomspace(1.0, 50.0, 8)
    return general_potential_suite(ctx.spec, laplacian(ctx.grid), ctx.potential,
                                   traj, lens_ts, e_max=resolution_energy_limit(ctx.grid))


def _lattice_floor(t: float, dt: float) -> float:
    """Largest k dt not beyond t (up to 1e-9), so a sweep to it can end on the lattice."""
    return math.floor(t / dt + 1e-9) * dt


def _timedep_flow(ctx: _Context):
    """The timedep suite's consumer of the W-flow: it reads from t = 1 to the
    horizon (at least 2, at most t_max), on the dt lattice."""
    c = ctx.config
    t_end = _lattice_floor(min(c.t_max, max(ctx.horizon, 2.0)), c.dt)
    observer = TimedepObserver(ctx.grid, ctx.spec, ctx.w_t, t_end)
    return observer.times, observer


def _suite_timedep(ctx: _Context) -> EstimateReport:
    observer = ctx.observers["timedep"]
    return observer.report(ctx.trajectory(observer.times),
                           expect_log_growth=ctx.config.expect_log_growth)


def _suite_gronwall(ctx: _Context) -> EstimateReport:
    return gronwall_suite(ctx.trajectory(_monitor_times(ctx)), ctx.config.timedep_delta)


def _nls_times(ctx: _Context):
    """The nls suite's sample times, on its fit window."""
    c = ctx.config
    return ctx.sample_times(lo=c.fit_t_lo, hi=min(c.fit_t_hi, c.t_max), count=c.samples)


def _suite_nls(ctx: _Context) -> EstimateReport:
    c = ctx.config
    # the state at t = 1 at dt (off the shared sweep), and the order-2 check's
    # auxiliary references at dt/2 and dt/4
    at_one = [ctx.trajectory([1.0]).states[0]]
    at_one += [ctx.sweep([1.0], dt=c.dt / k).states[0] for k in (2.0, 4.0)]
    return nls_suite(ctx.trajectory(_nls_times(ctx)), norm(ctx.grid, ctx.psi0, "L2") ** 2,
                     at_one, (c.fit_t_lo, c.fit_t_hi))


def _morawetz_times(ctx: _Context):
    """(t_end, L6 times): the morawetz suite integrates to min(t_max, 10) and
    fits the L6 norm at 10 times from 1, on the dt lattice."""
    c = ctx.config
    t_end = _lattice_floor(min(c.t_max, 10.0), c.dt)
    return t_end, snap_to_lattice(np.geomspace(1.0, t_end, 10), c.dt)


def _morawetz_flow(ctx: _Context):
    t_end, l6_times = _morawetz_times(ctx)
    return l6_times, SmoothingObserver(ctx.grid, t_end)


def _suite_morawetz(ctx: _Context) -> EstimateReport:
    grid, smoothing = ctx.grid, ctx.observers["morawetz"]
    l6 = ctx.trajectory(_morawetz_times(ctx)[1])
    # the auxiliary sweep of the refinement check, on about 1.5 times the points
    refined = SmoothingObserver(make_grid(grid.kind, int(round(grid.n * 1.5)) | 1, grid.extent),
                                smoothing.t_end)
    ctx.sweep([smoothing.t_end], grid=refined.grid, observer=refined)
    return morawetz_suite(ctx.spec, ctx.potential, l6, smoothing, refined,
                          a=ctx.config.timedep_a, horizon=ctx.t_b)


@dataclass(frozen=True)
class SuiteSpec:
    """Everything a run needs to know about one suite."""

    run: Callable[[_Context], EstimateReport]
    #: ctx -> (sample times, per-step observer or None) read off the split-step flow
    flow: Callable[[_Context], tuple] | None = None
    #: presumes an H with no spectrum at zero (skipped on a near-threshold spectrum)
    clean_threshold: bool = False
    #: (config path, what is needed, test on the config), checked by ``_validate``
    needs: tuple = ()
    #: reads the run's spectrum (so a config with a potential diagonalizes H)
    spectrum: bool = True
    #: scipy subpackages its own code calls, whatever the config
    scipy: tuple = ()


_RADIAL = ("[grid].kind", "kind = radial3d (it checks a 3d radial estimate)",
           lambda c: c.grid_kind == "radial3d")
_FROM_ONE = ("[evolution].t_max", "t_max > 1 (it measures from t = 1)", lambda c: c.t_max > 1.0)
_W_FLOW = ("[timedep].type", "a time-dependent W (type = self_similar)",
           lambda c: c.timedep_type == "self_similar")
_V_NONNEGATIVE = ("[potential].gaussians", "V >= 0 on the grid", lambda c: _potential(c)
                  .is_nonnegative(make_grid(c.grid_kind, c.grid_n, c.grid_extent).points))

_SUITES = {
    "operator_identities": SuiteSpec(_suite_operator_identities, spectrum=False),
    "conformal_identity": SuiteSpec(
        _suite_conformal_identity,
        flow=lambda ctx: (np.concatenate([ts for ts in _conformal_times(ctx)[2:]
                                          if ts is not None]), None),
        needs=(("[timedep].lambda", "lambda = 0 (its identities have no cubic term)",
                lambda c: c.nonlinearity == 0),)),
    "adaptor": SuiteSpec(_suite_adaptor, flow=lambda ctx: (_adaptor_times(ctx), None),
                         clean_threshold=True, needs=(
        ("[potential].gaussians",
         "V != 0 (with V = 0, B_V = 0 and its expectation cannot decay)",
         lambda c: any(amp for amp, _, _ in c.potential_terms)),)),
    "weighted_decay": SuiteSpec(_suite_weighted_decay, clean_threshold=True, needs=(
        _RADIAL, ("[overrides].fit_t_lo", "0 < fit_t_lo < fit_t_hi (its fit window)",
                  lambda c: 0.0 < c.fit_t_lo < c.fit_t_hi)), scipy=("scipy.sparse.linalg",)),
    "positive_potential": SuiteSpec(
        _suite_positive_potential, flow=lambda ctx: (_monitor_times(ctx), None), needs=(
            _V_NONNEGATIVE,
            ("[evolution].t_max", "t_max > 1.5 (its fit window starts there)",
             lambda c: c.t_max > 1.5))),
    "general_potential": SuiteSpec(_suite_general_potential, clean_threshold=True,
                                   scipy=("scipy.linalg",)),
    "timedep": SuiteSpec(_suite_timedep, flow=_timedep_flow, needs=(_W_FLOW, _FROM_ONE)),
    "gronwall": SuiteSpec(_suite_gronwall, flow=lambda ctx: (_monitor_times(ctx), None)),
    "nls": SuiteSpec(
        _suite_nls, flow=lambda ctx: (np.append(_nls_times(ctx), 1.0), None), needs=(
            ("[grid].kind", "kind = line", lambda c: c.grid_kind == "line"),
            ("[timedep].type", "type = semilinear (it checks the cubic flow alone)",
             lambda c: c.timedep_type == "semilinear"),
            ("[evolution].dt", "a dt that divides 1 (its order-2 check compares states at t = 1)",
             lambda c: abs(math.remainder(1.0, c.dt)) <= 1e-10),
            ("[overrides].fit_t_lo", "fit_t_lo < min(fit_t_hi, t_max) (its fit window)",
             lambda c: c.fit_t_lo < min(c.fit_t_hi, c.t_max))), spectrum=False),
    "morawetz": SuiteSpec(_suite_morawetz, flow=_morawetz_flow,
                          needs=(_RADIAL, _FROM_ONE, _V_NONNEGATIVE, _W_FLOW),
                          scipy=("scipy.fft", "scipy.linalg", "scipy.optimize")),
}

#: suite -> runner; ``run_scenario`` dispatches through this dict, so its
#: entries can be replaced in place (perfbench's tracer wraps them)
_SUITE_RUNNERS = {name: spec.run for name, spec in _SUITES.items()}


def _import_what_runs(config: ScenarioConfig):
    """Import the scipy subpackages a run of ``config`` will call, read off its
    fields alone, so that the run does not pay for their import: scipy.linalg
    when a suite reads the spectrum of a potential, and each ``SuiteSpec.scipy``.
    A free exact run and ``cubic_nls_small`` (stepped by numpy alone) load none."""
    suites = [_SUITES[s] for s in config.suites]
    modules = {m for spec in suites for m in spec.scipy}
    if config.potential_terms and (config.state_recipe == "eigenstate"
                                   or any(spec.spectrum for spec in suites)):
        modules.add("scipy.linalg")
    for module in sorted(modules):
        importlib.import_module(module)


def run_scenario(config: ScenarioConfig, out_dir: str) -> RunArtifact:
    """Execute every selected suite and persist series, report and manifest.

    The pipeline is deterministic: identical config and version produce
    byte-identical series files.  The config is validated first, so a
    rejected one leaves no run directory.
    """
    _validate(config)
    run_dir = os.path.join(out_dir, config.name)
    os.makedirs(run_dir, exist_ok=True)
    ctx = _Context(config)
    skipped = {s: "near-threshold spectrum: the suite assumes no zero eigenvalues"
               for s in config.suites
               if _SUITES[s].clean_threshold and ctx.spec.near_threshold_count > 0}
    to_run = [s for s in config.suites if s not in skipped]
    ctx.plan(to_run)
    reports: dict[str, EstimateReport] = {}
    errors: list[str] = []  # "<suite>: ERROR (<exception>)" of the suites that raised

    for suite in to_run:
        try:
            reports[suite] = _SUITE_RUNNERS[suite](ctx)
        except ValueError as exc:
            errors.append(f"{suite}: ERROR ({exc})")

    passed = all(r.passed for r in reports.values()) and bool(reports) and not errors
    artifact = RunArtifact(config=config, run_dir=run_dir, passed=passed, reports=reports)

    for suite, report in reports.items():
        for key, series in report.series.items():
            path = os.path.join(run_dir, f"{suite}__{key}.tsv")
            _write_series(path, series)
            artifact.series_files.append(path)

    manifest = {
        "name": config.name,
        "version": __version__,
        "passed": str(passed).lower(),
        "suites_run": ", ".join(reports) or "none",
        "suites_skipped": "; ".join(f"{k}: {v}" for k, v in skipped.items()) or "none",
        "validity_horizon": repr(ctx._horizon) if ctx._horizon is not None else "not probed",
        "warnings": "; ".join(ctx.warnings + sum((r.warnings for r in reports.values()), [])
                              + errors) or "none",
    }
    artifact.manifest = manifest
    with open(os.path.join(run_dir, "manifest.txt"), "w") as fh:
        for key, value in manifest.items():
            fh.write(f"{key} = {value}\n")
        fh.write("\n# config echo\n")
        for line in serialize_config(config).splitlines():
            fh.write(f"# {line}\n")

    with open(os.path.join(run_dir, "report.txt"), "w") as fh:
        for suite, report in reports.items():
            fh.write(report.render() + "\n\n")
        for error in errors:
            fh.write(error + "\n")
        for suite, reason in skipped.items():
            fh.write(f"{suite}: SKIPPED ({reason})\n")
    return artifact


def _write_series(path: str, series: ObservableSeries):
    with open(path, "w") as fh:
        fh.write(f"# time\t{series.label}\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{t:.17e}\t{v:.17e}\n")


def render_report(run_dir: str) -> str:
    """Summary text of a finished run (manifest header plus suite table)."""
    manifest_path = os.path.join(run_dir, "manifest.txt")
    report_path = os.path.join(run_dir, "report.txt")
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"no run found at {run_dir!r}")
    with open(manifest_path) as fh:
        manifest = fh.read()
    body = ""
    if os.path.isfile(report_path):
        with open(report_path) as fh:
            body = fh.read()
    return manifest + "\n" + body
