"""Scenario configuration, the shipped scenario library, and the pipeline
runner: grid -> operators -> spectrum -> adaptor -> trajectory -> suites,
with delimited-text series and a manifest persisted per run.

One scenario per config document.  The text format is strict INI-style
sections of ``key = value`` lines; unknown sections or keys are rejected
with their path, and ``parse_config(serialize_config(c)) == c``.  A config
sets what a scenario varies; the rest is fixed in code: the weight
sigma = 1, W's profile <x>^-2, the adaptor horizon (half the validity
horizon), the centered, momentum-free Gaussian state, the conformal
observable at the 1/t scale, and each suite's caps and window of geometric
times (on the dt lattice on a stepped run).  From t = 1 to the validity
horizon ``adaptor`` reads 12, ``positive_potential`` 20, ``gronwall`` 16,
``timedep`` 16 checkpoints (the horizon kept in [2, t_max]) and
``conformal_identity`` 4 (to min(1 + horizon/2, horizon); on a free run
also 9 from 0 to min(2, t_max)); from t = 1 ``general_potential`` reads 16
to its own flow's horizon (at least 1.5), ``nls`` 14 to t_max and
``morawetz`` 10 to min(t_max, 10); ``weighted_decay`` reads 10 on [5, 50].
"""

from __future__ import annotations

import fnmatch
import importlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .adaptors import build_adaptor, conformal_Q
from .evolution import (Trajectory, _distinct, gaussian_state, snap_to_lattice,
                        trajectory_linear, trajectory_split, validity_horizon)
from .grids import make_grid, norm
from .observables import EstimateReport, ObservableSeries
from .operators import (HermitianOperator, Potential, TimeDependentPotential,
                        laplacian, multiplication)
from .spectral import SpectralData, classify_spectrum, diagonalize, free_spectral_data
from .suites import SUITES


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
    state_width: float = 1.0
    lnorm_target: float = 0.0            # 0 disables rescaling
    dt: float = 0.002
    t_max: float = 10.0
    expect_log_growth: bool = False


#: section -> key -> (kind, ScenarioConfig field)
_SCHEMA = {
    "scenario": {"name": (str, "name"), "suites": ("suites", "suites")},
    "grid": {"kind": (str, "grid_kind"), "n": (int, "grid_n"),
             "extent": (float, "grid_extent")},
    "potential": {"gaussians": ("gaussians", "potential_terms")},
    "timedep": {"type": (str, "timedep_type"), "delta": (float, "timedep_delta"),
                "a": (float, "timedep_a"), "lambda": (float, "nonlinearity")},
    "initial_state": {"width": (float, "state_width"), "lnorm_target": (float, "lnorm_target")},
    "evolution": {"dt": (float, "dt"), "t_max": (float, "t_max")},
    "overrides": {"expect_log_growth": (bool, "expect_log_growth")},
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
    # the run directory is <out-dir>/<name>, so a name is one path component
    name = config.name
    if name in ("", ".", "..") or any(c and c in name for c in (os.sep, os.altsep, "\0")):
        raise ConfigError("[scenario].name must be one path component (not empty, '.' or '..', "
                          f"no path separator or NUL), got {name!r}")
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
    if config.state_width <= 0:
        raise ConfigError(f"[initial_state].width must be positive, got {config.state_width}")
    grid = make_grid(config.grid_kind, config.grid_n, config.grid_extent)
    try:  # O(n), as run_scenario validates too: a width the grid cannot resolve samples to 0
        gaussian_state(grid, width=config.state_width)
    except ValueError as exc:
        raise ConfigError(f"[initial_state].width: {exc}") from None
    if any(width <= 0 for _, width, _ in config.potential_terms):
        raise ConfigError("[potential].gaussians: widths must be positive")
    for s in config.suites:
        if s not in SUITES:
            raise ConfigError(f"[scenario].suites: unknown suite {s!r}")
        for path, need, holds in SUITES[s].needs:
            if not holds(config):
                raise ConfigError(f"{path}: suite {s} in [scenario].suites needs {need}")
    if config.nonlinearity != 0 and config.timedep_type != "semilinear":
        raise ConfigError("[timedep].lambda: a cubic term needs type = semilinear, "
                          f"got type {config.timedep_type!r}")


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
        t_max=3.0, dt=0.004)
    lib["positive_potential_radial"] = ScenarioConfig(
        name="positive_potential_radial",
        suites=("adaptor", "weighted_decay", "positive_potential", "conformal_identity"),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((2.0, 1.0, 0.0),), state_width=1.0,
        t_max=14.0, dt=0.004)
    lib["well_with_barrier"] = ScenarioConfig(
        name="well_with_barrier", suites=("general_potential",),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((-6.0, 1.0, 1.5), (0.5, 1.0, 3.5)),
        state_width=1.0, t_max=14.0)
    lib["self_similar_W"] = ScenarioConfig(
        name="self_similar_W", suites=("timedep", "gronwall", "conformal_identity"),
        grid_kind="radial3d", grid_n=768, grid_extent=120.0,
        potential_terms=((0.5, 1.0, 0.0),),
        timedep_type="self_similar", timedep_delta=0.05, timedep_a=0.5, state_width=1.0,
        dt=0.002, t_max=10.0)
    lib["cubic_nls_small"] = ScenarioConfig(
        name="cubic_nls_small", suites=("nls",),
        grid_kind="line", grid_n=2048, grid_extent=240.0,
        potential_terms=((0.2, 1.0, 0.0),),
        timedep_type="semilinear", nonlinearity=1.0,
        state_width=1.0, lnorm_target=0.18,
        dt=0.001, t_max=30.0)
    lib["morawetz_radial"] = ScenarioConfig(
        name="morawetz_radial", suites=("morawetz",),
        grid_kind="radial3d", grid_n=640, grid_extent=100.0,
        potential_terms=((1.5, 1.0, 3.0),),
        timedep_type="self_similar", timedep_delta=0.05, timedep_a=0.5, state_width=1.0,
        dt=0.002, t_max=10.0)
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
    """Lazy pipeline state shared by the suites of one run, which read it
    through its public members.

    A run has one flow of psi0 (``_validate`` rejects every config whose
    suites would need another): exact in the eigenbasis of H, or, when
    ``stepped`` (with a W or the semilinear type), Strang-stepped with the
    config's W and cubic term, and ``sweep`` makes every Strang sweep.
    ``plan`` asks each suite, before any runs, for the sample times it reads
    off that flow and the per-step observer it feeds, and ``planned`` hands
    them back to it; the first ``trajectory`` evaluates the flow once over
    the union of those times, as one ``SpectralData.flow`` block or one
    sweep, and each suite gets the trajectory at its own times.  A row of a
    flow block, like a state at t = k dt of a sweep, has the same bits
    whatever else is computed with it, so sharing changes no output.  An
    unplanned time raises instead of evaluating the flow again.  The other
    sweeps are the auxiliary flows of the nls suite (dt/2, dt/4) and of the
    morawetz suite (a finer grid).
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.grid = make_grid(config.grid_kind, config.grid_n, config.grid_extent)
        self.warnings: list[str] = []
        self.potential = Potential(config.potential_terms)
        self.w_t = None
        if config.timedep_type == "self_similar":
            self.w_t = TimeDependentPotential.self_similar(  # W's profile <x>^-2
                config.timedep_delta, sigma=2.0, a=config.timedep_a)
        self.stepped = config.timedep_type != "none"
        self._spec = None
        self._adaptor = None
        self._psi0 = None
        self._horizon = None
        self._planned: list[float] = []
        self._plans: dict = {}
        self._observers: list = []
        self._flow: Trajectory | None = None

    @property
    def spec(self) -> SpectralData:
        if self._spec is None:
            spec = (diagonalize(self.hamiltonian()) if self.config.potential_terms
                    else free_spectral_data(self.grid))
            self._spec = classify_spectrum(spec)
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
            psi = gaussian_state(self.grid, width=c.state_width)
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
        positive) on a stepped run; a window with hi < lo, past the horizon,
        holds none, and one with hi = lo the one time lo."""
        if hi < lo:
            return np.empty(0)
        times = np.geomspace(max(lo, 1e-6), hi, count)
        if self.stepped:
            times = snap_to_lattice(times, self.config.dt)
            times = times[times > 0]
        return _distinct(times)

    def plan(self, suites):
        """Register what each of ``suites`` (names) reads off the run's flow."""
        for name in suites:
            suite = SUITES[name]
            times, observer = self._plans[suite] = suite.plan(self)
            self._planned.extend(np.asarray(times, dtype=float))
            if observer is not None:
                self._observers.append(observer)

    def planned(self, suite):
        """What ``suite.plan`` returned for this run: (sample times, observer)."""
        return self._plans[suite]

    def sweep(self, times, dt: float | None = None, grid=None, observer=None) -> Trajectory:
        """One Strang sweep of the run's flow (V, W and the cubic term) from
        t = 0 through the lattice times ``times``, at the config's dt or
        ``dt``, on the run's grid or on ``grid`` from the config's Gaussian
        evaluated there, at the L2 norm of psi0."""
        c, psi0, grid = self.config, self.psi0, grid or self.grid
        if grid is not self.grid:
            psi0 = gaussian_state(grid, width=c.state_width) * norm(self.grid, psi0, "L2")
        return trajectory_split(grid, self.potential, self.w_t, psi0, times, dt or c.dt,
                                nonlinearity=c.nonlinearity, observer=observer)

    def trajectory(self, times) -> Trajectory:
        """The run's flow at ``times``, each a planned time."""
        if not self._planned:  # every window is empty: no state is read
            return Trajectory(self.grid, np.empty(0), [], np.empty(0)).restricted(times)
        if self._flow is None:
            ts = np.sort(self._planned)
            union = ts[np.concatenate([[True], np.diff(ts) > 1e-9])]  # one per time
            observers = self._observers

            def fan_out(t, u):
                for observer in observers:
                    observer(t, u)

            self._flow = (self.sweep(union, observer=fan_out if observers else None)
                          if self.stepped else trajectory_linear(self.spec, self.psi0, union))
        return self._flow.restricted(times)

    def adaptor(self):
        if self._adaptor is None:
            self._adaptor = build_adaptor(self.spec, conformal_Q(self.potential, self.grid),
                                          self.t_b, validity_horizon=self.horizon)
            self.warnings.extend(self._adaptor.warnings)
        return self._adaptor


#: suite -> runner; ``run_scenario`` dispatches through this dict, so its
#: entries can be replaced in place (perfbench's tracer wraps them)
_SUITE_RUNNERS = {name: suite.run for name, suite in SUITES.items()}


def _import_what_runs(config: ScenarioConfig):
    """Import the scipy subpackages a run of ``config`` will call, read off its
    fields alone, so that the run does not pay for their import: scipy.linalg
    when a suite reads the spectrum of a potential, and each ``Suite.scipy``.
    A free exact run and ``cubic_nls_small`` (stepped by numpy alone) load none."""
    suites = [SUITES[s] for s in config.suites]
    modules = {m for suite in suites for m in suite.scipy}
    if config.potential_terms and any(suite.spectrum for suite in suites):
        modules.add("scipy.linalg")
    for module in sorted(modules):
        importlib.import_module(module)


def run_scenario(config: ScenarioConfig, out_dir: str) -> RunArtifact:
    """Execute every selected suite and persist series, report and manifest.

    The pipeline is deterministic: identical config and version produce
    byte-identical series files.  The config is validated first, so a
    rejected one leaves no run directory.  A run directory holds one run:
    the series files of an earlier run there that this run does not write
    are removed.
    """
    _validate(config)
    run_dir = os.path.join(out_dir, config.name)
    os.makedirs(run_dir, exist_ok=True)
    ctx = _Context(config)
    skipped = {s: "near-threshold spectrum: the suite assumes no zero eigenvalues"
               for s in config.suites
               if SUITES[s].clean_threshold and ctx.spec.near_threshold_count > 0}
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

    series = {f"{suite}__{key}.tsv": s for suite, report in reports.items()
              for key, s in report.series.items()}
    for name in os.listdir(run_dir):
        path = os.path.join(run_dir, name)
        if fnmatch.fnmatch(name, "*__*.tsv") and name not in series and os.path.isfile(path):
            os.remove(path)
    for name, s in series.items():
        path = os.path.join(run_dir, name)
        _write_series(path, s)
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
