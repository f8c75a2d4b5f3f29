"""proplab: a numerical laboratory for propagation estimates of Schrodinger
flows H = -lap + V + W(t) with adapted multipliers.

The package builds the adaptor operator B_V with a prescribed commutator,
the adapted conformal, dilation and Morawetz observables, and verifies the
resulting operator identities and decay estimates along computed flows at
desk scale.
"""

from types import ModuleType as _Module

from ._version import __version__
from .grids import (Grid, boundary_mass, make_grid, norm, transit_energy_limit,
                    weight_vector)
from .operators import (HermitianOperator, Potential, TimeDependentPotential,
                        commutator_i, dilation, laplacian, momentum,
                        multiplication, position)
from .spectral import (SpectralData, classify_spectrum, diagonalize,
                       free_spectral_data, genericity_margin,
                       resolution_energy_limit)
from .adaptors import (AdaptorOperator, QSelection, build_adaptor, conformal_Q,
                       dilation_Q, weighted_propagator_norm)
from .evolution import (Trajectory, evolve_split, gaussian_state,
                        trajectory_linear, trajectory_split, validity_horizon)
from .observables import (EstimateReport, ObservableSeries,
                          PropagationObservable, fit_decay_rate,
                          heisenberg_consistency, observable_series,
                          pres_check)
from .suites import (conformal_prob, general_potential_suite,
                     gronwall_monitor, lens_positivity_values, morawetz_suite,
                     operator_identity_suite, positive_potential_suite)
from .scenarios import (ConfigError, RunArtifact, ScenarioConfig,
                        list_scenarios, load_scenario, parse_config,
                        render_report, run_scenario, serialize_config)

#: the library's names; the submodules the imports above bind are not among them
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
