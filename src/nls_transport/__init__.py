"""Spectral simulator and Monte Carlo verification lab for the truncated
quintic Schrödinger flow on the torus and its transported Gaussian
ensembles."""

from .energies import (EnergyParams, e_modified, q_components, q_derivative,
                       r_correction)
from .errors import (BoundViolated, ConfigInvalid, GridTooSmall,
                     MissingCutoff, NlsTransportError, NonFiniteState,
                     TruncationExceedsAmbient, WeightOverflow)
from .flow import (FlowParams, GrowthReport, Trajectory, divergence_at, evolve,
                   evolve_trajectory, growth_monitor, jacobian_det)
from .measures import (McReport, MeasureParams, SeededRng, cutoff_indicator,
                       lp_norm_mc, moment_growth_mc, partition_estimate,
                       sample_state, wgm_weight)
from .resonance import (Tuple6, TupleFilter, counting_check,
                        enumerate_constrained, omega, psi, psi_bound_ratio,
                        strichartz_sum)
from .spectral import (FourierState, GridSpec, WeightFamily, WeightKind,
                       conserved_c, default_grid, hamiltonian, load_state,
                       mass, project_low, quintic_nonlinearity, save_state,
                       sobolev_norm_sq, sobolev_norm_sq_sigma)
from .transport import (DensityParams, GAUSS_FORM_FACTOR, ObservableKind,
                        ObservableSpec, StudyKind, change_of_measure_test,
                        convergence_study, density_direct, density_normal_form,
                        density_wgm, lp_density_study)

__version__ = "0.1.0"
