"""Spectral simulator and Monte Carlo verification lab for the truncated
quintic Schrödinger flow on the torus and its transported Gaussian
ensembles."""

from .energies import EnergyParams, e_modified, q_derivative, r_correction
from .errors import (BoundViolated, ConfigInvalid, GridTooSmall,
                     MissingCutoff, NlsTransportError, NonFiniteState,
                     TruncationExceedsAmbient)
from .flow import (FlowParams, GrowthReport, Trajectory, divergence_at, evolve,
                   evolve_trajectory, growth_monitor, jacobian_det)
from .measures import (McReport, MeasureParams, SeededRng, lp_norm_mc,
                       moment_growth_mc)
from .resonance import counting_check, psi_bound_ratio, strichartz_sum
from .spectral import (FourierState, WeightFamily, WeightKind, default_grid,
                       mass, quintic_nonlinearity, sobolev_norm_sq_sigma)
from .transport import (DensityParams, GAUSS_FORM_FACTOR, ObservableKind,
                        ObservableSpec, StudyKind, change_of_measure_test,
                        convergence_study, density_direct, density_normal_form,
                        density_wgm, lp_density_study)

__version__ = "0.1.0"
