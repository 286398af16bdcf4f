"""Numerical laboratory for the curvature/torsion map between the 1D
(stochastic) Landau-Lifshitz-Gilbert flow and a generalized nonlocal heat
equation, with executable checks of the equivalence structure."""

__version__ = "0.1.0"

from .fields import (BlowUpError, ConfigurationError, Grid1D, boundary_decay_ok,
                     cross, cumint, diff1, diff2, dot, line_grid, norm,
                     normalize, periodic_grid)
from .hashimoto import (CurvatureTorsion, FrameField, closure_defect,
                        curvature_torsion, inverse_identities,
                        reconstruct_frame, transform)
from .heat import heat_integrate
from .llg import (StepConfig, Trajectory, curvature_torsion_rhs, exchange_energy,
                  llg_integrate, stable_dt)
from .noise import (NoiseIncrement, NoiseModel, derive_seed, fourier_basis,
                    make_noise_model, noise_fields, sample_increments)
from .stochastic import (SllgEnsemble, frame_generator, frame_time_step,
                         run_sllg_ensemble, stochastic_heat_step)
