"""Numerics for multi-type continuous-state branching processes with immigration.

Admissible-parameter validation, derived branching/immigration
quantities with criticality classification, the generalized Riccati
system and exact transition Laplace transform, exact discrete and scaled
infinitesimal generators with their convergence limits, and seeded Monte
Carlo simulation of CBI paths and the limiting squared-Bessel ray
diffusion.
"""
from .errors import (CbiError, ClassificationError, ConsistencyError, DimensionError,
                     InadmissibleError, NumericRangeError, SolverError)
from .model import CbiParams, JumpMeasure, ValidationReport, validate
from .matops import (PerronPair, SpectralSummary, branching_integral, exp_and_integral_vec,
                     is_irreducible, mat_exp, perron_vectors, spectral)
from .moments import DerivedQuantities, derive, mean, variance_no_immigration
from .affine import (VSolution, laplace_transform, phi, psi, solve_v, v_hessian_fd,
                     v_hessian_limit, v_jacobian_fd, v_jacobian_limit)
from .testfunctions import TestFunction, bump
from .generators import (ConvergenceTable, discrete_gen_exp, discrete_gen_limit,
                         discrete_gen_table, drift_convergence_criterion,
                         exp_convergence_criterion, generator_apply,
                         scaled_gen_apply, scaled_gen_limit)
from .simulate import (PathConfig, SamplePath, paths_to_csv, simulate_cbi,
                       simulate_limit_diffusion, simulate_scaled_step)

__version__ = "0.1.0"
