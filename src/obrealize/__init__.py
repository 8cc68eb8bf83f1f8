"""obrealize: engineered convection spectra and fast-slow chaos realization.

Pipeline: design a boundary-layer temperature profile whose scalar
eigenvalue equation has a prescribed kernel wavenumber set (profile, and
scalar's closed-form design root find_root_z); validate against the
collocation eigenproblem and the finite-b layer-transfer hierarchy
(spectral, scalar's TransferHierarchy, green); reduce onto the
biorthogonal mode basis to a quadratic ODE system (reduction); control
its linear term through one least-norm solve for the forcing profile
(control); and realize arbitrary quadratic targets, chaotic ones
included, on the slow manifold of a fast-slow extension (realize).
"""

import os
import sys
import warnings

# One BLAS thread unless the caller chose otherwise, set before numpy
# loads: the dense algebra here is small, OpenBLAS's thread per core
# slows it (operator-ladder 22.4 s against 13.7 s on 2 cores), and
# spectrum_report already puts its per-k records on every core
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_VARS):
    # BLAS read its thread count when numpy loaded (the b = 112 survey
    # took 6.5-7.7 s so, against 2.7-3.4 s pinned)
    warnings.warn("numpy was imported before obrealize with none of "
                  f"{', '.join(_BLAS_VARS)} set, so BLAS runs one thread per "
                  "core and the dense algebra here slows down; import "
                  "obrealize first or set OPENBLAS_NUM_THREADS=1",
                  RuntimeWarning, stacklevel=2)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .grid import Grid, make_grid
from .profile import (DesignPolynomial, ScaleParams, TemperatureProfile,
                      build_profile, calibrate_offsets, derive_scales,
                      design_polynomial, designed_profile)
from .green import green_closed, green_numeric
from .scalar import TransferHierarchy, design_y, find_root_z
from .spectral import (EigenMode, ModeBasis, Pencil, SpectrumReport,
                       assemble_pencil, biorthogonalize, default_grid,
                       semigroup_decay, solve_conjugate_modes, solve_modes,
                       spectrum_report)
from .reduction import (FourierProfileSet, asymptotic_basis, asymptotic_profiles,
                        compute_K, compute_M, compute_f, numeric_basis,
                        zeta_profiles)
from .control import (ControlSolution, WavenumberSet, control_solve,
                      extended_set, g1_from_u1, moment_profile, sidon_set,
                      verify_decomposition)
from .realize import (QuadraticSystem, TargetField, Trajectory, build_fast_slow,
                      contraction_field, integrate, lorenz_field, lyapunov,
                      manifold_residual, realize_target, rescale_into_ball)
