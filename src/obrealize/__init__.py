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

# One BLAS thread unless the caller chose otherwise, set before numpy
# loads: the dense algebra here is small, OpenBLAS's thread per core
# slows it (operator-ladder 22.4 s against 13.7 s on 2 cores), and
# spectrum_report already puts its per-k records on every core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .grid import Grid, make_grid
from .profile import (DesignPolynomial, ScaleParams, TemperatureProfile,
                      build_profile, calibrate_offsets, compute_beta1,
                      derive_scales, design_polynomial, designed_profile)
from .green import green_closed, green_numeric
from .scalar import TransferHierarchy, design_y, find_root_z
from .spectral import (EigenMode, ModeBasis, Pencil, SpectrumReport,
                       assemble_pencil, biorthogonalize, default_grid,
                       semigroup_decay, solve_conjugate_modes, solve_modes,
                       spectrum_report)
from .reduction import (FourierProfileSet, ReducedSystem, asymptotic_basis,
                        asymptotic_profiles, compute_K, compute_M, compute_f,
                        numeric_basis, zeta_profiles)
from .control import (ControlSolution, WavenumberSet, control_solve,
                      extended_set, g1_from_u1, moment_profile, sidon_set,
                      verify_decomposition)
from .realize import (QuadraticSystem, TargetField, Trajectory, build_fast_slow,
                      contraction_field, integrate, lorenz_field, lyapunov,
                      manifold_residual, realize_target, rescale_into_ball)
