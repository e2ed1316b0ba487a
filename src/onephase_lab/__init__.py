"""Numerical laboratory for semilinear transition layers and their one-phase limits.

The package solves and classifies one-dimensional profiles of
u'' = beta(u)/2, discretizes the axisymmetric semilinear equation, evaluates
layer and sharp-interface energies with blow-down rescalings, probes
second-variation stability through spectral and test-function machinery, and
checks the curvature identities of the one-phase interface form on surfaces
of revolution.
"""

__version__ = "0.1.0"

import os
import sys

# Every run uses one BLAS thread, whatever the caller's environment holds: a
# threaded BLAS splits its sums by the thread count, and the eigen solve of
# ``stability`` then differs in its last digits between 1 and 2 threads.
# numpy and scipy read these variables once, when they load their BLAS, so
# they are set before the first numpy import below, with ``os.putenv``: the
# package writes its environment but reads none of it.  ``_BLAS_THREADS`` is
# None when numpy was imported before this package and kept the caller's count.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
_BLAS_THREADS = None if "numpy" in sys.modules else dict.fromkeys(_THREAD_VARS, "1")
for _var in _THREAD_VARS:
    os.putenv(_var, "1")

from .axisym_field import (
    AxiField,
    EnergyBreakdown,
    GridSpec,
    apply_axisym_laplacian,
    blow_down,
    energy,
    lipschitz_monitor,
    max_principle_defect,
    one_phase_energy,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from .onephase_geometry import (
    Generator,
    RevolutionBoundary,
    curvature_of_revolution,
    normal_derivative_identity,
    onephase_stability_form,
    solve_harmonic_masked,
    surface_integral,
)
from .profile1d import (
    Profile1D,
    classify,
    extend_to_nd,
    shoot,
    unique_increasing_profile,
)
from .reaction_terms import (
    ReactionTerm,
    make_polynomial_beta,
    require_a1,
    rescale,
    resolve_reaction,
)
from .stability import (
    SpectralReport,
    StabilityProbe,
    admissible_alpha,
    epsilon_schedule,
    linearized_rayleigh_min,
    probe_inequality,
    quadratic_form,
    us_derivative,
)
