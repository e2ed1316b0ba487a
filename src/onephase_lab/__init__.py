"""Numerical laboratory for semilinear transition layers and their one-phase limits.

The package solves and classifies one-dimensional profiles of
u'' = beta(u)/2, discretizes the axisymmetric semilinear equation, evaluates
layer and sharp-interface energies with blow-down rescalings, probes
second-variation stability through spectral and test-function machinery, and
checks the curvature identities of the one-phase interface form on surfaces
of revolution.
"""

__version__ = "0.1.0"

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
