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
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from .onephase_geometry import (
    Generator,
    RevolutionBoundary,
    curvature_of_revolution,
    extract_graph_boundary,
    gradient_magnitude_identity,
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
    EpsilonScaling,
    ReactionTerm,
    beta_from_profile,
    make_polynomial_beta,
    rescale,
    resolve_reaction,
    validate_a1,
)
from .stability import (
    SpectralReport,
    StabilityProbe,
    admissible_alpha,
    epsilon_schedule,
    linearized_rayleigh_min,
    log_cutoff_2d,
    probe_inequality,
    quadratic_form,
    us_derivative,
)
