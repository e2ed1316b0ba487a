"""Recovery of a reaction term from a sampled transition profile.

A test-suite oracle: the round trip profile -> beta -> profile checks the
shooting and quadrature solvers against each other.  It lives with the tests
because no experiment of the lab calls it.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from onephase_lab.errors import LabError
from onephase_lab.reaction_terms import ReactionTerm, make_tabulated_term

# |v'''/v'| beyond this at the decaying tail flags possible loss of C^1 at 0
TAIL_RATIO_TOL = 1e-2


class InversionError(LabError):
    """A sampled function required to be monotone is not."""


def beta_from_profile(profile) -> tuple[ReactionTerm, frozenset]:
    """Recover the reaction term that a sampled convex transition solves.

    A profile v with v'' = beta(v)/2 determines beta(t) = 2 v''(v^{-1}(t)),
    and the second derivative is taken from the slope samples as d(v'^2)/dv
    (one numerical differentiation instead of two).  The recovered term is
    tabulated on the profile's own value grid and returned with its flags:
    ``"tail-third-derivative"`` when the decaying tail may not be C^1.
    """
    us = np.asarray(profile.us, dtype=float)
    xs = np.asarray(profile.xs, dtype=float)
    slopes = np.asarray(profile.dus, dtype=float)
    if np.any(np.diff(us) <= 0.0):
        raise InversionError("profile values must be strictly increasing to invert")

    # beta(v) = d(v'^2)/dv; a spline derivative keeps the recovery
    # fourth-order in the sample spacing
    b = CubicSpline(us, slopes * slopes).derivative()(us)
    d2 = 0.5 * b

    # tail smoothness: v'''/v' must vanish where the profile decays
    d3 = np.gradient(d2, xs, edge_order=2)
    k = min(8, len(xs) // 10 + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(d3[1:k] / slopes[1:k])
    flags = frozenset()
    if np.any(~np.isfinite(ratio)) or np.max(ratio, initial=0.0) > TAIL_RATIO_TOL:
        flags = frozenset({"tail-third-derivative"})

    keep = us <= 1.0 + 1e-12
    t_knots = us[keep]
    b_knots = np.maximum(b[keep], 0.0)
    if t_knots[0] > 0.0:
        t_knots = np.concatenate(([0.0], t_knots))
        b_knots = np.concatenate(([0.0], b_knots))
    if t_knots[-1] < 1.0:
        t_knots = np.concatenate((t_knots, [1.0]))
        b_knots = np.concatenate((b_knots, [0.0]))
    else:
        b_knots[-1] = 0.0
    return make_tabulated_term(t_knots, b_knots, name="from-profile"), flags
