"""Reaction terms: the nonlinearity, its derivative and primitive.

A valid reaction term is nonnegative, C^1, supported on [0, 1] and has unit
integral; its primitive rises from 0 to 1 across the support.  Terms come in
two flavours: closed-form (the quartic polynomial witness) and tabulated
(recovered from a sampled transition profile, or read from CSV), the latter
backed by monotone cubic interpolation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import InvalidParameterError, InversionError
from .numerics import csv_lines, simpson_refined

MASS_TOL = 1e-10


@dataclass(frozen=True)
class ReactionTerm:
    """A reaction nonlinearity with derivative and primitive attached.

    ``eval``, ``deriv`` and ``primitive`` are vectorized callables; the
    primitive is the running integral of ``eval`` from 0.  ``support`` is the
    closed interval outside which ``eval`` vanishes and ``mass`` the total
    integral over it.
    """

    name: str
    eval: object
    deriv: object
    primitive: object
    support: tuple[float, float]
    mass: float
    flags: frozenset = field(default_factory=frozenset)


def make_polynomial_beta(normalization: float = 1.0) -> ReactionTerm:
    """Quartic witness c*t^2(1-t)^2 on [0, 1] with integral ``normalization``.

    Since the factor t^2(1-t)^2 integrates to 1/30, the coefficient is
    c = 30*normalization; the derivative vanishes at both support endpoints,
    so the term is C^1 across them.
    """
    if normalization <= 0:
        raise InvalidParameterError("normalization must be positive")
    c = 30.0 * normalization

    def _eval(t):
        if isinstance(t, float):  # scalar fast path for step integrators
            if t <= 0.0 or t >= 1.0:
                return 0.0
            return c * t * t * (1.0 - t) * (1.0 - t)
        t = np.asarray(t, dtype=float)
        inside = (t > 0.0) & (t < 1.0)
        v = c * t * t * (1.0 - t) * (1.0 - t)
        return np.where(inside, v, 0.0)

    def _deriv(t):
        if isinstance(t, float):
            if t <= 0.0 or t >= 1.0:
                return 0.0
            return 2.0 * c * t * (1.0 - t) * (1.0 - 2.0 * t)
        t = np.asarray(t, dtype=float)
        inside = (t > 0.0) & (t < 1.0)
        v = 2.0 * c * t * (1.0 - t) * (1.0 - 2.0 * t)
        return np.where(inside, v, 0.0)

    def _primitive(t):
        # expanded coefficients evaluate to exactly `normalization` at t = 1
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, 1.0)
        return normalization * tc**3 * (10.0 - 15.0 * tc + 6.0 * tc * tc)

    return ReactionTerm(
        name="poly2",
        eval=_eval,
        deriv=_deriv,
        primitive=_primitive,
        support=(0.0, 1.0),
        mass=normalization,
    )


def make_tabulated_term(
    knots_t: np.ndarray,
    knots_beta: np.ndarray,
    name: str = "table",
    flags: frozenset = frozenset(),
) -> ReactionTerm:
    """Reaction term from samples (t, beta) via monotone cubic interpolation.

    The primitive is the exact antiderivative of the interpolant, shifted to
    vanish at the lower support end and held constant above the upper end.
    """
    t = np.asarray(knots_t, dtype=float)
    b = np.asarray(knots_beta, dtype=float)
    if t.ndim != 1 or t.shape != b.shape or len(t) < 4:
        raise InvalidParameterError("need matching 1D knot arrays, length >= 4")
    if np.any(np.diff(t) <= 0):
        raise InvalidParameterError("knot abscissae must be strictly increasing")
    interp = PchipInterpolator(t, np.maximum(b, 0.0), extrapolate=False)
    dinterp = interp.derivative()
    anti = interp.antiderivative()
    lo, hi = float(t[0]), float(t[-1])
    total = float(anti(hi) - anti(lo))

    def _eval(x):
        x = np.asarray(x, dtype=float)
        v = interp(np.clip(x, lo, hi))
        return np.where((x > lo) & (x < hi), v, 0.0)

    def _deriv(x):
        x = np.asarray(x, dtype=float)
        v = dinterp(np.clip(x, lo, hi))
        return np.where((x > lo) & (x < hi), v, 0.0)

    def _primitive(x):
        x = np.asarray(x, dtype=float)
        v = anti(np.clip(x, lo, hi)) - anti(lo)
        return np.where(x <= lo, 0.0, np.where(x >= hi, total, v))

    return ReactionTerm(
        name=name,
        eval=_eval,
        deriv=_deriv,
        primitive=_primitive,
        support=(lo, hi),
        mass=total,
        flags=flags,
    )


@dataclass(frozen=True)
class A1Clause:
    passed: bool
    defect: float


@dataclass(frozen=True)
class A1Report:
    """Per-clause validation of a reaction term; failures are reported, never raised."""

    nonnegative: A1Clause
    support_in_unit_interval: A1Clause
    c1_continuous: A1Clause
    unit_mass: A1Clause

    @property
    def all_passed(self) -> bool:
        return all(
            c.passed
            for c in (
                self.nonnegative,
                self.support_in_unit_interval,
                self.c1_continuous,
                self.unit_mass,
            )
        )


def validate_a1(term: ReactionTerm, samples: int = 2001) -> A1Report:
    """Measure nonnegativity, support, C^1 continuity and unit mass defects.

    The C^1 clause compares centered differences of ``eval`` at shrinking
    steps h in {1e-3, 1e-4, 1e-5} against ``deriv`` and keeps, per point, the
    best agreement; tabulated terms are only piecewise smooth between knots,
    so the pass threshold is scaled by the derivative's size.
    """
    grid = np.linspace(-1.0, 2.0, samples)
    vals = term.eval(grid)
    neg_defect = float(max(0.0, -np.min(vals)))

    outside = grid[(grid < 0.0) | (grid > 1.0)]
    support_defect = float(np.max(np.abs(term.eval(outside))))

    check_pts = np.concatenate(([0.0, 1.0], np.linspace(0.02, 0.98, 49)))
    best = np.full(check_pts.shape, np.inf)
    for h in (1e-3, 1e-4, 1e-5):
        fd = (term.eval(check_pts + h) - term.eval(check_pts - h)) / (2.0 * h)
        best = np.minimum(best, np.abs(fd - term.deriv(check_pts)))
    c1_defect = float(np.max(best))
    c1_scale = 1.0 + float(np.max(np.abs(term.deriv(check_pts))))

    lo, hi = term.support
    mass = simpson_refined(term.eval, lo, hi)
    mass_defect = abs(mass - 1.0)

    return A1Report(
        nonnegative=A1Clause(neg_defect <= 1e-12, neg_defect),
        support_in_unit_interval=A1Clause(
            term.support[0] >= -1e-12 and term.support[1] <= 1.0 + 1e-12 and support_defect <= 1e-12,
            support_defect,
        ),
        c1_continuous=A1Clause(c1_defect <= 1e-3 * c1_scale, c1_defect),
        unit_mass=A1Clause(mass_defect <= MASS_TOL, mass_defect),
    )


def rescale(term: ReactionTerm, epsilon: float) -> ReactionTerm:
    """Width rescaling t -> t/eps with mass preserved; requires eps > 0.

    The scaled term evaluates to term(t/eps)/eps, so its support shrinks to
    eps times the original while the total mass is unchanged; its primitive
    is term.primitive(t/eps).
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    eps = float(epsilon)
    lo, hi = term.support
    return ReactionTerm(
        name=f"{term.name}@eps={eps:g}",
        eval=lambda t: term.eval(np.asarray(t) / eps) / eps,
        deriv=lambda t: term.deriv(np.asarray(t) / eps) / (eps * eps),
        primitive=lambda t: term.primitive(np.asarray(t) / eps),
        support=(lo * eps, hi * eps),
        mass=term.mass,
        flags=term.flags,
    )


# |v'''/v'| beyond this at the decaying tail flags possible loss of C^1 at 0
TAIL_RATIO_TOL = 1e-2


def beta_from_profile(profile) -> ReactionTerm:
    """Recover the reaction term that a sampled convex transition solves.

    A profile v with v'' = beta(v)/2 determines beta(t) = 2 v''(v^{-1}(t)),
    and the second derivative is taken from the slope samples as d(v'^2)/dv
    (one numerical differentiation instead of two).  The recovered term is
    tabulated on the profile's own value grid.
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
    return make_tabulated_term(t_knots, b_knots, name="from-profile", flags=flags)


def save_reaction_csv(term: ReactionTerm, path, samples: int = 2001) -> None:
    """Write columns t, beta, beta_prime, Phi over the support."""
    lo, hi = term.support
    t = np.linspace(lo, hi, samples)
    with open(path, "w") as fh:
        fh.write("t,beta,beta_prime,Phi\n")
        fh.write(csv_lines(t, term.eval(t), term.deriv(t), term.primitive(t)))


def load_reaction_csv(path) -> ReactionTerm:
    """Rebuild a tabulated term from a t/beta/beta_prime/Phi CSV."""
    t, b = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "beta"]:
            raise InvalidParameterError(f"{path}: expected reaction CSV header")
        for row in reader:
            t.append(float(row[0]))
            b.append(float(row[1]))
    return make_tabulated_term(np.array(t), np.array(b), name=f"table:{path}")


def resolve_reaction(name: str) -> ReactionTerm:
    """Resolve a config name: "poly2" or "table:<csv path>"."""
    if name == "poly2":
        return make_polynomial_beta(1.0)
    if name.startswith("table:"):
        return load_reaction_csv(name[len("table:"):])
    raise InvalidParameterError(f"unknown reaction term {name!r}")
