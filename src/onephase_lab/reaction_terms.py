"""Reaction terms: the nonlinearity, its derivative and primitive.

A valid reaction term is nonnegative, C^1, supported on [0, 1] and has unit
integral; its primitive rises from 0 to 1 across the support.  Terms come in
two flavours: closed-form (the quartic polynomial witness) and tabulated
(read from CSV), the latter backed by monotone cubic interpolation.  These
hypotheses are the paper's A1; a run resolves a table only once it passes
:func:`require_a1`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .numerics import Pchip

MASS_TOL = 1e-10


@dataclass(frozen=True)
class ReactionTerm:
    """A reaction nonlinearity with derivative and primitive attached.

    ``eval``, ``deriv`` and ``primitive`` are vectorized callables; the
    primitive is the running integral of ``eval`` from 0 and ``mass`` the
    total integral of ``eval``; all three read NaN at a NaN argument.
    ``knots`` are the abscissae of a tabulated term's samples, where its
    interpolant takes its extreme values.
    """

    name: str
    eval: object
    deriv: object
    primitive: object
    mass: float
    knots: np.ndarray = field(default_factory=lambda: np.empty(0))


def make_polynomial_beta() -> ReactionTerm:
    """Quartic witness c*t^2(1-t)^2 on [0, 1] with unit integral.

    Since the factor t^2(1-t)^2 integrates to 1/30, the coefficient is
    c = 30; the derivative vanishes at both support endpoints, so the term
    is C^1 across them.
    """
    c = 30.0

    def _eval(t):
        if isinstance(t, float):  # scalar fast path for step integrators
            if t <= 0.0 or t >= 1.0:
                return 0.0
            return c * t * t * (1.0 - t) * (1.0 - t)
        t = np.asarray(t, dtype=float)
        v = c * t * t * (1.0 - t) * (1.0 - t)
        return np.where((t <= 0.0) | (t >= 1.0), 0.0, v)

    def _deriv(t):
        t = np.asarray(t, dtype=float)
        v = 2.0 * c * t * (1.0 - t) * (1.0 - 2.0 * t)
        return np.where((t <= 0.0) | (t >= 1.0), 0.0, v)

    def _primitive(t):
        # expanded coefficients evaluate to exactly 1 at t = 1
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, 1.0)
        return tc**3 * (10.0 - 15.0 * tc + 6.0 * tc * tc)

    return ReactionTerm(
        name="poly2",
        eval=_eval,
        deriv=_deriv,
        primitive=_primitive,
        mass=1.0,
    )


def make_tabulated_term(
    knots_t: np.ndarray,
    knots_beta: np.ndarray,
    name: str = "table",
) -> ReactionTerm:
    """Reaction term from samples (t, beta) via monotone cubic interpolation.

    The interpolant is monotone between knots, so its extreme values are
    samples: :func:`require_a1` judges nonnegativity at ``knots``.  Off the
    open knot range the term and its derivative are 0; the primitive is the
    interpolant's exact antiderivative from the first knot, which
    :class:`Pchip` holds constant past either end.
    """
    t = np.asarray(knots_t, dtype=float)
    b = np.asarray(knots_beta, dtype=float)
    if t.ndim != 1 or t.shape != b.shape or len(t) < 4:
        raise InvalidParameterError("need matching 1D knot arrays, length >= 4")
    if np.any(np.diff(t) <= 0):
        raise InvalidParameterError("knot abscissae must be strictly increasing")
    interp = Pchip(t, b)
    lo, hi = float(t[0]), float(t[-1])

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.where((x <= lo) | (x >= hi), 0.0, interp(x))

    def _deriv(x):
        x = np.asarray(x, dtype=float)
        return np.where((x <= lo) | (x >= hi), 0.0, interp.derivative(x))

    return ReactionTerm(
        name=name,
        eval=_eval,
        deriv=_deriv,
        primitive=interp.antiderivative,
        mass=float(interp.antiderivative(hi)),
        knots=t,
    )


def require_a1(term: ReactionTerm) -> None:
    """Raise ``ConfigError`` naming the first clause of A1 that ``term`` fails.

    The clauses, in order: ``eval`` is nonnegative and vanishes outside
    [0, 1] (both judged on samples over [-1, 2] and at the term's
    ``knots``, so a table padded with zeros passes); it is C^1; and its
    exact ``mass`` is 1 to ``MASS_TOL``.
    The C^1 clause compares centered differences of ``eval`` at steps
    h in {1e-3, 1e-4, 1e-5} against ``deriv`` and keeps, per point, the best
    agreement; tabulated terms are only piecewise smooth between knots, so
    its threshold is scaled by the derivative's size.
    """
    grid = np.concatenate((np.linspace(-1.0, 2.0, 2001), term.knots))
    vals = term.eval(grid)
    check_pts = np.concatenate(([0.0, 1.0], np.linspace(0.02, 0.98, 49)))
    best = np.full(check_pts.shape, np.inf)
    for h in (1e-3, 1e-4, 1e-5):
        fd = (term.eval(check_pts + h) - term.eval(check_pts - h)) / (2.0 * h)
        best = np.minimum(best, np.abs(fd - term.deriv(check_pts)))
    clauses = (
        ("nonnegative", -np.min(vals), 1e-12),
        ("support in [0, 1]", np.max(np.abs(vals[(grid < 0.0) | (grid > 1.0)])), 1e-12),
        ("C^1", np.max(best), 1e-3 * (1.0 + np.max(np.abs(term.deriv(check_pts))))),
        ("unit mass", abs(term.mass - 1.0), MASS_TOL),
    )
    for clause, defect, tol in clauses:
        if not defect <= tol:
            raise ConfigError(f"reaction {term.name!r} violates A1, {clause} clause: defect {float(defect)!r} above {tol:.3g}")


def rescale(term: ReactionTerm, epsilon: float) -> ReactionTerm:
    """Width rescaling t -> t/eps with mass preserved; requires eps > 0.

    The scaled term evaluates to term(t/eps)/eps, so its support and knots
    shrink to eps times the original while the total mass is unchanged; its
    primitive is term.primitive(t/eps).
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    eps = float(epsilon)
    return ReactionTerm(
        name=f"{term.name}@eps={eps:g}",
        eval=lambda t: term.eval(np.asarray(t) / eps) / eps,
        deriv=lambda t: term.deriv(np.asarray(t) / eps) / (eps * eps),
        primitive=lambda t: term.primitive(np.asarray(t) / eps),
        mass=term.mass,
        knots=term.knots * eps,
    )


def load_reaction_csv(path) -> ReactionTerm:
    """Rebuild a tabulated term from a t/beta/beta_prime/Phi CSV."""
    t, b = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["t", "beta"]:
            raise InvalidParameterError(f"{path}: expected reaction CSV header")
        for row in reader:
            try:
                t.append(float(row[0]))
                b.append(float(row[1]))
            except (IndexError, ValueError):
                raise InvalidParameterError(
                    f"{path}, line {reader.line_num}: expected numeric t and beta, got {row!r}"
                ) from None
    return make_tabulated_term(np.array(t), np.array(b), name=f"table:{path}")


def resolve_reaction(name: str) -> ReactionTerm:
    """Resolve a config name: "poly2" or "table:<csv path>", a table only
    once it passes :func:`require_a1`."""
    if name == "poly2":
        return make_polynomial_beta()
    if name.startswith("table:"):
        term = load_reaction_csv(name[len("table:"):])
        require_a1(term)
        return term
    raise InvalidParameterError(f"unknown reaction term {name!r}")
