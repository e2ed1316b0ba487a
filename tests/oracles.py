"""Closed forms and discrete identities that only the tests use.

No experiment of the lab calls these: they are oracles the tests hold the
package against (the strip neck's curvature and second derivatives, the
planar log-cutoff law, the gradient-magnitude identity, the differentiated
equation for u_s) and small tools that build test inputs (a reaction table
on disk, a graph read off a solved field).
"""

import math
from dataclasses import dataclass

import numpy as np

from onephase_lab.axisym_field import AxiField, _centered_gradient, apply_axisym_laplacian
from onephase_lab.errors import GeometryMismatchError, InvalidParameterError
from onephase_lab.numerics import csv_lines
from onephase_lab.reaction_terms import ReactionTerm
from onephase_lab.stability import us_derivative


def save_reaction_csv(term: ReactionTerm, path, samples: int = 2001) -> None:
    """Write columns t, beta, beta_prime, Phi over the support."""
    lo, hi = term.support
    t = np.linspace(lo, hi, samples)
    with open(path, "w") as fh:
        fh.write("t,beta,beta_prime,Phi\n")
        fh.write(csv_lines(t, term.eval(t), term.deriv(t), term.primitive(t)))


# ---------------------------------------------------------------- strip neck


def neck_generator_s(t):
    """The strip neck's interface s = pi/2 + cosh t."""
    return math.pi / 2.0 + np.cosh(t)


def neck_mean_curvature(t):
    """Closed-form H of the strip neck (n = 2, positivity set at smaller s)."""
    return 1.0 / np.cosh(np.asarray(t, dtype=float)) ** 2


def neck_us_gradient(neck, s, t):
    """(d_s u_s, d_t u_s) of the strip neck inside its positivity set."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    inside = neck.level(s, t) > 0.0
    d2U = (1.0 + np.cosh(neck._invert(np.where(inside, t + 1j * s, 0.0)))) ** (-2)
    return np.where(inside, -np.real(d2U), 0.0), np.where(inside, -np.imag(d2U), 0.0)


def extract_graph_boundary(u: AxiField):
    """Locate the zero level set as a graph s*(t), the positive phase at smaller s.

    Returns (t, s*) arrays over the columns where {u > 0} meets the other
    phase exactly once along the s-line, from the one-sided slope inside.
    """
    ts, ss = [], []
    for j in range(len(u.t)):
        col = u.values[:, j]
        pos = col > 0.0
        changes = np.nonzero(pos[1:] != pos[:-1])[0]
        if len(changes) != 1 or changes[0] < 1:
            continue
        k = int(changes[0])
        slope = (col[k] - col[k - 1]) / u.hs
        if slope == 0.0:
            continue
        ts.append(u.t[j])
        ss.append(float(u.s[k] - col[k] / slope))
    if not ts:
        raise GeometryMismatchError("no graph-like crossing of the level set found")
    return np.array(ts), np.array(ss)


# ---------------------------------------------------------------- identities


def gradient_magnitude_identity(u: AxiField) -> AxiField:
    """Defect of (1/2) d_s |grad u|^2 = grad u . d_s grad u at interior nodes.

    Both sides are formed from centered differences; entries whose stencils
    do not fit are NaN.  The defect decays at second order for smooth fields.
    """
    v = u.values
    hs = u.hs
    gs, gt = _centered_gradient(u)

    g2 = gs * gs + gt * gt
    lhs = np.full_like(v, np.nan)
    lhs[1:-1, :] = (g2[2:, :] - g2[:-2, :]) / (4.0 * hs)  # half of the centered d_s

    dgs = np.full_like(v, np.nan)
    dgt = np.full_like(v, np.nan)
    dgs[1:-1, :] = (gs[2:, :] - gs[:-2, :]) / (2.0 * hs)
    dgt[1:-1, :] = (gt[2:, :] - gt[:-2, :]) / (2.0 * hs)
    rhs = gs * dgs + gt * dgt
    return u.with_values(lhs - rhs)


def us_equation_residual(u: AxiField, beta: ReactionTerm) -> AxiField:
    """Residual of the differentiated equation for c = u_s away from the axis.

    Checks Delta_h c - (n-2) c / s^2 - beta'(u)/2 c, defined where the
    stencil fits and s > 0; other entries are NaN.
    """
    c = us_derivative(u)
    lap = apply_axisym_laplacian(c).values
    out = np.full_like(u.values, np.nan)
    s = u.s
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(s[:, None] > 0.0, (u.n - 2) * c.values / s[:, None] ** 2, np.nan)
    out[1:-1, 1:-1] = (
        lap[1:-1, 1:-1] - term[1:-1, 1:-1] - 0.5 * np.asarray(beta.deriv(u.values[1:-1, 1:-1])) * c.values[1:-1, 1:-1]
    )
    return u.with_values(out)


# ---------------------------------------------------------------- log cutoff


@dataclass
class LogCutoff:
    field: AxiField
    grad_energy: float


def log_cutoff_2d(R: float, grid) -> LogCutoff:
    """Planar logarithmic cutoff: 1 inside radius 1, log-linear out to R.

    The companion value is the continuum Dirichlet energy of the cutoff,
    int |grad eta|^2 = int_1^R (1 / (r log R))^2 2 pi r dr = 2 pi / log R.
    """
    if R <= 1.0:
        raise InvalidParameterError("R must exceed 1")
    s, t = grid.axes()
    r = np.hypot(s[:, None], t[None, :])
    logR = math.log(R)
    vals = np.where(r < 1.0, 1.0, np.where(r < R, (logR - np.log(np.maximum(r, 1.0))) / logR, 0.0))
    f = AxiField(n=grid.n, s=s, t=t, values=vals)
    return LogCutoff(field=f, grad_energy=2.0 * math.pi / logR)
