"""Closed forms and discrete identities that only the tests use.

No experiment of the lab calls these: they are oracles the tests hold the
package against (the strip neck's curvature and derivatives, the sphere
shell's radial slope, the squared principal curvatures of a revolution
boundary, the planar log-cutoff law, the gradient-magnitude identity, the
differentiated equation for u_s) and small tools that build test inputs or
read test outputs (a field sampled from a function, a reaction table on
disk, a profile's level crossing, a graph read off a solved field).
"""

import math
from dataclasses import dataclass

import numpy as np

from onephase_lab.axisym_field import AxiField, GridSpec, _centered_gradient, apply_axisym_laplacian
from onephase_lab.errors import GeometryMismatchError, InvalidParameterError
from onephase_lab.numerics import csv_lines
from onephase_lab.onephase_geometry import Generator, RevolutionBoundary
from onephase_lab.profile1d import Profile1D
from onephase_lab.reaction_terms import ReactionTerm
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import us_derivative


def from_function(grid: GridSpec, fn) -> AxiField:
    """The field of ``fn(s, t)`` at the nodes of ``grid``."""
    s, t = grid.axes()
    vals = np.broadcast_to(np.asarray(fn(s[:, None], t[None, :]), dtype=float), (grid.ns, grid.nt)).copy()
    return AxiField(n=grid.n, s=s, t=t, values=vals)


def save_reaction_csv(term: ReactionTerm, path, samples: int = 2001) -> None:
    """Write columns t, beta, beta_prime, Phi over [0, 1], or over the knot
    range of a tabulated term."""
    lo, hi = (term.knots[0], term.knots[-1]) if term.knots.size else (0.0, 1.0)
    t = np.linspace(lo, hi, samples)
    with open(path, "w") as fh:
        fh.write("t,beta,beta_prime,Phi\n")
        fh.write(csv_lines(t, term.eval(t), term.deriv(t), term.primitive(t)))


def crossing(profile: Profile1D, level: float) -> float:
    """Abscissa of the first upward crossing of ``level`` by ``profile``.

    The bracketing interval is the first one with
    ``us[k-1] < level <= us[k]``; the root is refined by bisection on the
    monotone cubic interpolant.
    """
    up = (profile.us[:-1] < level) & (profile.us[1:] >= level)
    if not up.any():
        raise InvalidParameterError(f"profile never crosses level {level} upward")
    idx = int(np.argmax(up)) + 1
    a, b = float(profile.xs[idx - 1]), float(profile.xs[idx])
    fa = float(profile.sample(a)) - level
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = float(profile.sample(mid)) - level
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------- strip neck


def neck_generator_s(t):
    """The strip neck's interface s = pi/2 + cosh t."""
    return math.pi / 2.0 + np.cosh(t)


def neck_mean_curvature(t):
    """Closed-form H of the strip neck (n = 2, positivity set at smaller s)."""
    return 1.0 / np.cosh(np.asarray(t, dtype=float)) ** 2


def neck_gradient(neck: StripNeckExact, s, t):
    """(u_s, u_t) of the strip neck inside its positivity set (zero outside)."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    inside = neck.level(s, t) > 0.0
    w = neck._invert(np.where(inside, t + 1j * s, 0.0))
    dU = np.sinh(w) / (1.0 + np.cosh(w))
    return np.where(inside, -np.imag(dU), 0.0), np.where(inside, np.real(dU), 0.0)


def neck_us_gradient(neck, s, t):
    """(d_s u_s, d_t u_s) of the strip neck inside its positivity set."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    inside = neck.level(s, t) > 0.0
    d2U = (1.0 + np.cosh(neck._invert(np.where(inside, t + 1j * s, 0.0)))) ** (-2)
    return np.where(inside, -np.real(d2U), 0.0), np.where(inside, -np.imag(d2U), 0.0)


# ---------------------------------------------------------------- sphere shell


def shell_du_of_r(shell: SphereShellExact, r):
    """Radial slope u'(r) = (r0 / r)^(n-1) of the sphere shell outside r0 (zero inside)."""
    r = np.asarray(r, dtype=float)
    rr = np.maximum(r, shell.r0)
    return np.where(r > shell.r0, shell.r0 ** (shell.n - 1) * rr ** (1 - shell.n), 0.0)


# ---------------------------------------------------------------- revolution boundaries


def graph_generator(t, s, ds, dss, outside: bool = False) -> Generator:
    """The generator of the graph s = s(t), with its exact derivatives ``ds``
    and ``dss`` in t.  It runs over increasing t, so the positivity set (left
    of travel) is the side of smaller s; with ``outside`` it runs over
    decreasing t (tau = -t, the same samples), the positivity set at larger s."""
    sign = -1.0 if outside else 1.0
    ones = np.ones_like(t)
    return Generator(s=s, t=t, ds=sign * ds, dt=sign * ones, dss=dss, dtt=0.0 * ones)


def curvature_sq(b: RevolutionBoundary) -> np.ndarray:
    """Sum |A|^2 of the squared principal curvatures of ``b`` off the axis.

    The n-2 rotational curvatures are each -nu_s / s (``nu`` points out of
    the positivity set); the profile curvature is what remains of ``mean_curv``.
    """
    kappa_rot = -b.normals[:, 0] / b.s
    kappa_prof = b.mean_curv - (b.n - 2) * kappa_rot
    return kappa_prof**2 + (b.n - 2) * kappa_rot**2


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
