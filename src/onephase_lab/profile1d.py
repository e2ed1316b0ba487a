"""One-dimensional transition profiles of u'' = beta(u)/2 and their taxonomy.

With a nonnegative reaction term supported on [0, 1] every non-constant
bounded-gradient solution is convex, affine wherever u >= 1 or u <= 0, and
falls into one of three cases by the slope ``a`` of its affine ramp:
a > 1 (two-sided linear growth with a^2 - b^2 = 1), a = 1 (monotone layer
decaying to 0 on the left), or a < 1 (even well with an interior minimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .axisym_field import AxiField
from .errors import (
    DomainTruncationError,
    InconclusiveClassificationError,
    InvalidParameterError,
    NonIntegrableTailError,
)
from .numerics import csv_lines, gl5_points, nonuniform_second_derivative
from .reaction_terms import ReactionTerm

CASE_CONSTANT = "constant"
CASE_I = "case_i"
CASE_II = "case_ii"
CASE_III = "case_iii"
CASE_I_REFLECTED = "case_i_reflected"
CASE_II_REFLECTED = "case_ii_reflected"

# |a - 1| below this is treated as the exactly-critical slope; the monotone
# layer is the unstable boundary between the two open cases
CASE_II_SLOPE_TOL = 1e-8


@dataclass
class Profile1D:
    """A sampled solution of u'' = beta(u)/2 on an interval: abscissae ``xs``,
    values ``us`` and slopes ``dus``.  Its case, slopes, turning point and
    minimum come from :func:`classify`."""

    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray

    def sample(self, x):
        """Evaluate at arbitrary points; affine continuation beyond the ends."""
        x = np.asarray(x, dtype=float)
        interp = PchipInterpolator(self.xs, self.us, extrapolate=False)
        v = interp(np.clip(x, self.xs[0], self.xs[-1]))
        v = np.where(x < self.xs[0], self.us[0] + self.dus[0] * (x - self.xs[0]), v)
        v = np.where(x > self.xs[-1], self.us[-1] + self.dus[-1] * (x - self.xs[-1]), v)
        return v

    def crossing(self, level: float) -> float:
        """Abscissa of the first upward crossing of ``level``.

        The bracketing interval is found on the samples and the root refined
        by bisection on the monotone cubic interpolant.
        """
        above = self.us >= level
        if above.all() or (~above).all():
            raise InvalidParameterError(f"profile never crosses level {level}")
        idx = int(np.argmax(above)) if not above[0] else int(np.argmax(~above))
        lo = max(idx - 3, 0)
        hi = min(idx + 3, len(self.xs))
        interp = PchipInterpolator(self.xs[lo:hi], self.us[lo:hi])
        a, b = float(self.xs[idx - 1]), float(self.xs[idx])
        fa = float(interp(a)) - level
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = float(interp(mid)) - level
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)


@dataclass(frozen=True)
class ClassificationReport:
    """``slope_plus`` is the asymptotic slope of the growing ramp, ``slope_minus``
    the magnitude of the opposite tail's slope, ``turning_point`` the abscissa
    where u' changes sign (+-inf for monotone profiles) and ``min_value`` the
    profile value there when finite."""

    case_tag: str
    slope_plus: float
    slope_minus: float
    turning_point: float
    min_value: float | None
    defect: float | None


def shoot(
    beta: ReactionTerm,
    a: float,
    domain_halfwidth: float,
    step: float,
    reflect: bool = False,
) -> Profile1D:
    """Integrate u'' = beta(u)/2 from the anchor u(1) = 1, u'(1) = a.

    Classical fourth-order Runge-Kutta with fixed step, run backward and
    forward from the anchor over [1 - H, 1 + H].  With ``reflect`` the mirror
    solution through the anchor is produced by integrating with the opposite
    slope sign; the result is the exact bitwise mirror of the direct run.
    """
    if a <= 0.0:
        raise InvalidParameterError("anchor slope a must be positive")
    if step <= 0.0 or domain_halfwidth <= 0.0:
        raise InvalidParameterError("step and domain_halfwidth must be positive")
    probe = np.linspace(0.0, 1.0, 513)
    sup_dbeta = float(np.max(np.abs(beta.deriv(probe))))
    if step * sup_dbeta >= 1.0:
        raise InvalidParameterError("step too large for this reaction term")

    f = beta.eval
    n_steps = max(1, int(round(domain_halfwidth / step)))
    h = domain_halfwidth / n_steps

    def integrate(sign: float, u0: float, w0: float):
        us = np.empty(n_steps + 1)
        ws = np.empty(n_steps + 1)
        us[0], ws[0] = u0, w0
        u, w = u0, w0
        hh = sign * h
        for k in range(n_steps):
            k1u = w
            k1w = 0.5 * float(f(u))
            k2u = w + 0.5 * hh * k1w
            k2w = 0.5 * float(f(u + 0.5 * hh * k1u))
            k3u = w + 0.5 * hh * k2w
            k3w = 0.5 * float(f(u + 0.5 * hh * k2u))
            k4u = w + hh * k3w
            k4w = 0.5 * float(f(u + hh * k3u))
            u = u + hh * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
            w = w + hh * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
            if abs(u) > 1e12:
                raise DomainTruncationError("profile left the representable range")
            us[k + 1], ws[k + 1] = u, w
        return us, ws

    w_anchor = -a if reflect else a
    us_f, ws_f = integrate(1.0, 1.0, w_anchor)
    us_b, ws_b = integrate(-1.0, 1.0, w_anchor)

    xs = np.concatenate((1.0 - h * np.arange(n_steps, 0, -1), 1.0 + h * np.arange(n_steps + 1)))
    us = np.concatenate((us_b[::-1][:-1], us_f))
    dus = np.concatenate((ws_b[::-1][:-1], ws_f))

    return Profile1D(xs=xs, us=us, dus=dus)


def mirror(profile: Profile1D, about: float = 1.0) -> Profile1D:
    """The reflection x -> 2*about - x of a profile."""
    return Profile1D(
        xs=(2.0 * about - profile.xs)[::-1].copy(),
        us=profile.us[::-1].copy(),
        dus=(-profile.dus)[::-1].copy(),
    )


def _tail_slope(xs, us):
    """Secant slope over a tail window plus its deviation from affinity."""
    x0, x1 = xs[0], xs[-1]
    u0, u1 = us[0], us[-1]
    slope = (u1 - u0) / (x1 - x0)
    line = u0 + slope * (xs - x0)
    dev = float(np.max(np.abs(us - line)))
    return float(slope), dev


def classify(
    profile: Profile1D,
    beta: ReactionTerm | None = None,
    tol: float = 1e-6,
) -> ClassificationReport:
    """Assign a case tag and extract slopes, turning point and minimum.

    Slopes are measured over the outer 10% of the sampled domain, which must
    be affine within ``tol`` (otherwise the domain was too small and the
    classification is inconclusive).  The defect reported is |a^2 - b^2 - 1|
    for two-sided ramps and |a^2 - (Phi(1) - Phi(y0))| for wells (the latter
    needs ``beta``).
    """
    xs, us = profile.xs, profile.us
    if np.ptp(us) <= tol:
        return ClassificationReport(CASE_CONSTANT, 0.0, 0.0, math.nan, None, None)

    k = max(3, len(xs) // 10)
    right_slope, right_dev = _tail_slope(xs[-k:], us[-k:])
    left_slope, left_dev = _tail_slope(xs[:k], us[:k])
    scale = 1.0 + max(abs(right_slope), abs(left_slope))

    def require_affine(dev, side):
        if dev > tol * scale:
            raise InconclusiveClassificationError(
                f"{side} tail not affine within {tol:g} (deviation {dev:.3e}); domain too small"
            )

    imin = int(np.argmin(us))
    interior_min = k // 2 < imin < len(us) - 1 - k // 2

    if interior_min and right_slope > tol and left_slope < -tol:
        require_affine(right_dev, "right")
        require_affine(left_dev, "left")
        # well: refine the turning point through the slope's zero crossing
        dus = profile.dus
        j = imin if dus[imin] <= 0.0 else imin - 1
        p = xs[j] - dus[j] * (xs[j + 1] - xs[j]) / (dus[j + 1] - dus[j])
        y0 = float(PchipInterpolator(xs, us)(p))
        a = right_slope
        defect = None
        if beta is not None:
            gap = float(beta.primitive(1.0) - beta.primitive(y0))
            defect = abs(a * a - gap)
        return ClassificationReport(CASE_III, a, abs(left_slope), float(p), y0, defect)

    if us[-1] >= us[0]:
        # ramp on the right; its affine window defines a
        require_affine(right_dev, "right")
        a = right_slope
        if abs(a - 1.0) <= CASE_II_SLOPE_TOL:
            # the opposite tail decays to 0 only algebraically: not checked for affinity
            return ClassificationReport(CASE_II, a, 0.0, -math.inf, None, abs(a - 1.0))
        if a > 1.0:
            require_affine(left_dev, "left")
            b = left_slope
            return ClassificationReport(CASE_I, a, b, -math.inf, None, abs(a * a - b * b - 1.0))
        raise InconclusiveClassificationError(
            "monotone profile with ramp slope < 1: domain missed the turning point"
        )

    require_affine(left_dev, "left")
    a = -left_slope
    if abs(a - 1.0) <= CASE_II_SLOPE_TOL:
        return ClassificationReport(CASE_II_REFLECTED, a, 0.0, math.inf, None, abs(a - 1.0))
    if a > 1.0:
        require_affine(right_dev, "right")
        b = -right_slope
        return ClassificationReport(CASE_I_REFLECTED, a, b, math.inf, None, abs(a * a - b * b - 1.0))
    raise InconclusiveClassificationError(
        "monotone profile with ramp slope < 1: domain missed the turning point"
    )


def unique_increasing_profile(
    beta: ReactionTerm,
    u_lo: float = 1e-4,
    u_hi: float = 1.5,
    n_samples: int = 20001,
) -> Profile1D:
    """The monotone layer profile via quadrature of the first integral.

    Along any solution decaying to 0 on the left, u'^2 = Phi(u), so the
    inverse function obeys x(u) = 1 + int_1^u dv/sqrt(Phi(v)) once anchored
    at u(1) = 1.  Values are sampled geometrically near 0 (where the
    integrand follows a power law) and uniformly above; above u = 1 the
    profile is exactly affine with slope 1.  Serves as the independent check
    for the shooting integrator.
    """
    if not (0.0 < u_lo < 1.0) or u_hi < 1.0:
        raise InvalidParameterError("need 0 < u_lo < 1 <= u_hi")
    phi = beta.primitive
    if float(phi(u_lo)) <= 0.0:
        raise NonIntegrableTailError("primitive vanishes at u_lo; tail quadrature diverges")

    n_low = max(16, int(0.4 * n_samples))
    n_mid = max(16, int(0.4 * n_samples))
    n_top = max(8, n_samples - n_low - n_mid)
    u_knee = 0.5 if u_lo < 0.5 else math.sqrt(u_lo)
    lows = np.geomspace(u_lo, u_knee, n_low, endpoint=False)
    mids = np.linspace(u_knee, 1.0, n_mid + 1)
    us = np.concatenate((lows, mids))
    dphi = np.diff(phi(us))
    if np.any(dphi <= 0.0):
        raise NonIntegrableTailError("primitive is not strictly increasing below 1")

    # per-interval Gauss-Legendre of 1/sqrt(Phi) below the anchor value
    nodes, weights = gl5_points(us)
    contrib = weights / np.sqrt(phi(nodes))
    seg = np.add.reduceat(contrib, np.arange(0, len(contrib), 5))
    x_below = np.concatenate(([0.0], np.cumsum(seg)))
    x_below += 1.0 - x_below[-1]

    tops = np.linspace(1.0, u_hi, n_top + 1)[1:]
    xs = np.concatenate((x_below, tops))
    us = np.concatenate((us, tops))
    dus = np.sqrt(np.clip(phi(us), 0.0, None))

    return Profile1D(xs=xs, us=us, dus=dus)


def extend_to_nd(profile: Profile1D, direction, grid) -> AxiField:
    """Embed a 1D profile as a planar wave u(x) = profile(d . x) on a grid.

    ``direction`` is a 2-vector (d_s, d_t) in the half-plane; (0, 1) gives
    the axial embedding whose field depends on t only.
    """
    d = np.asarray(direction, dtype=float)
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0.0:
        raise InvalidParameterError("direction must be nonzero")
    d = d / norm
    s, t = grid.axes()
    arg = d[0] * s[:, None] + d[1] * t[None, :]
    return AxiField(n=grid.n, s=s, t=t, values=profile.sample(arg))


def first_integral_spread(profile: Profile1D, beta: ReactionTerm) -> float:
    """Peak-to-peak variation of u'^2 - Phi(u), which is conserved exactly."""
    c = profile.dus**2 - beta.primitive(profile.us)
    return float(np.ptp(c))


def convexity_defect(profile: Profile1D) -> float:
    """Most negative divided second difference (0 for a convex profile)."""
    d2 = nonuniform_second_derivative(profile.xs, profile.us)[1:-1]
    return float(max(0.0, -np.min(d2)))


def save_profile_csv(profile: Profile1D, path) -> None:
    """Write columns x, u, du."""
    with open(path, "w") as fh:
        fh.write("x,u,du\n")
        fh.write(csv_lines(profile.xs, profile.us, profile.dus))


def save_profile_dat(profile: Profile1D, path) -> None:
    """Write plot-ready two-column (x, u) data."""
    with open(path, "w") as fh:
        for x, u in zip(profile.xs, profile.us):
            fh.write(f"{x:.17g} {u:.17g}\n")
