"""Axisymmetric free boundaries: curvature, stability form, boundary identities.

A hypersurface of revolution generated by a curve in the (s, t) half-plane
has one profile curvature and n-2 equal rotational curvatures cos(angle)/s.
For a field that is harmonic in its positivity set with unit gradient on the
boundary, the normal flux of the radial derivative ties to the mean
curvature: grad(u_s) . nu = H u_s, which converts the surface stability form
int H xi^2 <= int |grad xi|^2 into the bulk inequality tested elsewhere.

Sign conventions used throughout: the stored normals ``nu`` point out of the
positivity set {u > 0}; the stored mean curvature H is taken with respect to
the opposite orientation, so that interfaces curving around the zero phase
(spheres, cylinders, necks enclosing it) have H > 0 and one-phase fields
satisfy u_nunu = -H.  With this pairing the identity reads exactly
grad(u_s) . nu = H u_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .axisym_field import AxiField, GridSpec, _cell_gradient_sq, _cell_measure, _centered_gradient, _unknown_mask
from .errors import (
    CurvatureSingularityError,
    GeometryMismatchError,
    InvalidParameterError,
    PreconditionViolationError,
)
from .numerics import LU_ORDER, LUCounts, csv_lines, stencil_matrix, unit_sphere_area
from .stability import _require_vanishing_border, us_derivative

_AXIS_TOL = 1e-9
# the interface trace of a nodal field is extrapolated from bilinear samples
# taken these multiples of max(hs, ht) inside the positivity set
_TRACE_OFFSETS = (2.5, 4.0)
# smallest arm fraction of a cut edge in the Shortley-Weller stencil
_THETA_FLOOR = 1e-9


@dataclass
class Generator:
    """Sampled generator curve of a surface of revolution, s = s(tau), t = t(tau).

    Exact derivative arrays may be supplied; otherwise second-order
    differences on the parameter are used.
    """

    tau: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ds: np.ndarray | None = None
    dt: np.ndarray | None = None
    dss: np.ndarray | None = None
    dtt: np.ndarray | None = None

    @classmethod
    def from_graph(cls, t_vals, s_vals, ds=None, dss=None) -> "Generator":
        t_vals = np.asarray(t_vals, dtype=float)
        s_vals = np.asarray(s_vals, dtype=float)
        return cls(
            tau=t_vals,
            s=s_vals,
            t=t_vals,
            ds=None if ds is None else np.asarray(ds, dtype=float),
            dt=np.ones_like(t_vals),
            dss=None if dss is None else np.asarray(dss, dtype=float),
            dtt=np.zeros_like(t_vals),
        )

    @classmethod
    def from_parametric(cls, tau, s_vals, t_vals, ds=None, dt=None, dss=None, dtt=None) -> "Generator":
        conv = lambda a: None if a is None else np.asarray(a, dtype=float)
        return cls(
            tau=np.asarray(tau, dtype=float),
            s=np.asarray(s_vals, dtype=float),
            t=np.asarray(t_vals, dtype=float),
            ds=conv(ds),
            dt=conv(dt),
            dss=conv(dss),
            dtt=conv(dtt),
        )

    def derivatives(self):
        ds = self.ds if self.ds is not None else np.gradient(self.s, self.tau, edge_order=2)
        dt = self.dt if self.dt is not None else np.gradient(self.t, self.tau, edge_order=2)
        dss = self.dss if self.dss is not None else np.gradient(ds, self.tau, edge_order=2)
        dtt = self.dtt if self.dtt is not None else np.gradient(dt, self.tau, edge_order=2)
        return ds, dt, dss, dtt


@dataclass
class RevolutionBoundary:
    """A revolution interface with normals, curvatures, and arclength weights.

    ``normals`` point out of the positivity set; ``mean_curv`` is the sum of
    principal curvatures signed as in the module docstring; ``curv_sq`` the
    sum of their squares; ``dl`` trapezoid arclength weights per sample.
    """

    generator: Generator
    n: int
    normals: np.ndarray  # (m, 2): (nu_s, nu_t)
    mean_curv: np.ndarray
    curv_sq: np.ndarray
    dl: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return self.generator.s

    @property
    def t(self) -> np.ndarray:
        return self.generator.t

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,s,H,nu_s,nu_t\n")
            fh.write(csv_lines(self.t, self.s, self.mean_curv, self.normals[:, 0], self.normals[:, 1]))


def curvature_of_revolution(gen: Generator, n: int, positive_side: str = "above") -> RevolutionBoundary:
    """Normals and principal curvatures of the revolved generator.

    ``positive_side`` locates the positivity set relative to the curve:
    "above"/"below" (graphs over t, larger/smaller s) or "left"/"right" of
    the direction of travel for parametric curves.  Axis touches are only
    admissible where the tangent is perpendicular to the axis (smooth poles,
    which are umbilic); anything else raises.
    """
    if n < 2:
        raise InvalidParameterError("ambient dimension must be >= 2")
    if positive_side not in ("above", "below", "left", "right"):
        raise InvalidParameterError("positive_side must be above/below/left/right")
    ds, dt, dss, dtt = gen.derivatives()
    speed_sq = ds * ds + dt * dt
    speed = np.sqrt(speed_sq)
    if np.any(speed == 0.0):
        raise InvalidParameterError("generator has a stationary sample")

    # normal pointing into the positivity set
    if positive_side in ("left", "below"):
        m_s, m_t = -dt / speed, ds / speed
    else:
        m_s, m_t = dt / speed, -ds / speed

    # curvature vector of the generator
    rdot = (ds * dss + dt * dtt) / speed_sq
    k_s = (dss - rdot * ds) / speed_sq
    k_t = (dtt - rdot * dt) / speed_sq
    kappa_prof = -(k_s * m_s + k_t * m_t)

    s = gen.s
    on_axis = np.abs(s) <= _AXIS_TOL
    if np.any(on_axis & (np.abs(m_s) > 1e-6)):
        raise CurvatureSingularityError("generator touches the axis with a nonvertical tangent")
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa_rot = np.where(on_axis, kappa_prof, m_s / np.where(on_axis, 1.0, s))

    mean_curv = kappa_prof + (n - 2) * kappa_rot
    curv_sq = kappa_prof**2 + (n - 2) * kappa_rot**2

    seg = np.hypot(np.diff(gen.s), np.diff(gen.t))
    dl = np.zeros_like(s)
    dl[:-1] += 0.5 * seg
    dl[1:] += 0.5 * seg

    normals = np.stack((-m_s, -m_t), axis=1)
    return RevolutionBoundary(
        generator=gen, n=n, normals=normals, mean_curv=mean_curv, curv_sq=curv_sq, dl=dl
    )


def surface_integral(boundary: RevolutionBoundary, values: np.ndarray) -> float:
    """Integral over the revolved interface with measure s^(n-2) |S^(n-2)| dl."""
    w = unit_sphere_area(boundary.n - 2) * boundary.s ** (boundary.n - 2)
    return float(np.sum(np.asarray(values) * w * boundary.dl))


def _positive_interior_mask(values: np.ndarray) -> np.ndarray:
    """Positive-phase nodes at least two cells from the zero phase and border."""
    pos = values > 0.0
    core = pos.copy()
    for _ in range(2):
        shrunk = core.copy()
        shrunk[1:, :] &= core[:-1, :]
        shrunk[:-1, :] &= core[1:, :]
        shrunk[:, 1:] &= core[:, :-1]
        shrunk[:, :-1] &= core[:, 1:]
        shrunk[0, :] = shrunk[-1, :] = False
        shrunk[:, 0] = shrunk[:, -1] = False
        core = shrunk
    return core


def _harmonic_residual(u: AxiField, mask: np.ndarray) -> float:
    """Sup of |Delta_h u| over the nodes of ``mask``."""
    from .axisym_field import apply_axisym_laplacian

    lap = apply_axisym_laplacian(u).values
    return float(np.nanmax(np.abs(np.where(mask, lap, 0.0))))


def _check_harmonic(u: AxiField) -> None:
    mask = _positive_interior_mask(u.values)
    if not mask.any():
        raise PreconditionViolationError("positivity set too thin to verify harmonicity")
    res = _harmonic_residual(u, mask)
    if res > 1e-6:
        raise PreconditionViolationError(f"field is not harmonic in its positivity set (residual {res:.3e})")


def _require_on_zero_level(u: AxiField, points: np.ndarray, h: float) -> None:
    """Reject interface ``points`` where u samples farther from 0 than one cell of slope."""
    if float(np.max(np.abs(u.sample(points)))) > 2.0 * h * (1.0 + float(np.max(np.abs(u.values)))):
        raise GeometryMismatchError("boundary does not track the zero level set within one cell")


def _inward_trace(f: AxiField, points: np.ndarray, inward: np.ndarray, h: float):
    """Interface value and inward slope of ``f`` at ``points``.

    Two bilinear samples taken ``_TRACE_OFFSETS`` times h along the unit
    directions ``inward`` are extrapolated back to the points (second order
    for the value, one-sided for the slope).  Nodal values in the two-cell
    band around the interface see the gradient jump of u, so the samples sit
    inside the clean zone.
    """
    d1, d2 = _TRACE_OFFSETS[0] * h, _TRACE_OFFSETS[1] * h
    f1 = f.sample(points + d1 * inward)
    f2 = f.sample(points + d2 * inward)
    return (d2 * f1 - d1 * f2) / (d2 - d1), (f2 - f1) / (d2 - d1)


@dataclass
class BoundaryIdentityReport:
    """Sampled check of grad(u_s) . nu = H u_s along the interface."""

    max_defect: float
    lhs: np.ndarray
    rhs: np.ndarray
    gradient_defect: float
    notes: tuple[str, ...] = ()


def normal_derivative_identity(boundary: RevolutionBoundary, u: AxiField) -> BoundaryIdentityReport:
    """Evaluate grad(u_s) . nu - H u_s along the interface by one-sided stencils.

    Values of u_s at the interface and its normal derivative are obtained
    from two bilinear samples taken 2.5 and 4 times max(hs, ht) into the
    positivity set and extrapolated to the boundary (second-order for the
    value, one-sided for the derivative, so the defect decays at first
    order).  Preconditions checked: u harmonic in {u > 0} (residual 1e-6),
    the interface on the zero level set within a cell, and |grad u| = 1 on
    it within 1e-2 (a deviation beyond 1e-3 is noted).
    """
    if boundary.n != u.n:
        raise InvalidParameterError("boundary and field dimensions differ")
    _check_harmonic(u)

    h = max(u.hs, u.ht)
    d1, d2 = _TRACE_OFFSETS[0] * h, _TRACE_OFFSETS[1] * h
    m = -boundary.normals  # into the positivity set
    p0 = np.stack((boundary.s, boundary.t), axis=1)
    p1 = p0 + d1 * m
    p2 = p0 + d2 * m

    inside = (
        (np.minimum(p1[:, 0], p2[:, 0]) >= u.s[0])
        & (np.maximum(p1[:, 0], p2[:, 0]) <= u.s[-1])
        & (np.minimum(p1[:, 1], p2[:, 1]) >= u.t[0])
        & (np.maximum(p1[:, 1], p2[:, 1]) <= u.t[-1])
    )
    if not inside.any():
        raise InvalidParameterError("no boundary sample has its stencil inside the grid")

    _require_on_zero_level(u, p0[inside], h)
    us0, dm = _inward_trace(us_derivative(u), p0[inside], m[inside], h)
    lhs = -dm  # grad(u_s) . nu with nu = -m
    rhs = boundary.mean_curv[inside] * us0

    # |grad u| = 1 on the interface, gauged with three inward samples so the
    # check's own extrapolation error stays below the curvature-driven signal
    gs, gt = (u.with_values(np.nan_to_num(g)) for g in _centered_gradient(u))
    d3 = d2 + 1.5 * h
    p3 = p0 + d3 * m
    mags = [np.hypot(gs.sample(p[inside]), gt.sample(p[inside])) for p in (p1, p2, p3)]
    w1 = d2 * d3 / ((d2 - d1) * (d3 - d1))
    w2 = d1 * d3 / ((d1 - d2) * (d3 - d2))
    w3 = d1 * d2 / ((d1 - d3) * (d2 - d3))
    g0 = w1 * mags[0] + w2 * mags[1] + w3 * mags[2]
    gradient_defect = float(np.max(np.abs(g0 - 1.0)))
    notes = []
    if gradient_defect > 1e-2:
        raise PreconditionViolationError(
            f"|grad u| deviates from 1 on the interface by {gradient_defect:.3e}"
        )
    if gradient_defect > 1e-3:
        notes.append("interface gradient within 1e-2 of unit but beyond 1e-3")

    defect = np.abs(lhs - rhs)
    return BoundaryIdentityReport(
        max_defect=float(np.max(defect)),
        lhs=lhs,
        rhs=rhs,
        gradient_defect=gradient_defect,
        notes=tuple(notes),
    )


@dataclass
class OnePhaseFormReport:
    """The two sides of the interface stability form int H xi^2 <= int |grad xi|^2."""

    lhs: float
    rhs: float

    @property
    def defect(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:
        return "unstable-direction-found" if self.lhs > self.rhs else "stable-on-grid"


def onephase_stability_form(
    boundary: RevolutionBoundary, u: AxiField, xi: AxiField
) -> OnePhaseFormReport:
    """Surface term int H xi^2 over the interface vs int |grad xi|^2 over {u > 0}.

    The bulk integral is the cell-midpoint rule restricted to cells whose
    center value is positive, weighted by the cylindrical measure; xi must
    vanish on the outer grid boundary.
    """
    if not u.same_grid(xi):
        raise InvalidParameterError("field and test function live on different grids")
    _require_vanishing_border(xi, 1e-12)
    _check_harmonic(u)

    pts = np.stack((boundary.s, boundary.t), axis=1)
    h = max(u.hs, u.ht)
    _require_on_zero_level(u, pts, h)
    xi_b, _ = _inward_trace(xi, pts, -boundary.normals, h)
    lhs = surface_integral(boundary, boundary.mean_curv * xi_b**2)

    # Bulk quadrature over cells at least two nodes inside the positivity set:
    # nodal values of xi built from centered stencils are contaminated in a
    # two-cell band around the interface (the gradient of u jumps across it),
    # so the band is dropped; its continuum contribution is O(h).
    core = _positive_interior_mask(u.values)
    if u.has_axis:
        core[0, 1:-1] = core[1, 1:-1]
    cell_ok = core[1:, 1:] & core[:-1, 1:] & core[1:, :-1] & core[:-1, :-1]
    rhs = float(np.sum(_cell_gradient_sq(xi) * cell_ok * _cell_measure(xi)))
    return OnePhaseFormReport(lhs=lhs, rhs=rhs)


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


def extract_graph_boundary(u: AxiField, positive_side: str = "above"):
    """Locate the zero level set as a graph s*(t) from one-sided slopes.

    Returns (t, s*) arrays over the columns where {u > 0} meets the other
    phase exactly once along the s-line.
    """
    if positive_side not in ("above", "below"):
        raise InvalidParameterError("positive_side must be above or below for graphs")
    ts, ss = [], []
    v = u.values
    for j in range(len(u.t)):
        col = v[:, j]
        pos = col > 0.0
        changes = np.nonzero(pos[1:] != pos[:-1])[0]
        if len(changes) != 1:
            continue
        i = int(changes[0])
        if positive_side == "above":
            # positive phase at larger s: first positive node is i+1
            k = i + 1
            if k + 1 >= len(col):
                continue
            slope = (col[k + 1] - col[k]) / u.hs
            if slope == 0.0:
                continue
            s_star = u.s[k] - col[k] / slope
        else:
            k = i
            if k - 1 < 0:
                continue
            slope = (col[k] - col[k - 1]) / u.hs
            if slope == 0.0:
                continue
            s_star = u.s[k] - col[k] / slope
        ts.append(u.t[j])
        ss.append(float(s_star))
    if not ts:
        raise GeometryMismatchError("no graph-like crossing of the level set found")
    return np.array(ts), np.array(ss)


@dataclass
class MaskedSolveResult:
    field: AxiField
    residual: float
    unknowns: int
    factors: LUCounts


def crossing_fractions(level_fn, s0, t0, s1, t1) -> np.ndarray:
    """Fractions along the edges (s0, t0) -> (s1, t1) where ``level_fn`` vanishes.

    Every edge starts in {level_fn > 0} and ends outside it.  All edges are
    bisected together: 60 steps, each one vectorized ``level_fn`` call on
    the edge midpoints.  Returns the midpoint of each final bracket, floored
    at 1e-9.
    """
    a = np.zeros(np.shape(s0))
    b = np.ones(np.shape(s0))
    for _ in range(60):
        mid = 0.5 * (a + b)
        inside = np.asarray(level_fn(s0 + mid * (s1 - s0), t0 + mid * (t1 - t0)), dtype=float) > 0.0
        a = np.where(inside, mid, a)
        b = np.where(inside, b, mid)
    return np.maximum(0.5 * (a + b), _THETA_FLOOR)


def _masked_system(grid: GridSpec, level_fn, boundary_fn):
    """Shortley-Weller system (A, rhs) on the unknown nodes of {level_fn > 0}.

    Also returns the grid values holding the border data (zero elsewhere),
    the unknown-node mask and the positivity mask.
    """
    s, t = grid.axes()
    hs, ht, n = grid.hs, grid.ht, grid.n
    S, T = np.meshgrid(s, t, indexing="ij")
    pos = np.asarray(level_fn(S, T), dtype=float) > 0.0

    # the axis is a symmetry line, not data
    border = ~_unknown_mask(pos.shape, grid.s_min == 0.0)
    g = np.zeros((grid.ns, grid.nt))
    fill = border & pos
    g[fill] = np.asarray(boundary_fn(S[fill], T[fill]), dtype=float)

    unknown = pos & ~border
    m = int(unknown.sum())
    if m == 0:
        raise InvalidParameterError("no unknown nodes inside the positivity set")
    i, j = np.nonzero(unknown)
    axis = i == 0  # row 0 holds unknowns only when it is the axis

    # the four arms (s-, s+, t-, t+) of every unknown node, one row each;
    # an arm is 1 cell long, or the bisected fraction where it leaves the set
    ii = i + np.array([-1, 1, 0, 0])[:, None]
    jj = j + np.array([0, 0, -1, 1])[:, None]
    has_arm = np.ones((4, m), dtype=bool)
    has_arm[0] = ~axis  # the axis reflects its s- arm onto s+
    cut = has_arm & ~pos[ii, jj]
    node = np.nonzero(cut)[1]
    th = np.ones((4, m))
    th[cut] = crossing_fractions(level_fn, s[i[node]], t[j[node]], s[ii[cut]], t[jj[cut]])
    th_m, th_p, tt_m, tt_p = th

    # radial: second and first derivatives on the same three irregular points;
    # on the axis the even reflection gives Delta = (n-1) u_ss + u_tt
    cm = 2.0 / (th_m * (th_m + th_p) * hs**2)
    cp = 2.0 / (th_p * (th_m + th_p) * hs**2)
    cc = -2.0 / (th_m * th_p * hs**2)
    dm = -th_p / (th_m * (th_m + th_p) * hs)
    dp = th_m / (th_p * (th_m + th_p) * hs)
    dc = (th_p - th_m) / (th_m * th_p * hs)
    fac = (n - 2) / np.where(axis, 1.0, s[i])  # not used on the axis
    c_axis = 2.0 * (n - 1) / (th_p**2 * hs**2)
    weights = np.stack(
        (
            cm + fac * dm,
            np.where(axis, c_axis, cp + fac * dp),
            2.0 / (tt_m * (tt_m + tt_p) * ht**2),
            2.0 / (tt_p * (tt_m + tt_p) * ht**2),
        )
    )
    diag = np.where(axis, -c_axis, cc + fac * dc) + -2.0 / (tt_m * tt_p * ht**2)

    A = stencil_matrix(unknown, diag, weights)
    rhs = np.zeros(m)
    to_data = has_arm & pos[ii, jj] & ~unknown[ii, jj]
    for term in np.where(to_data, weights * g[ii, jj], 0.0):  # arms in order s-, s+, t-, t+
        rhs -= term
    return A, rhs, g, unknown, pos


def solve_harmonic_masked(grid: GridSpec, level_fn, boundary_fn) -> MaskedSolveResult:
    """Dirichlet harmonic solve on {level_fn > 0} with the interface cut exactly.

    Nodes with level_fn <= 0 hold value 0; outer-box nodes in the positive
    phase take ``boundary_fn``, which is called once, on those border nodes
    only.  Edges crossing the interface use irregular (Shortley-Weller)
    stencils with the zero value placed at the crossing, preserving
    second-order boundary accuracy; the crossings of all cut edges are
    bisected in one batch (:func:`crossing_fractions`).  The reported
    residual is the standard-stencil defect on nodes away from the cut.
    """
    s, t = grid.axes()
    A, rhs, values, unknown, pos = _masked_system(grid, level_fn, boundary_fn)
    factors = LUCounts()
    values[unknown] = factors.record(splu(A.tocsc(), permc_spec=LU_ORDER)).solve(rhs)
    out = AxiField(n=grid.n, s=s, t=t, values=values)
    mask = _positive_interior_mask(pos)
    residual = _harmonic_residual(out, mask) if mask.any() else float("nan")
    return MaskedSolveResult(field=out, residual=residual, unknowns=A.shape[0], factors=factors)
