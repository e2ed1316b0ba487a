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
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import axisym_field
from .axisym_field import (
    AxiField,
    GridSpec,
    _cell_gradient_sq,
    _centered_gradient,
    _fold_map,
    _unknown_mask,
    grid_weights,
)
from .errors import (
    CurvatureSingularityError,
    GeometryMismatchError,
    InvalidParameterError,
    NonconvergenceError,
    PreconditionViolationError,
)
from .numerics import LU_OPTIONS, LUCounts, csv_lines, stencil_matrix, unit_sphere_area
from .stability import InequalityReport, _require_vanishing_border, us_derivative

_AXIS_TOL = 1e-9
# the inward distances, in multiples of max(hs, ht), at which the interface
# layer reads every field: the interface, then three samples clear of the
# two-cell band where nodal values see the gradient jump of u
_RAY = (0.0, 2.5, 4.0, 5.5)
# smallest arm fraction of a cut edge in the Shortley-Weller stencil
_THETA_FLOOR = 1e-9
# componentwise backward error the refined masked solve must reach: the
# rounding of the 5-point residual b - A x itself (five products and b summed)
_REFINE_FLOOR = 6.0 * np.finfo(float).eps
_REFINE_STEPS = 10


@dataclass
class Generator:
    """Sampled generator curve of a surface of revolution, s = s(tau), t = t(tau),
    with the exact first and second derivatives of both coordinates in tau."""

    s: np.ndarray
    t: np.ndarray
    ds: np.ndarray
    dt: np.ndarray
    dss: np.ndarray
    dtt: np.ndarray


@dataclass
class RevolutionBoundary:
    """A revolution interface with normals, curvatures, and arclength weights.

    ``normals`` point out of the positivity set; ``mean_curv`` is the sum of
    principal curvatures signed as in the module docstring; ``dl`` trapezoid
    arclength weights per sample.
    """

    generator: Generator
    n: int
    normals: np.ndarray  # (m, 2): (nu_s, nu_t)
    mean_curv: np.ndarray
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


def curvature_of_revolution(gen: Generator, n: int) -> RevolutionBoundary:
    """Normals and principal curvatures of the revolved generator.

    The positivity set lies left of the direction of travel: for a graph
    over increasing t, on the side of smaller s.  Axis touches are only
    admissible where the tangent is perpendicular to the axis (smooth poles,
    which are umbilic); anything else raises.
    """
    if n < 2:
        raise InvalidParameterError("ambient dimension must be >= 2")
    ds, dt, dss, dtt = gen.ds, gen.dt, gen.dss, gen.dtt
    speed_sq = ds * ds + dt * dt
    speed = np.sqrt(speed_sq)
    if np.any(speed == 0.0):
        raise InvalidParameterError("generator has a stationary sample")

    # normal pointing into the positivity set
    m_s, m_t = -dt / speed, ds / speed

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

    seg = np.hypot(np.diff(gen.s), np.diff(gen.t))
    dl = np.zeros_like(s)
    dl[:-1] += 0.5 * seg
    dl[1:] += 0.5 * seg

    normals = np.stack((-m_s, -m_t), axis=1)
    return RevolutionBoundary(generator=gen, n=n, normals=normals, mean_curv=mean_curv, dl=dl)


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
    """Sup of |Delta_h u| over the nodes of ``mask``, all off the border."""
    lap = axisym_field.apply_axisym_laplacian(u).values
    return float(np.max(np.abs(np.where(mask, lap, 0.0))))


def _check_harmonic(u: AxiField) -> np.ndarray:
    """Reject u unless it is finite and harmonic on its positive interior; return that mask."""
    if not np.all(np.isfinite(u.values)):
        raise InvalidParameterError("field must be finite")
    mask = _positive_interior_mask(u.values)
    if not mask.any():
        raise PreconditionViolationError("positivity set too thin to verify harmonicity")
    res = _harmonic_residual(u, mask)
    if res > 1e-6:
        raise PreconditionViolationError(f"field is not harmonic in its positivity set (residual {res:.3e})")
    return mask


def _ray(f: AxiField, points: np.ndarray, inward: np.ndarray, h: float) -> np.ndarray:
    """Bilinear samples of ``f`` at ``points + d h inward``, one row per d of
    ``_RAY``: NaN off the grid, or where a cell has a NaN corner
    (``AxiField.sample``)."""
    return f.sample(points + np.multiply.outer(np.multiply(_RAY, h), inward))


def _trace(ray: np.ndarray, h: float):
    """Interface value and inward slope extrapolated from a ray's 2.5h and 4h
    samples (second order for the value, one-sided for the slope)."""
    _, d1, d2, _ = np.multiply(_RAY, h)
    return (d2 * ray[1] - d1 * ray[2]) / (d2 - d1), (ray[2] - ray[1]) / (d2 - d1)


def _require_on_zero_level(u: AxiField, at_interface: np.ndarray, h: float) -> None:
    """Reject interface samples where u reads farther from 0 than one cell of slope."""
    if float(np.max(np.abs(at_interface))) > 2.0 * h * (1.0 + float(np.max(np.abs(u.values)))):
        raise GeometryMismatchError("boundary does not track the zero level set within one cell")


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

    Each interface sample is read along its inward ray at 0, 2.5, 4 and 5.5
    times h = max(hs, ht): u at 0, u_s at 2.5h and 4h, extrapolated to the
    interface (second order for the value, one-sided for the derivative, so
    the defect decays at first order), and the centered |grad u| at the
    three inner points.  A read off the grid, or in a cell touching the
    border ring where the centered gradient is undefined, is NaN; only
    samples whose reads are all finite are kept.  Preconditions checked: u
    harmonic in {u > 0} (residual 1e-6), the interface on the zero level set
    within a cell, and |grad u| = 1 on it within 1e-2 (a deviation beyond
    1e-3 is noted).
    """
    if boundary.n != u.n:
        raise InvalidParameterError("boundary and field dimensions differ")
    _check_harmonic(u)

    h = max(u.hs, u.ht)
    m = -boundary.normals  # into the positivity set
    p0 = np.stack((boundary.s, boundary.t), axis=1)
    u0 = _ray(u, p0, m, h)[0]
    us = _ray(us_derivative(u), p0, m, h)
    mags = np.hypot(*(_ray(u.with_values(g), p0, m, h) for g in _centered_gradient(u)))
    keep = np.isfinite(np.vstack((u0, us[1:3], mags[1:]))).all(axis=0)
    if not keep.any():
        raise InvalidParameterError("no boundary sample reads finite values on the grid")

    _require_on_zero_level(u, u0[keep], h)
    us0, dm = _trace(us[:, keep], h)
    lhs = -dm  # grad(u_s) . nu with nu = -m
    rhs = boundary.mean_curv[keep] * us0

    # |grad u| = 1 on the interface, extrapolated from all three inward
    # samples so the check's own error stays below the curvature-driven signal
    _, d1, d2, d3 = np.multiply(_RAY, h)
    w1 = d2 * d3 / ((d2 - d1) * (d3 - d1))
    w2 = d1 * d3 / ((d1 - d2) * (d3 - d2))
    w3 = d1 * d2 / ((d1 - d3) * (d2 - d3))
    g0 = w1 * mags[1, keep] + w2 * mags[2, keep] + w3 * mags[3, keep]
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


def onephase_stability_form(
    boundary: RevolutionBoundary, u: AxiField, xi: AxiField
) -> InequalityReport:
    """Surface term int H xi^2 over the interface vs int |grad xi|^2 over {u > 0}.

    The bulk integral is the cell-midpoint rule restricted to cells whose
    center value is positive, weighted by the cylindrical measure; xi must
    vanish on the outer grid boundary.  Along each interface sample's inward
    ray u is read at 0 and xi at 2.5 and 4 times h = max(hs, ht), its trace
    extrapolated as in :func:`normal_derivative_identity`; a read off the
    grid is NaN, and every read must be finite (an integral cannot drop
    samples).
    """
    if boundary.n != u.n:
        raise InvalidParameterError("boundary and field dimensions differ")
    if not u.same_grid(xi):
        raise InvalidParameterError("field and test function live on different grids")
    _require_vanishing_border(xi)
    core = _check_harmonic(u)

    pts = np.stack((boundary.s, boundary.t), axis=1)
    h = max(u.hs, u.ht)
    inward = -boundary.normals
    u0 = _ray(u, pts, inward, h)[0]
    xi_ray = _ray(xi, pts, inward, h)
    finite = np.isfinite(np.vstack((u0, xi_ray[1:3]))).all(axis=0)
    if not finite.all():
        raise InvalidParameterError(
            f"{np.count_nonzero(~finite)} interface samples have their trace stencil off the grid"
        )
    _require_on_zero_level(u, u0, h)
    xi_b, _ = _trace(xi_ray, h)
    lhs = surface_integral(boundary, boundary.mean_curv * xi_b**2)

    # Bulk quadrature over cells at least two nodes inside the positivity set:
    # nodal values of xi built from centered stencils are contaminated in a
    # two-cell band around the interface (the gradient of u jumps across it),
    # so the band is dropped; its continuum contribution is O(h).  ``core``
    # is the positive interior mask the harmonic check read.
    if u.has_axis:
        core[0, 1:-1] = core[1, 1:-1]
    cell_ok = core[1:, 1:] & core[:-1, 1:] & core[1:, :-1] & core[:-1, :-1]
    rhs = float(np.sum(_cell_gradient_sq(xi) * cell_ok * grid_weights(xi, "cell")))
    return InequalityReport(lhs=lhs, rhs=rhs)


@dataclass
class MaskedSolveResult:
    field: AxiField
    residual: float
    unknowns: int
    factors: LUCounts
    cut_edges: int


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
    """Shortley-Weller stencil (diag, arms) and rhs on the unknown nodes of {level_fn > 0}.

    ``diag`` holds each unknown's diagonal and ``arms`` (4, m) its arm
    weights (s-, s+, t-, t+), from which ``stencil_matrix(unknown, diag,
    arms)`` builds A.  Also returns the grid values holding the border data
    (zero elsewhere), the unknown-node mask, the positivity mask and the
    number of cut arms, those :func:`crossing_fractions` bisects.  The arms
    are gathered one at a time; one (4, m) buffer holds their fractions,
    then their weights.
    """
    s, t = grid.axes()
    nt = grid.nt
    S, T = np.meshgrid(s, t, indexing="ij")
    pos = np.asarray(level_fn(S, T), dtype=float) > 0.0

    # the axis is a symmetry line, not data
    border = ~_unknown_mask(pos.shape, grid.s_min == 0.0)
    g = np.zeros((grid.ns, nt))
    fill = border & pos
    g[fill] = np.asarray(boundary_fn(S[fill], T[fill]), dtype=float)
    del S, T

    unknown = pos & ~border
    flat = np.flatnonzero(unknown)
    m = len(flat)
    if m == 0:
        raise InvalidParameterError("no unknown nodes inside the positivity set")
    axis = flat < nt  # row 0 holds unknowns only when it is the axis

    # each arm is 1 cell long, or the bisected fraction where it leaves the
    # set; an arm that reaches border data moves it to rhs.  The axis
    # reflects its s- arm onto s+ (its flat s- index wraps)
    offsets = (-nt, nt, -1, 1)
    has_arm = (~axis, True, True, True)
    cut, to_data = [], []
    for k, offset in enumerate(offsets):
        near = flat + offset
        cut.append(k * m + np.flatnonzero(has_arm[k] & ~pos.ravel()[near]))
        to_data.append(np.flatnonzero(has_arm[k] & fill.ravel()[near]))
    cut = np.concatenate(cut)
    arm, node = np.divmod(cut, m)
    di, dj = np.array([-1, 1, 0, 0]), np.array([0, 0, -1, 1])
    th = np.ones((4, m))
    i, j = np.divmod(flat[node], nt)
    th.ravel()[cut] = crossing_fractions(level_fn, s[i], t[j], s[i + di[arm]], t[j + dj[arm]])
    diag = _shortley_weller(th, axis, s[flat // nt], grid)

    rhs = np.zeros(m)
    for k, at in enumerate(to_data):  # arms in order s-, s+, t-, t+
        rhs[at] -= th[k, at] * g.ravel()[flat[at] + offsets[k]]
    return diag, th, rhs, g, unknown, pos, len(cut)


def _shortley_weller(th: np.ndarray, axis: np.ndarray, s_node: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Overwrite the arm fractions ``th`` (rows s-, s+, t-, t+) of nodes at
    radii ``s_node`` with their Laplacian weights; return the diagonal."""
    hs, ht, n = grid.hs, grid.ht, grid.n
    th_m, th_p, tt_m, tt_p = th
    # radial: second and first derivatives on the same three irregular points;
    # on the axis the even reflection gives Delta = (n-1) u_ss + u_tt
    fac = (n - 2) / np.where(axis, 1.0, s_node)  # not used on the axis
    c_axis = 2.0 * (n - 1) / (th_p**2 * hs**2)
    diag = np.where(axis, -c_axis, -2.0 / (th_m * th_p * hs**2) + fac * ((th_p - th_m) / (th_m * th_p * hs)))
    diag += -2.0 / (tt_m * tt_p * ht**2)
    span = th_m + th_p
    s_m = 2.0 / (th_m * span * hs**2) + fac * (-th_p / (th_m * span * hs))
    th[1] = np.where(axis, c_axis, 2.0 / (th_p * span * hs**2) + fac * (th_m / (th_p * span * hs)))
    th[0] = s_m
    span = tt_m + tt_p
    t_m = 2.0 / (tt_m * span * ht**2)
    th[3] = 2.0 / (tt_p * span * ht**2)
    th[2] = t_m
    return diag


def _schur_complement(A, red: np.ndarray):
    """The black Schur complement S = D_b - A_br D_r^-1 A_rb of ``A``.

    ``red`` flags unknowns no two of which ``A`` (sparse) couples, and the
    rest, the black ones, must not couple either: both diagonal blocks D_r
    and D_b are diagonal, as they are for a 5-point stencil coloured like a
    checkerboard, so eliminating the red unknowns is one exact step of
    cyclic reduction.  S is numbered like the black unknowns in ``A``.
    """
    black = ~red
    rows = A[black]
    return rows[:, black] - rows[:, red] @ sp.diags(1.0 / A.diagonal()[red]) @ A[red][:, black]


def _mirror_fold(unknown: np.ndarray, diag: np.ndarray, arms: np.ndarray, b: np.ndarray):
    """Kept unknowns and fold map of the masked system's mirror t -> -t.

    The mirror P sends the unknown in grid column j to the one in column
    nt - 1 - j.  The test is made on the coefficients A is built from: when
    ``unknown`` maps onto itself, ``diag`` and the s- and s+ rows of
    ``arms`` are invariant under P, P swaps the t- and t+ rows, and P b == b,
    then ``stencil_matrix``, which writes each of them into A entry by
    entry, gives P A P^T == A bit for bit, and the solution is even.  Then
    ``kept`` lists the unknowns with j >= nt - 1 - j (t >= 0), in order;
    ``fold[k]`` is the position in ``kept`` of unknown k or, if k is not
    kept, of its mirror partner, so x = x_h[fold] unfolds a solution on the
    kept half and ``stencil_matrix(unknown, diag[kept], arms[:, kept],
    (kept, fold))`` is R A E.  Otherwise both are the identity.
    """
    identity = np.arange(len(b))
    if not np.array_equal(unknown[:, ::-1], unknown):
        return identity, identity
    number = np.full(unknown.shape, -1)
    number[unknown] = identity
    mirror = number[:, ::-1][unknown]
    s_m, s_p, t_m, t_p = arms
    pairs = ((diag, diag), (s_m, s_m), (s_p, s_p), (t_m, t_p), (b, b))
    if not all(np.array_equal(v[mirror], w) for v, w in pairs):
        return identity, identity
    return _fold_map(2 * np.nonzero(unknown)[1] >= unknown.shape[1] - 1, mirror)


def _unfold_system(diag: np.ndarray, arms: np.ndarray, b: np.ndarray, kept: np.ndarray, fold: np.ndarray):
    """The whole system's (diag, arms, b) from those of its ``kept`` unknowns.

    Under the mirror test of :func:`_mirror_fold` an unknown that is not
    kept has its partner's diagonal, s arms and b, and its partner's t- and
    t+ arms swapped, so each is gathered through ``fold`` bit for bit.
    """
    half = len(kept)
    # the kept t- arms, then the t+ arms: an unknown not kept reads each one
    # half along, which swaps them
    t_arms = arms[2:].ravel()
    shift = np.full(len(fold), half)
    shift[kept] = 0
    arms = np.stack((arms[0][fold], arms[1][fold], t_arms[fold + shift], t_arms[fold + (half - shift)]))
    return diag[fold], arms, b[fold]


def _magnitudes(A):
    """|A| on A's own index arrays.  scipy's ``abs(A)`` first sums A's
    duplicate entries in place, which would merge the mirror pairs that
    the folded system keeps apart."""
    return sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _residual(A, abs_a, x: np.ndarray, b: np.ndarray):
    """r = b - A x and the componentwise backward error of x,
    omega = max_i |r_i| / (|A||x| + |b|)_i; ``abs_a`` is |A|."""
    r = b - A @ x
    bound = abs_a @ np.abs(x) + np.abs(b)  # |r_i| <= bound_i, so 0 / 0 rows count as 0
    return r, float(np.max(np.abs(r) / np.where(bound > 0.0, bound, 1.0)))


def _refined_solve(A, b: np.ndarray, red: np.ndarray, factors: LUCounts) -> np.ndarray:
    """Solve A x = b by eliminating the unknowns ``red``, from one
    single-precision factor refined in double precision.

    The black Schur complement S of ``A`` (float64, sparse; see
    :func:`_schur_complement`) is cast to float32 and factored once.  Each
    step adds to x the exact block elimination of the float64 residual
    r = b - A x: d_b = S^-1 (r_b - A_br D_r^-1 r_r) from the float32 factor,
    then d_r = D_r^-1 (r_r - A_rb d_b) in float64.  It stops when the
    componentwise backward error of the whole system,
    omega = max_i |r_i| / (|A||x| + |b|)_i, is at most ``_REFINE_FLOOR``.
    A step that fails to halve omega above the floor, or ``_REFINE_STEPS``
    steps, raises NonconvergenceError.  The factor of S, the steps and the
    final omega are recorded in ``factors``.
    """
    lu = factors.record(splu(_schur_complement(A, red).astype(np.float32).tocsc(), **LU_OPTIONS))
    at_red, at_black = np.flatnonzero(red), np.flatnonzero(~red)  # index arrays gather faster than masks
    inv_r = 1.0 / A.diagonal()[at_red]
    abs_a = _magnitudes(A)
    x = np.zeros_like(b)
    r = b
    omega = float(np.any(b != 0.0))  # the backward error of x = 0
    trace = [omega]
    while omega > _REFINE_FLOOR:
        if len(trace) > _REFINE_STEPS or (len(trace) > 1 and omega > 0.5 * trace[-2]):
            raise NonconvergenceError(
                f"iterative refinement of the float32 factor missed its floor after {len(trace) - 1} steps "
                f"(backward error {omega:.3e}, floor {_REFINE_FLOOR:.3e})",
                last=x,
                trace=trace,
            )
        # A times a vector held on one colour is, on the other colour, the
        # coupling block times it, so A_br and A_rb need no copies of their own
        e = np.zeros_like(x)
        e[at_red] = inv_r * r[at_red]
        c = (r - A @ e)[at_black]  # r_b - A_br D_r^-1 r_r
        # scaled to unit size, the float32 right side stays clear of underflow
        scale = float(np.max(np.abs(c), initial=0.0)) or 1.0
        d = np.zeros_like(x)
        d[at_black] = lu.solve((c / scale).astype(np.float32)).astype(float) * scale
        d[at_red] = inv_r * (r - A @ d)[at_red]  # D_r^-1 (r_r - A_rb d_b)
        x += d
        r, omega = _residual(A, abs_a, x, b)
        trace.append(omega)
    factors.refinement_steps += len(trace) - 1
    factors.backward_error = max(factors.backward_error, omega)
    return x


def solve_harmonic_masked(grid: GridSpec, level_fn, boundary_fn) -> MaskedSolveResult:
    """Dirichlet harmonic solve on {level_fn > 0} with the interface cut exactly.

    Nodes with level_fn <= 0 hold value 0; outer-box nodes in the positive
    phase take ``boundary_fn``, which is called once, on those border nodes
    only.  Edges crossing the interface use irregular (Shortley-Weller)
    stencils with the zero value placed at the crossing, preserving
    second-order boundary accuracy; the crossings of all cut edges are
    bisected in one batch (:func:`crossing_fractions`).  The reported
    residual is the standard-stencil defect on nodes away from the cut.

    The 5-point stencil couples each unknown only to unknowns of the other
    checkerboard colour, (i + j) % 2 of its grid indices.  The even (red)
    unknowns are eliminated exactly, and only the Schur complement on the
    odd (black) ones, about half of them, is factored, once, in single
    precision; the system is refined in double (:func:`_refined_solve`).
    When the stencil coefficients and rhs are bitwise invariant under the
    mirror t -> -t, which swaps the t- and t+ arms (:func:`_mirror_fold`,
    tested before A is built), so is the assembled system, its solution is
    even, and this is done on the restriction R A E to the kept half
    t >= 0, whose solution x_h unfolds to x = E x_h; otherwise E is the
    identity.  R A E is assembled from the kept unknowns' coefficients
    (``stencil_matrix`` with ``fold``, bit for bit ``axisym_field._fold``
    of A) and only that half of the coefficients and rhs, the fold map and
    the grid's border data are held while the factor lives: the whole A is
    never built before it.
    The certificate is the componentwise backward error of the returned
    unknowns in the whole system, at most 6 eps (NonconvergenceError
    otherwise): they solve exactly a system whose every entry of A and b
    differs from the whole system's by at most that relative amount, the
    rounding a float64 evaluation of the residual makes anyway.  That whole
    system is rebuilt from the kept half (:func:`_unfold_system`) once the
    factor is dropped, so on a folded grid the half not kept is the mirror
    image of the kept one by :func:`_mirror_fold`'s bitwise test, not a
    second reading of the assembly: the certificate vouches for the solve,
    and that test (checked against a matrix oracle in the tests) for the
    mirror.
    ``factors`` records the factor, its fill and order, the steps and that
    value.
    """
    s, t = grid.axes()
    diag, arms, rhs, values, unknown, pos, cut_edges = _masked_system(grid, level_fn, boundary_fn)
    # int32 indices, and of the grid values only the border data (the nodes
    # whose bits are not +0.0), held across the factor: 14 MiB less at 512
    kept, fold = (a.astype(np.int32) for a in _mirror_fold(unknown, diag, arms, rhs))
    shape, border = values.shape, np.flatnonzero(values.view(np.int64))
    data = values.ravel()[border]
    del values
    red = (np.add(*np.nonzero(unknown)) % 2 == 0)[kept]
    diag, arms, rhs = diag[kept], arms[:, kept], rhs[kept]
    A = stencil_matrix(unknown, diag, arms, (kept, fold))
    factors = LUCounts()
    x = _refined_solve(A, rhs, red, factors)[fold]
    # the factor is gone: only now is the whole system built, for the certificate
    del A
    diag, arms, rhs = _unfold_system(diag, arms, rhs, kept, fold)
    A = stencil_matrix(unknown, diag, arms)
    del diag, arms
    _, omega = _residual(A, _magnitudes(A), x, rhs)
    if omega > _REFINE_FLOOR:
        raise NonconvergenceError(
            f"the unfolded masked solve has backward error {omega:.3e} above its floor {_REFINE_FLOOR:.3e}",
            last=x,
        )
    factors.backward_error = omega
    values = np.zeros(shape)
    np.put(values, border, data)
    values[unknown] = x
    out = AxiField(n=grid.n, s=s, t=t, values=values)
    mask = _positive_interior_mask(pos)
    residual = _harmonic_residual(out, mask) if mask.any() else float("nan")
    return MaskedSolveResult(field=out, residual=residual, unknowns=A.shape[0], factors=factors, cut_edges=cut_edges)
