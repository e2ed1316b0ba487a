"""Second-variation forms, spectral probes, and the decay-exponent window.

The second variation of the layer energy at a solution u is
Q(xi) = int |grad xi|^2 + beta'(u)/2 xi^2 (with the cylindrical weight
s^(n-2)); a solution is stable on the grid when the smallest Rayleigh
quotient of Q is nonnegative.  The radial-derivative direction u_s paired
with weighted cutoffs s^(-alpha) rho_R turns stability into the inequality
(n-2) int u_s^2 eta^2 / s^2 <= int u_s^2 |grad eta|^2, decidable window by
window in the exponent alpha.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, lobpcg

from .axisym_field import (
    AxiField,
    _band,
    _centered_gradient,
    _diagonal_positions,
    _grid_transfers,
    _KrylovSolve,
    _level_strides,
    _spacing,
    _unknown_mask,
    _weight_factors,
    grid_weights,
    require_representable_weights,
    residual_semilinear,
)
from .errors import InvalidParameterError, NonconvergenceError
from .numerics import (
    LUCounts,
    smoothstep_quintic,
    smoothstep_quintic_deriv,
    stencil_matrix,
)
from .reaction_terms import ReactionTerm

VERDICT_STABLE = "stable-on-grid"
VERDICT_UNSTABLE = "unstable-direction-found"

# the border values both stability forms allow a test function, relative to 1 + max|xi|
BORDER_TOL = 1e-13

# Most inward line sweeps spent on an eigenvector with an entry <= 0.  Each
# multiplies the round-off a column inherits from the one inside it by their
# coupling ratio, so the count grows with n: the 65^2 tiled layer needs none
# at n = 14, one at n = 18-25, three at n = 33-40 and six at n = 60.
SIGN_SWEEPS = 16

# How many coarse-level drifts |lam_2h - lam_4h| the preconditioner's shift
# keeps below lam_2h.  In the second-order model lam_h ~ lam_2h +- drift / 4
# that is far below every finer eigenvalue; on the 257^2 tiled layer 10
# drifts fail at n = 40 (sign) and n = 60 (600 steps), 30 certify.
SHIFT_DRIFTS = 100.0

# Inverse-iteration solves for each ground state of a separable field, and
# how far below its stemr eigenvalue mu they shift: GROUND_GAP (1 + |mu|).
GROUND_SOLVES = 3
GROUND_GAP = 1e-6


@dataclass(frozen=True)
class StabilityProbe:
    """Parameters of the capped radial test function s^(-alpha) rho_R.

    ``rho_R`` is a quintic ramp equal to 1 inside radius R and 0 outside 2R;
    inside the cylinder s <= eps_inner the radial factor is frozen at its
    boundary value eps_inner^(-alpha) so the test function stays bounded.
    ``eps0`` is the margin used by the shrink schedule tying eps_inner to R.
    """

    alpha: float
    R: float
    eps_inner: float
    eps0: float = 0.1

    def __post_init__(self):
        # the one home of the bounds; the error names the field that breaks one
        for name, admissible, bound in (
            ("alpha", 0.0 <= self.alpha < math.inf, "finite and nonnegative"),
            ("R", 1.0 < self.R < math.inf, "finite and above 1"),
            ("eps_inner", 0.0 < self.eps_inner < 1.0, "in (0, 1)"),
            ("eps0", self.eps0 > 0.0, "positive"),
        ):
            if not admissible:
                raise InvalidParameterError(f"{name} must be {bound}, got {getattr(self, name)!r}", name=name)


@dataclass(frozen=True)
class InequalityReport:
    """The two sides of a stability inequality lhs <= rhs.

    Both forms of the paper's inequality report through it: the bulk radial
    (n-2) int u_s^2 eta^2 / s^2 <= int u_s^2 |grad eta|^2 and the interface
    int H xi^2 <= int |grad xi|^2, which grad(u_s) . nu = H u_s makes equal.
    A negative ``defect`` (rhs - lhs) certifies that the tested direction
    violates stability on the grid.  Both sides must be finite: a NaN side
    would read as stable.
    """

    lhs: float
    rhs: float

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise InvalidParameterError(f"inequality sides must be finite, got lhs={self.lhs!r}, rhs={self.rhs!r}")

    @property
    def defect(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:
        return VERDICT_UNSTABLE if self.lhs > self.rhs else VERDICT_STABLE


@dataclass(frozen=True)
class ProbeReport(InequalityReport):
    """An inequality probe with its test direction ``xi``."""

    xi: AxiField


@dataclass
class SpectralReport:
    """Outcome of the eigen-solve: ``lhs`` is Q at the eigenvector and ``rhs``
    the eigenvalue times its weighted norm (equal up to round-off).

    Both solves certify the pair the same way; the counters, not part of
    the JSON, tell them apart.  The cascade (:func:`linearized_rayleigh_min`)
    keeps its LU factors (one per shift), every level's LOBPCG steps,
    Rayleigh quotient and final residual (coarsest first, the finest last)
    and the finest level's preconditioner shift.  The separable solve
    (:func:`layer_rayleigh_min`) factors no LU and runs no step: one level
    of 0 steps, its certified eigenvalue and residual, and the sum of its
    two inverse-iteration shifts."""

    verdict: str
    rayleigh_min: float
    lhs: float
    rhs: float
    eigenvector: AxiField
    factors: LUCounts
    level_iterations: list[int]
    level_values: list[float]
    level_residuals: list[float]
    shift: float

    @property
    def iterations(self) -> int:
        """The finest level's LOBPCG steps (0 on the separable solve)."""
        return self.level_iterations[-1]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rayleigh_min": self.rayleigh_min,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "iterations": self.iterations,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def require_positive_node_weights(n: int, s: np.ndarray, t: np.ndarray) -> None:
    """Reject the axes (s, t) at dimension n unless the smallest node weight
    is above zero, since the eigen solve divides by every node weight.  Like
    ``require_representable_weights`` it reads the factors, in O(ns + nt)."""
    area, pairs = _weight_factors(n, s, t)
    radial, axial = pairs["node"]
    if area * radial.min() * axial.min() == 0.0:
        weight = "axis-column weight |S^(n-2)| (hs/2)^(n-1)/(n-1)" if s[0] == 0.0 else "weight |S^(n-2)| s_min^(n-2) hs/2"
        raise InvalidParameterError(
            f"the node weights at n = {n} must be above zero, but on this grid "
            f"(hs = {_spacing(s[0], s[-1], len(s)):.6g}) the {weight} ht/2 underflows"
        )


def _require_solution(u: AxiField, beta: ReactionTerm) -> None:
    """Reject a field whose ``residual_semilinear`` is above 1e-6, or NaN:
    the second variation is taken at a solution."""
    res = residual_semilinear(u, beta)
    if not res <= 1e-6:
        raise InvalidParameterError(f"field does not solve the equation (residual {res:.3e})")


def _require_vanishing_border(xi: AxiField) -> None:
    """Reject a test function that is not finite, or exceeds BORDER_TOL (1 + max|xi|) on the outer boundary.

    The outer boundary is every node that is not an unknown of the grid
    (``_unknown_mask``): every grid edge except the symmetry axis.
    """
    v = np.abs(xi.values)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("test function must be finite")
    border = float(np.max(v[~_unknown_mask(v.shape, xi.has_axis)]))
    if border > BORDER_TOL * (1.0 + float(np.max(v))):
        raise InvalidParameterError("test function must vanish on the outer boundary")


def quadratic_form(u: AxiField, xi: AxiField, beta: ReactionTerm) -> float:
    """Second-variation value Q(xi) = int |grad xi|^2 + beta'(u)/2 xi^2.

    The gradient part sums squared edge differences against midpoint edge
    weights, the potential part uses the node weights; xi must vanish on the
    outer boundary.
    """
    if not u.same_grid(xi):
        raise InvalidParameterError("field and test function live on different grids")
    _require_vanishing_border(xi)
    return _raw_form(u, xi, beta)


def _raw_form(u: AxiField, xi: AxiField, beta: ReactionTerm) -> float:
    w_s, w_t = grid_weights(xi, "s-edge"), grid_weights(xi, "t-edge")
    v = xi.values
    ds = (v[1:, :] - v[:-1, :]) / xi.hs
    dt = (v[:, 1:] - v[:, :-1]) / xi.ht
    grad = float(np.sum(ds * ds * w_s)) + float(np.sum(dt * dt * w_t))
    pot = float(np.sum(0.5 * np.asarray(beta.deriv(u.values)) * v * v * grid_weights(xi, "node")))
    return grad + pot


def weighted_norm_sq(xi: AxiField) -> float:
    return float(np.sum(xi.values**2 * grid_weights(xi, "node")))


def assemble_operator(u: AxiField, beta: ReactionTerm):
    """Sparse matrices (A, w, mask) of the form and norm on unknown nodes.

    x^T A x equals the quadratic form of x embedded by ``mask`` (boundary
    zeros) and w holds the node weights, so the generalized problem
    A x = lambda diag(w) x discretizes the Rayleigh quotient.
    """
    ns, nt = u.values.shape
    mask = _unknown_mask((ns, nt), u.has_axis)
    w_s, w_t = grid_weights(u, "s-edge"), grid_weights(u, "t-edge")
    es = np.zeros((ns + 1, nt))  # es[i] weights the s-edge from i - 1 to i
    es[1:-1] = w_s / u.hs**2
    et = np.zeros((ns, nt + 1))  # et[:, j] weights the t-edge from j - 1 to j
    et[:, 1:-1] = w_t / u.ht**2
    weights = grid_weights(u, "node")
    pot = 0.5 * np.asarray(beta.deriv(u.values)) * weights
    i, j = np.nonzero(mask)
    # the diagonal sums its edges in the order s-, s+, t-, t+, then the potential
    diag = es[i, j] + es[i + 1, j] + et[i, j] + et[i, j + 1] + pot[i, j]
    A = stencil_matrix(mask, diag, (-es[i, j], -es[i + 1, j], -et[i, j], -et[i, j + 1]))
    return A, weights[mask], mask


def linearized_rayleigh_min(
    u: AxiField,
    beta: ReactionTerm,
    max_iter: int = 600,
    tol: float = 1e-10,
) -> SpectralReport:
    """Smallest Rayleigh quotient of the second variation at a solution.

    ``u`` must solve the equation: a ``residual_semilinear`` above 1e-6, or
    NaN, is refused with ``InvalidParameterError``.
    LOBPCG on the symmetrized problem B = D A D, D = diag(w)^(-1/2),
    preconditioned by the Newton solve's multilevel layer on A - shift W:
    one V-cycle over u's every-other-node levels, one LU at the coarsest.
    The solve is cascadic: the coarsest level starts from the all-ones
    vector and stops at sqrt(tol); every finer level starts from the
    eigenvector of the level below, prolonged bilinearly as grid values x D,
    and the finest one runs to ``tol``.  The two coarsest levels shift below
    the form's lower bound min beta'(u)/2.  A level with two coarser ones
    raises the shift to ``SHIFT_DRIFTS`` drifts |lam_2h - lam_4h| below
    lam_2h, their Rayleigh quotients x B x / x x, if that is higher; a
    raised shift rebuilds the coarser chain, so each shift costs one LU of
    the coarsest level (on the 257^2 tiled layer at n = 3 two LUs, and the
    finest level's steps fall from 11 to 7).  A bad shift can only cost
    steps or certification, never certify a wrong pair: the eigenpair is
    certified by its residual
    ||(B - lambda) x|| <= tol and by one sign throughout x, which on the
    irreducible Z-matrix B only the ground state has (Perron-Frobenius).
    LOBPCG resolves x only to round-off of its largest entry, so while x has
    an entry <= 0, up to ``SIGN_SWEEPS`` line sweeps
    (:func:`_inward_line_sweep`) first rebuild the entries near the axis
    from the eigen-equation.  ``iterations`` counts the finest level's
    LOBPCG steps, ``level_iterations`` every level's, ``level_values``
    every level's Rayleigh quotient and ``level_residuals`` every level's
    final residual ||B x - lam x|| / ||x||, coarsest first (a coarse level
    that hits ``max_iter`` shows there above its sqrt(tol)); ``shift`` is
    the finest level's.  On a
    grid with ``s_min > 0`` every side is a Dirichlet boundary.
    """
    _require_solution(u, beta)

    # The edge part of A is a sum of weighted squared differences, so every
    # Rayleigh quotient of B is at least the smallest potential beta'(u)/2.
    unknown = _unknown_mask(u.values.shape, u.has_axis)
    bound = float(np.min(0.5 * np.asarray(beta.deriv(u.values))[unknown]))
    shift = bound - max(1e-8, 1e-3 * (1.0 + abs(bound)))
    factors, cycle, levels, values, residuals, ops = LUCounts(), None, [], [], [], []

    def level_cycle(A, w, area, transfers, coarse):
        return _KrylovSolve(_shifted(A, w, shift, area), factors, transfers, coarse).cycle

    for k in _level_strides(*u.values.shape):
        if len(values) >= 2:
            # below lam_2h by SHIFT_DRIFTS times its drift from lam_4h, never
            # below the bound; a raised shift rebuilds the coarser chain
            raised = max(shift, values[-1] - SHIFT_DRIFTS * abs(values[-1] - values[-2]))
            if raised != shift:
                shift, cycle = raised, None
                for op in ops:
                    cycle = level_cycle(*op, cycle)
        f = AxiField(u.n, u.s[::k], u.t[::k], u.values[::k, ::k])
        require_representable_weights(f.n, f.s, f.t)
        require_positive_node_weights(f.n, f.s, f.t)
        A, w, mask = assemble_operator(f, beta)
        transfers = None if cycle is None else _grid_transfers(*f.values.shape, f.has_axis, False)
        ops.append((A, w, f.hs * f.ht, transfers))
        cycle = level_cycle(*ops[-1], cycle)
        d, sw = 1.0 / np.sqrt(w), np.sqrt(w)
        B = _symmetrized(A, d)
        del A
        if k == 1:
            ops.clear()  # no finer level rebuilds the chain: let every A go
        start = np.ones(B.shape[0])
        if transfers is not None:
            (_, P_s, _), (_, P_t, _) = transfers
            start = sw * (P_t @ (P_s @ below.reshape(P_s.shape[1], -1)).T).T.ravel()
        x, trace, steps = _lobpcg(B, start, lambda y: sw * cycle(sw * y), tol if k == 1 else math.sqrt(tol), max_iter)
        levels.append(steps)
        Bx = B @ x
        values.append(float(x @ Bx) / float(x @ x))
        residuals.append(float(np.linalg.norm(Bx - values[-1] * x)) / float(np.linalg.norm(x)))
        below = x * d
    x = x * np.sign(x.sum()) / np.linalg.norm(x)
    lam = float(x @ (B @ x))
    for _ in range(SIGN_SWEEPS):
        if np.all(x > 0.0):
            break
        x = _inward_line_sweep(B, x, lam, u.values.shape[1] - 2)
        x /= np.linalg.norm(x)
    lam, cert, what = _certificate(B, x, tol)
    if what:
        raise NonconvergenceError(
            f"LOBPCG did not certify {what} after {steps} iterations (last residual {cert:.3e}, shift {shift:.6g})",
            trace=trace,
        )
    return _report(
        u, beta, x, d, mask, lam, tol,
        factors=factors, level_iterations=levels, level_values=values, level_residuals=residuals, shift=shift,
    )


def layer_rayleigh_min(u: AxiField, beta: ReactionTerm, tol: float = 1e-10) -> SpectralReport:
    """Smallest Rayleigh quotient of the second variation at an s-independent
    solution, by separation of variables.

    ``u`` must equal its first column on every column, bit for bit, and
    solve the equation as :func:`linearized_rayleigh_min` requires; any
    other field is refused with ``InvalidParameterError``.  On such a field
    every weight is a product of a radial and an axial factor
    (``_weight_factors``), so the form is Ks (x) Mt + Ms (x) (Kt + P)
    against Ms (x) Mt: the radial pencil (Ks, Ms) of the s-edges on the
    unknown columns (the first is a Dirichlet boundary when s_min > 0) and
    the axial pencil (Kt + P, Mt) of the t-edges and beta'(u)/2 on the
    interior rows.  Its smallest eigenvalue is mu_s + mu_t with the ground
    state a (x) b.  Each mu is LAPACK stemr's, which keeps the relative
    accuracy the graded radial pencil needs at large n, and each vector is
    ``GROUND_SOLVES`` inverse-iteration solves of its symmetrized pencil at
    ``GROUND_GAP`` (1 + |mu|) below mu (:func:`_ground_state`).  The pair is
    certified on the whole operator B = D A D exactly as
    :func:`linearized_rayleigh_min` certifies its own: residual
    ||B x - lam x|| <= tol and x > 0.  No LU is built: ``level_iterations``
    is [0], ``level_values`` [lam], ``level_residuals`` that residual and
    ``shift`` the sum of the two inverse-iteration shifts.
    """
    if not np.all(u.values == u.values[:1]):
        raise InvalidParameterError("field is not s-independent: a column differs from the first")
    _require_solution(u, beta)
    require_representable_weights(u.n, u.s, u.t)
    require_positive_node_weights(u.n, u.s, u.t)

    _, pairs = _weight_factors(u.n, u.s, u.t)
    (radial, axial), (mid, _), (_, t_edge) = pairs["node"], pairs["s-edge"], pairs["t-edge"]
    first = 0 if u.has_axis else 1
    ks = mid / u.hs**2  # ks[i] joins columns i and i + 1
    mu_s, shift_s, a = _ground_state(
        np.concatenate(([0.0], ks))[first:-1] + ks[first:], -ks[first:-1], radial[first:-1]
    )
    kt = t_edge / u.ht**2
    pot = 0.5 * np.asarray(beta.deriv(u.values[0, 1:-1])) * axial[1:-1]
    mu_t, shift_t, b = _ground_state(2.0 * kt + pot, np.full(len(pot) - 1, -kt), axial[1:-1])

    A, w, mask = assemble_operator(u, beta)
    d = 1.0 / np.sqrt(w)
    B = _symmetrized(A, d)
    del A
    x = np.kron(a, b)
    x /= np.linalg.norm(x)
    lam, cert, what = _certificate(B, x, tol)
    shift = shift_s + shift_t
    if what:
        raise NonconvergenceError(
            f"separation of variables did not certify {what} of mu_s + mu_t = {mu_s:.12g} + {mu_t:.12g} "
            f"(residual {cert:.3e}, shift {shift:.6g})"
        )
    return _report(
        u, beta, x, d, mask, lam, tol,
        factors=LUCounts(), level_iterations=[0], level_values=[lam], level_residuals=[cert], shift=shift,
    )


def _ground_state(diag: np.ndarray, off: np.ndarray, mass: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Lowest eigenvalue mu of the pencil tridiag(off, diag, off) y = mu diag(mass) y,
    the inverse-iteration shift below it, and its unit ground state in the
    symmetrized coordinates sqrt(mass) y.

    mu is LAPACK stemr's on the symmetrized tridiagonal T.  The vector is
    ``GROUND_SOLVES`` solves of T - shift from the ones vector on one dpttrf
    factor: with off <= 0 and T - shift positive definite, every step of
    dpttrs adds positive terms, so every entry, however small, comes out
    positive and to full relative accuracy.
    """
    r = 1.0 / np.sqrt(mass)
    diag, off = diag * r * r, off * r[:-1] * r[1:]
    mu = float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0), lapack_driver="stemr")[0])
    shift = mu - GROUND_GAP * (1.0 + abs(mu))
    y = np.ones(len(diag))
    if len(y) == 1:  # one unknown: the ground state is itself (dpttrf takes no empty off-diagonal)
        return mu, shift, y
    dd, ee, info = dpttrf(diag - shift, off)
    if info != 0:
        raise NonconvergenceError(
            f"the inverse-iteration shift {shift:.6g} is not below the pencil's spectrum (dpttrf info {info})"
        )
    for _ in range(GROUND_SOLVES):
        y = dpttrs(dd, ee, y)[0]
        y /= np.linalg.norm(y)
    return mu, shift, y


def _certificate(B, x: np.ndarray, tol: float) -> tuple[float, float, str]:
    """The Rayleigh quotient lam = x B x of the unit vector x, its residual
    ||B x - lam x||, and what of the ground state fails its certificate
    (residual <= tol and x > 0): "" when nothing does."""
    Bx = B @ x
    lam = float(x @ Bx)
    cert = float(np.linalg.norm(Bx - lam * x))
    if not cert <= tol:
        return lam, cert, "the residual"
    return lam, cert, "" if np.all(x > 0.0) else "one sign of the ground state"


def _report(u, beta, x, d, mask, lam, tol, **counters) -> SpectralReport:
    """The report on the certified ground state x of B = D A D with
    eigenvalue lam, with the solve's ``counters`` (its LU factors, levels
    and shift)."""
    xi_vals = np.zeros_like(u.values)
    xi_vals[mask] = x * d
    xi = u.with_values(xi_vals)
    verdict = VERDICT_STABLE if lam >= -tol else VERDICT_UNSTABLE
    return SpectralReport(
        verdict=verdict,
        rayleigh_min=lam,
        lhs=_raw_form(u, xi, beta),
        rhs=lam * weighted_norm_sq(xi),
        eigenvector=xi,
        **counters,
    )


def _shifted(A, w: np.ndarray, shift: float, area: float) -> sp.csr_matrix:
    """(A - shift diag(w)) / area on A's pattern, rounded as scipy's sparse
    algebra rounds it: a_ii - (shift w_i), then every entry times 1 / area.
    Divided by the cell area, every level has the Newton Jacobian's scaling."""
    data = A.data.copy()
    data[_diagonal_positions(A)] -= shift * w
    data *= 1.0 / area
    return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)


def _symmetrized(A, d: np.ndarray) -> sp.csr_matrix:
    """D A D with D = diag(d) on A's pattern, each entry rounded as scipy's
    sparse product ``diag(d) @ A @ diag(d)`` rounds it: (d_i a_ij) d_j."""
    return sp.csr_matrix((np.repeat(d, np.diff(A.indptr)) * A.data * d[A.indices], A.indices, A.indptr), shape=A.shape)


def _lobpcg(B, start: np.ndarray, precondition, tol: float, max_iter: int):
    """LOBPCG's lowest eigenvector of B from ``start``, preconditioned by the
    vector map ``precondition``, in at most ``max_iter`` steps; its eigenvalue
    trace without the start and the post-processing; and the steps it ran.

    Every step preconditions the one residual once, so the steps are counted
    there: when LOBPCG stops without converging, scipy returns its best
    iterate and cuts the trace there.  Below 5 unknowns scipy solves B
    densely instead, with no step and no trace."""
    steps = 0

    def matvec(y):
        nonlocal steps
        steps += 1
        return precondition(y.ravel())

    M = LinearOperator(B.shape, matvec=matvec, dtype=float)
    with warnings.catch_warnings():
        # the certificates judge the result, not LOBPCG's own exit
        warnings.simplefilter("ignore", UserWarning)
        _, X, *history = lobpcg(  # scipy's loop makes maxiter + 1 steps
            B, start[:, None], M=M, tol=tol, maxiter=max_iter - 1, largest=False, retLambdaHistory=True
        )
    return X[:, 0], [float(lam) for lam in history[0][1:-1]] if history else [], steps


def _inward_line_sweep(B, x: np.ndarray, lam: float, m: int) -> np.ndarray:
    """One block Gauss-Seidel sweep of (B - lam) x = 0 from the outermost
    column of unknowns to the innermost.

    The unknowns come in columns of ``m`` (one s each, in increasing s), so
    B couples a column to itself through its tridiagonal t-stencil and to
    its neighbour columns through its bands +-m (``_band``, one row per
    column).  Each column is solved exactly against the swept column outside
    it and the old column inside it.  LOBPCG leaves every entry with an
    error near eps max|x|, while near the axis the ground state is of size
    s^((n-2)/2) and falls below that for large n; the column blocks of
    B - lam are M-matrices (their diagonals carry both s-edges, far above
    lam), so each solve rebuilds such a column from its positive outer
    neighbour to full relative accuracy, up to the round-off it read from
    the inner column.
    """
    x = x.reshape(-1, m).copy()
    inn, lo, diag, up, out = (_band(B, k, x.shape) for k in (-m, -1, 0, 1, m))
    for c in range(len(x) - 1, -1, -1):
        rhs = np.zeros(m)
        if c + 1 < len(x):
            rhs -= out[c] * x[c + 1]
        if c > 0:
            rhs -= inn[c] * x[c - 1]
        x[c] = dgtsv(lo[c, 1:], diag[c] - lam, up[c, :-1], rhs)[3]
    return x.ravel()


def us_derivative(u: AxiField) -> AxiField:
    """Centered radial derivative u_s; zero on the axis, one-sided at edges."""
    if len(u.s) < 3:
        raise InvalidParameterError("need at least 3 radial nodes")
    v = u.values
    hs = u.hs
    out, _ = _centered_gradient(u)
    # difference form of the one-sided stencils: exactly zero on constant data
    if not u.has_axis:
        out[0, :] = (3.0 * (v[1, :] - v[0, :]) + (v[1, :] - v[2, :])) / (2.0 * hs)
    out[-1, :] = (3.0 * (v[-1, :] - v[-2, :]) + (v[-3, :] - v[-2, :])) / (2.0 * hs)
    return u.with_values(out)


def _eta_and_gradsq(probe: StabilityProbe, f: AxiField):
    """The capped test function and its analytic squared gradient on the grid."""
    s = f.s[:, None]
    t = f.t[None, :]
    r = np.hypot(s, t)
    x = (r - probe.R) / probe.R
    rho = 1.0 - smoothstep_quintic(x)
    drho = -smoothstep_quintic_deriv(x) / probe.R

    capped = s <= probe.eps_inner
    with np.errstate(divide="ignore"):
        f_rad = np.where(capped, probe.eps_inner ** (-probe.alpha), np.where(s > 0, s, 1.0) ** (-probe.alpha))
        df_rad = np.where(capped, 0.0, -probe.alpha * np.where(s > 0, s, 1.0) ** (-probe.alpha - 1.0))
    eta = f_rad * rho
    with np.errstate(invalid="ignore"):
        g_s = df_rad * rho + f_rad * drho * np.where(r > 0, s / np.where(r > 0, r, 1.0), 0.0)
        g_t = f_rad * drho * np.where(r > 0, t / np.where(r > 0, r, 1.0), 0.0)
    gradsq = g_s * g_s + g_t * g_t
    return eta, gradsq


def probe_inequality(u: AxiField, probe: StabilityProbe) -> ProbeReport:
    """Test (n-2) int u_s^2 eta^2 / s^2 <= int u_s^2 |grad eta|^2 on the grid.

    The inequality reads u alone, so no reaction term enters.  A negative
    defect certifies that xi = u_s eta violates stability on this grid.
    Exponents alpha >= (n-1)/2 make the uncapped weight non-integrable near
    the axis; the cap regularizes this.
    """
    c = us_derivative(u).values
    eta, gradsq = _eta_and_gradsq(probe, u)
    w = grid_weights(u, "node")
    s = u.s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_s2 = np.where(s > 0.0, 1.0 / np.where(s > 0, s, 1.0) ** 2, 0.0)
    lhs = (u.n - 2) * float(np.sum(c * c * eta * eta * inv_s2 * w))
    rhs = float(np.sum(c * c * gradsq * w))
    return ProbeReport(lhs=lhs, rhs=rhs, xi=u.with_values(c * eta))


def admissible_alpha(n: int) -> tuple[float, float] | None:
    """The open exponent window (max((n-2)/2, .), sqrt(n-2)), empty outside 2 < n < 6.

    Both constraints 2 alpha > n - 2 and alpha^2 < n - 2 admit a solution
    exactly when (n-2)^2 < 4(n-2), checked in exact integer arithmetic.
    """
    if n < 2:
        raise InvalidParameterError("dimension must be >= 2")
    if n <= 2 or (n - 2) ** 2 >= 4 * (n - 2):
        return None
    return ((n - 2) / 2.0, math.sqrt(n - 2))


def epsilon_schedule(n: int, alpha: float, eps0: float, R: float) -> float:
    """Cap shrink rate eps = R^(-1/(n-1-2*alpha-eps0)); decreasing in R.

    A rate outside the normal float range is refused: flushed to 0 (or
    rounded as a subnormal) it would no longer be a positive, strictly
    decreasing cap radius.
    """
    denom = n - 1 - 2.0 * alpha - eps0
    if denom <= 0.0:
        raise InvalidParameterError("need n - 1 > 2*alpha + eps0")
    if R <= 0.0:
        raise InvalidParameterError("R must be positive")
    try:
        eps = R ** (-1.0 / denom)
    except OverflowError:
        eps = math.inf
    if not sys.float_info.min <= eps < math.inf:
        raise InvalidParameterError(f"R^(-1/{denom:g}) leaves the normal float range")
    return float(eps)
