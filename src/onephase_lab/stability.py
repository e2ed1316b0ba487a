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
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lobpcg

from .axisym_field import AxiField, _centered_gradient, _level_cycle, _level_strides, _unknown_mask, residual_semilinear
from .errors import InvalidParameterError, NonconvergenceError
from .numerics import (
    LUCounts,
    smoothstep_quintic,
    smoothstep_quintic_deriv,
    stencil_matrix,
    unit_sphere_area,
)
from .reaction_terms import ReactionTerm

VERDICT_STABLE = "stable-on-grid"
VERDICT_UNSTABLE = "unstable-direction-found"


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
        if self.alpha < 0.0:
            raise InvalidParameterError("alpha must be nonnegative")
        if not (self.eps_inner < 1.0 < self.R):
            raise InvalidParameterError("need eps_inner < 1 < R")
        if self.eps_inner <= 0.0 or self.eps0 <= 0.0:
            raise InvalidParameterError("eps_inner and eps0 must be positive")


@dataclass
class SpectralReport:
    """Outcome of a spectral or test-function probe.

    For eigen-solves ``form_lhs`` is Q at the eigenvector and ``form_rhs``
    the eigenvalue times its weighted norm (equal up to round-off); for
    inequality probes they are the two sides of the tested inequality.
    """

    verdict: str
    rayleigh_min: float
    form_lhs: float
    form_rhs: float
    iterations: int
    alpha: float | None = None
    R: float | None = None
    eps_inner: float | None = None
    eigenvector: AxiField | None = None
    notes: tuple[str, ...] = ()
    factors: LUCounts | None = None  # eigen-solves only; not part of the JSON

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rayleigh_min": self.rayleigh_min,
            "alpha": self.alpha,
            "R": self.R,
            "eps_inner": self.eps_inner,
            "lhs": self.form_lhs,
            "rhs": self.form_rhs,
            "iterations": self.iterations,
            "notes": list(self.notes),
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def node_weights(f: AxiField) -> np.ndarray:
    """Ambient-measure quadrature weight per node.

    The weight is |S^(n-2)| s^(n-2) hs ht: interior columns take the midpoint
    value, the axis column the exact half-cell integral of s^(n-2) (keeping
    the norm positive definite), outer columns and first/last rows half
    cells.  The sphere-area constant cancels in every Rayleigh quotient but
    makes the reported form values genuine integrals over the ambient space.
    """
    cs, ct = _column_weights(f)
    return unit_sphere_area(f.n - 2) * cs[:, None] * ct[None, :]


def _column_weights(f: AxiField) -> tuple[np.ndarray, np.ndarray]:
    """Per-column s^(n-2) hs and per-row ht node weights, without the sphere area.

    Outer columns and the first/last rows take half cells; the axis column
    takes the exact half-cell integral of s^(n-2).
    """
    s, hs, ht, m = f.s, f.hs, f.ht, f.n - 2
    cs = s**m * hs
    cs[-1] = s[-1] ** m * hs / 2.0
    if f.has_axis:
        cs[0] = (hs / 2.0) ** (m + 1) / (m + 1)
    else:
        cs[0] = s[0] ** m * hs / 2.0
    ct = np.full(len(f.t), ht)
    ct[0] = ht / 2.0
    ct[-1] = ht / 2.0
    return cs, ct


def _edge_weights(f: AxiField):
    """Weights of s-edges and t-edges for the gradient part of the form."""
    m = f.n - 2
    area = unit_sphere_area(m)
    cs, ct = _column_weights(f)
    s_mid = 0.5 * (f.s[1:] + f.s[:-1])
    w_s = area * (s_mid**m * f.hs)[:, None] * ct[None, :]
    w_t = area * cs[:, None] * np.full(len(f.t) - 1, f.ht)[None, :]
    return w_s, w_t


def _require_vanishing_border(xi: AxiField, rel_tol: float) -> None:
    """Reject a test function that is not finite, or exceeds rel_tol (1 + max|xi|) on the outer boundary.

    The outer boundary is every node that is not an unknown of the grid
    (``_unknown_mask``): every grid edge except the symmetry axis.
    """
    v = np.abs(xi.values)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("test function must be finite")
    border = float(np.max(v[~_unknown_mask(v.shape, xi.has_axis)]))
    if border > rel_tol * (1.0 + float(np.max(v))):
        raise InvalidParameterError("test function must vanish on the outer boundary")


def quadratic_form(u: AxiField, xi: AxiField, beta: ReactionTerm) -> float:
    """Second-variation value Q(xi) = int |grad xi|^2 + beta'(u)/2 xi^2.

    The gradient part sums squared edge differences against midpoint edge
    weights, the potential part uses the node weights; xi must vanish on the
    outer boundary.
    """
    if not u.same_grid(xi):
        raise InvalidParameterError("field and test function live on different grids")
    _require_vanishing_border(xi, 1e-13)
    return _raw_form(u, xi, beta)


def _raw_form(u: AxiField, xi: AxiField, beta: ReactionTerm) -> float:
    w_s, w_t = _edge_weights(xi)
    v = xi.values
    ds = (v[1:, :] - v[:-1, :]) / xi.hs
    dt = (v[:, 1:] - v[:, :-1]) / xi.ht
    grad = float(np.sum(ds * ds * w_s)) + float(np.sum(dt * dt * w_t))
    pot = float(np.sum(0.5 * np.asarray(beta.deriv(u.values)) * v * v * node_weights(xi)))
    return grad + pot


def weighted_norm_sq(xi: AxiField) -> float:
    return float(np.sum(xi.values**2 * node_weights(xi)))


def assemble_operator(u: AxiField, beta: ReactionTerm, axis_dirichlet: bool = False):
    """Sparse matrices (A, w, mask) of the form and norm on unknown nodes.

    x^T A x equals the quadratic form of x embedded by ``mask`` (boundary
    zeros) and w holds the node weights, so the generalized problem
    A x = lambda diag(w) x discretizes the Rayleigh quotient.
    """
    ns, nt = u.values.shape
    mask = _unknown_mask((ns, nt), u.has_axis and not axis_dirichlet)
    w_s, w_t = _edge_weights(u)
    es = np.zeros((ns + 1, nt))  # es[i] weights the s-edge from i - 1 to i
    es[1:-1] = w_s / u.hs**2
    et = np.zeros((ns, nt + 1))  # et[:, j] weights the t-edge from j - 1 to j
    et[:, 1:-1] = w_t / u.ht**2
    weights = node_weights(u)
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
    axis_dirichlet: bool = False,
) -> SpectralReport:
    """Smallest Rayleigh quotient of the second variation at a solution.

    LOBPCG on the symmetrized problem B = D A D, D = diag(w)^(-1/2), from the
    all-ones start, preconditioned by the Newton solve's multilevel layer on
    A - shift W with a shift below the form's lower bound min beta'(u)/2: one
    V-cycle over u's every-other-node levels, one LU at the coarsest.  The
    eigenpair is certified by its residual ||(B - lambda) x|| <= tol and by
    one sign throughout x, which on the irreducible Z-matrix B only the ground
    state has (Perron-Frobenius).  ``iterations`` counts LOBPCG steps;
    ``axis_dirichlet`` pins the axis column to zero (useful for
    all-sides-Dirichlet reference problems).
    """
    res = residual_semilinear(u, beta)
    if res > 1e-6:
        raise InvalidParameterError(f"field does not solve the equation (residual {res:.3e})")

    # The edge part of A is a sum of weighted squared differences, so every
    # Rayleigh quotient of B is at least the smallest potential beta'(u)/2.
    unknown = _unknown_mask(u.values.shape, u.has_axis and not axis_dirichlet)
    bound = float(np.min(0.5 * np.asarray(beta.deriv(u.values))[unknown]))
    shift = bound - max(1e-8, 1e-3 * (1.0 + abs(bound)))
    factors, coarse = LUCounts(), None
    for k in _level_strides(*u.values.shape):
        f = AxiField(u.n, u.s[::k], u.t[::k], u.values[::k, ::k])
        A, w, mask = assemble_operator(f, beta, axis_dirichlet=axis_dirichlet)
        if not np.all(w > 0.0):
            raise InvalidParameterError(f"node weights s^(n-2) underflow to zero at n = {u.n}")
        # divided by the cell area, every level has the Newton Jacobian's scaling
        cycle = _level_cycle(((A - shift * sp.diags(w)) / (f.hs * f.ht)).tocsr(), factors, mask, coarse)
        coarse = (mask, cycle)
    d, sw = 1.0 / np.sqrt(w), np.sqrt(w)
    B = (sp.diags(d) @ A @ sp.diags(d)).tocsr()
    M = LinearOperator(B.shape, matvec=lambda y: sw * cycle(sw * y.ravel()), dtype=float)
    with warnings.catch_warnings():
        # the certificates below judge the result, not LOBPCG's own exit
        warnings.simplefilter("ignore", UserWarning)
        _, X, history = lobpcg(  # scipy's loop makes maxiter + 1 steps
            B, np.ones((B.shape[0], 1)), M=M, tol=tol, maxiter=max_iter - 1, largest=False, retLambdaHistory=True
        )
    trace = [float(lam) for lam in history[1:-1]]  # without the start and the post-processing
    x = X[:, 0] * np.sign(X[:, 0].sum()) / np.linalg.norm(X[:, 0])
    Bx = B @ x
    lam = float(x @ Bx)
    cert = float(np.linalg.norm(Bx - lam * x))
    if not (cert <= tol and np.all(x > 0.0)):
        what = "the residual" if cert > tol else "one sign of the ground state"
        raise NonconvergenceError(
            f"LOBPCG did not certify {what} after {len(trace)} iterations (last residual {cert:.3e}, shift {shift:.6g})",
            trace=trace,
        )

    xi_vals = np.zeros_like(u.values)
    xi_vals[mask] = x * d
    xi = u.with_values(xi_vals)
    verdict = VERDICT_STABLE if lam >= -tol else VERDICT_UNSTABLE
    return SpectralReport(
        verdict=verdict,
        rayleigh_min=lam,
        form_lhs=_raw_form(u, xi, beta),
        form_rhs=lam * weighted_norm_sq(xi),
        iterations=len(trace),
        eigenvector=xi,
        factors=factors,
    )


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


def us_equation_residual(u: AxiField, beta: ReactionTerm) -> AxiField:
    """Residual of the differentiated equation for c = u_s away from the axis.

    Checks Delta_h c - (n-2) c / s^2 - beta'(u)/2 c, defined where the
    stencil fits and s > 0; other entries are NaN.
    """
    from .axisym_field import apply_axisym_laplacian

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


def probe_inequality(u: AxiField, probe: StabilityProbe, beta: ReactionTerm) -> SpectralReport:
    """Test (n-2) int u_s^2 eta^2 / s^2 <= int u_s^2 |grad eta|^2 on the grid.

    A negative defect (rhs - lhs) certifies that xi = u_s eta violates
    stability on this grid; the probe's own Rayleigh quotient of the second
    variation is reported alongside.  Exponents alpha >= (n-1)/2 make the
    uncapped weight non-integrable near the axis; the cap regularizes this,
    so it is only noted.
    """
    notes = []
    if probe.alpha >= (u.n - 1) / 2.0:
        notes.append("alpha at or beyond (n-1)/2: uncapped axis weight non-integrable")

    c = us_derivative(u).values
    eta, gradsq = _eta_and_gradsq(probe, u)
    w = node_weights(u)
    s = u.s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_s2 = np.where(s > 0.0, 1.0 / np.where(s > 0, s, 1.0) ** 2, 0.0)
    lhs = (u.n - 2) * float(np.sum(c * c * eta * eta * inv_s2 * w))
    rhs = float(np.sum(c * c * gradsq * w))
    defect = rhs - lhs

    xi = u.with_values(c * eta)
    norm_sq = weighted_norm_sq(xi)
    rayleigh = _raw_form(u, xi, beta) / norm_sq if norm_sq > 0.0 else 0.0

    verdict = VERDICT_UNSTABLE if defect < 0.0 else VERDICT_STABLE
    return SpectralReport(
        verdict=verdict,
        rayleigh_min=rayleigh,
        form_lhs=lhs,
        form_rhs=rhs,
        iterations=0,
        alpha=probe.alpha,
        R=probe.R,
        eps_inner=probe.eps_inner,
        eigenvector=xi,
        notes=tuple(notes),
    )


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
    """Cap shrink rate eps = R^(-1/(n-1-2*alpha-eps0)); decreasing in R."""
    denom = n - 1 - 2.0 * alpha - eps0
    if denom <= 0.0:
        raise InvalidParameterError("need n - 1 > 2*alpha + eps0")
    if R <= 0.0:
        raise InvalidParameterError("R must be positive")
    return float(R ** (-1.0 / denom))


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
