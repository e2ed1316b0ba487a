"""Axisymmetric scalar fields on (s, t) grids and the semilinear solver.

Functions of n variables that depend only on the cylindrical radius
s = |x'| and the height t = x_n live on a rectangular half-plane grid; the
Laplacian becomes u_ss + (n-2)/s u_s + u_tt, with the singular term replaced
at s = 0 by its symmetric limit (n-1) u_ss through a ghost reflection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu

from .errors import DomainError, InvalidParameterError, NonconvergenceError
from .numerics import LU_ORDER, LUCounts, csv_lines, unit_sphere_area
from .reaction_terms import ReactionTerm, rescale


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (s, t) grid descriptor with ambient dimension n."""

    n: int
    s_max: float
    t_min: float
    t_max: float
    ns: int
    nt: int
    s_min: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("ambient dimension must be >= 2")
        if self.ns < 3 or self.nt < 3:
            raise InvalidParameterError("need at least 3 nodes per direction")
        if not (self.s_max > self.s_min >= 0.0) or not (self.t_max > self.t_min):
            raise InvalidParameterError("degenerate grid extents")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.s_min, self.s_max, self.ns),
            np.linspace(self.t_min, self.t_max, self.nt),
        )

    @property
    def hs(self) -> float:
        return (self.s_max - self.s_min) / (self.ns - 1)

    @property
    def ht(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)


@dataclass
class AxiField:
    """Values u(s_i, t_j) on a uniform grid; values.shape == (ns, nt)."""

    n: int
    s: np.ndarray
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.s), len(self.t)):
            raise InvalidParameterError("values shape does not match axes")

    @property
    def hs(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def ht(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def has_axis(self) -> bool:
        return self.s[0] == 0.0

    def grid(self) -> GridSpec:
        return GridSpec(
            n=self.n,
            s_min=float(self.s[0]),
            s_max=float(self.s[-1]),
            t_min=float(self.t[0]),
            t_max=float(self.t[-1]),
            ns=len(self.s),
            nt=len(self.t),
        )

    def same_grid(self, other: "AxiField") -> bool:
        return (
            self.n == other.n
            and len(self.s) == len(other.s)
            and len(self.t) == len(other.t)
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.t, other.t)
        )

    def with_values(self, values: np.ndarray) -> "AxiField":
        return replace(self, values=values)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "AxiField":
        s, t = grid.axes()
        vals = np.broadcast_to(
            np.asarray(fn(s[:, None], t[None, :]), dtype=float), (grid.ns, grid.nt)
        ).copy()
        return cls(n=grid.n, s=s, t=t, values=vals)

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# n={self.n} ns={len(self.s)} nt={len(self.t)}\n")
            fh.write("s,t,u\n")
            S, T = np.meshgrid(self.s, self.t, indexing="ij")
            fh.write(csv_lines(S.ravel(), T.ravel(), self.values.ravel()))

    def save_binary(self, path) -> None:
        """Header: int32 n, ns, nt; float64 hs, ht, s_min, t_min; then row-major float64."""
        with open(path, "wb") as fh:
            fh.write(b"AXIF")
            fh.write(struct.pack("<iii", self.n, len(self.s), len(self.t)))
            fh.write(struct.pack("<dddd", self.hs, self.ht, float(self.s[0]), float(self.t[0])))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load_binary(cls, path) -> "AxiField":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != b"AXIF":
                raise InvalidParameterError(f"{path}: not an AxiField binary block")
            n, ns, nt = struct.unpack("<iii", fh.read(12))
            hs, ht, s0, t0 = struct.unpack("<dddd", fh.read(32))
            data = np.frombuffer(fh.read(8 * ns * nt), dtype="<f8").reshape(ns, nt)
        return cls(n=n, s=s0 + hs * np.arange(ns), t=t0 + ht * np.arange(nt), values=data.copy())


def apply_axisym_laplacian(f: AxiField) -> AxiField:
    """Second-order discrete Laplacian; entries not computable are NaN.

    Interior nodes use the centered 5-point stencil with the radial term
    (n-2)/s u_s; when the grid starts at s = 0 the axis column uses the
    symmetric limit (n-1) u_ss with the ghost value u(-hs) = u(hs).
    """
    if len(f.s) < 3 or len(f.t) < 3:
        raise InvalidParameterError("grid too small for the stencil")
    u, hs, ht = f.values, f.hs, f.ht
    out = np.full_like(u, np.nan)
    mid = u[1:-1, 1:-1]
    uss = (u[2:, 1:-1] - 2.0 * mid + u[:-2, 1:-1]) / (hs * hs)
    us = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * hs)
    utt = (u[1:-1, 2:] - 2.0 * mid + u[1:-1, :-2]) / (ht * ht)
    out[1:-1, 1:-1] = uss + ((f.n - 2) / f.s[1:-1])[:, None] * us + utt
    if f.has_axis:
        uss0 = 2.0 * (u[1, 1:-1] - u[0, 1:-1]) / (hs * hs)
        utt0 = (u[0, 2:] - 2.0 * u[0, 1:-1] + u[0, :-2]) / (ht * ht)
        out[0, 1:-1] = (f.n - 1) * uss0 + utt0
    return f.with_values(out)


def residual_semilinear(f: AxiField, beta: ReactionTerm) -> float:
    """Sup norm of Delta_h u - beta(u)/2 over the computable nodes."""
    lap = apply_axisym_laplacian(f).values
    r = lap - 0.5 * np.asarray(beta.eval(f.values))
    return float(np.nanmax(np.abs(r)))


def _unknown_mask(grid: GridSpec) -> np.ndarray:
    mask = np.zeros((grid.ns, grid.nt), dtype=bool)
    mask[1:-1, 1:-1] = True
    if grid.s_min == 0.0:
        mask[0, 1:-1] = True
    return mask


def _assemble_laplacian(grid: GridSpec):
    """Sparse matrix of the stencil on unknown nodes plus boundary couplings.

    Returns (L, B, mask) with L acting on unknowns and B on the full grid so
    that Delta_h u = L u_unknown + B u_full for fields agreeing on the
    boundary.
    """
    s, _ = grid.axes()
    hs, ht = grid.hs, grid.ht
    n, ns, nt = grid.n, grid.ns, grid.nt
    mask = _unknown_mask(grid)
    m = int(mask.sum())
    index = -np.ones((ns, nt), dtype=int)
    index[mask] = np.arange(m)
    i, j = np.nonzero(mask)
    axis = i == 0
    cs_p = (n - 1) * 2.0 / hs**2
    drift = (n - 2) / (2.0 * hs * np.where(axis, 1.0, s[i]))  # not used on the axis
    # (row node, neighbour node, weight); the axis column reflects its
    # west arm onto the east one, and the two diagonal terms sum in the CSR
    rows = np.arange(m)
    off = ~axis
    terms = [
        (rows, i, j, np.where(axis, -cs_p, -2.0 / hs**2)),
        (rows[off], i[off] - 1, j[off], (1.0 / hs**2 - drift)[off]),
        (rows, i + 1, j, np.where(axis, cs_p, 1.0 / hs**2 + drift)),
        (rows, i, j - 1, np.full(m, 1.0 / ht**2)),
        (rows, i, j + 1, np.full(m, 1.0 / ht**2)),
        (rows, i, j, np.full(m, -2.0 / ht**2)),
    ]
    r, ii, jj, w = (np.concatenate(parts) for parts in zip(*terms))
    inner = mask[ii, jj]
    L = sp.csr_matrix((w[inner], (r[inner], index[ii, jj][inner])), shape=(m, m))
    B = sp.csr_matrix((w[~inner], (r[~inner], (ii * nt + jj)[~inner])), shape=(m, ns * nt))
    return L, B, mask


@dataclass
class SolveResult:
    """Solver outcome: sup-norm residuals per accepted step, the damping
    merit (residual 2-norm), which the backtracking makes strictly decreasing,
    and the LU factors of the Jacobians."""

    field: AxiField
    residuals: list[float]
    merits: list[float]
    iterations: int
    factors: LUCounts


def solve_semilinear(
    beta: ReactionTerm,
    grid: GridSpec,
    boundary,
    tol: float = 1e-10,
    max_iter: int = 40,
) -> SolveResult:
    """Damped Newton solve of Delta_h u = beta(u)/2 with Dirichlet data.

    ``boundary`` is either a vectorized callable g(s, t) supplying data on
    the outer boundary and the initial guess everywhere, or an AxiField on
    the same grid used the same way.  Each Newton step solves with the exact
    Jacobian Delta_h - beta'(u)/2 and backtracks (halving, Armijo margin
    1e-4) until the 2-norm merit decreases; 50 failed halvings, or ``max_iter``
    steps without reaching ``tol``, raise ``NonconvergenceError`` carrying
    the last iterate and the sup-norm residual trace.
    """
    if tol <= 0.0:
        raise InvalidParameterError("tol must be positive")
    s, t = grid.axes()
    if callable(boundary):
        u = np.asarray(boundary(s[:, None], t[None, :]), dtype=float)
    else:
        if not isinstance(boundary, AxiField):
            raise InvalidParameterError("boundary must be a callable or an AxiField")
        u = boundary.values.copy()
    if u.shape != (grid.ns, grid.nt):
        raise InvalidParameterError("boundary data shape does not match the grid")

    L, B, mask = _assemble_laplacian(grid)
    bc_part = B @ u.ravel()

    def residual_vec(vec):
        return L @ vec + bc_part - 0.5 * np.asarray(beta.eval(vec))

    vec = u[mask]
    res = residual_vec(vec)
    # damping decreases the smooth 2-norm; convergence is in the sup norm
    merit = float(np.linalg.norm(res))
    history = [float(np.max(np.abs(res)))]
    merits = [merit]
    factors = LUCounts()
    iterations = 0
    while history[-1] > tol:
        if iterations >= max_iter:
            u[mask] = vec
            raise NonconvergenceError(
                f"Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(last sup residual {history[-1]:.3e})",
                last=AxiField(n=grid.n, s=s, t=t, values=u),
                trace=history,
            )
        J = L - sp.diags(0.5 * np.asarray(beta.deriv(vec)))
        step = factors.record(splu(J.tocsc(), permc_spec=LU_ORDER)).solve(-res)
        lam = 1.0
        for _ in range(51):
            trial = vec + lam * step
            trial_res = residual_vec(trial)
            trial_merit = float(np.linalg.norm(trial_res))
            if trial_merit <= (1.0 - 1e-4 * lam) * merit:
                break
            lam *= 0.5
        else:
            u[mask] = vec
            raise NonconvergenceError(
                f"Newton backtracking stagnated at iteration {iterations + 1} "
                f"(last sup residual {history[-1]:.3e})",
                last=AxiField(n=grid.n, s=s, t=t, values=u),
                trace=history,
            )
        vec, res, merit = trial, trial_res, trial_merit
        history.append(float(np.max(np.abs(res))))
        merits.append(merit)
        iterations += 1

    u[mask] = vec
    return SolveResult(
        field=AxiField(n=grid.n, s=s, t=t, values=u),
        residuals=history,
        merits=merits,
        iterations=iterations,
        factors=factors,
    )


def solve_semilinear_1d(
    beta: ReactionTerm,
    t_min: float,
    t_max: float,
    nt: int,
    left: float,
    right: float,
    tol: float = 1e-12,
    max_iter: int = 100,
    init=None,
) -> np.ndarray:
    """Newton solve of the discrete two-point problem v_tt = beta(v)/2.

    Dirichlet values ``left``/``right`` at the interval ends.  The tiling of
    the returned nodal values along s is an exact discrete solution of the
    full problem with one-dimensional data, which makes it the right far-field
    model and the reference for s-independence checks.  Stagnated
    backtracking, or ``max_iter`` damped Newton steps without reaching
    ``tol``, raise ``NonconvergenceError`` carrying the sup-norm residual trace.
    """
    t = np.linspace(t_min, t_max, nt)
    ht = t[1] - t[0]
    v = left + (right - left) * (t - t_min) / (t_max - t_min)
    v[0], v[-1] = left, right
    m = nt - 2
    main = -2.0 / ht**2 * np.ones(m)
    off = 1.0 / ht**2 * np.ones(m - 1)

    def res_of(w):
        lap = (np.concatenate((w[1:], [right])) - 2.0 * w + np.concatenate(([left], w[:-1]))) / ht**2
        return lap - 0.5 * np.asarray(beta.eval(w))

    if init is not None:
        v = np.asarray(init(t) if callable(init) else init, dtype=float).copy()
        v[0], v[-1] = left, right
    w = v[1:-1].copy()
    res = res_of(w)
    # damping decreases the smooth 2-norm; convergence is in the sup norm
    merit = float(np.linalg.norm(res))
    history = [float(np.max(np.abs(res)))]
    while history[-1] > tol:
        if len(history) > max_iter:
            raise NonconvergenceError(
                f"1D Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(last sup residual {history[-1]:.3e})",
                trace=history,
            )
        J = sp.diags([off, main - 0.5 * np.asarray(beta.deriv(w)), off], offsets=[-1, 0, 1]).tocsc()
        step = splu(J, permc_spec=LU_ORDER).solve(-res)
        lam = 1.0
        for _ in range(51):
            trial = w + lam * step
            trial_res = res_of(trial)
            trial_merit = float(np.linalg.norm(trial_res))
            if trial_merit <= (1.0 - 1e-4 * lam) * merit:
                break
            lam *= 0.5
        else:
            raise NonconvergenceError(
                f"1D Newton backtracking stagnated at iteration {len(history)} "
                f"(last sup residual {history[-1]:.3e})",
                trace=history,
            )
        w, res, merit = trial, trial_res, trial_merit
        history.append(float(np.max(np.abs(res))))
    v[1:-1] = w
    return v


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dirichlet and potential parts of a layer energy; total is their sum."""

    dirichlet: float
    potential: float
    measure_weight: bool

    @property
    def total(self) -> float:
        return self.dirichlet + self.potential


def energy(
    f: AxiField,
    beta: ReactionTerm | None = None,
    epsilon: float | None = None,
    one_phase: bool = False,
    weighted: bool = True,
    threshold: float = 0.0,
) -> EnergyBreakdown:
    """Midpoint-rule energy: gradient square plus layer potential or indicator.

    The quadrature is cell-based (gradient and field value taken at cell
    centers from the bilinear interpolant), which integrates piecewise-affine
    fields exactly.  With ``one_phase`` the potential is the measure of
    {u > threshold}; otherwise it is the rescaled primitive at width
    ``epsilon`` (required).  With ``weighted`` the cylindrical measure
    s^(n-2) times the unit-sphere area is applied.
    """
    if one_phase == (beta is not None):
        raise InvalidParameterError("pass exactly one of one_phase or beta")
    if beta is not None and epsilon is None:
        raise InvalidParameterError("epsilon is required with a reaction term")

    u = f.values
    hs, ht = f.hs, f.ht
    du_s = (u[1:, :] - u[:-1, :]) / hs
    du_t = (u[:, 1:] - u[:, :-1]) / ht
    grad_s = 0.5 * (du_s[:, 1:] + du_s[:, :-1])
    grad_t = 0.5 * (du_t[1:, :] + du_t[:-1, :])
    center = 0.25 * (u[1:, 1:] + u[:-1, 1:] + u[1:, :-1] + u[:-1, :-1])

    if weighted:
        s_mid = 0.5 * (f.s[1:] + f.s[:-1])
        w = unit_sphere_area(f.n - 2) * s_mid ** (f.n - 2)
    else:
        w = np.ones(len(f.s) - 1)
    cell = hs * ht * w[:, None]

    dirichlet = float(np.sum(np.sum((grad_s**2 + grad_t**2) * cell, axis=1)))
    if one_phase:
        pot_density = (center > threshold).astype(float)
    else:
        pot_density = np.asarray(rescale(beta, epsilon).primitive(center))
    potential = float(np.sum(np.sum(pot_density * cell, axis=1)))
    return EnergyBreakdown(dirichlet=dirichlet, potential=potential, measure_weight=weighted)


@dataclass
class BlowDownResult:
    field: AxiField
    residual: float | None


def blow_down(
    f: AxiField,
    epsilon: float,
    beta: ReactionTerm | None = None,
    target: GridSpec | None = None,
) -> BlowDownResult:
    """The rescaled field eps * u(x / eps), optionally resampled to a grid.

    Without a target the grid itself is scaled by eps, which is exact (and
    bitwise the identity at eps = 1).  With a target the values are bilinear
    samples; the target must fit inside the rescaled source domain.  When a
    reaction term is supplied the discrete residual of the rescaled equation
    (with the matching width-eps term) is reported alongside.
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    if target is None:
        out = AxiField(n=f.n, s=epsilon * f.s, t=epsilon * f.t, values=epsilon * f.values)
    else:
        s, t = target.axes()
        pad = 1e-12 * max(abs(f.s[-1]), abs(f.t[-1]), 1.0)
        if (
            s[0] / epsilon < f.s[0] - pad
            or s[-1] / epsilon > f.s[-1] + pad
            or t[0] / epsilon < f.t[0] - pad
            or t[-1] / epsilon > f.t[-1] + pad
        ):
            raise DomainError("target grid reaches outside the rescaled source domain")
        interp = RegularGridInterpolator((f.s, f.t), f.values, method="linear", bounds_error=False, fill_value=None)
        S, T = np.meshgrid(s / epsilon, t / epsilon, indexing="ij")
        out = AxiField(n=target.n, s=s, t=t, values=epsilon * interp((S, T)))
    res = None
    if beta is not None:
        res = residual_semilinear(out, rescale(beta, epsilon).term)
    return BlowDownResult(field=out, residual=res)


def lipschitz_monitor(f: AxiField) -> float:
    """Sup over interior nodes of the centered-difference gradient magnitude."""
    u = f.values
    gs = np.zeros_like(u)
    gt = np.zeros_like(u)
    gs[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * f.hs)
    gt[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * f.ht)
    if f.has_axis:
        mag = np.hypot(gs[:-1, 1:-1], gt[:-1, 1:-1])  # axis column included, u_s = 0 there
    else:
        mag = np.hypot(gs[1:-1, 1:-1], gt[1:-1, 1:-1])
    return float(np.max(mag))


def max_principle_defect(f: AxiField) -> float:
    """How far the interior maximum exceeds the boundary maximum (<= 0 is clean)."""
    interior = f.values[1:-1, 1:-1]
    if f.has_axis:
        interior = f.values[:-1, 1:-1]
    boundary = np.concatenate(
        (f.values[0, :] if not f.has_axis else f.values[-1, :], f.values[-1, :], f.values[:, 0], f.values[:, -1])
    )
    return float(np.max(interior) - np.max(boundary))
