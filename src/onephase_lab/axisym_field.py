"""Axisymmetric scalar fields on (s, t) grids and the semilinear solver.

Functions of n variables that depend only on the cylindrical radius
s = |x'| and the height t = x_n live on a rectangular half-plane grid; the
Laplacian becomes u_ss + (n-2)/s u_s + u_tt, with the singular term replaced
at s = 0 by its symmetric limit (n-1) u_ss through a ghost reflection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import DomainError, InvalidParameterError, NonconvergenceError
from .numerics import LU_ORDER, LUCounts, stencil_matrix, unit_sphere_area
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

    def sample(self, points) -> np.ndarray:
        """Bilinear values at ``points``, continued linearly outside the grid.

        ``points`` is an array of (s, t) pairs in its last axis, or a tuple
        (s, t) of broadcastable coordinate arrays.
        """
        interp = RegularGridInterpolator((self.s, self.t), self.values, bounds_error=False, fill_value=None)
        return interp(points)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "AxiField":
        s, t = grid.axes()
        vals = np.broadcast_to(
            np.asarray(fn(s[:, None], t[None, :]), dtype=float), (grid.ns, grid.nt)
        ).copy()
        return cls(n=grid.n, s=s, t=t, values=vals)

    def save_binary(self, path) -> None:
        """AXIF block: b"AXIF", int32 n, ns, nt, then little-endian float64
        s[ns], t[nt] and the values in row-major order.  Storing the axes
        themselves makes ``load_binary`` return them bit for bit."""
        with open(path, "wb") as fh:
            fh.write(b"AXIF")
            fh.write(struct.pack("<iii", self.n, len(self.s), len(self.t)))
            for arr in (self.s, self.t, self.values):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load_binary(cls, path) -> "AxiField":
        """Read a ``save_binary`` block, checking its size against its header."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 16 or blob[:4] != b"AXIF":
            raise InvalidParameterError(f"{path}: not an AxiField binary block")
        n, ns, nt = struct.unpack("<iii", blob[4:16])
        if ns <= 0 or nt <= 0 or len(blob) - 16 != 8 * (ns + nt + ns * nt):
            raise InvalidParameterError(
                f"{path}: AXIF header ns={ns}, nt={nt} does not match its {len(blob) - 16} data bytes"
            )
        data = np.frombuffer(blob, dtype="<f8", offset=16).astype(float)
        return cls(n=n, s=data[:ns], t=data[ns : ns + nt], values=data[ns + nt :].reshape(ns, nt))


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


def _unknown_mask(shape, axis: bool) -> np.ndarray:
    """The interior nodes of a grid of ``shape``, plus the s = 0 column's
    interior when ``axis`` (the symmetry axis is solved for, not data)."""
    mask = np.zeros(shape, dtype=bool)
    mask[1:-1, 1:-1] = True
    mask[0, 1:-1] = axis
    return mask


def _assemble_laplacian(grid: GridSpec):
    """(L, mask): L is the derivative of Delta_h u on the unknown nodes with
    respect to the unknowns, the boundary values held fixed.
    """
    s, _ = grid.axes()
    hs, ht, n = grid.hs, grid.ht, grid.n
    mask = _unknown_mask((grid.ns, grid.nt), grid.s_min == 0.0)
    i, _ = np.nonzero(mask)
    m = len(i)
    axis = i == 0
    # the axis column reflects its s- arm onto the s+ one
    cs_p = (n - 1) * 2.0 / hs**2
    drift = (n - 2) / (2.0 * hs * np.where(axis, 1.0, s[i]))  # not used on the axis
    diag = np.where(axis, -cs_p, -2.0 / hs**2) + -2.0 / ht**2
    t_arm = np.full(m, 1.0 / ht**2)
    arms = (1.0 / hs**2 - drift, np.where(axis, cs_p, 1.0 / hs**2 + drift), t_arm, t_arm)
    return stencil_matrix(mask, diag, arms), mask


@dataclass
class SolveResult:
    """Solver outcome: sup-norm residuals per accepted step, the LU factors
    of the coarsest level's Jacobians and the GMRES iterations of the finer
    levels."""

    field: AxiField
    residuals: list[float]
    iterations: int
    factors: LUCounts


# GMRES on the levels above the coarsest: relative tolerance (atol = 0),
# restart length and restart cycles.  Its preconditioner is one V-cycle
# whose damped line-Jacobi sweeps have weight SMOOTH_OMEGA.
KRYLOV_RTOL, KRYLOV_RESTART, KRYLOV_MAXITER = 1e-6, 30, 10
SMOOTH_OMEGA = 0.8


def _lu(J, counts: LUCounts):
    """A sparse LU of ``J`` in the lab's column ordering, counted in ``counts``."""
    return counts.record(splu(J.tocsc(), permc_spec=LU_ORDER))


def _damped_newton(x, residual, jacobian, finish, tol, max_iter, label, factor=_lu):
    """Damped Newton iteration on the unknown vector ``x``.

    ``residual(x)`` returns the residual vector and ``jacobian(x)`` its
    Jacobian as a sparse matrix.  ``factor(J, counts)`` returns an object
    whose ``solve`` applies the inverse of J: a sparse LU by default, a
    V-cycle preconditioned GMRES (``_KrylovSolve``) on the 2D levels above
    the coarsest.  Each step backtracks (halving, Armijo margin 1e-4) until
    the residual 2-norm, the merit, decreases strictly; a trial that leaves x
    unchanged ends the backtracking as failed.  Convergence is judged in the
    sup norm.  After a step that cut the merit tenfold the factor is
    reused (a chord step); a chord step failing at full length is redone with
    a fresh factor, so only a fresh Jacobian can stagnate.
    Stagnated backtracking, or ``max_iter`` steps without reaching ``tol``,
    raise ``NonconvergenceError`` carrying ``finish(x)`` of the last iterate
    and the sup-norm trace; on a GMRES level the message also names the last
    solve's iteration count and exit status.  Returns (finish(x), sup norms,
    merits, factors).
    """
    res = residual(x)
    # damping decreases the smooth 2-norm; convergence is in the sup norm
    merit = float(np.linalg.norm(res))
    history = [float(np.max(np.abs(res)))]
    merits = [merit]
    factors = LUCounts()
    lu = None

    def failure(what, x):
        message = f"{label} {what} (last sup residual {history[-1]:.3e})"
        if factors.krylov_last is not None:
            message += "; last GMRES solve: %d iterations, exit status %d" % factors.krylov_last
        return NonconvergenceError(message, last=finish(x), trace=history)

    while history[-1] > tol:
        iterations = len(history) - 1
        if iterations >= max_iter:
            raise failure(f"did not reach tol={tol:g} in {max_iter} iterations", x)
        fresh = lu is None
        if fresh:
            lu = factor(jacobian(x), factors)
        step = lu.solve(-res)
        lam, accepted = 1.0, False
        for _ in range(51 if fresh else 1):
            trial = x + lam * step
            if np.array_equal(trial, x):
                break  # the step is below round-off, and so is every shorter one
            trial_res = residual(trial)
            trial_merit = float(np.linalg.norm(trial_res))
            # strictly lower: at lam ~ 1e-12 the Armijo margin rounds away
            if trial_merit < merit and trial_merit <= (1.0 - 1e-4 * lam) * merit:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if not fresh:
                lu = None
                continue
            raise failure(f"backtracking stagnated at iteration {iterations + 1}", x)
        lu = lu if trial_merit <= 0.1 * merit else None
        x, res, merit = trial, trial_res, trial_merit
        history.append(float(np.max(np.abs(res))))
        merits.append(merit)
    return finish(x), history, merits, factors


def _prolong(c: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of every-other-node values ``c`` to the full grid."""
    p = np.empty((2 * c.shape[0] - 1, 2 * c.shape[1] - 1))
    p[::2, ::2] = c
    p[1::2, ::2] = 0.5 * (c[:-1] + c[1:])
    p[:, 1::2] = 0.5 * (p[:, :-2:2] + p[:, 2::2])
    return p


def _restrict(r: np.ndarray, axis: bool) -> np.ndarray:
    """Full weighting of ``r`` onto the every-other-node grid; with ``axis``
    the first row is weighed with its mirror image u(-hs) = u(hs)."""

    def weigh(a, mirror):
        c = 0.5 * a[::2]
        c[1:] += 0.25 * a[1::2]
        c[:-1] += 0.25 * a[1::2]
        if mirror:
            c[0] += 0.25 * a[1]
        return c

    return weigh(weigh(r, axis).T, False).T


class _KrylovSolve:
    """GMRES on a fine-level Jacobian ``J``, preconditioned by one V-cycle.

    The cycle does one damped line-Jacobi sweep along s (each grid line
    solved with its tridiagonal part of J), restricts the residual to the
    coarser level by full weighting, applies that level's final ``coarse``
    cycle (its LU solve at the coarsest level), prolongates the correction
    bilinearly and ends with a sweep along t.  Line sweeps keep the cycle
    effective where one direction's couplings dominate: along s near the
    axis at large n and when ht exceeds hs, along t when hs exceeds ht.
    GMRES iterations go to ``counts``.
    """

    def __init__(self, J, counts: LUCounts, mask, coarse_mask, coarse):
        self.J, self.counts, self.mask, self.coarse_mask, self.coarse = J, counts, mask, coarse_mask, coarse
        m = J.shape[0]
        # unknowns in row-major (s, t) order; "F" lays the s-lines out contiguously
        self.shape = (m // (mask.shape[1] - 2), mask.shape[1] - 2)
        self.lines = []
        for offset, order in ((self.shape[1], "F"), (1, "C")):
            up, lo = np.zeros(m), np.zeros(m)
            up[:-offset], lo[:-offset] = J.diagonal(offset), J.diagonal(-offset)
            up, diag, lo = (a.reshape(self.shape).ravel(order) for a in (up, J.diagonal(), lo))
            self.lines.append((order, dgttrf(lo[:-1], diag, up[:-1])[:5]))

    def _sweep(self, r, order, factor):
        """The damped line-Jacobi correction for the residual ``r``."""
        d = dgttrs(*factor, r.reshape(self.shape).ravel(order))[0]
        return SMOOTH_OMEGA * d.reshape(self.shape, order=order).ravel()

    def cycle(self, b):
        x = self._sweep(b, *self.lines[0])
        r = np.zeros(self.mask.shape)
        r[self.mask] = b - self.J @ x
        e = np.zeros(self.coarse_mask.shape)
        e[self.coarse_mask] = self.coarse(_restrict(r, self.mask[0].any())[self.coarse_mask])
        x += _prolong(e)[self.mask]
        return x + self._sweep(b - self.J @ x, *self.lines[1])

    def solve(self, b):
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        # M is built per call: kept on self, its bound self.cycle would make a
        # reference cycle that holds J and the coarse levels until a cyclic GC
        x, info = gmres(
            self.J, b, rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART, maxiter=KRYLOV_MAXITER,
            M=LinearOperator(self.J.shape, matvec=self.cycle, dtype=float), callback=count, callback_type="pr_norm",
        )
        self.counts.krylov_iterations += iterations
        self.counts.krylov_last = (iterations, info)
        return x


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
    the same grid used the same way.  While both node counts are odd and the
    every-other-node grid keeps 65 or more per direction, that grid is solved
    first and its bilinear prolongation is the start of the finer one.  Each
    level is a ``_damped_newton`` on Delta_h u - beta(u)/2, evaluated like
    ``residual_semilinear``, with Jacobian Delta_h - beta'(u)/2.  Only the
    coarsest level factors its Jacobian (sparse LU); every finer level solves
    its Newton systems with GMRES preconditioned by one V-cycle over the
    coarser levels.  A level that stagnates or misses ``tol`` in ``max_iter``
    steps raises ``NonconvergenceError`` with its last iterate and trace,
    naming the grid if it is coarse.  ``factors`` counts all levels.
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
    return _solve_levels(beta, grid, u, tol, max_iter)


class _Level:
    """One grid of the nested solve: Delta_h u - beta(u)/2 on the unknowns of
    ``values`` (boundary values held fixed) and its Jacobian."""

    def __init__(self, beta, grid: GridSpec, values: np.ndarray):
        self.beta = beta
        self.L, self.mask = _assemble_laplacian(grid)
        self.field = AxiField(grid.n, *grid.axes(), values)

    def residual(self, vec):
        self.field.values[self.mask] = vec
        return apply_axisym_laplacian(self.field).values[self.mask] - 0.5 * np.asarray(self.beta.eval(vec))

    def jacobian(self, vec):
        return (self.L - sp.diags(0.5 * np.asarray(self.beta.deriv(vec)))).tocsr()

    def finish(self, vec):
        self.field.values[self.mask] = vec
        return self.field


def _level_strides(ns: int, nt: int) -> list[int]:
    """Node strides of the nested levels of an ns x nt grid, coarsest first: a
    level has an every-other-node one below it while both its node counts are
    odd and the halved grid keeps 65 or more nodes per direction."""
    strides = [1]
    while ns % 2 == nt % 2 == 1 and min(ns, nt) >= 129:
        ns, nt, strides = (ns + 1) // 2, (nt + 1) // 2, [2 * strides[0], *strides]
    return strides


def _level_cycle(J, counts: LUCounts, mask, coarse):
    """The preconditioner of the level with matrix ``J`` on the unknowns ``mask``: its LU
    solve at the coarsest level (``coarse`` None), else one V-cycle over ``coarse = (mask, cycle)``."""
    return _lu(J, counts).solve if coarse is None else _KrylovSolve(J, counts, mask, *coarse).cycle


def _solve_levels(beta, grid, u, tol, max_iter) -> SolveResult:
    """``solve_semilinear`` on the start ``u`` (modified in place), coarsest level first."""
    counts, coarse, below = LUCounts(), None, None
    for stride in _level_strides(grid.ns, grid.nt):
        g = replace(grid, ns=(grid.ns - 1) // stride + 1, nt=(grid.nt - 1) // stride + 1)
        level = _Level(beta, g, u if stride == 1 else u[::stride, ::stride].copy())
        mask, values = level.mask, level.field.values
        if coarse is not None:
            values[mask] = _prolong(below)[mask]
        factor = _lu if coarse is None else partial(_KrylovSolve, mask=mask, coarse_mask=coarse[0], coarse=coarse[1])
        label = "Newton" if stride == 1 else f"Newton on the coarse {g.ns}x{g.nt} grid"
        field, history, _, factors = _damped_newton(
            values[mask], level.residual, level.jacobian, level.finish, tol, max_iter, label, factor
        )
        counts.merge(factors)
        if stride > 1:
            # the next level's coarse correction: this level's Jacobian at its solution
            coarse = (mask, _level_cycle(level.jacobian(values[mask]), counts, mask, coarse))
            below = values
    return SolveResult(field=field, residuals=history, iterations=len(history) - 1, factors=counts)


def solve_semilinear_1d(
    beta: ReactionTerm,
    t_min: float,
    t_max: float,
    nt: int,
    left: float,
    right: float,
    init,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Newton solve of the discrete two-point problem v_tt = beta(v)/2.

    Dirichlet values ``left``/``right`` at the interval ends; ``init`` is the
    starting guess, nt nodal values or a callable of the nodes.  The tiling of
    the returned nodal values along s is an exact discrete solution of the
    full problem with one-dimensional data, which makes it the right far-field
    model and the reference for s-independence checks.  Stagnated
    backtracking, or ``max_iter`` damped Newton steps without reaching
    ``tol``, return the last iterate when its sup residual is at or below the
    round-off floor 4 eps max|v| / ht^2 of the grid, and otherwise raise
    ``NonconvergenceError`` naming that floor and carrying the last iterate
    and the sup-norm residual trace.
    """
    t = np.linspace(t_min, t_max, nt)
    ht = t[1] - t[0]
    v = np.asarray(init(t) if callable(init) else init, dtype=float).copy()
    v[0], v[-1] = left, right
    m = nt - 2
    main = -2.0 / ht**2 * np.ones(m)
    off = 1.0 / ht**2 * np.ones(m - 1)

    def res_of(w):
        lap = (np.concatenate((w[1:], [right])) - 2.0 * w + np.concatenate(([left], w[:-1]))) / ht**2
        return lap - 0.5 * np.asarray(beta.eval(w))

    def jacobian(w):
        return sp.diags([off, main - 0.5 * np.asarray(beta.deriv(w)), off], offsets=[-1, 0, 1])

    def finish(w):
        v[1:-1] = w
        return v

    try:
        return _damped_newton(v[1:-1].copy(), res_of, jacobian, finish, tol, max_iter, "1D Newton")[0]
    except NonconvergenceError as err:
        floor = 4.0 * np.finfo(float).eps * float(np.max(np.abs(err.last))) / ht**2
        if err.trace[-1] <= floor:
            return err.last
        raise NonconvergenceError(f"{err}; round-off floor {floor:.3e}", last=err.last, trace=err.trace) from None


def _cell_gradient_sq(f: AxiField) -> np.ndarray:
    """Squared gradient of the bilinear interpolant at the cell centers."""
    u = f.values
    du_s = (u[1:, :] - u[:-1, :]) / f.hs
    du_t = (u[:, 1:] - u[:, :-1]) / f.ht
    grad_s = 0.5 * (du_s[:, 1:] + du_s[:, :-1])
    grad_t = 0.5 * (du_t[1:, :] + du_t[:-1, :])
    return grad_s**2 + grad_t**2


def _cell_measure(f: AxiField) -> np.ndarray:
    """Cylindrical cell measures |S^(n-2)| s_mid^(n-2) hs ht, one row per cell column."""
    s_mid = 0.5 * (f.s[1:] + f.s[:-1])
    w = unit_sphere_area(f.n - 2) * s_mid ** (f.n - 2)
    return f.hs * f.ht * w[:, None]


def _centered_gradient(f: AxiField) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences (u_s, u_t) at the nodes.

    Entries whose stencil does not fit are NaN, except that u_s is 0 on the
    axis column (the field is even in s).
    """
    u = f.values
    gs = np.full_like(u, np.nan)
    gt = np.full_like(u, np.nan)
    gs[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * f.hs)
    gt[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * f.ht)
    if f.has_axis:
        gs[0, :] = 0.0
    return gs, gt


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dirichlet and potential parts of a layer energy; total is their sum."""

    dirichlet: float
    potential: float

    @property
    def total(self) -> float:
        return self.dirichlet + self.potential


def energy(
    f: AxiField,
    beta: ReactionTerm | None = None,
    epsilon: float | None = None,
    one_phase: bool = False,
    weighted: bool = True,
) -> EnergyBreakdown:
    """Midpoint-rule energy: gradient square plus layer potential or indicator.

    The quadrature is cell-based (gradient and field value taken at cell
    centers from the bilinear interpolant), which integrates piecewise-affine
    fields exactly.  With ``one_phase`` the potential is the measure of
    {u > 0}; otherwise it is the rescaled primitive at width
    ``epsilon`` (required).  With ``weighted`` the cylindrical measure
    s^(n-2) times the unit-sphere area is applied.
    """
    if one_phase == (beta is not None):
        raise InvalidParameterError("pass exactly one of one_phase or beta")
    if beta is not None and epsilon is None:
        raise InvalidParameterError("epsilon is required with a reaction term")

    u = f.values
    gradsq = _cell_gradient_sq(f)
    cell = _cell_measure(f) if weighted else np.full((len(f.s) - 1, 1), f.hs * f.ht)
    center = 0.25 * (u[1:, 1:] + u[:-1, 1:] + u[1:, :-1] + u[:-1, :-1])

    dirichlet = float(np.sum(np.sum(gradsq * cell, axis=1)))
    if one_phase:
        pot_density = (center > 0.0).astype(float)
    else:
        pot_density = np.asarray(rescale(beta, epsilon).primitive(center))
    potential = float(np.sum(np.sum(pot_density * cell, axis=1)))
    return EnergyBreakdown(dirichlet=dirichlet, potential=potential)


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
        S, T = np.meshgrid(s / epsilon, t / epsilon, indexing="ij")
        out = AxiField(n=target.n, s=s, t=t, values=epsilon * f.sample((S, T)))
    res = None
    if beta is not None:
        res = residual_semilinear(out, rescale(beta, epsilon))
    return BlowDownResult(field=out, residual=res)


def lipschitz_monitor(f: AxiField) -> float:
    """Sup of the centered-difference gradient magnitude over the unknown
    nodes (the axis column included, where u_s = 0)."""
    gs, gt = _centered_gradient(f)
    inner = _unknown_mask(f.values.shape, f.has_axis)
    return float(np.max(np.hypot(gs[inner], gt[inner])))


def max_principle_defect(f: AxiField) -> float:
    """How far the maximum over the unknown nodes exceeds the maximum over the
    outer boundary (<= 0 is clean)."""
    inner = _unknown_mask(f.values.shape, f.has_axis)
    return float(np.max(f.values[inner]) - np.max(f.values[~inner]))
