"""Axisymmetric scalar fields on (s, t) grids and the semilinear solver.

Functions of n variables that depend only on the cylindrical radius
s = |x'| and the height t = x_n live on a rectangular half-plane grid; the
Laplacian becomes u_ss + (n-2)/s u_s + u_tt, with the singular term replaced
at s = 0 by its symmetric limit (n-1) u_ss through a ghost reflection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgttrf, dgttrs, dlartg
from scipy.sparse.linalg import splu

from .errors import InvalidParameterError, NonconvergenceError
from .numerics import LU_OPTIONS, LUCounts, stencil_matrix, unit_sphere_area
from .reaction_terms import ReactionTerm, rescale


def _spacing(first, last, count: int) -> float:
    """The one grid spacing, (x[-1] - x[0]) / (len(x) - 1) on an axis x: the step of ``np.linspace``."""
    return float(last - first) / (count - 1)


def _weight_factors(n: int, s: np.ndarray, t: np.ndarray) -> tuple[float, dict]:
    """|S^(n-2)| and each weight family's (radial, axial) factors on the axes
    (s, t), the one source of every weight of |S^(n-2)| s^(n-2) ds dt.

    A weight is the rounded product (|S^(n-2)| radial_i) axial_j.  Radially
    s^(n-2) hs at the nodes (halved on the outer column, the exact half-cell
    integral (hs/2)^(n-1)/(n-1) on the axis) or s_mid^(n-2) hs at the cell
    midpoints; axially ht at the nodes (halved on the first and last rows)
    or ht per cell.
    """
    # a numpy hs, whose power overflows to inf where a float's would raise
    hs, ht, m = np.float64(_spacing(s[0], s[-1], len(s))), _spacing(t[0], t[-1], len(t)), n - 2
    radial = s**m * hs
    radial[-1] = s[-1] ** m * hs / 2.0
    radial[0] = (hs / 2.0) ** (m + 1) / (m + 1) if s[0] == 0.0 else s[0] ** m * hs / 2.0
    radial_mid = (0.5 * (s[1:] + s[:-1])) ** m * hs
    axial = np.full(len(t), ht)
    axial[0] = axial[-1] = ht / 2.0
    pairs = {"node": (radial, axial), "s-edge": (radial_mid, axial), "t-edge": (radial, ht), "cell": (radial_mid, ht)}
    return unit_sphere_area(m), pairs


def grid_weights(f: AxiField, family: str) -> np.ndarray:
    """The "node", "s-edge", "t-edge" or "cell" weights of f's grid (t-edges and cells: one column)."""
    area, pairs = _weight_factors(f.n, f.s, f.t)
    radial, axial = pairs[family]
    return area * radial[:, None] * axial


def require_representable_weights(n: int, s: np.ndarray, t: np.ndarray) -> None:
    """Reject the axes (s, t) at dimension n unless every weight of every
    family, and every partial product it forms, is finite.  Rounding is
    monotone, so a family's largest weight is the rounded product of its
    largest factors: the check reads the factors alone, in O(ns + nt)."""
    with np.errstate(over="ignore", invalid="ignore"):
        area, pairs = _weight_factors(n, s, t)
        overflowed = [name for name, (r, a) in pairs.items() if not np.isfinite(area * r.max() * np.max(a))]
    if overflowed:
        hs, ht = _spacing(s[0], s[-1], len(s)), _spacing(t[0], t[-1], len(t))
        raise InvalidParameterError(
            f"the {', '.join(overflowed)} weights at n = {n} must be finite, but on this grid (s_max = {s[-1]:g}, "
            f"hs = {hs:.6g}, ht = {ht:.6g}) the weight |S^(n-2)| s^(n-2) hs ht overflows"
        )


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
        # a finite width needs finite extents whose difference does not overflow
        widths = (self.s_max - self.s_min, self.t_max - self.t_min)
        if not (self.s_min >= 0.0 and all(math.inf > w > 0.0 for w in widths)):
            raise InvalidParameterError("degenerate or non-finite grid extents")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The nodes, from ``np.linspace``.  On a t extent symmetric about 0
        the t nodes are made mirror-exact, t[nt - 1 - j] == -t[j] bit for
        bit, by 0.5 (t - t[::-1]): where ``linspace`` nodes already are,
        they stay; elsewhere a node moves by at most two ulps of the extent."""
        t = np.linspace(self.t_min, self.t_max, self.nt)
        if self.t_min == -self.t_max:
            t = 0.5 * (t - t[::-1])
        return np.linspace(self.s_min, self.s_max, self.ns), t

    @property
    def hs(self) -> float:
        return _spacing(self.s_min, self.s_max, self.ns)

    @property
    def ht(self) -> float:
        return _spacing(self.t_min, self.t_max, self.nt)


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
        return _spacing(self.s[0], self.s[-1], len(self.s))

    @property
    def ht(self) -> float:
        return _spacing(self.t[0], self.t[-1], len(self.t))

    @property
    def has_axis(self) -> bool:
        return self.s[0] == 0.0

    def same_grid(self, other: "AxiField") -> bool:
        return self.n == other.n and np.array_equal(self.s, other.s) and np.array_equal(self.t, other.t)

    def with_values(self, values: np.ndarray) -> "AxiField":
        return replace(self, values=values)

    def sample(self, points) -> np.ndarray:
        """Bilinear values at ``points``; NaN off the grid.

        ``points`` is an array of (s, t) pairs in its last axis.  A point in
        the closed box [s[0], s[-1]] x [t[0], t[-1]] takes the cell
        ``s[i] <= s < s[i+1]``, ``t[j] <= t < t[j+1]`` (the last cell also
        its far edge) and the weighted values of that cell's four corners;
        any other point reads NaN, as does one whose cell has a NaN corner.
        """
        points = np.asarray(points, dtype=float)
        s, t = points[..., 0], points[..., 1]
        i, ys = _cell(self.s, s)
        j, yt = _cell(self.t, t)
        nt, v = len(self.t), self.values.ravel()
        k = i * nt + j  # the cell's lower-left corner in the flat values
        zs, zt = 1.0 - ys, 1.0 - yt
        value = v[k] * zs * zt + v[k + 1] * zs * yt + v[k + nt] * ys * zt + v[k + nt + 1] * ys * yt
        on_grid = (s >= self.s[0]) & (s <= self.s[-1]) & (t >= self.t[0]) & (t <= self.t[-1])
        return np.where(on_grid, value, np.nan)

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
        """Read a ``save_binary`` block, checking its size against its header
        and its grid against ``GridSpec``'s rules: n >= 2, and on each axis at
        least 3 finite, strictly increasing, uniform nodes (each step within
        4 eps max|x| of ``_spacing``), s from 0 up."""
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
        s, t = data[:ns], data[ns : ns + nt]
        with np.errstate(over="ignore", invalid="ignore"):  # a width that overflows is refused, as in GridSpec
            axes = all(
                len(x) >= 3
                and np.all(np.isfinite(x))
                and np.all(np.diff(x) > 0.0)
                and np.max(np.abs(np.diff(x) - _spacing(x[0], x[-1], len(x))))
                <= 4.0 * np.finfo(float).eps * np.max(np.abs(x))
                for x in (s, t)
            )
        if n < 2 or not (axes and s[0] >= 0.0):
            raise InvalidParameterError(f"{path}: AXIF grid n={n}, ns={ns}, nt={nt} breaks the grid rules")
        return cls(n=n, s=s, t=t, values=data[ns + nt :].reshape(ns, nt))


def _cell(axis: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index i of the cell ``axis[i] <= x < axis[i+1]`` (clamped to the grid's
    cells) and the fraction of the cell's width at which ``x`` lies."""
    i = np.searchsorted(axis[1:-1], x, side="right")
    return i, (x - axis[i]) / (axis[i + 1] - axis[i])


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
    """Sup norm of Delta_h u - beta(u)/2 over the unknown nodes, where Delta_h
    is defined (``_unknown_mask``); NaN if any of them reads NaN."""
    inner = _unknown_mask(f.values.shape, f.has_axis)
    lap = apply_axisym_laplacian(f).values[inner]
    return float(np.max(np.abs(lap - 0.5 * np.asarray(beta.eval(f.values[inner])))))


def _unknown_mask(shape, axis: bool, mirror: bool = False) -> np.ndarray:
    """The interior nodes of a grid of ``shape``, plus the s = 0 column's
    interior when ``axis`` (the symmetry axis is solved for, not data) and
    the first t column's when ``mirror`` (the mirror line t = 0 of a grid
    folded onto its t >= 0 columns)."""
    mask = np.zeros(shape, dtype=bool)
    mask[1 - int(axis) : -1, 1 - int(mirror) : -1] = True
    return mask


def _assemble_laplacian(grid: GridSpec, mirror: bool = False):
    """(L, mask): L is the derivative of Delta_h u on the unknown nodes with
    respect to the unknowns, the boundary values held fixed.  With
    ``mirror`` the unknowns are those of the last (nt + 1) // 2 columns of
    ``grid``, for fields even in t: at odd nt the t >= 0 columns, the mirror
    line t = 0 included; at even nt the columns past the mirror line, which
    falls between two nodes.
    """
    s, _ = grid.axes()
    hs, ht, n = grid.hs, grid.ht, grid.n
    mask = _unknown_mask((grid.ns, (grid.nt + 1) // 2 if mirror else grid.nt), grid.s_min == 0.0, mirror)
    i, j = np.nonzero(mask)
    axis = i == 0
    # the axis column reflects its s- arm onto the s+ one; column 0, folded,
    # reflects its t- arm onto the t+ one on the mirror line (odd nt), and
    # onto itself next to it (even nt)
    on_line, by_line = (j == 0) & (grid.nt % 2 == 1), (j == 0) & (grid.nt % 2 == 0)
    cs_p = (n - 1) * 2.0 / hs**2
    drift = (n - 2) / (2.0 * hs * np.where(axis, 1.0, s[i]))  # not used on the axis
    diag = np.where(axis, -cs_p, -2.0 / hs**2) + np.where(by_line, -1.0, -2.0) / ht**2
    t_arm = np.full(len(i), 1.0 / ht**2)
    arms = (1.0 / hs**2 - drift, np.where(axis, cs_p, 1.0 / hs**2 + drift), t_arm, np.where(on_line, 2.0 / ht**2, t_arm))
    return stencil_matrix(mask, diag, arms), mask


@dataclass
class SolveResult:
    """Solver outcome: the finest level's sup-norm residuals, its start's
    and one per accepted step (``iterations`` of them), and the one
    ``LUCounts`` every level records into: the LU factors of the coarsest
    level's Jacobians and the GMRES iterations of the finer levels."""

    field: AxiField
    residuals: list[float]
    factors: LUCounts

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1


# Flexible GMRES (``_fgmres``) on the levels above the coarsest: relative
# tolerance on the true residual (atol = 0), restart length and restart
# cycles.  Its right preconditioner is one V-cycle smoothed by zebra line
# Gauss-Seidel (``_KrylovSolve``), applied once per iteration.
KRYLOV_RTOL, KRYLOV_RESTART, KRYLOV_MAXITER = 1e-6, 30, 10


def _lu(J, counts: LUCounts):
    """A sparse LU of ``J`` with the lab's LU options, counted in ``counts``.

    SuperLU orders the stored pattern, and a stencil matrix stores its zero
    arms (at even n the drift cancels the s- arm of the column s = (n-2) hs/2),
    so they are dropped from the factored copy first."""
    J = J.tocsc()
    J.eliminate_zeros()
    return counts.record(splu(J, **LU_OPTIONS))


def _norms(res):
    """The sup norm and the 2-norm of the residual vector ``res``."""
    return float(np.max(np.abs(res))), float(np.linalg.norm(res))


def _damped_newton(x, residual, jacobian, finish, tol, max_iter, label, counts: LUCounts, factor=_lu):
    """Damped Newton iteration on the unknown vector ``x``.

    ``residual(x)`` returns (res, sup, merit): the residual vector the step
    solves for, and the sup norm and 2-norm by which convergence and damping
    judge it (those of ``res`` itself, or of a larger residual ``res`` is
    part of).  ``jacobian(x)`` returns the Jacobian of ``res`` as a sparse
    matrix.  ``factor(J, counts)`` returns an object whose ``solve``
    applies the inverse of J: a sparse LU by default; on a level of the 2D
    solve, ``_Level.factor``'s ``_KrylovSolve``, above the coarsest level a
    flexible GMRES right-preconditioned by one V-cycle, solving to
    KRYLOV_RTOL.  Each step backtracks (halving, Armijo margin 1e-4) until
    the residual 2-norm, the merit, decreases strictly; a trial that leaves
    x unchanged ends the backtracking as failed.  Convergence is judged in
    the sup norm.  After a step that cut the merit tenfold the factor is
    reused (a chord step); a chord step failing at full length is redone
    with a fresh factor, so only a fresh Jacobian can stagnate.  Factors
    and GMRES iterations are counted in ``counts``, whose last GMRES solve
    is cleared on entry.
    A start whose residual is not finite, stagnated backtracking, or
    ``max_iter`` steps without reaching ``tol``, raise
    ``NonconvergenceError`` carrying ``finish(x)`` of the last iterate
    and the sup-norm trace; on a GMRES level the message also names this
    loop's last solve: its iteration count and exit status (nonzero when
    its restarts ran out above KRYLOV_RTOL).  Returns (finish(x), sup
    norms, merits).
    """
    counts.krylov_last = None
    # damping decreases the smooth 2-norm; convergence is in the sup norm
    res, sup, merit = residual(x)
    history, merits = [sup], [merit]
    lu = None

    def failure(what, x):
        message = f"{label} {what} (last sup residual {history[-1]:.3e})"
        if counts.krylov_last is not None:
            message += "; last GMRES solve: %d iterations, exit status %d" % counts.krylov_last
        return NonconvergenceError(message, last=finish(x), trace=history)

    # an accepted step lowers the merit, so only the start can be non-finite
    if not np.isfinite(history[-1]):
        raise failure("residual is not finite at iteration 0", x)
    while history[-1] > tol:
        iterations = len(history) - 1
        if iterations >= max_iter:
            raise failure(f"did not reach tol={tol:g} in {max_iter} iterations", x)
        fresh = lu is None
        if fresh:
            lu = factor(jacobian(x), counts)
        step = lu.solve(-res)
        lam, accepted = 1.0, False
        for _ in range(51 if fresh else 1):
            trial = x + lam * step
            if np.array_equal(trial, x):
                break  # the step is below round-off, and so is every shorter one
            trial_res, trial_sup, trial_merit = residual(trial)
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
        history.append(trial_sup)
        merits.append(merit)
    return finish(x), history, merits


def _fold(A, kept: np.ndarray, fold: np.ndarray):
    """R A E: the rows ``kept`` of A, every column j added onto column
    ``fold[j]`` (``_fold_map``).  A column and its mirror image stay two
    entries, unsummed, so a product adds them in the order the unfolded one
    does.  It folds the grid transfers; the masked solve assembles its R A E
    directly (``stencil_matrix`` with ``fold``), bit for bit this fold of
    the whole matrix."""
    columns = int(np.max(fold, initial=-1)) + 1
    return sp.csr_matrix((A.data, fold[A.indices], A.indptr), shape=(A.shape[0], columns))[kept]


def _fold_map(keep: np.ndarray, image: np.ndarray):
    """(kept, fold) for ``_fold``: the indices where ``keep`` holds, and for
    each j the position among them of j, or of ``image[j]`` if j is not kept."""
    j = np.arange(len(keep))
    return np.flatnonzero(keep), (np.cumsum(keep) - 1)[np.where(keep, j, image)]


def _axis_fold(n: int, folded: bool):
    """(kept, fold) of an axis of n nodes for ``_fold``: with ``folded`` the
    nodes j with 2 j >= n - 1 (t >= 0), each node folded onto itself or its
    mirror image n - 1 - j; otherwise every node, in place."""
    j = np.arange(n)
    return _fold_map(2 * j >= n - 1 if folded else np.full(n, True), n - 1 - j)


def _axis_transfers(n: int, folded: bool):
    """(start, P, R) between an axis of n nodes, n odd, and its
    every-other-node axis: P the bilinear prolongation between their interior
    nodes, R = P^T / 2 the full weighting, ``start`` P from every coarse node.
    With ``folded`` each is folded onto the kept nodes (``_axis_fold``), the
    coarse mirror line mid-cell at an even coarse count (Trottenberg,
    Oosterlee and Schueller, *Multigrid*, 2001, section 2.8)."""
    m = (n + 1) // 2
    odd = np.arange(1, n, 2)
    rows, cols = np.concatenate((np.arange(0, n, 2), odd, odd)), np.concatenate((np.arange(m), odd // 2, odd // 2 + 1))
    P = sp.csr_matrix((np.repeat([1.0, 0.5, 0.5], [m, n - m, n - m]), (rows, cols)), shape=(n, m))
    inner = P[1:-1, 1:-1]
    kept, fold = _axis_fold(n - 2, folded)
    coarse_kept, coarse_fold = _axis_fold(m - 2, folded)
    return (
        _fold(P[1:-1], kept, _axis_fold(m, folded)[1]),
        _fold(inner, kept, coarse_fold),
        _fold((0.5 * inner.T).tocsr(), coarse_kept, fold),
    )


def _grid_transfers(ns: int, nt: int, axis: bool, mirror: bool):
    """``_axis_transfers`` along s and t of an ns x nt grid whose unknowns are
    ``_unknown_mask(axis, mirror)``'s; the s axis through s = 0 is continued
    to negative s, 2 ns - 1 nodes folded at s = 0."""
    return _axis_transfers(2 * ns - 1 if axis else ns, axis), _axis_transfers(nt, mirror)


def _diagonal_positions(J) -> np.ndarray:
    """Where each row of the CSR matrix ``J`` stores its one diagonal entry in ``J.data``."""
    return np.flatnonzero(J.indices == np.repeat(np.arange(J.shape[0]), np.diff(J.indptr)))


def _band(J, k: int, shape) -> np.ndarray:
    """J[i, i + k] in entry i, 0 where J stores none: ``J.diagonal(k)`` padded
    with zeros, in ``shape``.  On a 5-point stencil of an S x T block, bands
    -T, -1, 0, 1 and T are the s-, t-, diagonal, t+ and s+ weights."""
    band = np.zeros(J.shape[0])
    band[max(-k, 0) : J.shape[0] - max(k, 0)] = J.diagonal(k)
    return band.reshape(shape)


class _ZebraLines:
    """Zebra line Gauss-Seidel along one grid direction.

    The arrays hold one grid line of that direction per row.  A line is
    solved with its tridiagonal part (``lower[k]`` the coupling of entry
    k + 1 to entry k, ``diag``, ``upper[k]`` that of entry k to entry k + 1;
    the odd and the even rows, counted from 0, factored apart by LAPACK
    ``gttrf``) and is coupled to the next and the previous line only through
    ``next_`` and ``prev``.
    """

    def __init__(self, lower, diag, upper, next_, prev):
        self.factors = [
            dgttrf(lower[p::2].ravel()[:-1], diag[p::2].ravel(), upper[p::2].ravel()[:-1])[:5] for p in (0, 1)
        ]
        self.next = np.ascontiguousarray(next_)
        self.prev = np.ascontiguousarray(prev)

    def sweep(self, x, r, parity: int, carry: bool = True) -> None:
        """Solve the lines of ``parity`` for the residual ``r`` and add the
        correction to ``x``, both in ``layout`` and updated in place.  With
        ``carry``, ``r`` stays b - J x: zero on the solved lines, less the
        coupling to the correction on the lines between them."""
        solved = r[parity::2]
        d = dgttrs(*self.factors[parity], solved.flatten(), overwrite_b=True)[0].reshape(solved.shape)
        x[parity::2] += d
        if not carry:
            return
        solved[...] = 0.0
        other, next_, prev = r[1 - parity :: 2], self.next[1 - parity :: 2], self.prev[1 - parity :: 2]
        # the other line k, 2k + 1 - parity on the grid, lies between the
        # solved lines d[k - parity] and d[k + 1 - parity]
        k = min(len(other), len(d) - 1 + parity)
        other[:k] -= next_[:k] * d[1 - parity : k + 1 - parity]
        k = min(len(other), len(d) + parity)
        other[parity:k] -= prev[parity:k] * d[: k - parity]


def _zebra_lines(J, S: int, T: int):
    """The s-line and t-line ``_ZebraLines`` of the 5-point matrix ``J`` on an
    S x T block in row-major order: the rows of its (T, S) and (S, T) layouts."""
    s_m, t_m, diag, t_p, s_p = (_band(J, k, (S, T)) for k in (-T, -1, 0, 1, T))
    # a line's coupling of entry k + 1 to entry k, J[k + 1, k], is the s- or
    # t- arm of entry k + 1: one line or one entry on, 0 past the line's end
    below_s, below_t = np.zeros((S, T)), np.zeros((S, T))
    below_s[:-1], below_t[:, :-1] = s_m[1:], t_m[:, 1:]
    return _ZebraLines(below_s.T, diag.T, s_p.T, t_p.T, t_m.T), _ZebraLines(below_t, diag, t_p, s_p, s_m)


class _KrylovSolve:
    """The solver of one level's Jacobian ``J``: flexible GMRES
    right-preconditioned by one V-cycle, or on the coarsest level
    (``transfers`` None) the sparse LU of ``J`` (``_lu``), whose solve is
    both ``solve`` and ``cycle``.

    ``solve`` is the Newton solve's ``_fgmres``, which applies ``cycle``
    once per iteration and stops on the true residual.  ``cycle`` alone is
    the coarse correction of the next finer level: in the Newton solve,
    through ``_Level.correct``, the cycle of the solver a level built last;
    in the eigen solve, whose LOBPCG runs on the same levels, its
    preconditioner.
    ``J`` is any 5-point CSR (zero arms stored or not) on the S x T block of
    unknowns, S and T the rows of the transfers' s and t prolongations, and
    must not change while the cycle is in use.
    The cycle smooths by zebra line Gauss-Seidel (Trottenberg, Oosterlee and
    Schueller, *Multigrid*, 2001, section 5.1) in correction form.  From
    x = 0 it solves the odd s-lines (counted from 0 in the block of the
    unfolded grid, so that a folded level's cycle is the unfolded one on
    even fields: parity T % 2, as every level with transfers has odd nt),
    then the even ones, carrying the residual b - J x through
    J's coupling diagonals (``_ZebraLines``).  It restricts that residual to
    the coarser level, applies that level's ``coarse`` cycle (its LU solve
    at the coarsest level) and prolongates the correction, both with the
    per-axis ``transfers`` of ``_grid_transfers``: full weighting in t and
    then in s, bilinear interpolation in s and then in t.  From
    the one residual it computes, it then solves the odd t-lines and the
    even t-lines.  Line solves keep the cycle effective where one
    direction's couplings dominate: along s near the axis at large n and
    when ht exceeds hs, along t when hs exceeds ht.
    The LU factor, GMRES iterations, and the last solve's iterations and
    exit status, go to ``counts``.
    """

    def __init__(self, J, counts: LUCounts, transfers, coarse):
        if transfers is None:
            self.solve = self.cycle = _lu(J, counts).solve
            return
        self.J, self.counts, self.transfers, self.coarse = J, counts, transfers, coarse
        (_, P_s, _), (_, P_t, _) = transfers
        S, T = self.shape = P_s.shape[0], P_t.shape[0]
        self.parities = (T % 2, 1 - T % 2)
        self.s_lines, self.t_lines = _zebra_lines(J, S, T)

    def cycle(self, b):
        S, T = self.shape
        r = b.reshape(S, T).T.copy()
        x = np.zeros_like(r)
        for parity in self.parities:
            self.s_lines.sweep(x, r, parity)
        # r and x are t-major; the coarse level is s-major
        (_, P_s, R_s), (_, P_t, R_t) = self.transfers
        c = self.coarse((R_s @ (R_t @ r).T).ravel()).reshape(P_s.shape[1], P_t.shape[1])
        e = P_t @ (P_s @ c).T
        e += x
        x = e.T.ravel()
        r = b - self.J @ x
        self.t_lines.sweep(x.reshape(S, T), r.reshape(S, T), 1)
        self.t_lines.sweep(x.reshape(S, T), r.reshape(S, T), 0, carry=False)
        return x

    def solve(self, b):
        x, iterations, status = _fgmres(self.J, b, self.cycle)
        self.counts.krylov_iterations += iterations
        self.counts.krylov_last = (iterations, status)
        return x


def _fgmres(J, b, cycle):
    """Restarted flexible GMRES on J x = b from x = 0, right-preconditioned
    by ``cycle`` (Saad, SIAM J. Sci. Comput. 14 (1993) 461-469).

    Iteration j applies ``cycle`` once, Z_j = cycle(V_j), and J once, to Z_j;
    modified Gram-Schmidt orthogonalizes J Z_j against the basis V, and
    Givens rotations (LAPACK ``dlartg``) update the least-squares residual,
    which is ||b - J (x + Z y)||.  A restart cycle ends when that residual is
    at most KRYLOV_RTOL ||b||, or after KRYLOV_RESTART iterations, with
    x += Z y; the true residual b - J x then decides whether to restart, at
    most KRYLOV_MAXITER times.  Returns (x, iterations, exit status): 0 when
    ||b - J x|| <= KRYLOV_RTOL ||b||, else KRYLOV_MAXITER.
    """
    x, r, iterations = np.zeros_like(b), b, 0
    target = KRYLOV_RTOL * np.linalg.norm(b)
    for restart in range(KRYLOV_MAXITER + 1):
        g = [np.linalg.norm(r)]
        if g[0] <= target or restart == KRYLOV_MAXITER:
            return x, iterations, 0 if g[0] <= target else KRYLOV_MAXITER
        V, Z, H, rotations = [r / g[0]], [], [], []
        while True:
            Z.append(cycle(V[-1]))
            w = J @ Z[-1]
            h = np.empty(len(V) + 1)
            for i, v in enumerate(V):
                h[i] = v @ w
                w -= h[i] * v
            h[-1] = np.linalg.norm(w)
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            c, s, h[-2] = dlartg(h[-2], h[-1])
            rotations.append((c, s))
            g.append(-s * g[-1])
            g[-2] *= c
            H.append(h[:-1])
            iterations += 1
            # h[-1] = 0, a happy breakdown, makes s = 0 and ends the cycle here
            if abs(g[-1]) <= target or len(Z) == KRYLOV_RESTART:
                break
            V.append(w / h[-1])
        R = np.zeros((len(H), len(H)))
        for j, column in enumerate(H):
            R[: j + 1, j] = column
        for z, y in zip(Z, solve_triangular(R, g[:-1])):
            x += y * z
        r = b - J @ x


def solve_semilinear(
    beta: ReactionTerm,
    grid: GridSpec,
    boundary,
    tol: float = 1e-10,
    max_iter: int = 40,
) -> SolveResult:
    """Damped Newton solve of Delta_h u = beta(u)/2 with Dirichlet data.

    ``boundary`` is a vectorized callable g(s, t) supplying data on the
    outer boundary and the initial guess everywhere; its values are copied,
    as the levels write their start in place.  While both node counts are odd
    and the every-other-node grid keeps 65 or more per direction, that grid
    is solved first and its bilinear prolongation is the start of the finer
    one.  When the t nodes are mirror-exact (``GridSpec.axes``) and the
    start is bitwise even in t, the solution is even and every level is
    folded onto its last (nt + 1) // 2 columns (``_Level``), with the ladder
    of the whole grid and its grid transfers folded alike
    (``_grid_transfers``).  The reported residuals are those of the whole
    grid, and the returned field is the whole one, bitwise even.
    Otherwise nothing is folded.  Each
    level is a ``_damped_newton`` on Delta_h u - beta(u)/2, evaluated like
    ``residual_semilinear``, with Jacobian Delta_h - beta'(u)/2.  Only the
    coarsest level factors its Jacobian (sparse LU); every finer level
    solves its Newton systems with flexible GMRES right-preconditioned by
    one V-cycle over the coarser levels.  The
    levels are cascadic (Bornemann and Deuflhard, Numer. Math. 75 (1996)
    135-152): a coarse level supplies only a start and a coarse correction
    (``_Level.correct``), so it stops at sqrt(tol), and only the finest
    level runs to ``tol``.  A level that stagnates or misses its tolerance
    in ``max_iter`` steps raises ``NonconvergenceError`` with its last
    iterate and trace, naming the grid if it is coarse.  ``factors``
    counts all levels in one ``LUCounts``.
    """
    if tol <= 0.0:
        raise InvalidParameterError("tol must be positive")
    s, t = grid.axes()
    u = np.array(boundary(s[:, None], t[None, :]), dtype=float)
    if u.shape != (grid.ns, grid.nt):
        raise InvalidParameterError("boundary data shape does not match the grid")
    # even data on mirror-exact t nodes has an even solution, and folds
    mirror = np.array_equal(t, -t[::-1]) and np.array_equal(u, u[:, ::-1])
    counts, level = LUCounts(), None
    for stride in _level_strides(grid.ns, grid.nt):
        g = replace(grid, ns=(grid.ns - 1) // stride + 1, nt=(grid.nt - 1) // stride + 1)
        level = _Level(beta, g, u if stride == 1 else u[::stride, ::stride].copy(), mirror, level, counts)
        label = "Newton" if stride == 1 else f"Newton on the coarse {g.ns}x{g.nt} grid"
        field, history, _ = _damped_newton(
            level.values[level.mask], level.residual, level.jacobian, level.finish, tol if stride == 1 else math.sqrt(tol),
            max_iter, label, counts, level.factor,
        )
    return SolveResult(field=field, residuals=history, factors=counts)


class _Level:
    """One grid of the nested solve: Delta_h u - beta(u)/2 on the unknowns of
    ``values`` (boundary values held fixed), its Jacobian and its solver.

    ``below`` is the level one grid coarser, None on the coarsest level.
    Above it, the level builds its grid transfers (``_grid_transfers``) and
    writes their prolongation of ``below``'s values as its start.
    ``factor`` builds the solver ``_damped_newton`` steps with, a
    ``_KrylovSolve`` over those transfers and ``below.correct`` (the sparse
    LU on the coarsest level, which has neither); the level keeps the one
    built last, at the iterate of its last fresh Jacobian.  ``correct`` is
    the coarse correction the level lends the level above: that solver's
    ``cycle``.  A level that took no step builds the solver at its start,
    counted in ``counts``, when ``correct`` is first applied, and not at
    all if it never is.

    With ``mirror`` the level is folded: ``values`` is even in t, and the
    unknowns (``mask`` of ``self.values``, a view of the last (nt + 1) // 2
    columns) are those of that half (``_assemble_laplacian``): the mirror
    line t = 0 is a node at odd nt and falls mid-cell at even nt.
    ``finish`` writes them and unfolds the whole grid, on which the residual
    is evaluated: ``residual`` returns its rows on the half with its sup
    norm and 2-norm over every unknown of the grid, so convergence, damping
    and chord reuse are judged on the whole grid as unfolded.  Otherwise
    ``self.values`` is ``values`` and the norms are those of the rows
    returned.  The level keeps one CSR matrix, assembled as Delta_h;
    ``jacobian`` rewrites its diagonal in place and returns it, so a call
    replaces the matrix the previous call returned."""

    def __init__(self, beta, grid: GridSpec, values: np.ndarray, mirror: bool = False, below=None, counts=None):
        self.beta, self.mirror, self.counts, self.solver = beta, mirror, counts, None
        self.transfers = self.coarse = None
        self.J, self.mask = _assemble_laplacian(grid, mirror)
        self.at_diag = _diagonal_positions(self.J)
        self.lap_diag = self.J.data[self.at_diag]
        self.field = AxiField(grid.n, *grid.axes(), values)
        self.values = values[:, grid.nt - self.mask.shape[1] :]  # the t >= 0 columns, or all
        self.inner = _unknown_mask(values.shape, grid.s_min == 0.0)
        if below is not None:
            self.transfers, self.coarse = _grid_transfers(grid.ns, grid.nt, grid.s_min == 0.0, mirror), below.correct
            (start_s, _, _), (start_t, _, _) = self.transfers
            self.values[self.mask] = (start_t @ (start_s @ below.values).T).T.ravel()

    def residual(self, vec):
        r = apply_axisym_laplacian(self.finish(vec)).values - 0.5 * np.asarray(self.beta.eval(self.field.values))
        return r[:, -self.mask.shape[1] :][self.mask], *_norms(r[self.inner])

    def jacobian(self, vec):
        self.J.data[self.at_diag] = self.lap_diag - 0.5 * np.asarray(self.beta.deriv(vec))
        return self.J

    def finish(self, vec):
        self.values[self.mask] = vec
        if self.mirror:
            u = self.field.values
            h = u.shape[1] // 2  # the columns before the kept ones
            u[:, :h] = u[:, : -h - 1 : -1]
        return self.field

    def factor(self, J, counts: LUCounts):
        self.solver = _KrylovSolve(J, counts, self.transfers, self.coarse)
        return self.solver

    def correct(self, b):
        if self.solver is None:
            self.factor(self.jacobian(self.values[self.mask]), self.counts)
        return self.solver.cycle(b)


def _level_strides(ns: int, nt: int) -> list[int]:
    """Node strides of the nested levels of an ns x nt grid, coarsest first: a
    level has an every-other-node one below it while both its node counts are
    odd and the halved grid keeps 65 or more nodes per direction."""
    strides = [1]
    while ns % 2 == nt % 2 == 1 and min(ns, nt) >= 129:
        ns, nt, strides = (ns + 1) // 2, (nt + 1) // 2, [2 * strides[0], *strides]
    return strides


def solve_semilinear_1d(
    beta: ReactionTerm,
    t_min: float,
    t_max: float,
    init,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Newton solve of the discrete two-point problem v_tt = beta(v)/2.

    ``init`` is the starting guess at ``len(init)`` equispaced nodes of
    [t_min, t_max]; its ends are the Dirichlet values, returned unchanged.
    The tiling of the returned nodal values along s is an exact discrete
    solution of the full problem with one-dimensional data, which makes it
    the right far-field model and the reference for s-independence checks.  Stagnated
    backtracking, or ``max_iter`` damped Newton steps without reaching
    ``tol``, return the last iterate when its sup residual is at or below the
    round-off floor 4 eps max|v| / ht^2 of the grid, and otherwise raise
    ``NonconvergenceError`` naming that floor and carrying the last iterate
    and the sup-norm residual trace.
    """
    v = np.array(init, dtype=float)
    if v.ndim != 1 or len(v) < 3:
        raise InvalidParameterError("init must hold at least 3 nodal values in one dimension")
    left, right, ht = v[0], v[-1], _spacing(t_min, t_max, len(v))
    main = np.full(len(v) - 2, -2.0 / ht**2)
    off = np.full(len(v) - 3, 1.0 / ht**2)

    def res_of(w):
        lap = (np.concatenate((w[1:], [right])) - 2.0 * w + np.concatenate(([left], w[:-1]))) / ht**2
        r = lap - 0.5 * np.asarray(beta.eval(w))
        return r, *_norms(r)

    def jacobian(w):
        return sp.diags([off, main - 0.5 * np.asarray(beta.deriv(w)), off], offsets=[-1, 0, 1])

    def finish(w):
        v[1:-1] = w
        return v

    try:
        return _damped_newton(v[1:-1].copy(), res_of, jacobian, finish, tol, max_iter, "1D Newton", LUCounts())[0]
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


def _energy(f: AxiField, potential_density) -> EnergyBreakdown:
    """Midpoint-rule Dirichlet energy plus the integral of
    ``potential_density`` of the cell-center values.

    The quadrature is cell-based (gradient and field value taken at cell
    centers from the bilinear interpolant), which integrates piecewise-affine
    fields exactly.  Both parts carry the cylindrical measure s^(n-2) times
    the unit-sphere area.
    """
    u = f.values
    cell = grid_weights(f, "cell")
    center = 0.25 * (u[1:, 1:] + u[:-1, 1:] + u[1:, :-1] + u[:-1, :-1])
    dirichlet = float(np.sum(np.sum(_cell_gradient_sq(f) * cell, axis=1)))
    potential = float(np.sum(np.sum(potential_density(center) * cell, axis=1)))
    return EnergyBreakdown(dirichlet=dirichlet, potential=potential)


def energy(f: AxiField, beta: ReactionTerm, epsilon: float) -> EnergyBreakdown:
    """Layer energy int |grad u|^2 + Phi(u/eps): the potential is the
    primitive of ``beta`` rescaled to width ``epsilon``."""
    return _energy(f, lambda c: np.asarray(rescale(beta, epsilon).primitive(c)))


def one_phase_energy(f: AxiField) -> EnergyBreakdown:
    """One-phase energy int |grad u|^2 + chi{u > 0}: the potential is the
    measure of the cells whose center value is positive."""
    return _energy(f, lambda c: (c > 0.0).astype(float))


def blow_down(f: AxiField, epsilon: float) -> AxiField:
    """The rescaled field eps * u(x / eps) on the grid scaled by eps: exact,
    and bitwise the identity at eps = 1."""
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    return AxiField(n=f.n, s=epsilon * f.s, t=epsilon * f.t, values=epsilon * f.values)


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
