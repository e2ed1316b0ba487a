"""Small shared numerical kernels: panel-wise Gauss-Legendre quadrature, a
difference formula, monotone cubic interpolation (whose exact antiderivative
is a reaction table's mass), smooth ramps, sphere areas, the 5-point
stencil-to-CSR builder and the sparse LU policy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError

# Options of every sparse LU factor in the lab (``splu(A, **LU_OPTIONS)``).
#
# Ordering: minimum degree on the pattern of A^T + A.  The lab's matrices
# are grid stencils with a symmetric pattern (5-point, or 9-point for the
# masked system's black Schur complement), where it leaves about half the
# fill of SuperLU's default COLAMD.  SuperLU keeps its default partial
# pivoting, so unsymmetric Jacobians stay safe.
#
# Supernodes: ``relax = 1`` (no relaxed supernodes at the leaves of the
# elimination tree) and ``panel_size = 4`` (columns per panel update).
# SuperLU's defaults act like relax = 10, panel_size = 20, and size work
# arrays by them that a grid stencil's narrow supernodes never repay.
# Measured on 2 cores (scipy 1.17.1), both with the ordering above, the
# float32 Schur complement of the masked strip_neck system at resolution
# 256, both mirror halves (114,059 black unknowns, 11.1M fill instead of
# 12.4M), factors in 0.77 s of CPU instead of 0.92-1.11 s, and its
# factorization lifts the solve's peak resident set by 37 MB instead of
# 65 MB; at resolution 512 (457,072 unknowns, 53.4M fill instead of 60.5M)
# in 4.3-4.5 s instead of 5.7-6.3 s, lifting the peak by 198 MB instead of
# 318 MB.  The float64 Newton Jacobians of 65^2-225^2 factor 25-31% faster.
#
# Precision: the masked Shortley-Weller system, the largest factor the lab
# builds (6.1M fill at resolution 256, folded onto one mirror half), is
# factored in float32 and refined in float64 to a componentwise backward
# error of 6 eps, which halves the factor's memory.  The Newton and eigen
# LUs factor only the coarsest multilevel grid (at most 1.08M fill) and
# stay in float64: they act as preconditioners, so their rounding enters
# the residual histories that ``results`` reports bit for bit.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 4}

# 5-point Gauss-Legendre rule on [-1, 1]
_GL5_NODES = np.array(
    [
        -0.906179845938663992797626878299,
        -0.538469310105683091036314420700,
        0.0,
        0.538469310105683091036314420700,
        0.906179845938663992797626878299,
    ]
)
_GL5_WEIGHTS = np.array(
    [
        0.236926885056189087514264040720,
        0.478628670499366468041291514836,
        0.568888888888888888888888888889,
        0.478628670499366468041291514836,
        0.236926885056189087514264040720,
    ]
)


@dataclass
class LUCounts:
    """Sparse LU factors a solve built, the largest nnz(L + U) and the
    largest order among them, the GMRES iterations of its preconditioned
    solves with the (iterations, exit status) of the last one, and the
    iterative-refinement steps of its single-precision factors with the
    largest final backward error.  A cascadic solve keeps one for all its
    levels; each level's Newton loop clears the last GMRES solve on entry,
    so a failure names only its own.  The masked solve factors only the
    Schur complement of its black unknowns, on one mirror half when the
    system is mirror-symmetric, so its ``fill_nnz`` and ``order`` are that
    reduced system's, not the whole system's."""

    factorizations: int = 0
    fill_nnz: int = 0
    order: int = 0
    krylov_iterations: int = 0
    krylov_last: tuple[int, int] | None = None
    refinement_steps: int = 0
    backward_error: float = 0.0

    def record(self, lu):
        """Count the SuperLU factor ``lu`` and return it."""
        self.factorizations += 1
        self.fill_nnz = max(self.fill_nnz, int(lu.nnz))
        self.order = max(self.order, int(lu.shape[0]))
        return lu


def gl5_points(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of panel-wise 5-point Gauss-Legendre quadrature.

    ``edges`` is an increasing 1D array of panel boundaries; the returned
    flat arrays integrate over [edges[0], edges[-1]].
    """
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GL5_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL5_WEIGHTS[None, :]).ravel()
    return nodes, weights


def nonuniform_second_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point second derivative of samples ``y(x)`` at the ``len(x) - 2``
    interior abscissae ``x[1:-1]``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    return 2.0 * (y[:-2] / (hm * (hm + hp)) - y[1:-1] / (hm * hp) + y[2:] / (hp * (hm + hp)))


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone (Fritsch–Carlson) cubic through ``y(x)``.

    An interior slope is 0 where the neighbouring secants differ in sign or
    one vanishes, else their harmonic mean weighted by w1 = 2h_k + h_{k-1},
    w2 = h_k + 2h_{k-1}.  Each end takes the one-sided three-point estimate,
    set to 0 if its sign differs from the end secant's and capped at three
    times that secant where the first two secants differ in sign.  Two nodes
    give the secant at both.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(len(x))
    d[1:-1] = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, whmean))

    def end(h0, h1, m0, m1):
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0
        return e

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    return d


class Pchip:
    """The piecewise Hermite cubic through ``y(x)`` with :func:`pchip_slopes`.

    ``x`` must increase strictly.  On ``x[k] <= p < x[k+1]`` (the last piece
    also takes ``p = x[-1]``) the cubic is c0 + c1 s + c2 s^2 + c3 s^3 in
    s = p - x[k]; a point outside [x[0], x[-1]] reads the nearer end.
    ``derivative`` and ``antiderivative`` (the integral from x[0]) are exact
    for the same pieces.  Every piece is summed from its lowest power up, in
    the order of scipy's piecewise-polynomial evaluation, so the lab's results
    stay where scipy's ``PchipInterpolator`` left them.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(self.x)
        secant = np.diff(y) / h
        d = pchip_slopes(self.x, y)
        curl = (d[:-1] + d[1:] - 2.0 * secant) / h
        self.c = (y[:-1], d[:-1], (secant - d[:-1]) / h - curl, curl / h)
        # the integral up to each knot: every piece's terms added one by one
        # onto the running total (cumsum adds strictly left to right)
        terms = np.stack(self._terms(h, *self.c), axis=1)
        self.integral = np.concatenate(([0.0], np.cumsum(terms.ravel())[3::4]))

    def _piece(self, p):
        p = np.clip(p, self.x[0], self.x[-1])
        # searching the interior knots gives the clamped piece index directly
        k = np.searchsorted(self.x[1:-1], p, side="right")
        return k, p - self.x[k]

    @staticmethod
    def _terms(s, c0, c1, c2, c3):
        """The four terms of a piece's integral from its left knot to s."""
        s2 = s * s
        s3 = s2 * s
        return c0 * s, c1 / 2.0 * s2, c2 / 3.0 * s3, c3 / 4.0 * (s3 * s)

    def __call__(self, p):
        k, s = self._piece(p)
        c0, c1, c2, c3 = (c[k] for c in self.c)
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

    def derivative(self, p):
        k, s = self._piece(p)
        _, c1, c2, c3 = (c[k] for c in self.c)
        return c1 + 2.0 * c2 * s + 3.0 * c3 * (s * s)

    def antiderivative(self, p):
        k, s = self._piece(p)
        t0, t1, t2, t3 = self._terms(s, *(c[k] for c in self.c))
        return self.integral[k] + t0 + t1 + t2 + t3


def smoothstep_quintic(x):
    """C^2 ramp: 0 for x <= 0, 1 for x >= 1, 6x^5 - 15x^4 + 10x^3 between."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def smoothstep_quintic_deriv(x):
    """Derivative of :func:`smoothstep_quintic` (zero outside (0, 1))."""
    inside = (x > 0.0) & (x < 1.0)
    xc = np.clip(x, 0.0, 1.0)
    d = 30.0 * xc * xc * (xc - 1.0) * (xc - 1.0)
    return np.where(inside, d, 0.0)


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit d-sphere embedded in R^(d+1)."""
    if d < 0:
        raise InvalidParameterError("sphere dimension must be >= 0")
    try:
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    except OverflowError:
        raise InvalidParameterError(f"the area of the unit {d}-sphere is not representable in floating point") from None


def stencil_matrix(unknown: np.ndarray, diag: np.ndarray, arms, fold=None) -> sp.csr_matrix:
    """CSR matrix of a 5-point stencil restricted to the ``unknown`` nodes of a grid.

    Unknowns are numbered in row-major (``np.nonzero``) order.  ``diag``
    holds one diagonal entry per unknown, ``arms`` the four arm weights
    (s-, s+, t-, t+) per unknown.  An arm whose node lies off the grid or is
    not an unknown is dropped; every other arm is stored, zero weights
    included.  Each row lists its columns in ascending order: s-, t-, the
    diagonal, t+, s+.

    ``fold``, a pair ``(kept, columns)`` (``axisym_field._fold_map``),
    builds only the rows of the unknowns ``kept`` (increasing unknown
    numbers), from ``diag`` and ``arms`` given for them alone, and puts the
    entry of unknown k in column ``columns[k]``: bit for bit ``_fold`` of
    the whole matrix, R A E, a column and its mirror image left two
    entries, without building A.
    """
    m = len(diag)
    # unknown numbers (or their columns) on the grid padded by one node, -1 elsewhere, flat
    width = unknown.shape[1] + 2
    index = np.full((unknown.shape[0] + 2, width), -1, dtype=np.int32)
    index[1:-1, 1:-1][unknown] = np.arange(m, dtype=np.int32) if fold is None else fold[1]
    index = index.ravel()
    at = np.flatnonzero(index >= 0)
    if fold is not None:
        at = at[fold[0]]
    s_m, s_p, t_m, t_p = arms
    cols, vals = np.empty((m, 5), dtype=np.int32), np.empty((m, 5))
    for k, (offset, weights) in enumerate(((-width, s_m), (-1, t_m), (0, diag), (1, t_p), (width, s_p))):
        cols[:, k] = index[at + offset]
        vals[:, k] = weights
    keep = cols >= 0
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(m, m))


def csv_lines(*columns) -> str:
    """Comma-separated rows of equal-length columns, every value as ``%.17g``.

    One format string covers the whole table, so a large field costs one
    formatting call rather than one per row; ``%.17g`` round-trips float64.
    """
    flat = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return (line * (len(flat) // len(columns))) % tuple(flat)
