"""Small shared numerical kernels: quadrature, difference formulas, sparse LU policy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Column ordering of every sparse LU factor in the lab (``splu(A,
# permc_spec=LU_ORDER)``): minimum degree on the pattern of A^T + A.  The
# lab's matrices are 5-point grid stencils with a symmetric pattern, where it
# leaves about half the fill of SuperLU's default COLAMD.  SuperLU keeps its
# default partial pivoting, so unsymmetric Jacobians stay safe.
LU_ORDER = "MMD_AT_PLUS_A"

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
    """Sparse LU factors a solve built, and the largest nnz(L + U) among them."""

    factorizations: int = 0
    fill_nnz: int = 0

    def record(self, lu):
        """Count the SuperLU factor ``lu`` and return it."""
        self.factorizations += 1
        self.fill_nnz = max(self.fill_nnz, int(lu.nnz))
        return lu


def simpson_refined(f, a: float, b: float, tol: float = 1e-12, max_doublings: int = 22) -> float:
    """Composite Simpson value of ``f`` on [a, b], refined until stable.

    Panel count doubles (trapezoid values are reused) until two successive
    Simpson estimates differ by less than ``tol`` absolutely or 1e-15
    relatively.  ``f`` must accept ndarray input.
    """
    if b <= a:
        return 0.0
    h = b - a
    trap = 0.5 * h * float(f(np.array([a]))[0] + f(np.array([b]))[0])
    simpson_prev = None
    n = 1
    for _ in range(max_doublings):
        mid = a + h * (np.arange(n) + 0.5)
        mid_sum = float(np.sum(f(mid)))
        trap_new = 0.5 * trap + 0.5 * h * mid_sum
        simpson = (4.0 * trap_new - trap) / 3.0
        if simpson_prev is not None:
            if abs(simpson - simpson_prev) < max(tol, 1e-15 * abs(simpson)):
                return simpson
        simpson_prev = simpson
        trap = trap_new
        n *= 2
        h *= 0.5
    return simpson_prev


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


def geometric_edges(a: float, b: float, n: int) -> np.ndarray:
    """Panel edges from a to b with geometrically growing widths."""
    if a <= 0:
        raise ValueError("geometric_edges needs a > 0")
    return np.geomspace(a, b, n + 1)


def gl5_points_rows(edges_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise panel Gauss-Legendre: edges (m, k) -> nodes/weights (m, 5(k-1))."""
    lo = edges_rows[:, :-1]
    hi = edges_rows[:, 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, :, None] + half[:, :, None] * _GL5_NODES[None, None, :]).reshape(
        edges_rows.shape[0], -1
    )
    weights = (half[:, :, None] * _GL5_WEIGHTS[None, None, :]).reshape(edges_rows.shape[0], -1)
    return nodes, weights


def nonuniform_first_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative of samples ``y(x)``, second order on smooth grids.

    Interior nodes use the three-point formula exact on quadratics; the
    endpoints use one-sided three-point formulas.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = (
        -hp / (hm * (hm + hp)) * y[:-2]
        + (hp - hm) / (hm * hp) * y[1:-1]
        + hm / (hp * (hm + hp)) * y[2:]
    )
    h0, h1 = x[1] - x[0], x[2] - x[1]
    d[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    g0, g1 = x[-2] - x[-3], x[-1] - x[-2]
    d[-1] = (
        g1 / (g0 * (g0 + g1)) * y[-3]
        - (g0 + g1) / (g0 * g1) * y[-2]
        + (2 * g1 + g0) / (g1 * (g0 + g1)) * y[-1]
    )
    return d


def nonuniform_second_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivative of samples ``y(x)`` (three-point, interior only).

    Endpoint values copy their nearest interior neighbour.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = 2.0 * (
        y[:-2] / (hm * (hm + hp)) - y[1:-1] / (hm * hp) + y[2:] / (hp * (hm + hp))
    )
    d[0] = d[1]
    d[-1] = d[-2]
    return d


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
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def csv_lines(*columns) -> str:
    """Comma-separated rows of equal-length columns, every value as ``%.17g``.

    One format string covers the whole table, so a large field costs one
    formatting call rather than one per row; ``%.17g`` round-trips float64.
    """
    flat = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return (line * (len(flat) // len(columns))) % tuple(flat)
