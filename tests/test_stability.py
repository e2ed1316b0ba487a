import dataclasses
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse.linalg import splu
from scipy.special import jn_zeros

from onephase_lab import experiments, stability
from onephase_lab.axisym_field import (
    AxiField,
    GridSpec,
    apply_axisym_laplacian,
    grid_weights,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from onephase_lab.config import ExperimentConfig, _grid, parse_config
from onephase_lab.errors import ConfigError, InvalidParameterError, NonconvergenceError
from onephase_lab.numerics import LU_OPTIONS, smoothstep_quintic, smoothstep_quintic_deriv
from onephase_lab.stability import (
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    InequalityReport,
    StabilityProbe,
    admissible_alpha,
    epsilon_schedule,
    linearized_rayleigh_min,
    probe_inequality,
    quadratic_form,
    us_derivative,
    weighted_norm_sq,
)

from oracles import from_function, log_cutoff_2d, us_equation_residual


def tiled_layer(beta, layer_profile, grid):
    s, t = grid.axes()
    v = solve_semilinear_1d(beta, grid.t_min, grid.t_max, layer_profile.sample(t))
    return AxiField(n=grid.n, s=s, t=t, values=np.tile(v, (grid.ns, 1)))


def cascade(u, beta, max_iter=600, tol=1e-10):
    """The LOBPCG cascade on any solved field, the s-independent tiled layer
    too, which ``linearized_rayleigh_min`` would separate instead."""
    return stability._cascade_rayleigh_min(u, beta, max_iter, tol, residual_semilinear(u, beta))


def interior_bump(grid):
    s, t = grid.axes()
    ss = (s[:, None] - grid.s_min) / (grid.s_max - grid.s_min)
    tt = (t[None, :] - grid.t_min) / (grid.t_max - grid.t_min)
    return np.sin(math.pi * ss) ** 2 * np.sin(math.pi * tt) ** 2


# ---------------------------------------------------------------- quadratic form


def test_form_zero_test_function(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = from_function(g, lambda s, t: 2.0 + 0.0 * s)
    xi = u.with_values(np.zeros_like(u.values))
    assert quadratic_form(u, xi, beta) == 0.0


def test_form_nonnegative_where_reaction_vanishes(beta):
    # u >= 1 kills the potential term: the form is the weighted Dirichlet energy
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = from_function(g, lambda s, t: 2.0 + 0.3 * t)
    xi = u.with_values(interior_bump(g))
    q = quadratic_form(u, xi, beta)
    assert q > 0.0
    # equals the same form with any other field above 1
    u2 = from_function(g, lambda s, t: 5.0 + 0.0 * s)
    assert abs(q - quadratic_form(u2, xi, beta)) < 1e-14


def test_form_matches_assembled_matrix(beta, layer_profile):
    g = GridSpec(n=4, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = tiled_layer(beta, layer_profile, g)
    xi_vals = interior_bump(g)
    xi = u.with_values(xi_vals)
    q_direct = quadratic_form(u, xi, beta)
    form = stability._FieldForm(u, beta)
    x = xi_vals[form.mask]
    q_matrix = float(x @ (form.matrix() @ x))
    assert abs(q_direct - q_matrix) < 1e-8 * (1.0 + abs(q_direct))


def _edge_and_node_sums(u, xi, beta):
    """Q(xi) summed as quadratic_form sums it, every array built afresh."""
    w_s, w_t = grid_weights(xi, "s-edge"), grid_weights(xi, "t-edge")
    v = xi.values
    ds = (v[1:, :] - v[:-1, :]) / xi.hs
    dt = (v[:, 1:] - v[:, :-1]) / xi.ht
    grad = float(np.sum(ds * ds * w_s)) + float(np.sum(dt * dt * w_t))
    return grad + float(np.sum(0.5 * np.asarray(beta.deriv(u.values)) * v * v * grid_weights(xi, "node")))


@pytest.mark.parametrize("n, s_min", [(3, 0.0), (5, 0.7)])
def test_field_form_reads_q_and_the_norm_as_fresh_sums_bit_for_bit(beta, n, s_min):
    g = GridSpec(n=n, s_min=s_min, s_max=s_min + 2.0, t_min=-2.0, t_max=2.0, ns=33, nt=29)
    u = from_function(g, lambda s, t: np.tanh(t + 0.3 * s) + 0.2 * np.cos(3.0 * s * t))
    xi = u.with_values(interior_bump(g) * (1.0 + 0.5 * np.sin(7.0 * u.values)))
    form = stability._FieldForm(u, beta)
    assert form.value(xi.values) == _edge_and_node_sums(u, xi, beta) == quadratic_form(u, xi, beta)
    assert form.norm_sq(xi.values) == weighted_norm_sq(xi)


def _loop_operator(u, beta):
    """The per-edge assembly loop, kept as the reference of ``_FieldForm.matrix``."""
    ns, nt = u.values.shape
    mask = np.zeros((ns, nt), dtype=bool)
    mask[1:-1, 1:-1] = True
    if u.has_axis:
        mask[0, 1:-1] = True
    index = -np.ones((ns, nt), dtype=int)
    m = int(mask.sum())
    index[mask] = np.arange(m)
    w_s, w_t = grid_weights(u, "s-edge"), grid_weights(u, "t-edge")
    w_t = np.broadcast_to(w_t, (ns, nt - 1))  # uniform in t: one column
    rows, cols, vals = [], [], []

    def edge(a, b, w):
        for p, q, v in ((a, a, w), (b, b, w), (a, b, -w), (b, a, -w)):
            if p >= 0 and q >= 0:
                rows.append(p), cols.append(q), vals.append(v)

    for i in range(ns - 1):
        for j in range(nt):
            if mask[i, j] or mask[i + 1, j]:
                edge(index[i, j], index[i + 1, j], w_s[i, j] / u.hs**2)
    for i in range(ns):
        for j in range(nt - 1):
            if mask[i, j] or mask[i, j + 1]:
                edge(index[i, j], index[i, j + 1], w_t[i, j] / u.ht**2)
    pot = 0.5 * np.asarray(beta.deriv(u.values)) * grid_weights(u, "node")
    rows.extend(index[mask].tolist()), cols.extend(index[mask].tolist()), vals.extend(pot[mask].tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s_min", [0.0, 0.3])
@pytest.mark.parametrize("off_axis", [False, True])
def test_assembled_operator_matches_loop_reference(beta, n, s_min, off_axis):
    # off_axis moves the s-range out by 1: a Dirichlet column where the axis was
    shift = 1.0 if off_axis else 0.0
    g = GridSpec(n=n, s_min=s_min + shift, s_max=2.0 + shift, t_min=-2.0, t_max=2.0, ns=19, nt=23)
    u = from_function(g, lambda s, t: np.tanh(t + 0.3 * s) + 0.2 * np.cos(3.0 * s * t))
    form = stability._FieldForm(u, beta)
    A, ref = form.matrix(), _loop_operator(u, beta)
    assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)
    assert np.array_equal(form.w, grid_weights(u, "node")[form.mask])


_STABILITY_N3 = Path(__file__).parents[1] / "configs" / "stability_n3.cfg"


@pytest.mark.parametrize(
    "cfg, admitted",
    [
        *(
            (ExperimentConfig(experiment="stability", n=n, s_max=s_max, t_min=-2.0, t_max=3.0, ns=ns, nt=nt), True)
            for n in (3, 5, 20, 60)
            for ns, nt, s_max in ((19, 23, 2.0), (129, 129, 4.0), (33, 17, 9.0))
        ),
        # on the 129^2 grid the axis weight of a first or last row is 0 in float64 from n = 136 on
        (dataclasses.replace(parse_config(_STABILITY_N3), n=135), True),
        (dataclasses.replace(parse_config(_STABILITY_N3), n=136), False),
        # off the axis the inner column's 0.01^198 is 0 in float64
        (ExperimentConfig(experiment="stability", n=200, s_min=0.01, s_max=1.0, ns=9, nt=9), False),
        (ExperimentConfig(experiment="stability", s_max=1e155, ns=9, nt=9), False),
        # the node weights are finite, the outer s-edges' |S^1| s_mid hs ht is not
        (ExperimentConfig(experiment="stability", s_max=1.59e154, t_min=-3.0, t_max=3.0, ns=9, nt=9), False),
    ],
    ids=lambda p: f"n{p.n}-{p.ns}x{p.nt}-s{p.s_min:g}-{p.s_max:g}" if isinstance(p, ExperimentConfig) else str(p),
)
def test_validate_admits_a_stability_grid_exactly_when_its_weights_are_finite_and_its_node_weights_positive(cfg, admitted):
    # the check validate runs up front against every weight the lab builds
    f = from_function(_grid(cfg), lambda s, t: 0.0 * s)
    with np.errstate(over="ignore"):
        w, w_s, w_t, cells = (grid_weights(f, family) for family in ("node", "s-edge", "t-edge", "cell"))
    assert admitted == bool(all(np.all(np.isfinite(x)) for x in (w, w_s, w_t, cells)) and w.min() > 0.0)
    if admitted:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match=f"^stability: the .* weights at n = {cfg.n} must be .* (over|under)flows$"):
            cfg.validate()


def test_validate_checks_the_node_weights_in_linear_time():
    # a 100001^2 grid holds 1e10 nodes; its weights are judged from 2e5 column and row weights
    cfg = ExperimentConfig(experiment="stability", ns=100001, nt=100001)
    start = time.perf_counter()
    cfg.validate()
    assert time.perf_counter() - start < 0.2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s_max", [1e300, 1e155])
def test_eigen_solve_rejects_node_weights_that_overflow(beta, s_max):
    # 1e300 overflowed the axis weight's Python power (an OverflowError);
    # 1e155 made the outer weights inf and SuperLU's factor singular
    g = GridSpec(n=3, s_max=s_max, t_min=-3.0, t_max=3.0, ns=9, nt=9)
    with pytest.raises(InvalidParameterError, match=r"s\^\(n-2\) hs ht overflows"):
        linearized_rayleigh_min(from_function(g, lambda s, t: 0.0 * s), beta)


def test_form_requires_matching_grids(beta):
    g1 = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    g2 = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=19, nt=17)
    u = from_function(g1, lambda s, t: 2.0 + 0.0 * s)
    xi = from_function(g2, lambda s, t: 0.0 * s)
    with pytest.raises(InvalidParameterError):
        quadratic_form(u, xi, beta)


def test_form_requires_boundary_zeros(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = from_function(g, lambda s, t: 2.0 + 0.0 * s)
    xi = u.with_values(np.ones_like(u.values))
    with pytest.raises(InvalidParameterError):
        quadratic_form(u, xi, beta)


def test_integration_by_parts_identity_second_order(beta, layer_profile):
    # Q(c*eta) = int c^2 |grad eta|^2 - int c (lap c - beta'(u) c / 2) eta^2
    # for smooth compactly supported factors, up to O(h^2)
    defects = []
    for ns in (33, 65, 129):
        g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=ns, nt=ns)
        u = tiled_layer(beta, layer_profile, g)
        s, t = g.axes()
        c_vals = np.sin(math.pi * s[:, None] / 2.0) ** 2 * np.sin(math.pi * (t[None, :] + 2.0) / 4.0) ** 2
        eta_vals = np.exp(-(s[:, None] ** 2) - t[None, :] ** 2)
        c = u.with_values(c_vals)
        lap_c = apply_axisym_laplacian(c).values
        w = grid_weights(u, "node")
        inner = np.zeros_like(c_vals)
        sl = np.s_[1:-1, 1:-1] if g.s_min > 0 else np.s_[:-1, 1:-1]
        inner[sl] = 1.0
        X = float(np.nansum(c_vals * (lap_c - 0.5 * beta.deriv(u.values) * c_vals) * eta_vals**2 * w * inner))
        # |grad eta|^2 via centered differences on the same grid
        ge_s = np.zeros_like(eta_vals)
        ge_t = np.zeros_like(eta_vals)
        ge_s[1:-1, :] = (eta_vals[2:, :] - eta_vals[:-2, :]) / (2 * g.hs)
        ge_s[0, :] = 0.0
        ge_t[:, 1:-1] = (eta_vals[:, 2:] - eta_vals[:, :-2]) / (2 * g.ht)
        Y = float(np.sum(c_vals**2 * (ge_s**2 + ge_t**2) * w * inner))
        xi = u.with_values(c_vals * eta_vals * inner)
        defects.append(abs(Y - X - quadratic_form(u, xi, beta)))
    assert defects[0] / defects[1] > 3.0
    assert defects[1] / defects[2] > 3.0


# ---------------------------------------------------------------- eigen-solve


def test_dirichlet_laplacian_oracle(beta):
    # zero field, planar weight: the smallest eigenvalue of the five-point
    # Dirichlet Laplacian on a unit square has a separable closed form; off
    # the axis (s in [1, 2]) every side is a Dirichlet boundary.  The zero
    # field separates, and the cascade must find the same value
    g = GridSpec(n=2, s_min=1.0, s_max=2.0, t_min=0.0, t_max=1.0, ns=49, nt=49)
    z = from_function(g, lambda s, t: 0.0 * s)
    h = g.hs
    exact = 2.0 * (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    for rep in (linearized_rayleigh_min(z, beta, tol=1e-10), cascade(z, beta, tol=1e-10)):
        assert abs(rep.rayleigh_min - exact) < 1e-9
        assert abs(rep.rayleigh_min - 2.0 * math.pi**2) < 0.02


def test_negative_potential_dirichlet_oracle_is_unstable(beta):
    # beta'(u)/2 = -k/2 everywhere shifts the Dirichlet spectrum down by k/2
    g = GridSpec(n=2, s_min=1.0, s_max=2.0, t_min=0.0, t_max=1.0, ns=49, nt=49)
    z = from_function(g, lambda s, t: 0.0 * s)
    k = 50.0
    dip = dataclasses.replace(
        beta,
        eval=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        deriv=lambda v: np.full_like(np.asarray(v, dtype=float), -k),
    )
    tol = 1e-10
    h = g.hs
    exact = 2.0 * (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    layer, rep = linearized_rayleigh_min(z, dip, tol=tol), cascade(z, dip, tol=tol)
    for r in (layer, rep):
        assert abs(r.rayleigh_min - (exact - k / 2.0)) < tol
        assert r.verdict == "unstable-direction-found"
    assert rep.factors.factorizations == 1 and layer.factors.factorizations == 0


def _lowest_tridiagonal(diag, off, weight):
    """Lowest eigenvalue of tridiag(off, diag, off) x = mu diag(weight) x."""
    r = 1.0 / np.sqrt(weight)
    # stemr keeps the relative accuracy of the graded radial pencil, which
    # the default stebz's absolute tolerance loses at large n
    low = eigh_tridiagonal(
        diag * r * r, off * r[:-1] * r[1:], eigvals_only=True, select="i", select_range=(0, 0), lapack_driver="stemr"
    )
    return float(low[0])


def _radial_mu(n, s):
    """mu_s of the separable oracle on the grid columns ``s``: radial
    stiffness of the s-edges against the column weights cs, zero on the
    outer column and, off the axis (s[0] > 0), on the first."""
    m, hs = n - 2, s[1] - s[0]
    cs = s**m * hs
    cs[0] = (hs / 2.0) ** (m + 1) / (m + 1)
    edge = ((s[1:] + s[:-1]) / 2.0) ** m / hs
    first = 0 if s[0] == 0.0 else 1
    stiff = np.concatenate(([0.0], edge))
    return _lowest_tridiagonal((stiff[:-1] + stiff[1:])[first:], -edge[first:-1], cs[first:-1])


def _bound_shift(u, beta):
    """The cascade's shift below the form's lower bound min beta'(u)/2."""
    mask = stability._FieldForm(u, beta).mask
    bound = float(np.min(0.5 * beta.deriv(u.values)[mask]))
    return bound - max(1e-8, 1e-3 * (1.0 + abs(bound)))


def _coarsest_lu_fill(u, beta):
    """nnz(L + U) of the LU of (A - shift W) / (hs ht) on the 65^2
    every-other-node level of ``u``, at the cascade's bound shift."""
    shift = _bound_shift(u, beta)
    k = (len(u.s) - 1) // 64
    c = AxiField(n=u.n, s=u.s[::k], t=u.t[::k], values=u.values[::k, ::k])
    form = stability._FieldForm(c, beta)
    A, w = form.matrix(), form.w
    return splu(((A - shift * sp.diags(w)) / (c.hs * c.ht)).tocsc(), **LU_OPTIONS).nnz


def _same_csr(a, b) -> bool:
    """Equal CSR matrices, entry for entry and bit for bit, index types included."""
    return all(
        np.array_equal(x, y) and x.dtype == y.dtype for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))
    )


@pytest.mark.parametrize("n, s_min, model", [(3, 0.0, "tiled"), (4, 0.0, "tiled"), (20, 0.0, "tiled"), (5, 1.0, "tiled"), (3, 0.0, "neck")])
def test_eigen_operators_are_scipy_sparse_algebra_bit_for_bit(beta, layer_profile, n, s_min, model):
    # B = D A D and the preconditioner's (A - shift W) / (hs ht) are formed on
    # A's pattern; they must round as the sparse products and sums they replace
    g = GridSpec(n=n, s_min=s_min, s_max=s_min + 3.0, t_min=-1.5, t_max=1.5, ns=33, nt=41)
    if model == "tiled":
        u = tiled_layer(beta, layer_profile, g)
    else:
        u = solve_semilinear(beta, g, lambda s, t: layer_profile.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0)).field
    form = stability._FieldForm(u, beta)
    A, w, mask = form.matrix(), form.w, form.mask
    before = A.copy()
    d = 1.0 / np.sqrt(w)
    shift = float(np.min(0.5 * beta.deriv(u.values)[mask])) - 1e-3
    assert _same_csr(stability._symmetrized(A, d), (sp.diags(d) @ A @ sp.diags(d)).tocsr())
    shifted = stability._shifted(A, w, shift, u.hs * u.ht)
    assert _same_csr(shifted, ((A - shift * sp.diags(w)) / (u.hs * u.ht)).tocsr())
    assert _same_csr(A, before)  # A itself is left as it was


# 129^2 has two levels and 257^2 three; both factor only the 65^2 one, at
# the bound shift and, on 257^2, once more at the shift the two coarser
# levels raise the finest one's to.  The eigen solve separates the field:
# it takes neither an LU nor a LOBPCG step, and certifies its residual on
# the whole operator.
@pytest.mark.parametrize(
    "n, ns", [pytest.param(3, 129, id="3"), pytest.param(4, 129, id="4"), pytest.param(5, 129, id="5"),
              pytest.param(3, 257, id="3-257")]
)
@pytest.mark.parametrize("off_axis", [False, True])
def test_tiled_layer_spectrum_is_the_sum_of_two_tridiagonal_ones(beta, layer_profile, n, ns, off_axis):
    # On an s-independent field the form is Ks (x) Mt + Ms (x) (Kt + P) against
    # Ms (x) Mt, so its smallest eigenvalue is mu_s + mu_t exactly.  Off the
    # axis (s in [1, 4]) the first column is a Dirichlet boundary too.
    s_min = 1.0 if off_axis else 0.0
    g = GridSpec(n=n, s_min=s_min, s_max=s_min + 3.0, t_min=-3.0, t_max=3.0, ns=ns, nt=ns)
    u = tiled_layer(beta, layer_profile, g)
    tol = 1e-8
    rep = cascade(u, beta, tol=tol)
    layer = linearized_rayleigh_min(u, beta, tol=tol)

    mu_s, ht = _radial_mu(n, u.s), g.ht
    # mu_t: -d_tt + beta'(U)/2 on the interior rows against ct = ht
    pot = 0.5 * beta.deriv(u.values[0, 1:-1])
    mu_t = _lowest_tridiagonal(2.0 / ht**2 + pot, np.full(len(pot) - 1, -1.0 / ht**2), np.ones_like(pot))

    assert abs(rep.rayleigh_min - (mu_s + mu_t)) <= tol
    assert rep.factors.factorizations == (2 if ns == 257 else 1)
    if ns == 129:
        assert rep.shift == _bound_shift(u, beta)
    assert rep.factors.fill_nnz == _coarsest_lu_fill(u, beta)

    assert abs(layer.rayleigh_min - (mu_s + mu_t)) <= tol
    assert abs(layer.rayleigh_min - rep.rayleigh_min) <= tol
    assert layer.verdict == VERDICT_STABLE
    assert layer.factors.factorizations == 0 and layer.level_iterations == [0] and layer.iterations == 0
    assert layer.level_values == [layer.rayleigh_min] and layer.level_residuals[0] <= tol
    assert layer.shift < layer.rayleigh_min
    form = stability._FieldForm(u, beta)
    A, w, mask = form.matrix(), form.w, form.mask
    xi = layer.eigenvector.values
    assert np.all(xi[mask] > 0.0) and np.all(xi[~mask] == 0.0)
    assert abs(layer.lhs - layer.rhs) <= 1e-9 * abs(layer.rhs)
    # the certificate's matrix-free product is the CSR product of B, bit for bit
    x = xi[mask] * np.sqrt(w)
    assert _same_bits(layer.form.apply(x), stability._symmetrized(A, 1.0 / np.sqrt(w)) @ x)


def _same_bits(a, b) -> bool:
    """Equal float64 arrays, bit for bit: the sign of a zero counts."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# The tiled layer at n = 3, 4, 5 and 20, each on 3x3 (two unknowns), on 65^2
# off the axis (s >= 0.5) and on 257^2, and solved catenoid fields at 129^2
# and, with rows and columns of unknowns unequal in count, at 97 x 65 off the axis
_PRODUCT_FIELDS = [
    *(
        pytest.param("tiled", n, s_min, ns, ns, id=f"tiled-n{n}-{ns}")
        for n in (3, 4, 5, 20)
        for s_min, ns in ((0.0, 3), (0.5, 65), (0.0, 257))
    ),
    pytest.param("neck", 3, 0.0, 129, 129, id="neck-n3-129"),
    pytest.param("neck", 4, 0.4, 97, 65, id="neck-n4-97x65"),
]


@pytest.mark.parametrize("model, n, s_min, ns, nt", _PRODUCT_FIELDS)
def test_matrix_free_product_is_the_csr_product_bit_for_bit(beta, layer_profile, model, n, s_min, ns, nt):
    # D A D x from the field's coefficients rounds each entry (d_i a_ij) d_j
    # and sums the row from 0 in the CSR's column order s-, t-, diagonal,
    # t+, s+, exactly as the product of the assembled, symmetrized matrix
    g = GridSpec(n=n, s_min=s_min, s_max=s_min + 3.0, t_min=-3.0, t_max=3.0, ns=ns, nt=nt)
    if model == "tiled":
        u = tiled_layer(beta, layer_profile, g)
    else:
        u = solve_semilinear(beta, g, lambda s, t: layer_profile.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0)).field
    form = stability._FieldForm(u, beta)
    w = grid_weights(u, "node")[form.mask]
    assert _same_bits(form.w, w) and _same_bits(form.d, 1.0 / np.sqrt(w))
    B = stability._symmetrized(form.matrix(), form.d)
    m = B.shape[0]
    signed = np.random.default_rng(ns + n).standard_normal(m)
    signed[::7] = -0.0
    signed[3::7] = 0.0
    ground = np.sqrt(w) * np.abs(np.random.default_rng(n).standard_normal(m))
    for x in (np.ones(m), signed, ground):
        assert _same_bits(form.apply(x), B @ x)


def test_separable_solve_builds_no_sparse_matrix(beta, layer_profile, monkeypatch):
    u = _tiled_257(beta, layer_profile, 3)
    want = linearized_rayleigh_min(u, beta, tol=1e-8)

    def refuse(*args, **kwargs):
        raise AssertionError("the separable solve built a sparse matrix")

    monkeypatch.setattr(stability, "stencil_matrix", refuse)
    monkeypatch.setattr(stability, "_symmetrized", refuse)
    got = linearized_rayleigh_min(u, beta, tol=1e-8)
    assert got.verdict == VERDICT_STABLE and got.level_residuals[0] <= 1e-8
    assert got.to_json_dict() == want.to_json_dict() and _same_bits(got.eigenvector.values, want.eigenvector.values)


@pytest.mark.parametrize("s_min", [0.0, 1.0])
def test_separable_solve_on_a_3x3_grid_is_the_dense_lowest_eigenvalue(beta, layer_profile, s_min):
    # on the axis two unknown columns of one row, off it a single unknown
    g = GridSpec(n=3, s_min=s_min, s_max=s_min + 3.0, t_min=-3.0, t_max=3.0, ns=3, nt=3)
    u = tiled_layer(beta, layer_profile, g)
    form = stability._FieldForm(u, beta)
    mask, d = form.mask, sp.diags(form.d)
    lowest = np.linalg.eigvalsh((d @ form.matrix() @ d).toarray())[0]
    rep = linearized_rayleigh_min(u, beta, tol=1e-10)
    assert abs(rep.rayleigh_min - lowest) <= 1e-10 * abs(lowest)
    assert rep.eigenvector.values[mask].size == (2 if s_min == 0.0 else 1)
    assert np.all(rep.eigenvector.values[mask] > 0.0)


@pytest.fixture()
def tiled_33(beta, layer_profile):
    return tiled_layer(beta, layer_profile, GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33))


def _one_ulp_column(u):
    """u with one interior column moved up by one ulp: still a solution, no longer s-independent."""
    vals = u.values.copy()
    vals[len(vals) // 2] = np.nextafter(vals[len(vals) // 2], np.inf)
    return u.with_values(vals)


def test_eigen_solve_separates_exactly_the_s_independent_field(beta, layer_profile, monkeypatch):
    # the one-ulp field goes through the cascade: measured residual 4.5e-13,
    # one LU, 18 steps, and a value 5.1e-15 from the separated one
    u = tiled_layer(beta, layer_profile, GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65))
    built = []
    real = stability.stencil_matrix
    monkeypatch.setattr(stability, "stencil_matrix", lambda *a, **k: built.append(1) or real(*a, **k))
    tol = 1e-10
    layer = linearized_rayleigh_min(u, beta, tol=tol)
    assert layer.factors.factorizations == 0 and layer.level_iterations == [0] and not built
    bumped = _one_ulp_column(u)
    assert residual_semilinear(bumped, beta) <= 1e-6
    rep = linearized_rayleigh_min(bumped, beta, tol=tol)
    assert rep.factors.factorizations >= 1 and rep.iterations >= 1 and built
    assert abs(rep.rayleigh_min - layer.rayleigh_min) <= tol


@pytest.mark.parametrize("max_iter", [-5, 0, 2.5, True, None])
@pytest.mark.parametrize("bumped", [False, True], ids=["separable", "cascade"])
def test_eigen_solve_refuses_a_step_count_it_cannot_use(beta, tiled_33, monkeypatch, max_iter, bumped):
    # the separable solve ignored -5, the cascade died of a bare ValueError or
    # TypeError, and 0 was reported as a residual left after 0 iterations
    def refuse(*args):
        raise AssertionError("the solve started before its max_iter was checked")

    monkeypatch.setattr(stability, "residual_semilinear", refuse)
    with pytest.raises(InvalidParameterError, match=r"^max_iter must be an integer >= 1, got ") as err:
        linearized_rayleigh_min(_one_ulp_column(tiled_33) if bumped else tiled_33, beta, max_iter=max_iter)
    assert err.value.name == "max_iter"


def test_eigen_solve_refuses_an_s_independent_field_that_does_not_solve(beta, tiled_33):
    with pytest.raises(InvalidParameterError, match="does not solve"):
        linearized_rayleigh_min(tiled_33.with_values(tiled_33.values + 0.01), beta)


# with no inverse-iteration solve each ground state is the ones vector:
# positive, but no eigenvector, so the residual on the whole operator
# refuses it; a shift above mu leaves T - shift indefinite, and dpttrf
# meets a pivot <= 0
@pytest.mark.parametrize(
    "name, value, message",
    [("GROUND_SOLVES", 0, "did not certify the residual"), ("GROUND_GAP", -1e-3, "not below the pencil's spectrum")],
)
def test_separable_solve_refuses_a_pair_it_cannot_certify(beta, tiled_33, monkeypatch, name, value, message):
    monkeypatch.setattr(stability, name, value)
    with pytest.raises(NonconvergenceError, match=message):
        linearized_rayleigh_min(tiled_33, beta)


def _direct_probe(u, probe):
    """(lhs, rhs, eta, |grad eta|^2) of probe_inequality, every array built
    afresh in the order the probe's formula reads."""
    c = us_derivative(u).values
    s, t = u.s[:, None], u.t[None, :]
    r = np.hypot(s, t)
    x = (r - probe.R) / probe.R
    rho = 1.0 - smoothstep_quintic(x)
    drho = -smoothstep_quintic_deriv(x) / probe.R
    capped = s <= probe.eps_inner
    with np.errstate(divide="ignore", invalid="ignore"):
        f_rad = np.where(capped, probe.eps_inner ** (-probe.alpha), np.where(s > 0, s, 1.0) ** (-probe.alpha))
        df_rad = np.where(capped, 0.0, -probe.alpha * np.where(s > 0, s, 1.0) ** (-probe.alpha - 1.0))
        g_s = df_rad * rho + f_rad * drho * np.where(r > 0, s / np.where(r > 0, r, 1.0), 0.0)
        g_t = f_rad * drho * np.where(r > 0, t / np.where(r > 0, r, 1.0), 0.0)
        inv_s2 = np.where(s > 0.0, 1.0 / np.where(s > 0, s, 1.0) ** 2, 0.0)
    eta, gradsq, w = f_rad * rho, g_s * g_s + g_t * g_t, grid_weights(u, "node")
    lhs = (u.n - 2) * float(np.sum(c * c * eta * eta * inv_s2 * w))
    return lhs, float(np.sum(c * c * gradsq * w)), eta, gradsq


@pytest.mark.parametrize("n, s_min", [(3, 0.0), (4, 0.0), (3, 0.4)])
def test_probe_reads_as_its_formula_bit_for_bit(beta, layer_profile, n, s_min):
    # the probe builds r, s/r, t/r, 1/s^2 and u_s^2 once for every R; each
    # product keeps the formula's order, so every report is the direct one.
    # The sums hide a one-ulp slip in an entry: eta and |grad eta|^2 are
    # compared entry for entry
    g = GridSpec(n=n, s_min=s_min, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65)
    u = solve_semilinear(beta, g, lambda s, t: layer_profile.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0)).field
    probes = stability._Probes(u, grid_weights(u, "node"))
    for R, eps_inner in ((1.2, 0.05), (2.4, 0.3), (4.8, 0.6)):
        probe = StabilityProbe(alpha=0.7, R=R, eps_inner=eps_inner)
        lhs, rhs, eta, gradsq = _direct_probe(u, probe)
        got_eta, got_gradsq = stability._eta_and_gradsq(probe, u, probes.rays)
        assert _same_bits(got_eta, eta) and _same_bits(got_gradsq, gradsq)
        rep = probes.report(probe)
        assert (rep.lhs, rep.rhs) == (lhs, rhs) and _same_bits(rep.xi.values, probes.c * eta)
        assert lhs > 0.0


def _formula_report(u, weights, probe):
    """(lhs, rhs, xi) of the probe formula on every node, eta and |grad eta|^2
    from ``_eta_and_gradsq``, whatever u_s is."""
    c = us_derivative(u).values
    eta, gradsq = stability._eta_and_gradsq(probe, u, stability._rays(u))
    s = u.s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_s2 = np.where(s > 0.0, 1.0 / np.where(s > 0, s, 1.0) ** 2, 0.0)
    lhs = (u.n - 2) * float(np.sum(c * c * eta * eta * inv_s2 * weights))
    return lhs, float(np.sum(c * c * gradsq * weights)), c * eta


def _run_probes(n, alpha, R, eps_inner, eps0=0.1):
    """The three probes a stability run draws from one [probe] section."""
    for radius in (R, 2.0 * R, 4.0 * R):
        try:
            eps = epsilon_schedule(n, alpha, eps0, radius)
        except InvalidParameterError:
            eps = eps_inner
        yield StabilityProbe(alpha=alpha, R=radius, eps_inner=min(eps, 0.5), eps0=eps0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_probe_of_the_tiled_layer_reads_as_its_formula_without_evaluating_eta(beta, monkeypatch, n):
    # the tiled layer's u_s is +0.0 on every node, so each probe is the zero
    # direction: the corners of the benchmark's probe box, every R a run draws
    u = experiments.tiled_layer_field(beta, GridSpec(n=n, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65))
    weights = grid_weights(u, "node")
    lo, hi = (n - 2) / 2.0, math.sqrt(n - 2)
    cases = [
        (probe, _formula_report(u, weights, probe))
        for alpha in (lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo))
        for R in (1.5, 2.5)
        for eps_inner in (0.03, 0.08)
        for probe in _run_probes(n, alpha, R, eps_inner)
    ]
    calls = []
    monkeypatch.setattr(stability, "_eta_and_gradsq", lambda *args: calls.append(args))
    probes = stability._Probes(u, weights)
    for probe, (lhs, rhs, xi) in cases:
        rep = probes.report(probe)
        assert _same_bits(np.array([rep.lhs, rep.rhs]), np.array([lhs, rhs])) and lhs == 0.0
        assert _same_bits(rep.xi.values, xi)
    assert not calls


def test_probe_of_a_field_moved_by_one_ulp_takes_the_full_path(beta, monkeypatch):
    # one column up by one ulp gives u_s = +-ulp / (2 hs) on its two neighbours
    u = _one_ulp_column(experiments.tiled_layer_field(beta, GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65)))
    assert np.count_nonzero(us_derivative(u).values) > 0
    weights, probe = grid_weights(u, "node"), StabilityProbe(alpha=0.75, R=2.0, eps_inner=0.05)
    lhs, rhs, xi = _formula_report(u, weights, probe)
    calls, real = [], stability._eta_and_gradsq
    monkeypatch.setattr(stability, "_eta_and_gradsq", lambda *args: calls.append(args[0]) or real(*args))
    rep = stability._Probes(u, weights).report(probe)
    assert calls == [probe]
    assert (rep.lhs, rep.rhs) == (lhs, rhs) and _same_bits(rep.xi.values, xi) and lhs > 0.0


@pytest.mark.parametrize("model", ["catenoid", "profile"])
def test_stability_run_reads_its_field_once_and_reports_the_independent_probes(tmp_path, monkeypatch, model):
    # the residual the eigen solve's precheck computed is the reported one;
    # the three probes share what does not depend on R, and must read as
    # independent calls do.  On the tiled layer u_s = 0 and every probe reads
    # 0, so the solved catenoid field is the one that can show an ordering slip
    cfg = dataclasses.replace(parse_config(_STABILITY_N3), boundary_model=model, out_dir=str(tmp_path / "run"))
    seen = []
    for module in (stability, experiments):
        real = module.residual_semilinear
        monkeypatch.setattr(module, "residual_semilinear", lambda f, b, real=real: seen.append(f) or real(f, b))
    results = experiments.run(cfg).results
    assert len(seen) == 1
    f, beta = seen[0], experiments.resolve_reaction(cfg.reaction)
    assert results["residual"] == residual_semilinear(f, beta)
    for entry in results["probes"]:
        probe = StabilityProbe(alpha=entry["alpha"], R=entry["R"], eps_inner=entry["eps_inner"], eps0=cfg.eps0)
        rep = probe_inequality(f, probe)
        norm_sq = weighted_norm_sq(rep.xi)
        quotient = stability._FieldForm(f, beta).value(rep.xi.values) / norm_sq if norm_sq > 0.0 else 0.0
        assert (entry["lhs"], entry["rhs"], entry["defect"]) == (rep.lhs, rep.rhs, rep.defect)
        assert entry["rayleigh_quotient"] == quotient
        assert (rep.lhs > 0.0 and quotient != 0.0) if model == "catenoid" else rep.lhs == rep.rhs == quotient == 0.0


@pytest.mark.parametrize("model, calls", [("profile", 0), ("catenoid", 3)])
def test_stability_run_evaluates_eta_only_where_us_is_nonzero(tmp_path, monkeypatch, model, calls):
    # the tiled layer's u_s is zero bit for bit, the solved neck's is not
    cfg = dataclasses.replace(parse_config(_STABILITY_N3), boundary_model=model, out_dir=str(tmp_path / "run"))
    seen, real = [], stability._eta_and_gradsq
    monkeypatch.setattr(stability, "_eta_and_gradsq", lambda *args: seen.append(args[0]) or real(*args))
    results = experiments.run(cfg).results
    assert len(seen) == calls
    assert [entry["R"] for entry in results["probes"]] == [2.0, 4.0, 8.0]


@pytest.mark.parametrize("model", ["profile", "catenoid"])
def test_stability_run_falls_back_from_a_schedule_whose_cap_height_overflows(tmp_path, model):
    # at n = 4, alpha = 1.2 the schedule's eps = R^-2 is normal up to R ~ 1e154,
    # but eps^(-1.2) overflows from R ~ 1e129 on: the probe's Python power
    # raised a bare OverflowError on both fields
    cfg = dataclasses.replace(
        parse_config(_STABILITY_N3), n=4, alpha=1.2, R=1e140, ns=33, nt=33, boundary_model=model,
        out_dir=str(tmp_path / "run"),
    )
    for R in (1e140, 2e140, 4e140):
        with pytest.raises(InvalidParameterError, match="cap height"):
            epsilon_schedule(cfg.n, cfg.alpha, cfg.eps0, R)
    probes = experiments.run(cfg).results["probes"]
    assert [entry["eps_inner"] for entry in probes] == [cfg.eps_inner] * 3
    assert all(math.isfinite(entry["lhs"]) and math.isfinite(entry["rhs"]) for entry in probes)


@pytest.mark.parametrize("n, zero", [(3, jn_zeros(0, 1)[0]), (4, math.pi), (5, jn_zeros(1, 1)[0])])
def test_radial_eigenvalue_converges_to_the_bessel_value_at_second_order(n, zero):
    # mu_s is the radial Laplacian of R^(n-1) on the ball s < s_max with a
    # Dirichlet rim: (j_{(n-3)/2,1} / s_max)^2; measured orders 2.00-2.04
    s_max = 3.0
    errors = [abs(_radial_mu(n, np.linspace(0.0, s_max, ns)) - (zero / s_max) ** 2) for ns in (65, 129, 257)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.9, (errors, orders)


def test_rayleigh_quotient_consistency(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=49, nt=49)
    u = tiled_layer(beta, layer_profile, g)
    for rep in (linearized_rayleigh_min(u, beta, tol=1e-9), cascade(u, beta, tol=1e-9)):
        xi = rep.eigenvector
        q = quadratic_form(u, xi, beta)
        assert abs(q / weighted_norm_sq(xi) - rep.rayleigh_min) < 1e-10


def test_eigen_certificate(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = tiled_layer(beta, layer_profile, g)
    tol = 1e-9
    form = stability._FieldForm(u, beta)
    mask, d = form.mask, form.d
    B = (sp.diags(d) @ form.matrix() @ sp.diags(d)).tocsr()
    for rep in (linearized_rayleigh_min(u, beta, tol=tol), cascade(u, beta, tol=tol)):
        x = rep.eigenvector.values[mask] / d
        x /= np.linalg.norm(x)
        assert np.linalg.norm(B @ x - rep.rayleigh_min * x) <= tol * 1.01


def test_layer_extension_is_stable_and_beats_random_probes(beta, layer_profile, rng):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=49, nt=49)
    u = tiled_layer(beta, layer_profile, g)
    rep, layer = cascade(u, beta, tol=1e-9), linearized_rayleigh_min(u, beta, tol=1e-9)
    assert rep.rayleigh_min >= -1e-6 and abs(layer.rayleigh_min - rep.rayleigh_min) <= 1e-9
    assert rep.verdict == layer.verdict == "stable-on-grid"
    # the eigenvalue is a lower bound over 10^3 random directions
    best = math.inf
    for _ in range(1000):
        vals = np.zeros_like(u.values)
        vals[1:-1, 1:-1] = rng.standard_normal((g.ns - 2, g.nt - 2))
        vals[0, 1:-1] = vals[1, 1:-1]
        xi = u.with_values(vals)
        best = min(best, quadratic_form(u, xi, beta) / weighted_norm_sq(xi))
    assert best >= rep.rayleigh_min - 1e-10


def test_eigen_requires_solved_field(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = from_function(g, lambda s, t: 0.5 + 0.0 * s)  # beta(1/2) != 0
    with pytest.raises(InvalidParameterError):
        linearized_rayleigh_min(u, beta)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_eigen_solve_refuses_a_tolerance_that_is_not_positive_and_finite(beta, tiled_33, monkeypatch, tol):
    # -1 used to die in math.sqrt, NaN to report an uncertified residual;
    # either way after the field's residual was computed
    def refuse(*args, **kwargs):
        raise AssertionError("the eigen solve read the field before its tol was checked")

    monkeypatch.setattr(stability, "residual_semilinear", refuse)
    for field in (tiled_33, _one_ulp_column(tiled_33)):
        with pytest.raises(InvalidParameterError, match="^tol must be positive and finite") as err:
            linearized_rayleigh_min(field, beta, tol=tol)
        assert err.value.name == "tol"


def test_eigen_solve_refuses_a_field_holding_a_nan(beta, layer_profile):
    # one NaN node: the reaction term must not read it as 0, nor the residual
    # skip it, or the clean field's certificate would be issued for it
    g = GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65)
    u = tiled_layer(beta, layer_profile, g)
    assert residual_semilinear(u, beta) < 1e-12
    u.values[30, 30] = math.nan
    assert math.isnan(residual_semilinear(u, beta))
    with pytest.raises(InvalidParameterError, match=r"residual nan\)$"):
        linearized_rayleigh_min(u, beta, tol=1e-8)


def test_sign_changing_eigenvector_is_not_certified(beta, layer_profile, monkeypatch):
    # the second eigenpair passes the residual certificate but changes sign,
    # so it cannot be the ground state of the irreducible Z-matrix B
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = tiled_layer(beta, layer_profile, g)
    form = stability._FieldForm(u, beta)
    d = sp.diags(form.d)
    lams, vecs = np.linalg.eigh((d @ form.matrix() @ d).toarray())
    # scipy's history: the start, one iteration, the post-processing
    second = lambda *args, **kwargs: (lams[1:2], vecs[:, 1:2], [lams[0], lams[1], lams[1]])
    monkeypatch.setattr(stability, "lobpcg", second)
    with pytest.raises(NonconvergenceError, match="one sign") as err:
        cascade(u, beta, tol=1e-9)
    assert len(err.value.trace) == 1


def test_eigen_nonconvergence_trace(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = tiled_layer(beta, layer_profile, g)
    with pytest.raises(NonconvergenceError) as err:
        cascade(u, beta, max_iter=2, tol=1e-14)
    assert len(err.value.trace) == 2


def test_eigen_nonconvergence_names_count_residual_and_shift(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = tiled_layer(beta, layer_profile, g)
    with pytest.raises(NonconvergenceError) as err:
        cascade(u, beta, max_iter=3, tol=1e-14)
    match = re.search(r"after (\d+) iterations \(last residual ([0-9.e+-]+), shift ([0-9.e+-]+)\)", str(err.value))
    assert match, str(err.value)
    assert int(match.group(1)) == len(err.value.trace) == 3
    assert float(match.group(2)) > 1e-14
    # the shift sits just below the form's lower bound min beta'(u)/2
    mask = stability._FieldForm(u, beta).mask
    bound = float(np.min(0.5 * beta.deriv(u.values)[mask]))
    assert float(match.group(3)) == pytest.approx(bound - 1e-3 * (1.0 + abs(bound)), rel=1e-5)


def test_eigen_nonconvergence_counts_every_step_it_ran(beta, layer_profile):
    # below round-off the residual wanders, and scipy cuts the trace at its
    # best iterate (measured 26 of the 40 steps); the message names the cap
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = tiled_layer(beta, layer_profile, g)
    with pytest.raises(NonconvergenceError) as err:
        cascade(u, beta, max_iter=40, tol=1e-16)
    assert "did not certify the residual after 40 iterations" in str(err.value)
    assert len(err.value.trace) < 40


def _spy_lobpcg(monkeypatch):
    """Every LOBPCG call of the cascade as (start block, tol), in call order."""
    calls, original = [], stability.lobpcg

    def spy(B, X, **kwargs):
        calls.append((X.copy(), kwargs["tol"]))
        return original(B, X, **kwargs)

    monkeypatch.setattr(stability, "lobpcg", spy)
    return calls


def _tiled_257(beta, layer_profile, n):
    g = GridSpec(n=n, s_max=3.0, t_min=-3.0, t_max=3.0, ns=257, nt=257)
    return tiled_layer(beta, layer_profile, g)


def test_cascadic_eigen_solve_starts_each_level_from_the_one_below(beta, layer_profile, monkeypatch):
    # 257^2 has the levels 65^2, 129^2 and 257^2; a level of k^2 nodes has
    # (k - 1)(k - 2) unknowns (the axis column in, the outer rim out)
    calls = _spy_lobpcg(monkeypatch)
    u = _tiled_257(beta, layer_profile, 3)
    tol = 1e-8
    rep = cascade(u, beta, tol=tol)
    assert [X.shape for X, _ in calls] == [((k - 1) * (k - 2), 1) for k in (65, 129, 257)]
    assert [bool(np.all(X == 1.0)) for X, _ in calls] == [True, False, False]
    assert [level_tol for _, level_tol in calls] == [math.sqrt(tol), math.sqrt(tol), tol]
    assert len(rep.level_iterations) == 3 and rep.level_iterations[-1] == rep.iterations
    assert rep.iterations <= 14  # measured 7; 27 from the ones vector
    assert rep.factors.factorizations == 2  # one LU per shift


# finest-level steps measured 7, 9 and 29 (11, 23 and 41 at the bound shift);
# a shift 10 coarse drifts below lam_129 fails to certify n = 40
@pytest.mark.parametrize("n, most", [(3, 8), (20, 12), (40, 32)])
def test_finest_shift_sits_a_hundred_coarse_drifts_below_the_coarse_eigenvalue(beta, layer_profile, n, most):
    u = _tiled_257(beta, layer_profile, n)
    rep = cascade(u, beta, tol=1e-8)
    lam_65, lam_129, lam_257 = rep.level_values
    assert rep.shift == max(_bound_shift(u, beta), lam_129 - 100.0 * abs(lam_129 - lam_65))
    assert rep.shift < lam_257 and rep.verdict == VERDICT_STABLE
    assert rep.level_iterations[-1] <= most
    assert rep.factors.factorizations == 2


def test_a_capped_coarse_level_reports_its_residual_above_sqrt_tol(beta, layer_profile):
    # the 65^2 level needs 9 steps to reach sqrt(tol) = 1e-4 (residual
    # 4.9e-5); capped at 7 it stops at 2.6e-3 and says so, while the finer
    # levels still certify (measured [7, 6, 7] steps)
    u = _tiled_257(beta, layer_profile, 3)
    tol = 1e-8
    full = cascade(u, beta, tol=tol)
    assert len(full.level_residuals) == 3
    assert max(full.level_residuals[:-1]) <= math.sqrt(tol) and full.level_residuals[-1] <= tol
    capped = cascade(u, beta, tol=tol, max_iter=7)
    assert capped.level_iterations[0] == 7 and capped.level_residuals[0] > 10.0 * math.sqrt(tol)
    assert capped.level_residuals[-1] <= tol and capped.verdict == VERDICT_STABLE


def test_eigen_solve_at_257_keeps_its_traced_memory_under_29_mib(beta, layer_profile):
    # B, the finest preconditioner's CSR and zebra line factors and LOBPCG's
    # blocks (SuperLU's own memory is not traced): measured 29.6 MiB while
    # the finest level kept A beside them, 27.8 MiB since it drops A once B
    # and the preconditioner are built
    u = _tiled_257(beta, layer_profile, 3)
    tracemalloc.start()
    try:
        cascade(u, beta, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 29 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_single_level_eigen_solve_starts_from_ones(beta, layer_profile, monkeypatch):
    calls = _spy_lobpcg(monkeypatch)
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = tiled_layer(beta, layer_profile, g)
    rep = cascade(u, beta, tol=1e-9)
    assert len(calls) == 1
    X, level_tol = calls[0]
    assert X.shape == (32 * 31, 1) and np.all(X == 1.0) and level_tol == 1e-9
    assert rep.level_iterations == [rep.iterations]
    assert rep.shift == _bound_shift(u, beta)


# 2, 3 and 4 unknowns: below 5, scipy's LOBPCG solves B densely and returns
# no trace; measured rayleigh_min 3.5790, 3.6202 and 1.0415
@pytest.mark.parametrize("ns, nt", [(3, 3), (4, 3), (3, 4)])
def test_eigen_solve_below_five_unknowns_certifies_the_dense_answer(beta, layer_profile, ns, nt):
    g = GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=ns, nt=nt)
    u = tiled_layer(beta, layer_profile, g)
    rep = cascade(u, beta)
    form = stability._FieldForm(u, beta)
    A, w, mask = form.matrix(), form.w, form.mask
    assert A.shape[0] < 5
    lam = eigh(A.toarray(), np.diag(w), eigvals_only=True)[0]
    assert rep.verdict == VERDICT_STABLE and rep.level_iterations == [0] and rep.iterations == 0
    assert rep.rayleigh_min == pytest.approx(lam, rel=1e-12)
    assert np.all(rep.eigenvector.values[mask] > 0.0)


# ---------------------------------------------------------------- radial derivative


def test_us_derivative_of_axial_field_vanishes(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    u = tiled_layer(beta, layer_profile, g)
    assert np.max(np.abs(us_derivative(u).values)) == 0.0


def test_us_derivative_exact_on_quadratic():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=21, nt=9)
    u = from_function(g, lambda s, t: s**2 + 0.0 * t)
    d = us_derivative(u)
    assert np.max(np.abs(d.values - 2.0 * d.s[:, None])) < 1e-13


def test_us_equation_residual_second_order(beta, layer_profile):
    # solved neck-data field: the differentiated equation holds at O(h^2)
    # away from the critical level u = 1 (the reaction is C^1 only, so the
    # solution is C^3 but not C^4 there and composed stencils drop to O(h))
    errs_away, errs_all = [], []
    for ns in (49, 97, 193):
        g = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=ns, nt=ns)
        data = lambda s, t: layer_profile.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0)
        res = solve_semilinear(beta, g, data, tol=1e-11)
        r = us_equation_residual(res.field, beta).values
        s = res.field.s
        keep = (s >= 0.25) & (s <= g.s_max - 2 * g.hs)  # 4h of the coarsest run
        sub = r[keep, 2:-2]
        usub = res.field.values[keep, 2:-2]
        away = np.abs(usub - 1.0) >= 0.05
        errs_away.append(np.nanmax(np.abs(np.where(away, sub, 0.0))))
        errs_all.append(np.nanmax(np.abs(sub)))
    assert errs_away[0] / errs_away[1] > 3.4
    assert errs_away[1] / errs_away[2] > 3.4
    assert errs_all[0] > errs_all[1] > errs_all[2]
    assert errs_all[0] / errs_all[2] > 2.5


# ---------------------------------------------------------------- probes


def test_probe_on_axial_field_is_exactly_balanced(beta, layer_profile):
    g = GridSpec(n=4, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = tiled_layer(beta, layer_profile, g)
    rep = probe_inequality(u, StabilityProbe(alpha=1.1, R=1.5, eps_inner=0.05))
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.verdict == "stable-on-grid"


def synthetic_compact_radial_field(grid):
    """u whose radial derivative is a bump supported in s in [1, 2]."""
    s, t = grid.axes()

    def ramp(x):
        y = np.clip((x - 1.0), 0.0, 1.0)
        return np.where((x > 1.0) & (x < 2.0), np.sin(math.pi * y) ** 2, 0.0)

    # integrate the bump in s so that u_s equals it exactly in the continuum;
    # discretely we build u_s by centered differences, so construct u directly
    from scipy.integrate import cumulative_trapezoid

    prof = cumulative_trapezoid(ramp(s), s, initial=0.0)
    tw = np.where(np.abs(t) < 2.0, np.cos(math.pi * t / 4.0) ** 2, 0.0)
    return AxiField(n=grid.n, s=s, t=t, values=prof[:, None] * tw[None, :])


@pytest.mark.parametrize("n,alpha", [(3, 0.7), (4, 1.2), (5, 1.6)])
def test_probe_defect_matches_direct_quadrature(n, alpha):
    # with the outer cutoff identically 1 on the support and the cap below it,
    # the defect reduces exactly to (alpha^2 - (n-2)) * int u_s^2 s^(-2a-2)
    g = GridSpec(n=n, s_max=4.0, t_min=-4.0, t_max=4.0, ns=129, nt=129)
    u = synthetic_compact_radial_field(g)
    probe = StabilityProbe(alpha=alpha, R=8.0, eps_inner=0.5)
    rep = probe_inequality(u, probe)
    c = us_derivative(u).values
    w = grid_weights(u, "node")
    s = u.s[:, None]
    with np.errstate(divide="ignore"):
        base = np.where(s > 0, c**2 * np.where(s > 0, s, 1.0) ** (-2 * alpha - 2) * w, 0.0)
    expected = (alpha**2 - (n - 2)) * float(np.sum(base))
    defect = rep.defect
    assert abs(defect - expected) < 1e-12 * (1.0 + abs(expected))
    assert defect < 0.0  # alpha inside the window certifies instability here
    assert rep.verdict == "unstable-direction-found"


def test_probe_alpha_zero_reduces_to_collar():
    g = GridSpec(n=3, s_max=4.0, t_min=-4.0, t_max=4.0, ns=65, nt=65)
    u = synthetic_compact_radial_field(g)
    probe = StabilityProbe(alpha=0.0, R=2.5, eps_inner=0.05)
    rep = probe_inequality(u, probe)
    # the radial factor is constant, so only the outer cutoff gradient remains
    from onephase_lab.stability import _eta_and_gradsq, _rays

    eta, gradsq = _eta_and_gradsq(probe, u, _rays(u))
    c = us_derivative(u).values
    w = grid_weights(u, "node")
    rhs_direct = float(np.sum(c**2 * gradsq * w))
    assert abs(rep.rhs - rhs_direct) < 1e-13 * (1 + abs(rhs_direct))
    r = np.hypot(u.s[:, None], u.t[None, :])
    assert np.max(np.abs(np.where(r <= probe.R, gradsq, 0.0))) == 0.0


def test_inequality_verdict_is_lhs_above_rhs():
    assert InequalityReport(lhs=1.0, rhs=1.0).verdict == VERDICT_STABLE
    above = InequalityReport(lhs=1.0 + 2.0**-52, rhs=1.0)
    assert above.verdict == VERDICT_UNSTABLE
    assert above.defect == -(2.0**-52)


@pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
def test_inequality_report_refuses_a_side_that_is_not_finite(lhs, rhs):
    # lhs > rhs is false for NaN, so a NaN side read as stable-on-grid
    with pytest.raises(InvalidParameterError, match="^inequality sides must be finite"):
        InequalityReport(lhs=lhs, rhs=rhs)


def test_probe_refuses_a_field_holding_a_nan(beta, layer_profile):
    # one NaN node made lhs = rhs = nan and the verdict stable-on-grid
    g = GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=65, nt=65)
    u = tiled_layer(beta, layer_profile, g)
    u.values[30, 30] = math.nan
    with pytest.raises(InvalidParameterError, match=r"^inequality sides must be finite, got lhs=nan, rhs=nan$"):
        probe_inequality(u, StabilityProbe(alpha=0.75, R=1.4, eps_inner=0.05))


@pytest.mark.filterwarnings("error")
def test_probe_refuses_node_weights_that_overflow():
    # a zero u_s reports lhs = rhs = 0 without reading the weights, where
    # 0 * inf once read as a NaN side; the grid is refused before either path
    g = GridSpec(n=3, s_max=1e155, t_min=-3.0, t_max=3.0, ns=9, nt=9)
    with pytest.raises(InvalidParameterError, match=r"s\^\(n-2\) hs ht overflows"):
        probe_inequality(from_function(g, lambda s, t: 0.0 * s), StabilityProbe(alpha=0.75, R=2.0, eps_inner=0.05))


def test_probe_invalid_parameters():
    # the error names the one field out of range
    for kwargs, name in (
        ({"alpha": -0.1}, "alpha"),
        ({"R": 0.5}, "R"),
        ({"eps_inner": 1.5}, "eps_inner"),
        ({"eps_inner": 2.0, "R": 2.0}, "eps_inner"),
        ({"eps_inner": 0.0}, "eps_inner"),
        ({"eps0": 0.0}, "eps0"),
        ({"eps0": math.nan}, "eps0"),
        ({"alpha": math.nan}, "alpha"),
        ({"alpha": math.inf}, "alpha"),
        ({"R": math.inf}, "R"),
        ({"R": math.nan}, "R"),
        ({"alpha": 2.0, "eps_inner": 1e-300}, "eps_inner"),  # 1e-300 ** -2.0 raised OverflowError
    ):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be ") as err:
            StabilityProbe(**{"alpha": 0.5, "R": 2.0, "eps_inner": 0.05, **kwargs})
        assert err.value.name == name


# ---------------------------------------------------------------- window, schedule


def test_window_exact_values():
    assert admissible_alpha(3) == (0.5, 1.0)
    assert admissible_alpha(4) == (1.0, math.sqrt(2.0))
    assert admissible_alpha(5) == (1.5, math.sqrt(3.0))
    for n in (2, 6, 7, 8):
        assert admissible_alpha(n) is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=3, max_value=5), frac=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_window_members_satisfy_strict_inequalities(n, frac):
    lo, hi = admissible_alpha(n)
    alpha = lo + frac * (hi - lo)
    assert 2 * alpha > n - 2
    assert alpha * alpha < n - 2


def test_schedule_arithmetic_oracle():
    val = epsilon_schedule(5, 1.6, 0.1, 16.0)
    assert abs(val - math.exp(-math.log(16.0) / 0.7)) < 1e-15
    assert epsilon_schedule(5, 1.6, 0.1, 1.0) == 1.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    r1=st.floats(min_value=1.0, max_value=50.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
)
def test_schedule_monotone_decreasing(n, alpha, r1, factor):
    eps0 = 0.1
    denom = n - 1 - 2 * alpha - eps0
    if denom <= 0:
        return
    # -log(eps) at the larger radius, against the floor of the normal floats
    depth = math.log(r1 * factor) / denom
    floor = -math.log(sys.float_info.min)
    try:
        larger = epsilon_schedule(n, alpha, eps0, r1 * factor)
    except InvalidParameterError:
        assert depth >= floor - 1.0  # refused only near or below the floor
        return
    assert depth <= floor + 1.0  # accepted only near or above the floor
    assert larger < epsilon_schedule(n, alpha, eps0, r1)


def test_schedule_refuses_underflow():
    # denominator 2 - 2*0.94921875 - 0.1 = 1/640: 4^-640 and 8^-640 both flush to 0.0
    with pytest.raises(InvalidParameterError):
        epsilon_schedule(3, 0.94921875, 0.1, 4.0)
    with pytest.raises(InvalidParameterError):
        epsilon_schedule(3, 0.94921875, 0.1, 0.25)  # (1/4)^-640 = 2^1280 overflows
    assert epsilon_schedule(3, 0.94921875, 0.1, 2.0 ** (1.0 / 64)) == pytest.approx(2.0**-10)


def test_schedule_refuses_a_rate_whose_cap_height_overflows():
    # n = 4, alpha = 1.2: eps = R^-2 is a normal float, eps^(-1.2) is not finite
    with pytest.raises(InvalidParameterError, match="cap height"):
        epsilon_schedule(4, 1.2, 0.1, 1e140)
    eps = epsilon_schedule(4, 1.2, 0.1, 1e100)
    assert eps == pytest.approx(1e-200) and StabilityProbe(alpha=1.2, R=1e100, eps_inner=eps).eps_inner == eps


def test_schedule_rejects_bad_exponent():
    with pytest.raises(InvalidParameterError):
        epsilon_schedule(3, 1.0, 0.1, 4.0)  # denominator 3-1-2-0.1 < 0


# ---------------------------------------------------------------- log cutoff


def test_log_cutoff_midpoint_value():
    R = math.e**4
    g = GridSpec(n=2, s_max=60.0, t_min=-60.0, t_max=60.0, ns=41, nt=41)
    lc = log_cutoff_2d(R, g)
    r = np.hypot(lc.field.s[:, None], lc.field.t[None, :])
    near = np.unravel_index(np.argmin(np.abs(r - math.sqrt(R))), r.shape)
    # analytic value at |x| = sqrt(R) is exactly 1/2
    assert abs((math.log(R) - math.log(math.sqrt(R))) / math.log(R) - 0.5) == 0.0
    assert abs(lc.field.values[near] - 0.5) < 0.05


@pytest.mark.parametrize("k", [2.0, 4.0, 8.0])
def test_log_cutoff_energy_law(k):
    R = math.e**k
    g = GridSpec(n=2, s_max=3000.0, t_min=-3000.0, t_max=3000.0, ns=11, nt=11)
    lc = log_cutoff_2d(R, g)
    assert abs(lc.grad_energy - 2.0 * math.pi / k) < 1e-3 * (2.0 * math.pi / k)


def test_log_cutoff_energy_halves():
    g = GridSpec(n=2, s_max=60.0, t_min=-60.0, t_max=60.0, ns=11, nt=11)
    vals = [log_cutoff_2d(math.e**k, g).grad_energy for k in (1.0, 2.0, 4.0)]
    assert abs(vals[0] / vals[1] - 2.0) < 1e-12
    assert abs(vals[1] / vals[2] - 2.0) < 1e-12


# ---------------------------------------------------------------- report schema


def test_spectral_report_json_schema(tmp_path, beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    u = tiled_layer(beta, layer_profile, g)
    rep = linearized_rayleigh_min(u, beta, tol=1e-9)
    path = tmp_path / "spectral.json"
    rep.save_json(path)
    data = json.loads(path.read_text())
    assert list(data) == ["verdict", "rayleigh_min", "lhs", "rhs", "iterations"]
    assert data == {
        "verdict": rep.verdict, "rayleigh_min": rep.rayleigh_min, "lhs": rep.lhs, "rhs": rep.rhs,
        "iterations": rep.iterations,
    }
    rep.eigenvector.save_binary(tmp_path / "eig.bin")
    back = AxiField.load_binary(tmp_path / "eig.bin")
    assert back.same_grid(rep.eigenvector) and np.array_equal(back.values, rep.eigenvector.values)
