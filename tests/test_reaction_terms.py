import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase_lab.errors import ConfigError, InvalidParameterError
from onephase_lab.numerics import gl5_points
from onephase_lab.profile1d import Profile1D
from onephase_lab.reaction_terms import (
    load_reaction_csv,
    make_polynomial_beta,
    make_tabulated_term,
    require_a1,
    rescale,
    resolve_reaction,
)

from beta_recovery import InversionError, beta_from_profile
from oracles import save_reaction_csv


def _integral(f, a, b):
    """Panel-wise 5-point Gauss-Legendre value of ``f`` on [a, b]: exact to
    rounding on polynomials of degree <= 9."""
    nodes, weights = gl5_points(np.linspace(a, b, 9))
    return float(weights @ f(nodes))


def test_polynomial_coefficient_from_quadrature_oracle():
    # the unnormalized factor integrates to 1/30, forcing c = 30
    factor = np.polynomial.Polynomial([0.0, 0.0, 1.0, -2.0, 1.0]).integ()  # t^2 (1-t)^2
    raw_mass = factor(1.0) - factor(0.0)
    assert abs(raw_mass - 1.0 / 30.0) < 1e-14
    beta = make_polynomial_beta()
    assert abs(beta.eval(0.5) - 30.0 * 0.5**2 * 0.5**2) < 1e-14
    assert abs(_integral(beta.eval, 0.0, 1.0) - 1.0) < 1e-12


def test_support_endpoints_vanish(beta):
    assert beta.eval(0.0) == 0.0
    assert beta.eval(1.0) == 0.0
    assert beta.deriv(0.0) == 0.0
    assert beta.deriv(1.0) == 0.0


@pytest.mark.parametrize("kind", ["poly2", "table"])
def test_a_nan_argument_reads_nan_not_zero(beta, kind):
    # a NaN is neither inside nor outside the support: mapping it to 0 would
    # hide an undefined field value from every residual that reads the term
    t = np.linspace(0.0, 1.0, 33)
    term = beta if kind == "poly2" else make_tabulated_term(t, beta.eval(t))
    args = np.array([-0.5, 0.0, np.nan, 0.5, 1.0, 1.5])
    for read in (term.eval, term.deriv, term.primitive):
        got = np.asarray(read(args))
        assert np.array_equal(np.isnan(got), np.isnan(args))
        assert np.isnan(read(math.nan))
    assert np.array_equal(term.eval(args[[0, 1, 4, 5]]), np.zeros(4))
    assert np.array_equal(term.deriv(args[[0, 1, 4, 5]]), np.zeros(4))


def test_primitive_half_mass_by_symmetry(beta):
    assert abs(beta.primitive(0.5) - 0.5) < 1e-14
    assert beta.primitive(-0.3) == 0.0
    assert abs(beta.primitive(2.0) - 1.0) < 1e-14


def _a1_defect(term, clause: str) -> float:
    """The defect ``require_a1`` names for ``term``, which must fail first at ``clause``.

    The clauses are checked in order (nonnegative, support in [0, 1], C^1,
    unit mass), so a term that fails first at a clause passes all before it.
    """
    with pytest.raises(ConfigError, match=re.escape(f"{clause} clause: defect")) as err:
        require_a1(term)
    return float(re.search(r"defect (\S+) above", str(err.value)).group(1))


def test_validate_a1_passes_on_witness(beta):
    assert require_a1(beta) is None  # every clause, the mass to 1e-10


def test_validate_a1_flags_unnormalized_mass(beta):
    t = np.linspace(0.0, 1.0, 2001)
    raw = make_tabulated_term(t, beta.eval(t) / 30.0)  # c = 1: bare t^2 (1-t)^2
    assert abs(_a1_defect(raw, "unit mass") - (1.0 - 1.0 / 30.0)) < 1e-10


def test_validate_a1_zero_term_fails_only_mass():
    zero = make_tabulated_term(np.linspace(0, 1, 9), np.zeros(9), name="zero")
    assert abs(_a1_defect(zero, "unit mass") - 1.0) < 1e-12


def test_validate_a1_names_the_support_and_c1_clauses(beta):
    # poly2 moved to [0.25, 1.25]: unit mass and C^1, but positive beyond 1
    t = np.linspace(0.25, 1.25, 2001)
    assert _a1_defect(make_tabulated_term(t, beta.eval(t - 0.25)), "support in [0, 1]") > 0.1
    # the indicator of [0, 1]: unit mass, zero outside, but it jumps at both ends
    assert _a1_defect(make_tabulated_term(np.linspace(0, 1, 9), np.ones(9)), "C^1") > 1.0


def test_validate_a1_judges_support_by_values_not_knots(beta):
    # zeros on [-0.5, 0) and (1, 1.5] leave the term as it was
    pad = np.linspace(0.0, 0.5, 1001)[1:]
    inner = np.linspace(0.0, 1.0, 2001)
    t = np.concatenate((-pad[::-1], inner, 1.0 + pad))
    padded = make_tabulated_term(t, beta.eval(t))
    assert (padded.knots[0], padded.knots[-1]) == (-0.5, 1.5)
    assert require_a1(padded) is None


def test_primitive_is_running_integral(beta):
    # centered differences of the primitive reproduce beta at second order
    t = np.linspace(0.05, 0.95, 181)
    for h, tol in ((1e-3, 5e-5), (1e-4, 5e-7)):
        fd = (beta.primitive(t + h) - beta.primitive(t - h)) / (2 * h)
        assert np.max(np.abs(fd - beta.eval(t))) < tol


def test_rescale_identity_and_pointwise(beta):
    one = rescale(beta, 1.0)
    t = np.linspace(-0.5, 1.5, 101)
    assert np.array_equal(one.eval(t), beta.eval(t))
    half = rescale(beta, 0.5)
    assert abs(half.eval(0.25) - 2.0 * beta.eval(0.5)) < 1e-14
    assert abs(half.eval(0.25) - 3.75) < 1e-14


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.125, 0.037, 3.0])
def test_rescale_mass_invariance(beta, eps):
    scaled = rescale(beta, eps)
    mass = _integral(scaled.eval, 0.0, eps)
    assert abs(mass - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(min_value=1e-2, max_value=10.0, allow_nan=False),
    t=st.floats(min_value=-1.0, max_value=12.0, allow_nan=False),
)
def test_rescale_primitive_consistency(eps, t):
    beta = make_polynomial_beta()
    scaled = rescale(beta, eps)
    assert scaled.primitive(t) == beta.primitive(t / eps)


def test_rescale_rejects_nonpositive_epsilon(beta):
    with pytest.raises(InvalidParameterError):
        rescale(beta, 0.0)
    with pytest.raises(InvalidParameterError):
        rescale(beta, -1.0)


def test_recovery_roundtrip_sup_norm(beta, layer_profile):
    rec, flags = beta_from_profile(layer_profile)
    t = np.linspace(0.05, 0.95, 2001)
    assert np.max(np.abs(rec.eval(t) - beta.eval(t))) < 1e-6
    assert not flags


def test_recovery_mass_is_slope_energy_difference(layer_profile):
    # total mass equals the difference of squared end slopes: 1^2 - 0^2
    rec, _ = beta_from_profile(layer_profile)
    assert abs(rec.mass - 1.0) < 1e-8


def test_recovery_of_affine_ramp_is_zero():
    x = np.linspace(0.3, 1.4, 300)
    prof = Profile1D(xs=x, us=x.copy(), dus=np.ones_like(x))
    rec, _ = beta_from_profile(prof)
    t = np.linspace(-0.5, 1.5, 201)
    assert np.max(np.abs(rec.eval(t))) < 1e-12


def test_recovery_rejects_nonmonotone():
    x = np.linspace(-1, 1, 101)
    prof = Profile1D(xs=x, us=x**2, dus=2 * x)
    with pytest.raises(InversionError):
        beta_from_profile(prof)


def test_recovery_flags_rough_tail():
    # v = x^4 solves v'' = beta(v)/2 for beta(t) = 24 sqrt(t): not C^1 at 0
    x = np.linspace(0.3, 1.1, 400)
    prof = Profile1D(xs=x, us=x**4, dus=4 * x**3)
    _, flags = beta_from_profile(prof)
    assert "tail-third-derivative" in flags


def test_reaction_csv_roundtrip(tmp_path, beta):
    path = tmp_path / "poly2.csv"
    save_reaction_csv(beta, path)
    back = load_reaction_csv(path)
    t = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(back.eval(t) - beta.eval(t))) < 1e-6
    assert abs(back.mass - 1.0) < 1e-9


@pytest.mark.parametrize("row", ["abc,1,0,0", "0.5", "", "0.5,x,0,0"])
def test_reaction_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,beta,beta_prime,Phi\n0,0,0,0\n{row}\n1,0,0,0\n")
    with pytest.raises(InvalidParameterError, match="bad.csv, line 3:"):
        load_reaction_csv(path)


def test_resolve_reaction_names(tmp_path, beta):
    assert resolve_reaction("poly2").name == "poly2"
    path = tmp_path / "term.csv"
    save_reaction_csv(beta, path)
    table = resolve_reaction(f"table:{path}")
    assert abs(table.eval(0.5) - beta.eval(0.5)) < 1e-9
    with pytest.raises(InvalidParameterError):
        resolve_reaction("unknown-term")
