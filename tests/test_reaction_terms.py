
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase_lab.errors import InvalidParameterError, InversionError
from onephase_lab.numerics import simpson_refined
from onephase_lab.profile1d import Profile1D
from onephase_lab.reaction_terms import (
    beta_from_profile,
    load_reaction_csv,
    make_polynomial_beta,
    make_tabulated_term,
    rescale,
    resolve_reaction,
    save_reaction_csv,
    validate_a1,
)


def test_polynomial_coefficient_from_quadrature_oracle():
    # the unnormalized factor integrates to 1/30, forcing c = 30
    raw_mass = simpson_refined(lambda t: t**2 * (1 - t) ** 2, 0.0, 1.0)
    assert abs(raw_mass - 1.0 / 30.0) < 1e-14
    beta = make_polynomial_beta(1.0)
    assert abs(beta.eval(0.5) - 30.0 * 0.5**2 * 0.5**2) < 1e-14
    assert abs(simpson_refined(beta.eval, 0.0, 1.0) - 1.0) < 1e-12


def test_support_endpoints_vanish(beta):
    assert beta.eval(0.0) == 0.0
    assert beta.eval(1.0) == 0.0
    assert beta.deriv(0.0) == 0.0
    assert beta.deriv(1.0) == 0.0


def test_primitive_half_mass_by_symmetry(beta):
    assert abs(beta.primitive(0.5) - 0.5) < 1e-14
    assert beta.primitive(-0.3) == 0.0
    assert abs(beta.primitive(2.0) - 1.0) < 1e-14


def test_validate_a1_passes_on_witness(beta):
    rep = validate_a1(beta)
    assert rep.all_passed
    assert rep.unit_mass.defect < 1e-10


def test_validate_a1_flags_unnormalized_mass():
    raw = make_polynomial_beta(1.0 / 30.0)  # c = 1: bare t^2 (1-t)^2
    rep = validate_a1(raw)
    assert not rep.unit_mass.passed
    assert abs(rep.unit_mass.defect - (1.0 - 1.0 / 30.0)) < 1e-10
    assert rep.nonnegative.passed and rep.c1_continuous.passed


def test_validate_a1_zero_term_fails_only_mass():
    zero = make_tabulated_term(np.linspace(0, 1, 9), np.zeros(9), name="zero")
    rep = validate_a1(zero)
    assert not rep.unit_mass.passed
    assert abs(rep.unit_mass.defect - 1.0) < 1e-12
    assert rep.nonnegative.passed
    assert rep.support_in_unit_interval.passed
    assert rep.c1_continuous.passed


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
    mass = simpson_refined(scaled.eval, 0.0, eps)
    assert abs(mass - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(min_value=1e-2, max_value=10.0, allow_nan=False),
    t=st.floats(min_value=-1.0, max_value=12.0, allow_nan=False),
)
def test_rescale_primitive_consistency(eps, t):
    beta = make_polynomial_beta(1.0)
    scaled = rescale(beta, eps)
    assert scaled.primitive(t) == beta.primitive(t / eps)
    assert scaled.support == (0.0, eps)


def test_rescale_rejects_nonpositive_epsilon(beta):
    with pytest.raises(InvalidParameterError):
        rescale(beta, 0.0)
    with pytest.raises(InvalidParameterError):
        rescale(beta, -1.0)


def test_recovery_roundtrip_sup_norm(beta, layer_profile):
    rec = beta_from_profile(layer_profile)
    t = np.linspace(0.05, 0.95, 2001)
    assert np.max(np.abs(rec.eval(t) - beta.eval(t))) < 1e-6
    assert not rec.flags


def test_recovery_mass_is_slope_energy_difference(layer_profile):
    # total mass equals the difference of squared end slopes: 1^2 - 0^2
    rec = beta_from_profile(layer_profile)
    assert abs(rec.mass - 1.0) < 1e-8


def test_recovery_of_affine_ramp_is_zero():
    x = np.linspace(0.3, 1.4, 300)
    prof = Profile1D(xs=x, us=x.copy(), dus=np.ones_like(x))
    rec = beta_from_profile(prof)
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
    rec = beta_from_profile(prof)
    assert "tail-third-derivative" in rec.flags


def test_reaction_csv_roundtrip(tmp_path, beta):
    path = tmp_path / "poly2.csv"
    save_reaction_csv(beta, path)
    back = load_reaction_csv(path)
    t = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(back.eval(t) - beta.eval(t))) < 1e-6
    assert abs(back.mass - 1.0) < 1e-9


def test_resolve_reaction_names(tmp_path, beta):
    assert resolve_reaction("poly2").name == "poly2"
    path = tmp_path / "term.csv"
    save_reaction_csv(beta, path)
    table = resolve_reaction(f"table:{path}")
    assert abs(table.eval(0.5) - beta.eval(0.5)) < 1e-9
    with pytest.raises(InvalidParameterError):
        resolve_reaction("unknown-term")
