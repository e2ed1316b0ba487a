import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase_lab.axisym_field import GridSpec, residual_semilinear
from onephase_lab.errors import (
    DomainTruncationError,
    InconclusiveClassificationError,
    InvalidParameterError,
    NonIntegrableTailError,
)
from onephase_lab.numerics import nonuniform_second_derivative
from onephase_lab.profile1d import (
    CASE_I,
    CASE_I_REFLECTED,
    CASE_II,
    CASE_II_REFLECTED,
    CASE_III,
    Profile1D,
    classify,
    convexity_defect,
    extend_to_nd,
    first_integral_spread,
    mirror,
    save_profile_csv,
    shoot,
    unique_increasing_profile,
)
from onephase_lab.reaction_terms import make_polynomial_beta, make_tabulated_term

from oracles import crossing


def test_monotone_layer_from_unit_slope(beta, shot_cache):
    p = shot_cache(1.0, halfwidth=25.0)
    assert classify(p, beta=beta).case_tag == CASE_II
    assert np.all(np.diff(p.us) > 0)
    assert p.us[0] < 1e-3  # decays toward 0 on the left
    assert p.dus[0] < 1e-3


def test_two_sided_ramp_slope_relation(beta, shot_cache):
    rep = classify(shot_cache(2.0), beta=beta)
    assert rep.case_tag == CASE_I
    assert abs(rep.slope_minus - math.sqrt(3.0)) < 1e-6
    assert abs(rep.slope_plus**2 - rep.slope_minus**2 - 1.0) < 1e-6


def test_well_minimum_against_bisection_oracle(beta, shot_cache):
    p = shot_cache(0.5)
    rep = classify(p, beta=beta)
    assert rep.case_tag == CASE_III
    # oracle: the minimum satisfies primitive(1) - primitive(y0) = a^2
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if beta.primitive(1.0) - beta.primitive(mid) > 0.25:
            lo = mid
        else:
            hi = mid
    y0_oracle = 0.5 * (lo + hi)
    assert abs(rep.min_value - y0_oracle) < 1e-6
    # evenness about the turning point
    d = np.linspace(0.1, 3.0, 57)
    left = p.sample(rep.turning_point - d)
    right = p.sample(rep.turning_point + d)
    assert np.max(np.abs(left - right)) < 1e-6


def test_mirrored_well_is_classified_from_its_own_samples(beta, shot_cache):
    rep = classify(shot_cache(0.5), beta=beta)
    back = classify(mirror(shot_cache(0.5)), beta=beta)
    assert back.case_tag == CASE_III
    assert abs(back.turning_point + rep.turning_point) < 1e-12
    assert abs(back.min_value - rep.min_value) < 1e-12


def test_constant_profile_classifies_as_constant(beta):
    x = np.linspace(-5, 5, 201)
    prof = Profile1D(xs=x, us=np.full_like(x, 2.0), dus=np.zeros_like(x))
    assert classify(prof, beta=beta).case_tag == "constant"


@pytest.mark.parametrize("a", [1.1, 2.0])
def test_first_integral_conserved(beta, shot_cache, a):
    p = shot_cache(a)
    assert first_integral_spread(p, beta) <= 1e-8


def test_quadrature_profile_first_integral_exact(beta, layer_profile):
    assert first_integral_spread(layer_profile, beta) < 1e-12


def test_convexity(beta, shot_cache):
    for a in (0.5, 1.0, 2.0):
        assert convexity_defect(shot_cache(a)) <= 1e-8


def test_second_derivative_reads_the_interior_abscissae_alone(rng):
    # the three-point formula is exact on quadratics at every interior node
    # and has no value at either end
    x = np.sort(rng.uniform(-1.0, 2.0, 30))
    d2 = nonuniform_second_derivative(x, 1.5 * x * x - x + 0.25)
    assert d2.shape == (len(x) - 2,)
    assert np.max(np.abs(d2 - 3.0)) <= 1e-9


def test_affine_above_one(shot_cache):
    p = shot_cache(2.0)
    mask = p.us[1:-1] >= 1.0
    raw_second = np.abs(p.us[2:] - 2 * p.us[1:-1] + p.us[:-2])[mask]
    assert np.max(raw_second) < 1e-10


def test_oracle_equivalence_after_alignment(shot_cache, layer_profile):
    p = shot_cache(1.0, halfwidth=25.0)
    q = layer_profile
    shift = crossing(q, 0.5) - crossing(p, 0.5)
    lo = max(p.xs[0] + shift, q.xs[0])
    hi = min(p.xs[-1] + shift, q.xs[-1])
    xs = np.linspace(lo, hi, 4001)
    assert np.max(np.abs(p.sample(xs - shift) - q.sample(xs))) < 1e-6


def test_layer_profile_first_integral_values(beta, layer_profile):
    # u' = sqrt(primitive(u)): sqrt(1/2) at u = 1/2, 1 at u = 1, -> 0 at 0
    at_half = layer_profile.sample(crossing(layer_profile, 0.5))
    assert abs(at_half - 0.5) < 1e-10
    idx = np.argmin(np.abs(layer_profile.us - 0.5))
    assert abs(layer_profile.dus[idx] - math.sqrt(beta.primitive(layer_profile.us[idx]))) < 1e-14
    top = layer_profile.us >= 1.0
    assert np.max(np.abs(layer_profile.dus[top] - 1.0)) < 1e-12
    assert layer_profile.dus[0] < 2e-2


def test_crossing_of_a_well_is_the_upward_one(beta, shot_cache):
    # the well starts above 0.8, falls to its minimum and rises through 0.8
    # again right of the turning point
    p = shot_cache(0.5)
    rep = classify(p, beta=beta)
    assert p.us[0] > 0.8 > rep.min_value
    x = crossing(p, 0.8)
    assert x > rep.turning_point
    assert abs(p.sample(x) - 0.8) < 1e-12
    with pytest.raises(InvalidParameterError):
        crossing(p, float(np.max(p.us)) + 1.0)


def test_interior_support_gap_raises():
    knots = np.linspace(0.5, 1.0, 33)
    vals = np.sin(np.pi * (knots - 0.5) / 0.5) ** 2
    half = make_tabulated_term(knots, vals, name="upper-half")
    with pytest.raises(NonIntegrableTailError):
        unique_increasing_profile(half, u_lo=1e-3)


def test_small_domain_is_inconclusive(beta):
    p = shoot(beta, a=1.0 + 1e-7, domain_halfwidth=5.0, step=0.002)
    with pytest.raises(InconclusiveClassificationError):
        classify(p, beta=beta)


def test_step_size_guard(beta):
    with pytest.raises(InvalidParameterError):
        shoot(beta, a=1.0, domain_halfwidth=5.0, step=0.5)


def test_runaway_ramp_leaves_the_representable_range(beta):
    with pytest.raises(DomainTruncationError, match="profile left the representable range"):
        shoot(beta, a=1e13, domain_halfwidth=30.0, step=0.002)


@settings(max_examples=12, deadline=None)
@given(a=st.floats(min_value=1.2, max_value=4.0))
def test_reflection_is_exact_mirror(a):
    beta = make_polynomial_beta()
    direct = shoot(beta, a=a, domain_halfwidth=8.0, step=0.01)
    # the mirror is the solution with u(-1) = 1, u'(-1) = -a
    reflected = mirror(direct)
    k = len(direct.xs) // 2
    assert (reflected.xs[k], reflected.us[k], reflected.dus[k]) == (-1.0, 1.0, -a)
    # negating x is exact, so the reflected report repeats the direct one bit for bit
    direct_rep, reflected_rep = classify(direct, beta=beta), classify(reflected, beta=beta)
    assert direct_rep.case_tag == CASE_I
    assert reflected_rep.case_tag == CASE_I_REFLECTED
    assert reflected_rep.turning_point == -direct_rep.turning_point == math.inf
    assert reflected_rep.slope_plus == direct_rep.slope_plus
    assert reflected_rep.slope_minus == direct_rep.slope_minus
    assert reflected_rep.defect == direct_rep.defect


def test_reflected_monotone_layer(beta, shot_cache):
    direct = shot_cache(1.0, halfwidth=25.0)
    direct_rep, rep = classify(direct, beta=beta), classify(mirror(direct), beta=beta)
    assert rep.case_tag == CASE_II_REFLECTED
    assert rep.turning_point == math.inf
    assert (rep.slope_plus, rep.defect) == (direct_rep.slope_plus, direct_rep.defect)


def test_extension_along_axis_is_t_only(layer_profile):
    g = GridSpec(n=3, s_max=1.0, t_min=-2.0, t_max=2.0, ns=17, nt=33)
    f = extend_to_nd(layer_profile, g)
    assert np.max(np.abs(f.values - f.values[0:1, :])) == 0.0


def test_extension_of_constant_profile_is_constant():
    x = np.linspace(-5, 5, 101)
    prof = Profile1D(xs=x, us=np.full_like(x, 3.0), dus=np.zeros_like(x))
    g = GridSpec(n=4, s_max=1.0, t_min=-1.0, t_max=1.0, ns=9, nt=9)
    f = extend_to_nd(prof, g)
    assert np.max(np.abs(f.values - 3.0)) == 0.0


def test_extension_residual_second_order(beta, layer_profile):
    errs = []
    for nt in (129, 257, 513):
        g = GridSpec(n=3, s_max=1.0, t_min=-2.0, t_max=2.0, ns=9, nt=nt)
        f = extend_to_nd(layer_profile, g)
        errs.append(residual_semilinear(f, beta))
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def test_sample_extrapolates_affinely(shot_cache):
    p = shot_cache(2.0)
    x_right = p.xs[-1] + 3.0
    expected = p.us[-1] + p.dus[-1] * 3.0
    assert abs(p.sample(x_right) - expected) < 1e-12


def test_profile_csv_bytes(tmp_path):
    # LF line ends and %.17g values in every column
    prof = Profile1D(
        xs=np.array([0.0, 0.1, -2.5e-300]), us=np.array([1.0 / 3.0, -0.0, 7.0]), dus=np.array([0.5, 1e300, -0.0])
    )
    save_profile_csv(prof, tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes() == (
        b"x,u,du\n0,0.33333333333333331,0.5\n0.10000000000000001,-0,1.0000000000000001e+300\n-2.5e-300,7,-0\n"
    )
