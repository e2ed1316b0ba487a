import numpy as np
import pytest

from onephase_lab.profile1d import shoot, unique_increasing_profile
from onephase_lab.reaction_terms import make_polynomial_beta


@pytest.fixture(scope="session")
def beta():
    return make_polynomial_beta()


@pytest.fixture(scope="session")
def layer_profile(beta):
    """The monotone layer from the first-integral quadrature."""
    return unique_increasing_profile(beta)


@pytest.fixture(scope="session")
def shot_cache(beta):
    cache = {}

    def get(a, halfwidth=20.0, step=0.002):
        key = (a, halfwidth, step)
        if key not in cache:
            cache[key] = shoot(beta, a=a, domain_halfwidth=halfwidth, step=step)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
