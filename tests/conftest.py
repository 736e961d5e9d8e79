import functools

import numpy as np
import pytest
from hypothesis import settings

from competefem.discretization import build_hierarchy, interval_mesh

# every @given test draws the same examples on every run; each test still
# sets its own max_examples and deadline
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def unit_hierarchy():
    """Interval (0,1), 4 base elements, 5 levels (finest h = 1/64)."""
    return build_hierarchy(interval_mesh(0.0, 1.0, 4), 5)


@pytest.fixture(scope="session")
def unit_levels():
    """n -> the first n levels of ``unit_hierarchy`` as a hierarchy of their own."""
    return functools.cache(lambda n: build_hierarchy(interval_mesh(0.0, 1.0, 4), n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_function(h, level, rng, scale=1.0):
    return h.function(level, scale * rng.standard_normal(h.level(level).n_free))
