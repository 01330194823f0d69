import numpy as np
import pytest

from nulltorus import catalog, geometry

# Session-scoped metric zoo.  Specs compare by value, so equal specs share
# every flow, series and grid cache, whether a test takes them from here or
# builds them again; a test that counts work must clear the caches it reads.


#: fixture names of the whole zoo, for tests parametrized over every spec
ZOO = ("flat_spec", "sqrt2_spec", "analex_spec", "sanchez_spec",
       "rosatau_spec", "wave12_spec", "conformal_spec")


def frame_direction(spec, x1, x2, family):
    """Reference X = s1 + s2 or Y = -s1 + s2, summed from the canonical
    frame."""
    a1, a2, b1, b2 = geometry.frame_component_arrays(spec, x1, x2)
    if family == "X":
        return a1 + b1, a2 + b2
    return -a1 + b1, -a2 + b2


@pytest.fixture(scope="session")
def flat_spec():
    return catalog.flat()


@pytest.fixture(scope="session")
def sqrt2_spec():
    return catalog.left_invariant(np.sqrt(2.0), 1.0)


@pytest.fixture(scope="session")
def analex_spec():
    return catalog.analex()


@pytest.fixture(scope="session")
def sanchez_spec():
    return catalog.analex_sanchez()


@pytest.fixture(scope="session")
def rosatau_spec():
    return catalog.rosatau_window()


@pytest.fixture(scope="session")
def wave12_spec():
    return catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08)


@pytest.fixture(scope="session")
def conformal_spec(analex_spec):
    return catalog.conformal(analex_spec, catalog.exp_sine_factor(amp=0.25))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240815)
