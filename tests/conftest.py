import math
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from nulltorus import catalog, geometry, spinorfield

# Session-scoped metric zoo.  Specs compare by value, so equal specs share
# every flow, series and grid cache, whether a test takes them from here or
# builds them again; a test that counts work must clear the caches it reads.


#: fixture names of the whole zoo, for tests parametrized over every spec
ZOO = ("flat_spec", "sqrt2_spec", "analex_spec", "sanchez_spec",
       "rosatau_spec", "wave12_spec", "conformal_spec")


#: every transform of ``np.fft``
FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2",
                  "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
                  "irfftn")


def count_transforms(monkeypatch) -> Counter:
    """Patch every ``np.fft`` transform to count its calls by name in the
    returned Counter, and under "plane" those whose input has more than one
    axis, whatever axes they transform (clear it to start a new count)."""
    calls: Counter = Counter()
    for name in FFT_TRANSFORMS:
        def counting(a, *args, _fft=getattr(np.fft, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            if np.ndim(a) > 1:
                calls["plane"] += 1
            return _fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    return calls


def count_operator_builds(monkeypatch) -> list[str]:
    """Give ``spinorfield._transport_operator`` an empty cache of its own
    and return the list of the directions it builds, one entry per cold
    build."""
    build = spinorfield._transport_operator.__wrapped__
    directions: list[str] = []

    def counting(spec, structure, chirality, direction, n):
        directions.append(direction)
        return build(spec, structure, chirality, direction, n)

    monkeypatch.setattr(spinorfield, "_transport_operator",
                        lru_cache(maxsize=16)(counting))
    return directions


def seeded_waves(seed: int, count: int) -> list[str]:
    """Waves b1, b2 in 1..9, k in {+-1, +-2, 3}, l in {0, +-1, +-2, +-3},
    gcd(k, l) = 1, with amp up to 0.9 min(b1, b2 |k|/|l|), which keeps both
    coefficients positive."""
    rng = random.Random(seed)
    waves: list[str] = []
    while len(waves) < count:
        b1, b2 = rng.randint(1, 9), rng.randint(1, 9)
        k, l = rng.choice((1, -1, 2, -2, 3)), rng.choice((0, 1, -1, 2, -2,
                                                           3, -3))
        if math.gcd(k, l) != 1:
            continue
        cap = min(b1, b2 * abs(k) / abs(l)) if l else b1
        amp = round(rng.uniform(0.01, 0.9) * cap, 4)
        waves.append(f"closed_diagonal:{b1},{b2},amp={amp},k={k},l={l}")
    return waves


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
