import itertools
import random

import pytest
from hypothesis import settings

# every failing draw prints its @reproduce_failure blob: the tests keep no
# example database, so the blob is the only way to replay a failure
settings.register_profile("cantorfull", print_blob=True)
settings.load_profile("cantorfull")

from cantorfull.closets import CloSet
from cantorfull.elements import Element, compose, shift
from cantorfull.errors import NotInjective, NotSurjective
from cantorfull.language import sft_engine, substitution_engine, sturmian_engine
from cantorfull.constructions import cylinder, is_good, matui_generators, sigma_U


@pytest.fixture(scope="session")
def fibonacci():
    return substitution_engine({"a": "ab", "b": "a"})


@pytest.fixture(scope="session")
def thue_morse():
    return substitution_engine({"a": "ab", "b": "ba"})


@pytest.fixture(scope="session")
def golden_mean():
    return sft_engine("ab", ["bb"])


@pytest.fixture(scope="session")
def y_engine():
    return sft_engine("ab", ["ba"])


@pytest.fixture(scope="session")
def yprime_engine():
    return sft_engine("abc", ["ac", "ba", "bb", "ca", "cc"])


@pytest.fixture(scope="session")
def full_shift():
    return sft_engine("01", [])


@pytest.fixture(scope="session")
def period_two():
    return sft_engine("ab", ["aa", "bb"])


@pytest.fixture(scope="session")
def sturmian_fib():
    return sturmian_engine([1] * 12, 12)


@pytest.fixture(scope="session")
def matui_set(fibonacci):
    return matui_generators(fibonacci)


def segment(window, lo, hi):
    """x[lo..hi] of the point whose centered window x[-R..R] is `window`
    (index R + n holds x[n]); IndexError when it leaves the window."""
    reach = len(window) // 2
    if lo < -reach or hi > reach:
        raise IndexError(f"segment [{lo}, {hi}] outside [{-reach}, {reach}]")
    return window[reach + lo:reach + hi + 1]


def enumerate_bijective(engine, radius, dmax):
    """All bijective cocycle tables at this radius with |value| <= dmax."""
    words = engine.allowed_words(2 * radius + 1)
    pool = []
    for values in itertools.product(range(-dmax, dmax + 1), repeat=len(words)):
        candidate = Element(engine, radius, values, None)
        if candidate.bijective:
            pool.append(candidate)
    return pool


def _enrich(pool, max_radius=2, max_dbound=3):
    """Close a pool under a round of composition, keeping r and D small."""
    seen = {e.canonical_key(): e for e in pool}
    for f in list(seen.values()):
        for g in list(seen.values()):
            h = compose(f, g)
            if h.radius <= max_radius and h.dbound <= max_dbound:
                seen.setdefault(h.canonical_key(), h)
    return list(seen.values())


@pytest.fixture(scope="session")
def fib_pool(fibonacci):
    pool = enumerate_bijective(fibonacci, 1, 2)
    pool += [shift(fibonacci, k) for k in (-3, 3)]
    pool += [sigma_U(CloSet.cylinder(fibonacci, -1, w))
             for w in fibonacci.allowed_words(3)
             if is_good(CloSet.cylinder(fibonacci, -1, w))]
    return _enrich(pool)


@pytest.fixture(scope="session")
def gm_pool(golden_mean):
    pool = enumerate_bijective(golden_mean, 1, 2)
    pool += [shift(golden_mean, k) for k in (-3, 3)]
    pool.append(sigma_U(cylinder(golden_mean, -1, ("a", "a", "b"))))
    return _enrich(pool)


def sample_elements(pool, count, seed):
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]
