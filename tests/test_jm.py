import math
import random

import pytest

from cantorfull.errors import RangeUnavailable
from cantorfull.actions import orbit_permutation
from cantorfull.constructions import cylinder, sigma_U
from cantorfull.elements import shift
from cantorfull.jm import (EventuallyTranslation, ReflectedView, _angles, _balanced_product,
                           correlation, decay_report, hn_lower_bound, identity_view,
                           theta, translation_view, transposition_view)


def test_theta_values():
    for n in (1, 5, 100):
        assert theta(n, 0) == 0.0
    assert abs(theta(4, 1) - math.pi / 8) < 1e-15
    assert theta(3, 7) == math.pi / 4
    assert theta(3, -7) == math.pi / 4


def test_identity_correlation():
    assert correlation(identity_view(), 100) == 1.0
    assert hn_lower_bound(identity_view(), 50) == 1.0


def test_transposition_closed_form():
    c = correlation(transposition_view(), 1)
    assert abs(c - 0.5) <= 1e-15


def test_per_factor_inequality():
    # cos(x) >= exp(-x^2) on [-pi/4, pi/4], checked at the clamp value
    x = math.pi / 4
    assert math.cos(x) >= math.exp(-x * x)
    b = hn_lower_bound(transposition_view(), 1)
    assert abs(b - math.exp(-2 * (math.pi / 4) ** 2)) < 1e-12
    assert b <= correlation(transposition_view(), 1)


def list_form_balanced_product(values):
    """Pairwise products, each round pairing neighbours and carrying an odd
    last value, written with an index loop."""
    if not values:
        return 1.0
    while len(values) > 1:
        paired = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 64, 101, 1000])
def test_balanced_product_is_the_list_form_bit_for_bit(length):
    rng = random.Random(length)
    for _ in range(20):
        values = [math.cos(rng.uniform(-1.5, 1.5)) for _ in range(length)]
        assert _balanced_product(values).hex() == list_form_balanced_product(values).hex()


def test_sandwich_all_views():
    views = [identity_view(), translation_view(), transposition_view()]
    for g in views:
        for n in (2, 10, 100):
            b, c = hn_lower_bound(g, n), correlation(g, n)
            assert b <= c + 1e-12
            assert c <= 1.0 + 1e-12


def test_symmetry_under_inverse():
    g = translation_view()
    ginv = translation_view(-1)
    for n in (10, 100):
        assert abs(correlation(g, n) - correlation(ginv, n)) <= 1e-12


def test_locality_same_floats():
    g = translation_view()

    class Widened:
        def __init__(self, base, extra):
            self.base = base
            self.c = base.c + extra

        def __call__(self, j):
            return self.base(j)

    for extra in (1, 5, 20):
        assert correlation(Widened(g, extra), 64) == correlation(g, 64)


def test_reflection_invariance_exact():
    for g in (translation_view(), transposition_view(),
              EventuallyTranslation(2, -1, {0: 3, 3: 0})):
        assert correlation(ReflectedView(g), 40) == correlation(g, 40)


def test_monotone_trend():
    report = decay_report(translation_view(), [10, 100, 1000])
    gaps = [row[3] for row in report.rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_report_identity():
    report = decay_report(identity_view(), [10, 100])
    assert all(row[1] == 1.0 and row[4] == 0.0 for row in report.rows)
    assert report.max_ratio == 0.0
    assert "one_minus_C" in report.tsv()


def test_report_requires_increasing():
    with pytest.raises(ValueError):
        decay_report(identity_view(), [10, 10])


def test_windowed_view_from_orbit(fibonacci):
    phi = shift(fibonacci)
    view = orbit_permutation(phi, 40)
    assert correlation(view, 20) == correlation(translation_view(), 20)
    with pytest.raises(RangeUnavailable):
        correlation(view, 64)


def test_orbit_sigma_report(fibonacci):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    view = orbit_permutation(s, 1000 + s.dbound)
    report = decay_report(view, [10, 100, 1000])
    gaps = [row[3] for row in report.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert report.max_ratio < 1.0


# The two-pass evaluation these functions replaced, kept as an oracle: every
# float must come out identical, so results are compared with ==.

def oracle_theta(n, j):
    if n < 1:
        raise ValueError("n must be >= 1")
    return (math.pi / 4) * min(math.sqrt(abs(j) / n), 1.0)


def oracle_evaluate(g, j):
    try:
        return g(j)
    except KeyError:
        raise RangeUnavailable(f"g is not evaluable at {j}") from None


def oracle_product(values):
    if not values:
        return 1.0
    while len(values) > 1:
        paired = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def oracle_delta_at(g, n, j):
    return oracle_theta(n, j) - oracle_theta(n, oracle_evaluate(g, j))


def oracle_span(g, n):
    span = n + g.c
    window = getattr(g, "window", None)
    if window is not None and window < span:
        raise RangeUnavailable(f"view window {window} < n + c = {span}")
    return span


def oracle_correlation(g, n):
    span = oracle_span(g, n)
    factors = [math.cos(oracle_delta_at(g, n, 0))]
    factors += [math.cos(oracle_delta_at(g, n, j)) * math.cos(oracle_delta_at(g, n, -j))
                for j in range(1, span + 1)]
    return min(max(oracle_product(list(factors)), 0.0), 1.0)


def oracle_lower_bound(g, n):
    span = oracle_span(g, n)
    deltas = (oracle_delta_at(g, n, j) for j in range(-span, span + 1))
    return math.exp(-math.fsum(d * d for d in deltas))


def oracle_rows(g, n_list):
    rows = []
    for n in n_list:
        c, b = oracle_correlation(g, n), oracle_lower_bound(g, n)
        rows.append((n, c, b, 1.0 - c, (1.0 - c) * n / math.log(n)))
    return tuple(rows)


def test_reads_match_two_pass_oracle(fibonacci, sturmian_fib):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    t = sigma_U(cylinder(sturmian_fib, -1, ("a", "b", "b")))
    views = [translation_view(), translation_view(-3), transposition_view(),
             transposition_view(-2, 5), EventuallyTranslation(2, -1, {0: 3, 3: 0}),
             ReflectedView(EventuallyTranslation(2, -1, {0: 3, 3: 0})),
             orbit_permutation(s, 700 + s.radius + s.dbound),
             ReflectedView(orbit_permutation(s, 700 + s.radius + s.dbound)),
             orbit_permutation(t, 200 + t.radius + t.dbound)]
    for g in views:
        for n in (1, 2, 3, 7, 64, 200):
            assert correlation(g, n) == oracle_correlation(g, n)
            assert hn_lower_bound(g, n) == oracle_lower_bound(g, n)
        n_list = [2, 10, 99, 200]
        assert decay_report(g, n_list).rows == oracle_rows(g, n_list)


def test_angle_table_is_theta():
    for n in (1, 2, 3, 7, 64, 97000):
        for top in (1, n // 2 + 1, n, n + 1, n + 50):
            assert _angles(n, top) == [theta(n, k) for k in range(top)]


def test_long_orbit_row_matches_oracle(fibonacci):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    n = 10_000
    view = orbit_permutation(s, n + s.radius + s.dbound)
    assert decay_report(view, [n]).rows == oracle_rows(view, [n])


def test_range_errors_match_oracle(fibonacci):
    narrow = orbit_permutation(shift(fibonacci), 40)

    class Partial:
        """Defined on [-10, 10] except at 3."""
        c = 1

        def __call__(self, j):
            if j == 3 or abs(j) > 10:
                raise KeyError(j)
            return j

    cases = [(narrow, 64), (narrow, 40), (Partial(), 5)]
    for g, n in cases:
        with pytest.raises(RangeUnavailable) as expected:
            oracle_correlation(g, n)
        for evaluate in (correlation, hn_lower_bound, lambda g, n: decay_report(g, [n])):
            with pytest.raises(RangeUnavailable) as raised:
                evaluate(g, n)
            assert str(raised.value) == str(expected.value)
