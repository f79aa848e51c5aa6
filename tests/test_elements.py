import gc
import itertools

import pytest

from cantorfull.closets import CloSet
from cantorfull.elements import (Element, ball_sizes, canonical_dump,
                                 canonical_form, compose, equal, identity,
                                 inverse, is_identity, make_element,
                                 make_semigroup_element, order, parse_dump,
                                 power, shift, support, element_image)
from cantorfull.errors import (EngineMismatch, NotBijective, NotInjective,
                               NotSurjective, PartialTable)
from cantorfull.constructions import cylinder, sigma_U
from cantorfull.language import sft_engine
from cantorfull.words import Word
from conftest import sample_elements


def test_shift_is_bijective(fibonacci):
    phi = shift(fibonacci)
    assert phi.bijective and phi.dbound == 1
    assert equal(compose(phi, shift(fibonacci, 2)), shift(fibonacci, 3))


def test_noninvertible_table_rejected(fibonacci):
    with pytest.raises((NotInjective, NotSurjective)):
        make_element(fibonacci, 0, {("a",): 0, ("b",): 1})
    semi = make_semigroup_element(fibonacci, 0, {("a",): 0, ("b",): 1})
    assert semi.bijective is False
    with pytest.raises(NotBijective):
        inverse(semi)


def test_partial_table_rejected(fibonacci):
    with pytest.raises(PartialTable):
        make_element(fibonacci, 0, {("a",): 1})


def test_y_transposition_is_involution(y_engine):
    table = {}
    for w in y_engine.allowed_words(5):
        head = (w[2], w[3], w[4])
        if head == ("a", "b", "b"):
            table[w] = 1
        elif head == ("a", "a", "b"):
            table[w] = -1
        else:
            table[w] = 0
    t = make_element(y_engine, 2, table)
    assert t.bijective
    assert order(t, cap=8) == 2


def brute_force_bijective(engine, element):
    """Independent oracle: bijections on short periodic points plus wide-window
    preimage counting."""
    r, d = element.radius, element.dbound
    for p in range(1, 7):
        blocks = engine.periodic_blocks(p)
        images = set()
        for b in blocks:
            window = tuple(b[i % p] for i in range(-r, r + 1))
            k = element.table[window]
            images.add(tuple(b[(i - k) % p] for i in range(p)))
        if images != set(blocks):
            return False
    wide = r + d + 1
    for y in engine.allowed_words(2 * wide + 1):
        count = sum(1 for k in range(-d - 1, d + 2)
                    if abs(k) + r <= wide
                    and element.table[y[k + wide - r: k + wide + r + 1]] == k)
        if count != 1:
            return False
    return True


def test_bijectivity_certificate_vs_brute_force(golden_mean):
    words = golden_mean.allowed_words(3)
    agree = 0
    for values in itertools.product(range(-2, 3), repeat=len(words)):
        element = Element(golden_mean, 1, dict(zip(words, values)), None)
        assert element.bijective == brute_force_bijective(golden_mean, element)
        agree += 1
    assert agree == 5 ** len(words)


def test_compose_constant_cocycles(fibonacci):
    phi = shift(fibonacci)
    assert equal(compose(phi, compose(phi, phi)), shift(fibonacci, 3))
    assert equal(compose(phi, inverse(phi)), identity(fibonacci))


def test_inverse_roundtrip_on_pool(fib_pool):
    for f in fib_pool:
        assert equal(inverse(inverse(f)), f)


def test_group_axioms_sample(fib_pool, gm_pool):
    for pool, seed in ((fib_pool, 3), (gm_pool, 4)):
        e = identity(pool[0].engine)
        fs = sample_elements(pool, 40, seed)
        gs = sample_elements(pool, 40, seed + 1)
        hs = sample_elements(pool, 40, seed + 2)
        for f, g, h in zip(fs, gs, hs):
            assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))
            assert equal(compose(f, e), f) and equal(compose(e, f), f)
            assert equal(compose(f, inverse(f)), e)
            assert equal(compose(inverse(f), f), e)


def test_equality_and_canonical_forms(fibonacci, fib_pool):
    fs = sample_elements(fib_pool, 25, 9)
    gs = sample_elements(fib_pool, 25, 10)
    for f, g in zip(fs, gs):
        radius = max(f.radius, g.radius) + max(f.dbound, g.dbound)
        semantic = f.padded_table(radius) == g.padded_table(radius)
        assert equal(f, g) == semantic
        assert (canonical_form(f) == canonical_form(g)) == semantic


def test_equal_across_radii(fibonacci):
    phi = shift(fibonacci)
    padded = make_element(fibonacci, 2, {w: 1 for w in fibonacci.allowed_words(5)})
    assert equal(phi, padded)
    assert canonical_form(padded).radius == 0


def test_canonical_radius_detection(fibonacci):
    base = {w: (2 if w[0] == "a" else -1) for w in fibonacci.allowed_words(3)}
    f = make_semigroup_element(fibonacci, 1, base)
    padded = make_semigroup_element(fibonacci, 3, f.padded_table(3))
    assert canonical_form(padded).radius == canonical_form(f).radius == 1


def test_canonical_element_holds_no_reference_to_itself(fibonacci):
    """A canonical element that referred to itself would be a reference cycle,
    freed only by the cyclic garbage collector."""
    base = {w: (2 if w[0] == "a" else -1) for w in fibonacci.allowed_words(3)}
    f = make_semigroup_element(fibonacci, 1, base)
    padded = make_semigroup_element(fibonacci, 3, f.padded_table(3))
    reduced = padded.canonical_element()
    assert reduced.radius == 1
    for e in (f, reduced):
        assert e.canonical_element() is e
        assert not any(x is e for x in gc.get_referents(e))


def test_is_identity_on_periodic_sft(period_two):
    assert is_identity(shift(period_two, 2))
    assert not is_identity(shift(period_two, 1))


def test_is_identity_on_y(y_engine):
    table = {w: (1 if w[1] == "b" else 0) for w in y_engine.allowed_words(3)}
    assert not is_identity(make_semigroup_element(y_engine, 1, table))


def test_identity_through_a_fixed_point_only():
    # c only follows c, so the table moves just the fixed point c^inf
    engine = sft_engine("abc", ["ac", "ca", "bc", "cb"])
    f = make_element(engine, 0, {("a",): 0, ("b",): 0, ("c",): 1})
    assert is_identity(f)
    assert order(f) == 1
    assert support(f).is_empty()
    assert equal(f, identity(engine))


def test_order_examples(fibonacci):
    assert order(identity(fibonacci)) == 1
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    assert order(s) == 3
    assert order(shift(fibonacci), cap=16) is None


def test_order_invariants(fib_pool):
    fs = sample_elements(fib_pool, 5, 21)
    gs = sample_elements(fib_pool, 5, 22)
    for f, g in zip(fs, gs):
        n = order(f, cap=18)
        assert order(inverse(f), cap=18) == n
        conj = compose(compose(g, f), inverse(g))
        assert order(conj, cap=18) == n


def test_support(fibonacci):
    assert support(identity(fibonacci)).is_empty()
    assert support(shift(fibonacci)) == CloSet.full(fibonacci)
    U = cylinder(fibonacci, -1, ("a", "a", "b"))
    s = sigma_U(U)
    hull = U.shift_image(-1).union(U).union(U.shift_image(1))
    assert support(s).is_subset(hull)


def test_ball_sizes(fibonacci):
    phi = shift(fibonacci)
    assert ball_sizes([phi], 3) == [3, 5, 7]
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    assert ball_sizes([s], 2) == [3, 3]


def test_dump_roundtrip(fib_pool):
    for f in sample_elements(fib_pool, 10, 31):
        dump = canonical_dump(f)
        again = parse_dump(f.engine, dump)
        assert equal(f, again)
        assert canonical_dump(again) == dump


def test_engine_mismatch(fibonacci, golden_mean):
    with pytest.raises(EngineMismatch):
        compose(shift(fibonacci), shift(golden_mean))


def test_power_and_element_image(fibonacci):
    phi = shift(fibonacci)
    assert equal(power(phi, 3), shift(fibonacci, 3))
    assert equal(power(phi, -2), shift(fibonacci, -2))
    assert equal(power(phi, 0), identity(fibonacci))
    U = cylinder(fibonacci, 0, ("a",))
    assert element_image(U, power(phi, 2)) == U.shift_image(2)
