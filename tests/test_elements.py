import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cantorfull.closets import CloSet
from cantorfull.elements import (Element, ball_sizes, canonical_dump,
                                 compose, equal, identity,
                                 inverse, is_identity, make_element,
                                 make_semigroup_element, order, parse_dump,
                                 power, shift, support, element_image)
from cantorfull.errors import (CapExceeded, EngineMismatch, MemoryCapExceeded, NotBijective,
                               NotInjective, NotSurjective, ParseError, PartialTable,
                               SemanticError)
from cantorfull.constructions import cylinder, sigma_U
from cantorfull.language import sft_engine, substitution_engine
from conftest import sample_elements
from test_sft_properties import check_descent, raw_tables


def test_shift_is_bijective(fibonacci):
    phi = shift(fibonacci)
    assert phi.bijective and phi.dbound == 1
    assert equal(compose(phi, shift(fibonacci, 2)), shift(fibonacci, 3))


def by_text(engine, table):
    """A {word text: value} table keyed by the engine's words."""
    return {engine.alphabet.parse_word(w): v for w, v in table.items()}


def test_noninvertible_table_rejected(fibonacci):
    with pytest.raises((NotInjective, NotSurjective)):
        make_element(fibonacci, 0, by_text(fibonacci, {"a": 0, "b": 1}))
    semi = make_semigroup_element(fibonacci, 0, by_text(fibonacci, {"a": 0, "b": 1}))
    assert semi.bijective is False
    with pytest.raises(NotBijective):
        inverse(semi)


def test_partial_table_rejected(fibonacci):
    with pytest.raises(PartialTable):
        make_element(fibonacci, 0, {fibonacci.alphabet.parse_word("a"): 1})


def test_y_transposition_is_involution(y_engine):
    table = {}
    parse = y_engine.alphabet.parse_word
    for w in y_engine.allowed_words(5):
        head = w[2:]
        if head == parse("abb"):
            table[w] = 1
        elif head == parse("aab"):
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
            window = bytes(b[i % p] for i in range(-r, r + 1))
            k = element.table[window]
            images.add(bytes(b[(i - k) % p] for i in range(p)))
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
        element = Element(golden_mean, 1, values, None)
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
        semantic = f.values_at(radius) == g.values_at(radius)
        assert equal(f, g) == semantic
        assert (f.canonical_key() == g.canonical_key()) == semantic


def test_equal_across_radii(fibonacci):
    phi = shift(fibonacci)
    padded = make_element(fibonacci, 2, {w: 1 for w in fibonacci.allowed_words(5)})
    assert equal(phi, padded)
    assert padded.canonical_key()[0] == 0


def test_canonical_radius_detection(fibonacci):
    a = fibonacci.alphabet.index("a")
    base = {w: (2 if w[0] == a else -1) for w in fibonacci.allowed_words(3)}
    f = make_semigroup_element(fibonacci, 1, base)
    padded = make_semigroup_element(fibonacci, 3, f.values_at(3))
    assert padded.canonical_key()[0] == f.canonical_key()[0] == 1


def test_canonical_element_holds_no_reference_to_itself(fibonacci):
    """A canonical element that referred to itself would be a reference cycle,
    freed only by the cyclic garbage collector."""
    a = fibonacci.alphabet.index("a")
    base = {w: (2 if w[0] == a else -1) for w in fibonacci.allowed_words(3)}
    f = make_semigroup_element(fibonacci, 1, base)
    padded = make_semigroup_element(fibonacci, 3, f.values_at(3))
    assert padded.radius == 1
    for e in (f, padded):
        assert not any(x is e for x in gc.get_referents(e))


def test_is_identity_on_periodic_sft(period_two):
    assert is_identity(shift(period_two, 2))
    assert not is_identity(shift(period_two, 1))


def test_is_identity_on_y(y_engine):
    b = y_engine.alphabet.index("b")
    table = {w: (1 if w[1] == b else 0) for w in y_engine.allowed_words(3)}
    assert not is_identity(make_semigroup_element(y_engine, 1, table))


def test_identity_through_a_fixed_point_only():
    # c only follows c, so the table moves just the fixed point c^inf
    engine = sft_engine("abc", ["ac", "ca", "bc", "cb"])
    f = make_element(engine, 0, by_text(engine, {"a": 0, "b": 0, "c": 1}))
    assert is_identity(f)
    assert order(f) == 1
    assert support(f).is_empty()
    assert equal(f, identity(engine))


def test_ball_sizes_count_maps_not_tables():
    engine = sft_engine("abc", ["ac", "ca", "bc", "cb"])
    f = make_element(engine, 0, by_text(engine, {"a": 0, "b": 0, "c": 1}))
    assert ball_sizes([f], 3) == [1, 1, 1]


def sft_from_allowed_words(letters, allowed):
    """The SFT whose allowed words of one length are `allowed`."""
    length = len(next(iter(allowed)))
    return sft_engine(letters, ["".join(w) for w in itertools.product(letters, repeat=length)
                                if "".join(w) not in allowed])


def test_map_key_solves_congruences_across_cycles():
    # a 2-cycle (ab) and a 3-cycle (acd) that share the letter a
    engine = sft_from_allowed_words("abcd", {"aba", "bab", "acd", "cda", "dac"})
    # phi on the 2-cycle and phi^2 on the 3-cycle, at radius 1 and at radius 0
    # (5 = 1 mod 2 = 2 mod 3 on the letter a)
    g = make_element(engine, 1, by_text(engine, {"bab": 1, "aba": 1, "dac": 2, "acd": 2, "cda": 2}))
    h = make_element(engine, 0, by_text(engine, {"a": 5, "b": 1, "c": 2, "d": 2}))
    assert equal(g, h) and g.map_key() == h.map_key()
    assert canonical_dump(g) != canonical_dump(h)
    assert ball_sizes([g], 4) == [3, 5, 6, 6]


def test_map_key_keeps_the_radius_when_congruences_conflict():
    # a 2-cycle (ab) and a 4-cycle (acad) that share the letter a
    engine = sft_from_allowed_words("abcd", {"aba", "bab", "aca", "cad", "ada", "dac"})
    two = {"bab": 1, "aba": 1}
    # on a: 1 mod 2 and 3 mod 4 meet in 3 mod 4; 1 mod 2 and 2 mod 4 never meet
    meet = make_element(engine, 1, by_text(engine, {**two, **dict.fromkeys(["aca", "cad", "ada", "dac"], 3)}))
    clash = make_element(engine, 1, by_text(engine, {**two, **dict.fromkeys(["aca", "cad", "ada", "dac"], 2)}))
    assert meet.map_key() == (0, (3, 1, 3, 3))
    assert clash.map_key()[0] == 1
    assert not equal(clash, make_semigroup_element(engine, 0, by_text(engine, {"a": 2, "b": 1,
                                                                             "c": 2, "d": 2})))


# isolated cycles of the transfer graph whose short words are shared
CROSS_CYCLES = {
    "2-and-3-cycles": ("abcd", {"aba", "bab", "acd", "cda", "dac"}),
    "2-and-4-cycles": ("abcd", {"aba", "bab", "aca", "cad", "ada", "dac"}),
    # (ab) and (abb) share the 3-word bab, so a map key can take two steps down
    "2-and-3-cycles-sharing-bab": ("ab", {"ababa", "babab", "abbab", "bbabb", "babba"}),
}


@pytest.mark.parametrize("name", CROSS_CYCLES)
@settings(deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_multi_step_descent_across_cycles(name, data):
    engine = sft_from_allowed_words(*CROSS_CYCLES[name])
    check_descent(data, engine, data.draw(raw_tables(engine, -3, 3)))


def test_support_on_periodic_cylinders(period_two):
    engine = sft_from_allowed_words(*CROSS_CYCLES["2-and-3-cycles"])
    assert support(shift(engine, 6)).is_empty()
    assert support(shift(period_two, 2)).is_empty()
    assert support(shift(period_two, 3)) == CloSet.full(period_two)
    # phi^2 moves the points of the 3-cycle only, phi^3 those of the 2-cycle
    on_two = cylinder(engine, 0, ("b",)).union(cylinder(engine, 1, ("b",)))
    on_three = CloSet.full(engine).minus(on_two)
    assert support(shift(engine, 2)) == on_three
    assert support(shift(engine, 3)) == on_two


def test_equal_semigroup_elements_on_periodic_points(period_two):
    f = make_semigroup_element(period_two, 0, by_text(period_two, {"a": 0, "b": 1}))
    g = make_semigroup_element(period_two, 0, by_text(period_two, {"a": 2, "b": 1}))
    assert f.bijective is False
    assert equal(f, g)


def test_order_examples(fibonacci):
    assert order(identity(fibonacci)) == 1
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    assert order(s) == 3
    assert order(shift(fibonacci), cap=16) is None


def test_compose_keeps_the_displacement_cap(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "dbound=4")
    engine = substitution_engine({"a": "ab", "b": "a"})
    phi4 = shift(engine, 4)
    with pytest.raises(CapExceeded, match=r"displacement bound exceeded \(cap=4\)"):
        compose(phi4, phi4)
    assert is_identity(compose(phi4, shift(engine, -4)))
    # phi^4 is the last power order() builds at cap 4; phi^5 is past the cap
    assert order(shift(engine), cap=4) is None
    with pytest.raises(CapExceeded):
        order(shift(engine), cap=5)


def test_full_shift_ball_builds_no_level_above_13():
    """The two products of this ball whose R = max(r_g, r_f + D_g) is 7 are
    determined by their windows at a smaller radius, so level 15 is never built."""
    engine = sft_engine("01", [])
    s = sigma_U(cylinder(engine, -1, "001"))
    assert ball_sizes([shift(engine), s], 4) == [5, 15, 41, 107]
    assert max(engine._words) <= 13


def test_compose_below_the_top_radius_stays_inside_the_word_store(monkeypatch):
    def product():
        engine = sft_engine("01", [])
        s = sigma_U(cylinder(engine, -1, "001"))
        g = compose(compose(s, inverse(shift(engine))), s)
        assert (s.radius, g.radius, g.dbound) == (2, 5, 5)
        return engine, compose(s, g)          # R = 7, least radius 5

    expected = canonical_dump(product()[1])
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=20000")
    engine, fg = product()
    assert canonical_dump(fg) == expected
    # the level at R is past this store: 2^14 words of length 14, two letters each
    with pytest.raises(MemoryCapExceeded, match="32768 candidate words at length 15"):
        engine.allowed_words(15)


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


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "dump wants a header 'radius=R dbound=D'"),
    ("radius=x", 1, "dump wants a header 'radius=R dbound=D'"),
    ("\n\nradius=-1 dbound=0\n", 3, "dump wants a header 'radius=R dbound=D'"),
    ("radius=0 dbound=1\na -> 1\nb 1\n", 3, "dump wants 'window -> value'"),
    ("radius=0\na -> ", 2, "value wants an integer"),
    ("radius=0 dbound=1\na -> 1\n\nb -> ١\n", 4, "value wants an integer"),
    ("radius=0 dbound=0\na -> 0\nb -> 0\na -> 1\n", 4, "second value for window 'a'"),
    ("radius=0 dbound=1\na -> 1\nb -> 1\nbb -> 5\n", 4,
     "window 'bb' is not an allowed window of radius 0"),
    ("radius=0 dbound=1\na -> 1\nb -> 1\naaa -> 2\n", 4,
     "window 'aaa' is not an allowed window of radius 0"),
    ("\nradius=0 dbound=7\na -> 1\nb -> 1\n", 2,
     "header dbound=7, but the table's largest |value| is 1"),
], ids=["empty", "radius", "negative", "arrow", "no-value", "digit", "repeated",
        "outside-bb", "outside-aaa", "dbound"])
def test_parse_dump_errors_name_the_line(fibonacci, text, line, message):
    with pytest.raises(ParseError) as err:
        parse_dump(fibonacci, text)
    assert str(err.value) == f"line {line}, column 1: {message}"


def test_short_table_names_the_windows_left_without_a_value(fibonacci):
    # radius 1 has 4 windows: aab, aba, baa, bab
    with pytest.raises(PartialTable) as err:
        make_element(fibonacci, 1, (1, 1, 1))
    assert err.value.missing == ("bab",)
    with pytest.raises(PartialTable) as err:
        make_element(fibonacci, 1, (0,))
    assert err.value.missing == ("aba", "baa", "bab")


def test_long_table_is_refused(fibonacci):
    with pytest.raises(SemanticError, match="table has 5 values for 4 windows"):
        make_element(fibonacci, 1, (0, 0, 0, 0, 0))


def test_list_table_is_kept_as_a_tuple(fibonacci):
    f = make_element(fibonacci, 0, [1, 1])
    assert f.values == (1, 1) and type(f.values) is tuple
    assert hash(f.map_key()) == hash((0, (1, 1)))
    assert ball_sizes([f], 2) == [3, 5]


def test_bool_values_are_refused(fibonacci):
    # a bool would print as True in the dump, which parse_dump refuses
    with pytest.raises(SemanticError, match="window 'a' has value True, not an integer"):
        make_element(fibonacci, 0, (True, True))


def test_dict_values_are_not_rounded(fibonacci):
    a, b = fibonacci.allowed_words(1)
    with pytest.raises(SemanticError, match="window 'a' has value 1.5, not an integer"):
        make_element(fibonacci, 0, {a: 1.5, b: 1})


@pytest.mark.parametrize("values", [(1.0, 1.0), ("1", "1")], ids=["float", "str"])
def test_non_int_values_are_refused(fibonacci, values):
    with pytest.raises(SemanticError, match=f"window 'a' has value {values[0]!r}, not an integer"):
        make_element(fibonacci, 0, values)


def test_dict_table_refuses_a_window_outside_the_level(fibonacci):
    table = by_text(fibonacci, {"a": 1, "b": 1, "bb": 5})
    with pytest.raises(SemanticError, match="window 'bb' is not an allowed window of radius 0"):
        make_semigroup_element(fibonacci, 0, table)


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


def test_padding_reads_one_restriction_map(monkeypatch):
    """Padding phi to radius 150 reads the 301-words once; it does not walk
    through every intermediate length one dropped letter at a time."""
    engine = substitution_engine({"a": "ab", "b": "a"})
    e = shift(engine)
    enumerate_length = engine._enumerate
    lengths = []

    def counting(length):
        lengths.append(length)
        return enumerate_length(length)

    monkeypatch.setattr(engine, "_enumerate", counting)
    values = e.values_at(150)
    assert len(lengths) <= 3
    assert values == (1,) * len(engine.allowed_words(301))


def test_tuple_and_dict_tables_agree(fibonacci):
    words = fibonacci.allowed_words(3)
    values = tuple(1 if w[1] == "b" else -1 if w[2] == "b" else 0 for w in words)
    by_tuple = make_semigroup_element(fibonacci, 1, values)
    by_dict = make_semigroup_element(fibonacci, 1, dict(zip(words, values)))
    assert canonical_dump(by_tuple) == canonical_dump(by_dict)
    with pytest.raises(PartialTable):
        make_semigroup_element(fibonacci, 1, dict(zip(words[1:], values[1:])))
