import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorfull.errors import (BadContinuedFraction, DepthCapExceeded,
                               EmptySubshift, NonPrimitiveSubstitution,
                               NotAperiodic, NotMinimal, SemanticError)
from cantorfull.language import (build_engine, is_irreducible, max_gap,
                                 periodic_points, proper_recode,
                                 recurrence_bound, sft_approximation,
                                 sft_engine, substitution_engine,
                                 sturmian_engine, contains_factor)
from cantorfull.words import Word, factors, has_period


def brute_force_factors(engine_rules, length, power=12):
    """Independent oracle: factors of a long substitution image of 'a'."""
    word = ("a",)
    for _ in range(power):
        word = tuple(c for a in word for c in engine_rules[a])
    return set(factors(word, length))


def iterate_factors(rules, lengths):
    """Independent oracle: the factors of the given lengths of sigma^n(c), over
    every letter c, at the first n from which that set no longer changes.
    Only n with every sigma^n(c) at least max(lengths) long are compared."""
    def collect(images):
        return {w[i:i + l] for w in images for l in lengths for i in range(len(w) - l + 1)}

    images = list(rules)
    while min(map(len, images)) < max(lengths):
        images = ["".join(rules[c] for c in w) for w in images]
    current = collect(images)
    while True:
        images = ["".join(rules[c] for c in w) for w in images]
        following = collect(images)
        if following == current:
            return current
        current = following


def language_strings(engine, lengths):
    return {"".join(w) for l in lengths for w in engine.allowed_words(l)}


@st.composite
def substitutions(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    return {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}


@settings(deadline=None, database=None)
@given(substitutions())
def test_substitution_language_against_iterates(rules):
    try:
        engine = substitution_engine(rules)
    except NonPrimitiveSubstitution:
        assume(False)
    lengths = range(1, 13)
    assert language_strings(engine, lengths) == iterate_factors(rules, lengths)


@pytest.mark.parametrize("rules, finite", [
    ({"a": "ab", "b": "a"}, None),                              # Fibonacci
    ({"a": "ab", "b": "ba"}, None),                             # Thue-Morse
    ({"a": "aab", "b": "bc", "c": "ca"}, None),
    ({"a": "ab", "b": "aa"}, None),                             # period doubling
    ({"a": "ab", "b": "ac", "c": "db", "d": "dc"}, None),       # Rudin-Shapiro
    ({"a": "ab", "b": "ac", "c": "a"}, None),
    ({"a": "abc", "b": "cab", "c": "bca"}, None),
    ({"a": "ab", "b": "ab"}, (2, (("a", "b"), ("b", "a")))),    # one periodic orbit
])
def test_substitution_fixtures_against_iterates(rules, finite):
    engine = substitution_engine(rules)
    lengths = range(1, 31)
    assert language_strings(engine, lengths) == iterate_factors(rules, lengths)
    assert engine.finite_points() == finite


def thue_morse_complexity(n):
    """Brlek's formula: for n = 2^r + q + 1 with 0 < q <= 2^r, the count is
    6*2^(r-1) + 4q when q <= 2^(r-1), else 8*2^(r-1) + 2q."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def test_thue_morse_complexity_brlek():
    engine = substitution_engine({"a": "ab", "b": "ba"})
    assert [thue_morse_complexity(n) for n in range(1, 9)] == [2, 4, 6, 10, 12, 16, 20, 22]
    for n in range(1, 201):
        assert len(engine.allowed_words(n)) == thue_morse_complexity(n)


def test_build_engine_fibonacci_flags(fibonacci):
    assert fibonacci.minimal is True
    assert fibonacci.aperiodic is True


def test_build_engine_from_description():
    engine = build_engine({"kind": "sft", "alphabet": ("a", "b"), "forbidden": ["ba"]})
    assert {"".join(w) for w in engine.allowed_words(2)} == {"aa", "ab", "bb"}


def test_empty_subshift_rejected():
    with pytest.raises(EmptySubshift):
        sft_engine("a", ["aa"])


def test_non_primitive_rejected():
    with pytest.raises(NonPrimitiveSubstitution):
        substitution_engine({"a": "ab", "b": "b"})
    with pytest.raises(NonPrimitiveSubstitution):
        substitution_engine({"a": "b", "b": "a"})


def test_bad_continued_fraction():
    with pytest.raises(BadContinuedFraction):
        sturmian_engine([], 12)
    with pytest.raises(BadContinuedFraction):
        sturmian_engine([1, 0, 1], 12)


def test_fibonacci_language_against_brute_force(fibonacci):
    rules = {"a": ("a", "b"), "b": ("a",)}
    for length in range(1, 9):
        assert set(fibonacci.allowed_words(length)) == brute_force_factors(rules, length)


def test_allowed_words_examples(fibonacci, y_engine):
    assert {"".join(w) for w in fibonacci.allowed_words(2)} == {"aa", "ab", "ba"}
    assert {"".join(w) for w in fibonacci.allowed_words(3)} == {"aab", "aba", "baa", "bab"}
    assert {"".join(w) for w in y_engine.allowed_words(2)} == {"aa", "ab", "bb"}


def test_is_allowed_examples(fibonacci, y_engine):
    assert not fibonacci.is_allowed(("b", "b"))
    assert y_engine.is_allowed(("a", "b"))
    assert fibonacci.is_allowed(())


def test_language_consistency(fibonacci, golden_mean, sturmian_fib):
    for engine in (fibonacci, golden_mean, sturmian_fib):
        for length in range(1, 6):
            longer = engine.allowed_words(length + 1)
            words = engine.allowed_words(length)
            for w in words:
                for f in factors(w, length - 1):
                    assert engine.is_allowed(f)
            for w in words:
                assert any(u[:-1] == w for u in longer)
                assert any(u[1:] == w for u in longer)


def test_complexity_sanity(fibonacci, sturmian_fib):
    counts = [len(fibonacci.allowed_words(l)) for l in range(1, 10)]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)
    for l in range(1, 9):
        assert len(sturmian_fib.allowed_words(l)) == l + 1


def test_recurrence_bounds(fibonacci, y_engine):
    assert recurrence_bound(fibonacci, ("a",)) == 3
    assert recurrence_bound(fibonacci, ("b",)) == 4
    with pytest.raises(NotMinimal):
        recurrence_bound(y_engine, ("a",))
    with pytest.raises(SemanticError):
        recurrence_bound(fibonacci, ("b", "b"))


def test_recurrence_bound_bounds_gaps(fibonacci):
    for letters in (("a",), ("b",), ("a", "a", "b")):
        bound = recurrence_bound(fibonacci, letters)
        window = fibonacci.point_window(5 * bound).letters
        hits = [i for i in range(len(window) - len(letters) + 1)
                if window[i:i + len(letters)] == letters]
        assert hits
        assert all(b - a <= bound - len(letters) + 1 for a, b in zip(hits, hits[1:]))


def test_point_window_fibonacci_seed(fibonacci):
    window = fibonacci.point_window(2)
    assert window.anchor == -2 and len(window) == 5
    assert fibonacci.is_allowed(window.letters)
    # seed (a|a): the letters at -1 and 0 both read 'a'
    assert window[-1] == "a" and window[0] == "a"


def test_point_window_prefix_property(fibonacci, golden_mean, sturmian_fib):
    for engine in (fibonacci, golden_mean, sturmian_fib):
        small, big = engine.point_window(3), engine.point_window(7)
        assert big.segment(-3, 3) == small.letters
        assert engine.is_allowed(big.letters)
        assert len(engine.point_window(0)) == 1


def test_sturmian_language_matches_fibonacci_up_to_renaming(fibonacci, sturmian_fib):
    swap = {"a": "b", "b": "a"}
    for l in range(1, 8):
        renamed = {tuple(swap[c] for c in w) for w in sturmian_fib.allowed_words(l)}
        assert renamed == set(fibonacci.allowed_words(l))
    window = sturmian_fib.point_window(3)
    assert fibonacci.is_allowed(tuple(swap[c] for c in window.letters))


def test_sturmian_mechanical_word_against_float_oracle(sturmian_fib):
    alpha = (5 ** 0.5 - 1) / 2
    window = sturmian_fib.point_window(20)
    import math
    for n in range(-20, 21):
        bit = math.floor((n + 1) * alpha) - math.floor(n * alpha)
        assert window[n] == sturmian_fib.alphabet.letters[bit]


def test_sturmian_depth_cap(sturmian_fib):
    with pytest.raises(DepthCapExceeded):
        sturmian_fib.point_window(10_000)
    with pytest.raises(DepthCapExceeded):
        sturmian_fib.allowed_words(200)


def test_proper_recode_d1(fibonacci):
    recoded, mapping = proper_recode(fibonacci, 1)
    for w in recoded.allowed_words(2):
        assert w[0] != w[1]
    assert mapping.block_length == 2


def test_proper_recode_d4(fibonacci):
    recoded, mapping = proper_recode(fibonacci, 4)
    # higher-block alphabet has L+1 letters (Sturmian complexity)
    assert len(recoded.alphabet) == mapping.block_length + 1
    for w in recoded.allowed_words(5):
        for i in range(len(w)):
            for j in range(i + 1, min(len(w), i + 5)):
                assert w[i] != w[j]


def test_proper_recode_decode_roundtrip(fibonacci):
    recoded, mapping = proper_recode(fibonacci, 4)
    L = mapping.block_length
    window = recoded.point_window(4)
    span = recoded.decode_word(window.letters)
    source = fibonacci.point_window(4 + L - 1)
    assert span == source.segment(-4, 4 + L - 1)


def test_proper_recode_needs_aperiodicity(y_engine):
    with pytest.raises(NotAperiodic):
        proper_recode(y_engine, 1)


def test_periodic_points(y_engine, full_shift):
    assert {"".join(b) for b in periodic_points(y_engine, 1)} == {"a", "b"}
    assert len(periodic_points(full_shift, 2)) == 4
    proper3 = sft_engine("abc", ["aa", "bb", "cc"])
    assert periodic_points(proper3, 1) == ()


def test_sft_approximation(fibonacci):
    gm = sft_approximation(fibonacci, 2)
    assert not gm.is_allowed(("b", "b"))
    assert set(gm.allowed_words(2)) == set(fibonacci.allowed_words(2))
    deeper = sft_approximation(fibonacci, 3)
    for l in range(1, 6):
        assert set(deeper.allowed_words(l)) <= set(gm.allowed_words(l))
    for l in range(1, 4):
        assert set(deeper.allowed_words(l)) == set(fibonacci.allowed_words(l))


def test_sft_approximation_of_sft_is_itself(y_engine):
    again = sft_approximation(y_engine, 2)
    for l in range(1, 6):
        assert set(again.allowed_words(l)) == set(y_engine.allowed_words(l))


def test_is_irreducible(fibonacci, y_engine, full_shift):
    assert is_irreducible(sft_approximation(fibonacci, 2))
    assert not is_irreducible(y_engine)
    assert is_irreducible(full_shift)


def test_finite_substitution_detected():
    engine = substitution_engine({"a": "ab", "b": "ab"})
    assert engine.aperiodic is False
    period, blocks = engine.finite_points()
    assert all(has_period(b * 2, period) for b in blocks)
    assert {"".join(b) for b in blocks} == {"ab", "ba"}


def test_thue_morse_is_aperiodic():
    assert substitution_engine({"a": "ab", "b": "ba"}).aperiodic is True


def test_contains_factor():
    assert contains_factor(("a", "b", "a"), ("b", "a"))
    assert not contains_factor(("a", "b"), ("b", "b"))
    assert contains_factor(("a",), ())
