import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantorfull
from cantorfull.elements import equal, is_identity, order, power, shift
from cantorfull.errors import (BadContinuedFraction, DepthCapExceeded,
                               EmptySubshift, MemoryCapExceeded,
                               NonPrimitiveSubstitution, NotAperiodic,
                               NotMinimal, SemanticError)
from cantorfull.language import (RecodedEngine, build_engine, max_gap,
                                 periodic_window, proper_recode,
                                 recurrence_bound, sft_approximation,
                                 sft_engine, substitution_engine,
                                 sturmian_engine)
from cantorfull.words import factors


def brute_force_factors(engine_rules, length, power=12):
    """Independent oracle: factors of a long substitution image of 'a'."""
    word = "a"
    for _ in range(power):
        word = "".join(engine_rules[a] for a in word)
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


def strings(engine, words):
    return {engine.alphabet.format_word(w) for w in words}


def language_strings(engine, lengths):
    return {engine.alphabet.format_word(w) for l in lengths for w in engine.allowed_words(l)}


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
    ({"a": "ab", "b": "ab"}, (2, ("ab", "ba"))),                # one periodic orbit
])
def test_substitution_fixtures_against_iterates(rules, finite):
    engine = substitution_engine(rules)
    lengths = range(1, 31)
    assert language_strings(engine, lengths) == iterate_factors(rules, lengths)
    period, blocks = finite or (0, ())
    assert engine.local_period(b"") == period
    assert tuple(map(engine.alphabet.format_word, engine.periodic_blocks(period or 2))) == blocks


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
    assert strings(engine, engine.allowed_words(2)) == {"aa", "ab", "bb"}


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
    rules = {"a": "ab", "b": "a"}
    for length in range(1, 9):
        assert strings(fibonacci, fibonacci.allowed_words(length)) == \
            brute_force_factors(rules, length)


def test_allowed_words_examples(fibonacci, y_engine):
    assert strings(fibonacci, fibonacci.allowed_words(2)) == {"aa", "ab", "ba"}
    assert strings(fibonacci, fibonacci.allowed_words(3)) == {"aab", "aba", "baa", "bab"}
    assert strings(y_engine, y_engine.allowed_words(2)) == {"aa", "ab", "bb"}


def test_is_allowed_examples(fibonacci, y_engine):
    assert not fibonacci.is_allowed(fibonacci.alphabet.parse_word("bb"))
    assert y_engine.is_allowed(y_engine.alphabet.parse_word("ab"))
    assert fibonacci.is_allowed(b"")


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
    parse = fibonacci.alphabet.parse_word
    assert recurrence_bound(fibonacci, parse("a")) == 3
    assert recurrence_bound(fibonacci, parse("b")) == 4
    with pytest.raises(NotMinimal):
        recurrence_bound(y_engine, parse("a"))
    with pytest.raises(SemanticError):
        recurrence_bound(fibonacci, parse("bb"))


def test_recurrence_bound_bounds_gaps(fibonacci):
    for text in ("a", "b", "aab"):
        letters = fibonacci.alphabet.parse_word(text)
        bound = recurrence_bound(fibonacci, letters)
        window = fibonacci.point_window(5 * bound)
        hits = [i for i in range(len(window) - len(letters) + 1)
                if window[i:i + len(letters)] == letters]
        assert hits
        assert max(b - a for a, b in zip(hits, hits[1:])) == max_gap(fibonacci, letters)
        assert max_gap(fibonacci, letters) == bound - len(letters)


def test_point_window_fibonacci_seed(fibonacci):
    window = fibonacci.point_window(2)
    assert type(window) is bytes and len(window) == 5
    assert fibonacci.is_allowed(window)
    # seed (a|a): the letters at -1 and 0, indices 2 - 1 and 2 + 0, read 'a'
    a, b = fibonacci.alphabet.index("a"), fibonacci.alphabet.index("b")
    assert window[2 - 1] == a and window[2 + 0] == a
    # x[1] = b (sigma(a) = ab) tells the centre from its neighbours
    assert window[2 + 1] == b


def test_point_window_seed_past_power_twelve():
    # the pair map ab -> last(sigma(a)) first(sigma(b)) on the 17 allowed
    # 2-words first closes a cycle through ca at power 15
    engine = substitution_engine({"a": "b", "b": "dec", "c": "ed", "d": "ce", "e": "acc"})
    assert len(engine.allowed_words(2)) == 17
    window = engine.point_window(5)
    assert len(window) == 11 and engine.is_allowed(window)
    a, c = engine.alphabet.index("a"), engine.alphabet.index("c")
    assert window[5 - 1] == c and window[5 + 0] == a
    assert engine.apply_power(bytes([c]), 15)[-1] == c
    assert engine.apply_power(bytes([a]), 15)[0] == a


def test_point_window_prefix_property(fibonacci, golden_mean, sturmian_fib):
    for engine in (fibonacci, golden_mean, sturmian_fib):
        small, big = engine.point_window(3), engine.point_window(7)
        assert big[7 - 3:7 + 3 + 1] == small
        assert engine.is_allowed(big)
        assert len(engine.point_window(0)) == 1


POINT_ENGINES = {
    "sft": lambda: sft_engine("ab", ["bb"]),
    "substitution": lambda: substitution_engine({"a": "ab", "b": "a"}),
    "sturmian": lambda: sturmian_engine([1] * 12, 12),
    "recoded": lambda: proper_recode(substitution_engine({"a": "ab", "b": "a"}), 2),
}


@pytest.mark.parametrize("kind", sorted(POINT_ENGINES))
def test_point_window_cache_matches_fresh_engine(kind):
    fresh = POINT_ENGINES[kind]
    big = fresh().point_window(40)
    radii = [0, 1, 3, 7, 20, 39]
    for order in (radii, radii[::-1]):
        engine = fresh()
        for m in order:
            window = engine.point_window(m)
            assert type(window) is bytes and len(window) == 2 * m + 1
            assert window == big[40 - m:40 + m + 1]
        assert engine.point_window(40) == big


def oracle_substitution_window(engine, radius):
    """The window built letter by letter: sigma^power applied to p and to q,
    one sigma at a time, until each side is long enough (the seed pair of
    the engine)."""
    power, (p, q) = engine._seed_pair()

    def grow(word):
        for _ in range(power):
            word = b"".join(engine.rules[c] for c in word)
        return word

    right = bytes((q,))
    while len(right) < radius + 1:
        right = grow(right)
    left = bytes((p,))
    while len(left) < radius:
        left = grow(left)
    return left[len(left) - radius:] + right[:radius + 1]


def oracle_substitution_level(engine, length):
    """The factors of length `length` of sigma^m(a) sigma^m(b) over the
    allowed 2-words ab, each sigma^m(c) built letter by letter."""
    blocks = [bytes((c,)) for c in range(len(engine.alphabet))]
    while min(map(len, blocks)) < length - 1:
        blocks = [b"".join(engine.rules[c] for c in w) for w in blocks]
    pairs, pending = set(), list(engine.rules)
    while pending:
        word = pending.pop()
        for pair in map(bytes, zip(word, word[1:])):
            if pair not in pairs:
                pairs.add(pair)
                pending.append(b"".join(engine.rules[c] for c in pair))
    return tuple(sorted({f for a, b in pairs for f in factors(blocks[a] + blocks[b], length)}))


@settings(deadline=None, database=None, max_examples=60)
@given(substitutions(), st.integers(0, 3000))
def test_substitution_window_and_levels_against_the_letter_by_letter_build(rules, radius):
    try:
        engine = substitution_engine(rules)
    except NonPrimitiveSubstitution:
        assume(False)
    for r in (0, 1, radius):
        assert engine.point_window(r) == oracle_substitution_window(engine, r)
    for length in range(1, 21):
        assert engine.allowed_words(length) == oracle_substitution_level(engine, length)


@pytest.mark.parametrize("rules", [{"a": "ab", "b": "a"}, {"a": "ab", "b": "ba"},
                                   {"a": "abc", "b": "ac", "c": "b"}])
def test_substitution_window_holds_no_more_than_the_letter_by_letter_build(rules):
    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    engine = substitution_engine(rules)
    old = peak(lambda: oracle_substitution_window(engine, 50_000))
    assert peak(lambda: engine.point_window(50_000)) <= old


def oracle_mechanical_window(quotients, radius):
    """x[-radius..radius] of the mechanical word of p/q = [0; quotients]: the
    letter at n is floor((n+1) p/q) - floor(n p/q)."""
    p, q = 0, 1
    for a in reversed(quotients):
        p, q = q, a * q + p
    floors = [n * p // q for n in range(-radius, radius + 2)]
    return bytes(b - a for a, b in zip(floors, floors[1:]))


@settings(deadline=None, database=None, max_examples=80)
@given(st.data())
def test_sturmian_window_against_the_floor_formula(data):
    quotients = data.draw(st.lists(st.integers(1, 400), min_size=1, max_size=30))
    engine = sturmian_engine(quotients, len(quotients))
    while engine.convergent[1] > 10 ** 5:       # the longest prefix with q <= 10^5
        quotients.pop()
        engine = sturmian_engine(quotients, len(quotients))
    q = engine.convergent[1]
    radii = {0, 1, q - 2, data.draw(st.integers(0, max(0, q - 2)))}
    for r in sorted(r for r in radii if 0 <= r <= q - 2):
        assert engine.point_window(r) == oracle_mechanical_window(quotients, r)
    with pytest.raises(DepthCapExceeded):
        sturmian_engine(quotients, len(quotients)).point_window(q - 1)


@pytest.mark.parametrize("quotients", [[10 ** 6], [2, 3, 10 ** 6, 2], [1, 1, 1, 10 ** 6]])
def test_sturmian_window_past_a_large_quotient_holds_little(quotients):
    # s_{k-1}^(10^6) alone would hold megabytes; a window of 201 letters
    # needs a few copies of s_{k-1}
    engine = sturmian_engine(quotients, len(quotients))
    tracemalloc.start()
    try:
        window = engine.point_window(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert window == oracle_mechanical_window(quotients, 100)


def test_sturmian_depth_cap_after_cached_window():
    engine = sturmian_engine([1] * 12, 12)
    small = engine.point_window(50)
    with pytest.raises(DepthCapExceeded):
        engine.point_window(10_000)
    assert engine.point_window(50) == small


def test_sturmian_language_matches_fibonacci_up_to_renaming(fibonacci, sturmian_fib):
    def swap(word):
        """The word with the letters a (0) and b (1) exchanged."""
        return bytes(1 - c for c in word)

    for l in range(1, 8):
        renamed = set(map(swap, sturmian_fib.allowed_words(l)))
        assert renamed == set(fibonacci.allowed_words(l))
    window = sturmian_fib.point_window(3)
    assert fibonacci.is_allowed(swap(window))


def test_sturmian_mechanical_word_against_float_oracle(sturmian_fib):
    alpha = (5 ** 0.5 - 1) / 2
    window = sturmian_fib.point_window(20)
    import math
    for n in range(-20, 21):
        bit = math.floor((n + 1) * alpha) - math.floor(n * alpha)
        assert window[20 + n] == bit


def test_sturmian_depth_cap(sturmian_fib):
    with pytest.raises(DepthCapExceeded):
        sturmian_fib.point_window(10_000)
    with pytest.raises(DepthCapExceeded):
        sturmian_fib.allowed_words(200)


def test_sturmian_level_of_length_20_reads_a_window_of_401_letters():
    # 16 quotients of 8 give a convergent denominator of some 10^14; a level
    # of length 20 reads a point window of radius 200, in a child limited to
    # 400 MB
    code = ("import resource; limit = 400 * 2 ** 20; "
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
            "from cantorfull.language import sturmian_engine; "
            "print(len(sturmian_engine([8] * 16, 16).allowed_words(20)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cantorfull.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "21\n", "")


def oracle_sturmian_level(quotients, depth_cap, length):
    """The level as the factors of the first standard word s_k of at least
    (2 + max a) length letters, s_{k+1} = s_k^{a_{k+1}} s_{k-1}, over the
    quotients within the depth cap; DepthCapExceeded when none is, or when
    the count length + 1 fails."""
    quotients = quotients[:depth_cap]
    need = (2 + max(quotients)) * length
    s = [b"\0", bytes(quotients[0] - 1) + b"\1"]
    while len(s[-1]) < need and len(s) <= len(quotients):
        s.append(s[-1] * quotients[len(s) - 1] + s[-2])
    if len(s[-1]) < need:
        raise DepthCapExceeded(f"no standard word of length >= {need}")
    found = set(factors(s[-1], length))
    if len(found) != length + 1:
        raise DepthCapExceeded(f"cannot certify the length-{length} language")
    return tuple(sorted(found))


def sturmian_outcome(level, *args):
    try:
        return level(*args)
    except DepthCapExceeded:
        return DepthCapExceeded


@settings(deadline=None, database=None)
@given(st.data())
def test_sturmian_levels_are_the_standard_word_levels(data):
    quotients = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=10))
    depth_cap = data.draw(st.integers(1, len(quotients)))
    engine = sturmian_engine(quotients, depth_cap)
    for length in sorted(data.draw(st.sets(st.integers(1, 60), min_size=1, max_size=8))):
        assert (sturmian_outcome(engine.allowed_words, length)
                == sturmian_outcome(oracle_sturmian_level, quotients, depth_cap, length))


def test_sturmian_levels_read_only_the_quotients_within_the_depth_cap():
    # the 100 past the cap would ask level 1 for 102 letters
    engine = sturmian_engine([1] * 8 + [100], 8)
    assert (len(engine.allowed_words(1)), len(engine.allowed_words(5))) == (2, 6)
    assert engine.allowed_words(5) == sturmian_engine([1] * 8, 8).allowed_words(5)


def test_sturmian_level_past_the_word_store_names_the_level():
    # level 100000 would hold some 10^10 letters; its window alone passes the
    # word store, in a child limited to 1 GB
    code = ("import resource; limit = 2 ** 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
            "from cantorfull.language import sturmian_engine\n"
            "try:\n"
            "    sturmian_engine([1] * 30, 30).allowed_words(100000)\n"
            "except Exception as err:\n"
            "    print(type(err).__name__, err)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cantorfull.__file__).parent.parent))
    env.pop("CANTORFULL_CAPS", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("MemoryCapExceeded level 100000 reads a point window of "
                           "600001 letters (cap=500000)\n")


@pytest.mark.parametrize("kind", sorted(POINT_ENGINES))
def test_point_window_refuses_a_negative_radius(kind):
    with pytest.raises(ValueError):
        POINT_ENGINES[kind]().point_window(-1)


def test_proper_recode_d1(fibonacci):
    recoded = proper_recode(fibonacci, 1)
    for w in recoded.allowed_words(2):
        assert w[0] != w[1]
    assert recoded.block_length == 2


def test_proper_recode_d4(fibonacci):
    recoded = proper_recode(fibonacci, 4)
    # higher-block alphabet has L+1 letters (Sturmian complexity)
    assert len(recoded.alphabet) == recoded.block_length + 1
    for w in recoded.allowed_words(5):
        for i in range(len(w)):
            for j in range(i + 1, min(len(w), i + 5)):
                assert w[i] != w[j]


def test_proper_recode_decode_roundtrip(fibonacci):
    recoded = proper_recode(fibonacci, 4)
    L = recoded.block_length
    window = recoded.point_window(4)
    span = recoded.decode_word(window)
    R = 4 + L - 1
    source = fibonacci.point_window(R)
    # x[-4 .. 4 + L - 1]
    assert span == source[R - 4:R + 4 + L]


def test_proper_recode_over_a_separated_alphabet():
    """Fibonacci over the tokens x1, y2: the recoded letters are named by
    their blocks with "_" for ".", and the recoded words print and parse back."""
    source = substitution_engine({"x1": ["x1", "y2"], "y2": ["x1"]})
    recoded = proper_recode(source, 2)
    names = [source.alphabet.format_word(block).replace(".", "_")
             for block in recoded.decode]
    assert list(recoded.alphabet.letters) == names
    assert "x1_y2_x1_x1" in names and not recoded.alphabet.joined
    for w in recoded.allowed_words(3):
        assert recoded.alphabet.parse_word(recoded.alphabet.format_word(w)) == w
        assert source.is_allowed(recoded.decode_word(w))


@pytest.mark.parametrize("letters", [["a", "a_", "b", "_b"], [".", "_"], ["x~", "y_", "~"]])
def test_recoded_names_are_distinct_when_tokens_hold_underscores(letters):
    """a+_b and a_+b used to share the name a__b, and the joined . and _
    made ._ and _. both __."""
    recoded = RecodedEngine(sft_engine(letters, []), 2)
    assert len(recoded.alphabet) == len(letters) ** 2
    for w in recoded.allowed_words(3):
        assert recoded.alphabet.parse_word(recoded.alphabet.format_word(w)) == w


def test_recoded_names_without_underscores_print_the_block():
    source = sft_engine(["x~", "y"], [])
    recoded = RecodedEngine(source, 2)
    assert recoded.alphabet.letters == ("x~_x~", "x~_y", "y_x~", "y_y")


def test_proper_recode_needs_aperiodicity(y_engine):
    with pytest.raises(NotAperiodic):
        proper_recode(y_engine, 1)


def test_periodic_points(y_engine, full_shift):
    assert strings(y_engine, y_engine.periodic_blocks(1)) == {"a", "b"}
    assert len(full_shift.periodic_blocks(2)) == 4
    proper3 = sft_engine("abc", ["aa", "bb", "cc"])
    assert proper3.periodic_blocks(1) == ()


def test_periodic_blocks_stop_at_the_word_store():
    with pytest.raises(MemoryCapExceeded) as info:
        sft_engine("abcd", []).periodic_blocks(10)
    assert info.value.cap == 500000


def test_recoded_engine_answers_through_its_source(period_two):
    recoded = RecodedEngine(period_two, 2)
    assert is_identity(shift(recoded, 2))
    assert not is_identity(shift(recoded, 1))
    # the recoded letters are the blocks "ab" and "ba", printed with separators
    assert tuple(map(recoded.alphabet.format_word, recoded.periodic_blocks(2))) == ("ab.ba", "ba.ab")


def test_sft_approximation(fibonacci):
    gm = sft_approximation(fibonacci, 2)
    assert not gm.is_allowed(fibonacci.alphabet.parse_word("bb"))
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
    assert sft_approximation(fibonacci, 2).is_irreducible()
    assert not y_engine.is_irreducible()
    assert full_shift.is_irreducible()


def test_finite_substitution_detected():
    engine = substitution_engine({"a": "ab", "b": "ab"})
    assert engine.aperiodic is False
    period = engine.local_period(b"")
    blocks = engine.periodic_blocks(period)
    assert all((b * 2)[period:] == (b * 2)[:-period] for b in blocks)
    assert strings(engine, blocks) == {"ab", "ba"}


@pytest.mark.parametrize("rules", [{"a": "bbb", "b": "bba"},
                                   {"a": "cc", "b": "aaa", "c": "cb"}])
def test_long_periodic_factors_are_not_a_periodic_verdict(rules):
    # both languages hold long words of small period, and p(13) > 12
    engine = substitution_engine(rules)
    assert engine.aperiodic is True and engine.local_period(b"") == 0
    assert all(engine.periodic_blocks(p) == () for p in range(1, 13))


def test_aperiodic_substitution_shift_has_no_finite_order(monkeypatch):
    # phi^75 and phi^500 lie past the default displacement cap
    monkeypatch.setenv("CANTORFULL_CAPS", "dbound=500")
    engine = substitution_engine({"a": "bbb", "b": "bba"})
    assert is_identity(power(shift(engine, 25), 3)) is False
    assert order(shift(engine, 25), cap=20) is None


@st.composite
def uniform_periodic_substitutions(draw):
    letters = draw(st.sampled_from(["ab", "abc", "abcd"]))
    v = draw(st.text(alphabet=letters, min_size=len(letters), max_size=20))
    assume(set(v) == set(letters))
    assume(v not in (v + v)[1:-1])      # v is not a proper power
    return {c: v for c in letters}, len(v)


@settings(deadline=None, database=None, max_examples=60)
@given(uniform_periodic_substitutions())
def test_uniform_substitution_period_is_its_image_length(case):
    # c -> v for every letter c: the only point is v v v ..., of least period |v|
    # and its periodic blocks are the rotations of v repeated p / |v| times
    rules, period = case
    engine = substitution_engine(rules)
    assert engine.aperiodic is False
    v = next(iter(rules.values()))
    for p in range(1, 2 * period + 1):
        expected = sorted({(v * p)[i:i + p] for i in range(period)}) if p % period == 0 else []
        assert engine.periodic_blocks(p) == tuple(map(engine.alphabet.parse_word, expected))


@settings(deadline=None, database=None, max_examples=30)
@given(uniform_periodic_substitutions())
def test_substitution_periodic_cylinders_against_orbit_oracle(case):
    # every allowed word lies on the one orbit, whose points have period |v|
    rules, period = case
    engine = substitution_engine(rules)
    words = [bytes(w) for n in (1, 3) for w in itertools.product(range(len(engine.alphabet)), repeat=n)]
    for w in words + list(engine.allowed_words(5)):
        for p in range(-period - 1, 2 * period + 1):
            if p:
                expected = engine.is_allowed(w) and p % period == 0
                assert engine.cylinder_periodic_exists(w, p) == expected


def is_periodic_by_definition(engine, p):
    """Is every point p-periodic?  Exactly when every allowed (p+1)-word has
    equal first and last letters."""
    return all(w[0] == w[-1] for w in engine.allowed_words(p + 1))


def check_periods_against_the_definition(engine):
    """periodic_blocks, local_period, aperiodic and the identity of phi^p,
    for every p <= 2 caps.dbound, against the definition of p-periodic."""
    dbound = engine.caps.dbound
    periods = [p for p in range(1, 2 * dbound + 1) if is_periodic_by_definition(engine, p)]
    for p in range(1, 2 * dbound + 1):
        periodic = p in periods
        assert engine.periodic_blocks(p) == (engine.allowed_words(p) if periodic else ())
        # phi^p = id read as two displacements the caps admit
        assert equal(shift(engine, (p + 1) // 2), shift(engine, -(p // 2))) is periodic
        if p <= dbound:
            assert is_identity(power(shift(engine), p)) is periodic
    assert engine.local_period(b"") == (periods[0] if periods else 0)
    assert engine.aperiodic is not periods


@settings(deadline=None, database=None, max_examples=40)
@given(substitutions())
def test_aperiodic_substitutions_have_no_periodic_blocks(rules):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("CANTORFULL_CAPS", "dbound=8")
        try:
            engine = substitution_engine(rules)
        except NonPrimitiveSubstitution:
            assume(False)
    check_periods_against_the_definition(engine)


ORBIT_81 = {"a": "ebc", "b": "ebb", "c": "ebd", "d": "ebb", "e": "eba"}


# a -> a^k b, b -> a^k b is one orbit of k + 1 points: here on both sides of
# 2 dbound = 16; the 81-point orbit on both sides of 16 and of 82
@pytest.mark.parametrize("rules, dbound", [
    *(({"a": "a" * k + "b", "b": "a" * k + "b"}, 8) for k in (14, 15, 16, 17)),
    (ORBIT_81, 8), (ORBIT_81, 41)])
def test_one_finite_orbit_against_the_definition(monkeypatch, rules, dbound):
    monkeypatch.setenv("CANTORFULL_CAPS", f"dbound={dbound}")
    engine = substitution_engine(rules)
    assert engine._words == {}          # nothing is enumerated at construction
    check_periods_against_the_definition(engine)


def test_orbit_of_13_points_is_read_at_the_default_caps():
    # its CLI answers (equal, order, mod, recode, matui) are in test_cli
    engine = substitution_engine({"a": "a" * 12 + "b", "b": "a" * 12 + "b"})
    assert engine.aperiodic is False and engine.local_period(b"") == 13
    assert strings(engine, engine.periodic_blocks(13)) == {
        "a" * i + "b" + "a" * (12 - i) for i in range(13)}


@settings(deadline=None, database=None, max_examples=30)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_sturmian_engines_have_no_periodic_blocks(quotients):
    engine = sturmian_engine(quotients, len(quotients))
    assert all(engine.periodic_blocks(p) == () for p in range(1, 13))
    assert engine.local_period(b"") == 0
    assert not engine.cylinder_periodic_exists(engine.alphabet.parse_word("a"), 1)


@settings(deadline=None, database=None)
@given(st.binary(min_size=1, max_size=6), st.integers(0, 20))
def test_periodic_window_reads_the_periodic_point(block, radius):
    p = len(block)
    assert periodic_window(block, radius) == bytes(block[i % p] for i in range(-radius, radius + 1))


def test_periodic_queries_are_cached(period_two):
    blocks = period_two.periodic_blocks(4)
    assert period_two.periodic_blocks(4) is blocks
    windows = period_two.periodic_windows(4, 2)
    assert period_two.periodic_windows(4, 2) is windows
    assert windows == {periodic_window(b, 2) for b in blocks}


def test_every_point_is_zero_periodic(period_two, golden_mean, fibonacci, sturmian_fib):
    finite = substitution_engine({"a": "ab", "b": "ab"})
    recoded = proper_recode(fibonacci, 2)
    for engine in (period_two, golden_mean, fibonacci, sturmian_fib, finite, recoded):
        for w in engine.allowed_words(3):
            assert not engine.cylinder_nonperiodic_exists(w, 0)


def test_a_recoding_reads_its_source_period_on_first_use():
    fib = substitution_engine({"a": "ab", "b": "a"})
    recoded = RecodedEngine(fib, 2)
    assert max(fib._words) <= 2
    assert recoded.aperiodic is True
    assert 2 * fib.caps.dbound + 1 in fib._words     # level 129 at the default caps
    assert fib.aperiodic is True


def test_sturmian_periodicity_reads_no_level():
    engine = sturmian_engine([1] * 30, 30)
    assert engine.aperiodic is True and engine.local_period(b"") == 0
    assert all(engine.periodic_blocks(p) == () for p in range(1, 13))
    assert engine._words == {}


def test_thue_morse_is_aperiodic():
    assert substitution_engine({"a": "ab", "b": "ba"}).aperiodic is True


def test_sft_minimal_only_on_one_cycle(period_two):
    assert period_two.minimal is True
    assert sft_engine("ab", ["ab", "ba"]).minimal is False
    assert sft_engine("abc", ["ab", "ac", "ba", "ca", "bb", "cc"]).minimal is False


def test_minimal_and_aperiodic_are_booleans(period_two, golden_mean, fibonacci, sturmian_fib):
    finite = substitution_engine({"a": "ab", "b": "ab"})
    engines = (period_two, golden_mean, fibonacci, sturmian_fib, finite,
               proper_recode(fibonacci, 2), sft_approximation(fibonacci, 3))
    assert [(e.minimal, e.aperiodic) for e in engines] == [
        (True, False), (False, False), (True, True), (True, True), (True, False),
        (True, True), (False, False)]


def test_position_maps(golden_mean, fibonacci):
    for engine in (golden_mean, fibonacci):
        for length in range(1, 7):
            words = engine.allowed_words(length)
            assert [engine.word_index(length)[w] for w in words] == list(range(len(words)))
            for size in range(length + 1):
                for start in range(length - size + 1):
                    positions = engine.restriction(length, start, size)
                    assert [engine.allowed_words(size)[j] for j in positions] == \
                        [w[start:start + size] for w in words]
            assert engine.local_periods(length) == tuple(map(engine.local_period, words))


@pytest.mark.parametrize("letters, forbidden, zeros", [
    ("ab", ["bb"], True),                  # golden mean
    ("01", [], True),                      # full 2-shift
    ("abc", ["aa", "bb", "cc"], True),     # proper 3-shift
    ("ab", ["aa", "bb"], False),           # one 2-cycle
    ("abc", ["ac", "ca", "bc", "cb"], False),  # a 2-shift and a fixed point
])
def test_sft_local_periods_without_isolated_cycles_read_no_word(monkeypatch, letters,
                                                                 forbidden, zeros):
    """Without an isolated cycle no cylinder holds only periodic points, so
    every local period is 0 and none is read word by word."""
    engine = sft_engine(letters, forbidden)
    expected = {n: tuple(map(engine.local_period, engine.allowed_words(n))) for n in range(1, 8)}
    assert (not engine._cycles) == zeros
    if zeros:
        monkeypatch.setattr(engine, "local_period", None)
    for n, periods in expected.items():
        assert engine.local_periods(n) == periods
        assert (not any(periods)) == zeros
