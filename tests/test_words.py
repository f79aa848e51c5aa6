"""Words as bytes of letter indices: the text round trip, the reference order
of every enumerated level read back from its printed text, and the limit of
256 letters."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorfull.errors import EmptySubshift, SemanticError
from cantorfull.language import sft_engine, substitution_engine
from cantorfull.words import Alphabet

TOKENS = st.text(alphabet="abcxyz0123", min_size=1, max_size=3)


@st.composite
def alphabets(draw):
    """2-4 distinct tokens in a drawn order, often multi-character and often
    not in string order."""
    tokens = draw(st.lists(TOKENS, min_size=2, max_size=4, unique=True))
    return Alphabet(draw(st.permutations(tokens)))


def words_over(alphabet, max_size=6):
    return st.lists(st.sampled_from(alphabet.letters), max_size=max_size)


def tokens_of(alphabet, text):
    """The letter tokens of a printed word, split by hand."""
    return list(text) if alphabet.joined else text.split(".")


def assert_in_reference_order(alphabet, words):
    """Printed words, split into tokens and ranked by their construction
    order, must rise strictly."""
    texts = [alphabet.format_word(w) for w in words]
    ranks = [[alphabet.index(t) for t in tokens_of(alphabet, text)] for text in texts]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert [alphabet.parse_word(text) for text in texts] == list(words)


def test_order_need_not_be_string_order():
    alphabet = Alphabet(["b", "a", "c"])
    assert alphabet.parse_word("ab") == bytes([1, 0])
    assert sorted([alphabet.parse_word("a"), alphabet.parse_word("b")]) == \
        [alphabet.parse_word("b"), alphabet.parse_word("a")]
    engine = sft_engine(["b", "a", "c"], ["c"])
    assert [engine.alphabet.format_word(w) for w in engine.allowed_words(2)] == \
        ["bb", "ba", "ab", "aa"]


@settings(deadline=None, database=None)
@given(st.data())
def test_text_round_trip(data):
    alphabet = data.draw(alphabets())
    letters = data.draw(words_over(alphabet))
    text = ("" if alphabet.joined else ".").join(letters) or "-"
    word = alphabet.parse_word(text)
    assert word == alphabet.encode(letters)
    assert list(word) == [alphabet.index(t) for t in letters]
    assert alphabet.format_word(word) == text


def test_unknown_letters_are_semantic_errors():
    alphabet = Alphabet(["x", "yy"])
    with pytest.raises(SemanticError):
        alphabet.encode(["x", "y"])
    with pytest.raises(SemanticError):
        alphabet.parse_word("x.y")


@settings(deadline=None, database=None)
@given(st.data())
def test_sft_levels_in_reference_order(data):
    alphabet = data.draw(alphabets())
    forbidden = data.draw(st.lists(words_over(alphabet, 3).filter(bool), max_size=5))
    try:
        engine = sft_engine(alphabet.letters, forbidden)
    except EmptySubshift:
        assume(False)
    for length in range(1, 6):
        assert_in_reference_order(engine.alphabet, engine.allowed_words(length))


@settings(deadline=None, database=None)
@given(st.data())
def test_substitution_levels_in_reference_order(data):
    alphabet = data.draw(alphabets())
    # every image holds every letter, so the substitution is primitive
    rules = {a: data.draw(st.permutations(alphabet.letters)) + data.draw(words_over(alphabet, 2))
             for a in alphabet.letters}
    engine = substitution_engine(rules, order=alphabet.letters)
    for length in range(1, 8):
        assert_in_reference_order(engine.alphabet, engine.allowed_words(length))


def test_alphabet_limit_is_256_letters():
    letters = [f"l{i}" for i in range(257)]
    assert len(Alphabet(letters[:256])) == 256
    with pytest.raises(SemanticError, match="256"):
        sft_engine(letters, [])


@pytest.mark.parametrize("letters", [[], ["a", "a"], ["-", "a"], ["a.b", "c"], ["a", "b."],
                                     ["a b", "c"], [""]])
def test_bad_alphabets_are_semantic_errors(letters):
    with pytest.raises(SemanticError):
        Alphabet(letters)


def test_dot_is_a_letter_only_in_joined_alphabets():
    alphabet = Alphabet([".", "a"])
    assert alphabet.joined and alphabet.format_word(alphabet.parse_word("a.")) == "a."
