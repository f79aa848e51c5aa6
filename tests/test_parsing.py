"""The expression parser against a copy of the earlier tree parser and tree
evaluator, kept here as the reference: same value, same warnings in order,
same error, over generated programs on three engines."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorfull import parsing
from cantorfull.caps import parse_caps
from cantorfull.closets import CloSet
from cantorfull.constructions import first_return, sigma_U
from cantorfull.elements import (canonical_dump, commutator, compose, element_image, equal,
                                 identity, inverse, shift)
from cantorfull.errors import ParseError, SemanticError
from cantorfull.language import sft_engine, substitution_engine
from cantorfull.parsing import Session, parse_closet_text, parse_element_text, tokenize
from test_cli_robustness import _closets, _expressions, _mostly


# -- the reference: a tuple tree per production, walked by a second chain ------


class OracleParser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, *kinds):
        tok = self.peek()
        if tok.kind not in kinds:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.line, tok.col, expected=kinds)
        return self.next()

    def program(self):
        bindings = []
        while self.peek().kind == "let":
            self.next()
            name = self.expect("name").text
            self.expect("equals")
            bindings.append((name, self.expr()))
            self.expect("semi")
        tree = self.expr()
        self.expect("eof")
        return bindings, tree

    def expr(self):
        node = self.term()
        while self.peek().kind == "star":
            self.next()
            node = ("compose", node, self.term())
        return node

    def term(self):
        tok = self.peek()
        if tok.kind == "id":
            self.next()
            return ("id",)
        if tok.kind == "phi":
            self.next()
            k = 1
            if self.peek().kind == "caret":
                self.next()
                k = int(self.expect("int").text)
            return ("phi", k)
        if tok.kind == "sigma":
            self.next()
            self.expect("lparen")
            clo = self.clo()
            self.expect("rparen")
            return ("sigma", clo)
        if tok.kind == "ret":
            self.next()
            self.expect("lparen")
            clo = self.clo()
            self.expect("rparen")
            return ("ret", clo)
        if tok.kind == "inv":
            self.next()
            self.expect("lparen")
            inner = self.expr()
            self.expect("rparen")
            return ("inv", inner)
        if tok.kind == "comm":
            self.next()
            self.expect("lparen")
            a = self.expr()
            self.expect("comma")
            b = self.expr()
            self.expect("rparen")
            return ("comm", a, b)
        if tok.kind == "name":
            self.next()
            return ("binding", tok.text)
        if tok.kind == "lparen":
            self.next()
            inner = self.expr()
            self.expect("rparen")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col,
                         expected=("id", "phi", "sigma", "ret", "inv", "comm", "name", "("))

    def clo(self):
        node = self.clo_conj()
        while self.peek().kind == "pipe":
            self.next()
            node = ("or", node, self.clo_conj())
        return node

    def clo_conj(self):
        node = self.clo_atom()
        while self.peek().kind == "amp":
            self.next()
            node = ("and", node, self.clo_atom())
        return node

    def clo_atom(self):
        tok = self.peek()
        if tok.kind == "bang":
            self.next()
            return ("not", self.clo_atom())
        if tok.kind == "all":
            self.next()
            return ("all",)
        if tok.kind == "empty":
            self.next()
            return ("empty",)
        if tok.kind == "name" and tok.text == "cyl":
            self.next()
            self.expect("lparen")
            anchor = int(self.expect("int").text)
            self.expect("comma")
            word = self.expect("string").text
            self.expect("rparen")
            return ("cyl", anchor, word)
        if tok.kind == "phi":
            self.next()
            self.expect("caret")
            k = int(self.expect("int").text)
            self.expect("lparen")
            inner = self.clo()
            self.expect("rparen")
            return ("shift", k, inner)
        if tok.kind == "img":
            self.next()
            self.expect("lparen")
            elem = self.expr()
            self.expect("comma")
            inner = self.clo()
            self.expect("rparen")
            return ("img", elem, inner)
        if tok.kind == "lparen":
            self.next()
            inner = self.clo()
            self.expect("rparen")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col,
                         expected=("cyl", "all", "empty", "!", "phi", "img", "("))


class OracleSession:
    def __init__(self, engine):
        self.engine = engine
        self.warnings = []
        self.bindings = {}

    def eval_program(self, text):
        bindings, tree = OracleParser(text).program()
        for name, sub in bindings:
            self.bindings[name] = self.eval_element(sub)
        return self.eval_element(tree)

    def eval_closet_text(self, text):
        parser = OracleParser(text)
        tree = parser.clo()
        parser.expect("eof")
        return self.eval_closet(tree)

    def eval_element(self, tree):
        kind = tree[0]
        if kind == "id":
            return identity(self.engine)
        if kind == "phi":
            return shift(self.engine, tree[1])
        if kind == "sigma":
            return sigma_U(self.eval_closet(tree[1]))
        if kind == "ret":
            return first_return(self.eval_closet(tree[1]))
        if kind == "inv":
            return inverse(self.eval_element(tree[1]))
        if kind == "comm":
            return commutator(self.eval_element(tree[1]), self.eval_element(tree[2]))
        if kind == "compose":
            return compose(self.eval_element(tree[1]), self.eval_element(tree[2]))
        if kind == "binding":
            if tree[1] not in self.bindings:
                raise SemanticError(f"unbound name {tree[1]!r}")
            return self.bindings[tree[1]]
        raise SemanticError(f"unknown element node {kind}")

    def eval_closet(self, tree):
        kind = tree[0]
        if kind == "all":
            return CloSet.full(self.engine)
        if kind == "empty":
            return CloSet.empty(self.engine)
        if kind == "cyl":
            letters = self.engine.alphabet.parse_word(tree[2])
            out = CloSet.cylinder(self.engine, tree[1], letters)
            if out.is_empty() and letters:
                self.warnings.append(
                    f'cyl({tree[1]},"{tree[2]}") is empty: word not allowed')
            return out
        if kind == "shift":
            return self.eval_closet(tree[2]).shift_image(tree[1])
        if kind == "img":
            return element_image(self.eval_closet(tree[2]), self.eval_element(tree[1]))
        if kind == "not":
            return self.eval_closet(tree[1]).complement()
        if kind == "and":
            return self.eval_closet(tree[1]).intersect(self.eval_closet(tree[2]))
        if kind == "or":
            return self.eval_closet(tree[1]).union(self.eval_closet(tree[2]))
        raise SemanticError(f"unknown clopen node {kind}")


# -- generated programs ---------------------------------------------------------

# small caps, so every search in a generated program stops early
CAPS = parse_caps("word_store=2000,dbound=6,order=16")


def _capped(engine):
    engine.caps = CAPS
    return engine


ENGINES = {
    "fibonacci": _capped(substitution_engine({"a": "ab", "b": "a"})),
    "golden_mean": _capped(sft_engine("ab", ["bb"])),
    "y": _capped(sft_engine("ab", ["ba"])),
}

_valid = _expressions()
# `u` is bound only after a let, and a let persists into the next program
programs = st.lists(_mostly(st.one_of(_valid, st.builds("let u = {}; {}".format, _valid, _valid)),
                           "phi^", "(", "phi*", "", "let u = phi;", 'sigma(cyl(0,"a"))*'),
                   min_size=1, max_size=3)
closet_texts = st.lists(_mostly(_closets(_valid), "cyl(0,", 'cyl(a,"b")', ")", "!", ""),
                        min_size=1, max_size=3)


def outcome(evaluate, text):
    """A comparable record of one evaluation: its value or its error."""
    try:
        value = evaluate(text)
    except Exception as err:
        return type(err), str(err)
    return value.key() if isinstance(value, CloSet) else canonical_dump(value)


def run_both(engine, method, texts):
    new, old = Session(engine), OracleSession(engine)
    got = [outcome(getattr(new, method), t) for t in texts]
    want = [outcome(getattr(old, method), t) for t in texts]
    assert got == want
    assert new.warnings == old.warnings


@settings(deadline=None, database=None, max_examples=150)
@given(st.sampled_from(sorted(ENGINES)), programs)
def test_programs_against_tree_oracle(name, texts):
    run_both(ENGINES[name], "eval_program", texts)


@settings(deadline=None, database=None, max_examples=150)
@given(st.sampled_from(sorted(ENGINES)), closet_texts)
def test_closets_against_tree_oracle(name, texts):
    run_both(ENGINES[name], "eval_closet_text", texts)


def test_img_evaluates_the_set_first(fibonacci):
    session = Session(fibonacci)
    session.eval_closet_text('img(comm(sigma(cyl(0,"bb")),phi), cyl(0,"aaa"))')
    assert session.warnings == ['cyl(0,"aaa") is empty: word not allowed',
                                'cyl(0,"bb") is empty: word not allowed']
    with pytest.raises(SemanticError, match="'z' not in alphabet"):
        Session(fibonacci).eval_closet_text('img(u, cyl(0,"z"))')


# -- precedence and grouping ----------------------------------------------------


def test_precedence_by_value(fibonacci):
    session = Session(fibonacci)
    clo = session.eval_closet_text
    assert clo('!cyl(0,"a") & cyl(1,"a")') == clo('(!cyl(0,"a")) & cyl(1,"a")')
    assert clo('!cyl(0,"a") & cyl(1,"a")') != clo('!(cyl(0,"a") & cyl(1,"a"))')
    assert clo('cyl(0,"a") | cyl(0,"b") & cyl(1,"b")') == clo('cyl(0,"a") | (cyl(0,"b") & cyl(1,"b"))')
    assert clo('cyl(0,"a") | cyl(0,"b") & cyl(1,"b")') != clo('(cyl(0,"a") | cyl(0,"b")) & cyl(1,"b")')
    # the left factor applies last
    U = 'sigma(cyl(-1,"aab"))'
    assert equal(session.eval_program(f"{U}*phi"), compose(session.eval_program(U), shift(fibonacci)))
    assert not equal(session.eval_program(f"{U}*phi"), session.eval_program(f"phi*{U}"))
    assert equal(session.eval_program("(phi*phi^2)*inv(phi)"), shift(fibonacci, 2))


def test_operators_group_from_the_left(fibonacci, monkeypatch):
    """`*`, `&` and `|` group from the left and `!` binds tightest.  Value
    alone cannot show this, since all three operations are associative, so
    the operations record the shape they are applied in."""
    monkeypatch.setattr(CloSet, "intersect", lambda a, b: ("&", a, b))
    monkeypatch.setattr(CloSet, "union", lambda a, b: ("|", a, b))
    monkeypatch.setattr(CloSet, "complement", lambda a: ("!", a))
    monkeypatch.setattr(Session, "_cylinder", lambda self, anchor, text: text)
    monkeypatch.setattr(parsing, "compose", lambda f, g: ("*", f, g))
    monkeypatch.setattr(parsing, "shift", lambda engine, k: k)
    session = Session(fibonacci)
    assert session.eval_closet_text('cyl(0,"a") & cyl(0,"b") & cyl(0,"c")') == \
        ("&", ("&", "a", "b"), "c")
    assert session.eval_closet_text('cyl(0,"a") | cyl(0,"b") | cyl(0,"c")') == \
        ("|", ("|", "a", "b"), "c")
    assert session.eval_closet_text('!cyl(0,"a") & cyl(0,"b") | cyl(0,"c") & !cyl(0,"d")') == \
        ("|", ("&", ("!", "a"), "b"), ("&", "c", ("!", "d")))
    assert session.eval_program("phi^1*phi^2*phi^3") == ("*", ("*", 1, 2), 3)


# -- syntax first ----------------------------------------------------------------


def test_syntax_errors_come_before_evaluation(fibonacci):
    # sigma(cyl(0,"a")) alone is not good on Fibonacci ("aa" is allowed)
    session = Session(fibonacci)
    with pytest.raises(ParseError):
        session.eval_program('sigma(cyl(0,"a"))*')
    with pytest.raises(ParseError):
        session.eval_program('let u = sigma(cyl(0,"bb")); u*')
    with pytest.raises(ParseError):
        session.eval_closet_text('cyl(0,"bb") | cyl(0,')
    assert session.warnings == [] and session.bindings == {}


def test_parsed_text_compiles_to_a_function_of_the_session(fibonacci, golden_mean):
    program = parse_element_text("let v = phi^2; inv(v)")
    closet = parse_closet_text('cyl(0,"bb")')
    for engine in (fibonacci, golden_mean):
        session = Session(engine)
        assert equal(program(session), shift(engine, -2))
        assert equal(session.bindings["v"], shift(engine, 2))
        assert closet(session).is_empty() == (len(session.warnings) == 1)


# -- the tokenizer against the character loop it replaced -----------------------

_SYMBOLS, _KEYWORDS = parsing._SYMBOLS, parsing._KEYWORDS
_DIGITS = frozenset("0123456789")


def oracle_tokenize(text):
    tokens = []
    line, line_start = 1, 0
    i = 0
    while i < len(text):
        ch, col = text[i], i - line_start + 1
        if ch.isspace():
            if ch == "\n":
                line, line_start = line + 1, i + 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(parsing.Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            tokens.append(parsing.Token("string", text[i + 1:j], line, col))
            newlines = text.count("\n", i, j)
            if newlines:
                line, line_start = line + newlines, text.rindex("\n", i, j) + 1
            i = j + 1
            continue
        if ch in _DIGITS or (ch == "-" and text[i + 1:i + 2] in _DIGITS):
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(parsing.Token("int", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(parsing.Token(word if word in _KEYWORDS else "name", word, line, col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(parsing.Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as err:
        return str(err)


# the grammar's own characters, its keywords, and characters next to them
# that str methods and int() treat specially
_PIECES = st.one_of(st.sampled_from(list('*(),;=!&|^"-_ \t\n\r\x0b\x1c\x85 ') +
                                    sorted(_KEYWORDS) + ["cyl", "0", "12", "x1", "é"]),
                    st.sampled_from(["²", "٣", "Ⅷ", "ǅ", " ", "　", "a_b", "+", "."]))


@settings(deadline=None, database=None, max_examples=500)
@given(st.one_of(st.text(), st.lists(_PIECES, max_size=12).map("".join)))
def test_tokenize_against_the_character_loop(text):
    assert tokens_or_error(tokenize, text) == tokens_or_error(oracle_tokenize, text)
