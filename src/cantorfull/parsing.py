"""Parsers for the subshift definition file and the expression languages.

Element grammar (compose binds left, the left factor applies last):

    program := ('let' NAME '=' expr ';')* expr
    expr    := term ('*' term)*
    term    := 'id' | 'phi' ('^' INT)? | 'sigma' '(' clo ')' | 'ret' '(' clo ')'
             | 'inv' '(' expr ')' | 'comm' '(' expr ',' expr ')'
             | NAME | '(' expr ')'

Clopen-set grammar ('|' binds loosest, then '&', then '!'):

    clo     := conj ('|' conj)*
    conj    := atom ('&' atom)*
    atom    := '!' atom | 'cyl' '(' INT ',' STRING ')' | 'all' | 'empty'
             | 'phi' '^' INT '(' clo ')' | 'img' '(' expr ',' clo ')'
             | '(' clo ')'

The parser is the one place that knows the grammar: each production compiles
to a function of a `Session`.  The whole text is parsed before anything is
evaluated, so a syntax error is always a ParseError, whatever the
expression would do on the session's engine.  The compiled function
evaluates left to right, in text order, except that ``img(e, c)`` evaluates
the set c before the element e; that order fixes the order of the session's
warnings and which error is raised first.  `let` bindings are stored in the
session, so later programs on it see them.

The pattern `_TOKEN` defines the lexical syntax.  Whitespace separates
tokens; a STRING is any text between double quotes, newlines included; an
INT is ASCII digits after an optional '-' (`caps.INTEGER`, the syntax of
every integer the package reads from text); a word of letters, digits and
'_' that starts with a letter or '_' is a keyword or a NAME; any other
character must be a symbol.

Errors carry line/column and the expected-token set.
"""

import re
from typing import NamedTuple

from .caps import INTEGER, parse_int
from .closets import CloSet
from .constructions import first_return, sigma_U
from .elements import compose, commutator, element_image, identity, inverse, shift
from .errors import ParseError, SemanticError
from .language import build_engine


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = {"*": "star", "(": "lparen", ")": "rparen", ",": "comma", ";": "semi",
            "=": "equals", "!": "bang", "&": "amp", "|": "pipe", "^": "caret"}
_KEYWORDS = {"id", "phi", "sigma", "ret", "inv", "comm", "let", "all", "empty", "img"}
# The lexical syntax: at each position the first alternative that matches.
# Every position matches one, and the empty match at the end is the eof token.
_TOKEN = re.compile(rf'\s+|"(?P<string>[^"]*)"|(?P<int>{INTEGER})|(?P<word>\w+)'
                    r"|(?P<eof>\Z)|(?P<char>.)")


def tokenize(text):
    tokens = []
    line, line_start, last = 1, 0, 0    # line `line` starts at text[line_start]; last: previous token
    for match in _TOKEN.finditer(text):
        kind, start = match.lastgroup, match.start()
        if kind is None:                # whitespace
            continue
        newlines = text.count("\n", last, start)
        if newlines:
            line, line_start = line + newlines, text.rindex("\n", last, start) + 1
        last, col, value = start, start - line_start + 1, match[kind]
        if kind == "word" and (value[0].isalpha() or value[0] == "_"):
            kind = value if value in _KEYWORDS else "name"
        elif kind in ("word", "char"):  # a symbol, as no symbol is a word character
            kind = _SYMBOLS.get(value)
            if kind is None:
                raise ParseError("unterminated string" if value == '"' else
                                 f"unexpected character {value[0]!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    return tokens


def _apply(op, *operands):
    """The function of the session that evaluates the operands left to right
    and applies `op` to their values."""
    return lambda s: op(*[f(s) for f in operands])


class _Parser:
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
        if self.peek().kind not in kinds:
            raise self.unexpected(self.peek(), kinds)
        return self.next()

    def number(self):
        return int(self.expect("int").text)

    def parens(self, production):
        self.expect("lparen")
        inner = production()
        self.expect("rparen")
        return inner

    def pair(self, first, second):
        self.expect("lparen")
        a = first()
        self.expect("comma")
        b = second()
        self.expect("rparen")
        return a, b

    def chain(self, operand, kind, op):
        """operand (kind operand)*, applying `op` from the left."""
        f = operand()
        while self.peek().kind == kind:
            self.next()
            f = _apply(op, f, operand())
        return f

    def unexpected(self, tok, expected):
        return ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col,
                          expected=expected)

    # -- element expressions ---------------------------------------------

    def program(self):
        lets = []
        while self.peek().kind == "let":
            self.next()
            name = self.expect("name").text
            self.expect("equals")
            lets.append((name, self.expr()))
            self.expect("semi")
        body = self.expr()
        self.expect("eof")

        def run(s):
            for name, f in lets:
                s.bindings[name] = f(s)
            return body(s)
        return run

    def expr(self):
        return self.chain(self.term, "star", compose)

    def term(self):
        tok = self.next()
        kind = tok.kind
        if kind == "id":
            return lambda s: identity(s.engine)
        if kind == "phi":
            k = 1
            if self.peek().kind == "caret":
                self.next()
                k = self.number()
            return lambda s: shift(s.engine, k)
        if kind == "sigma":
            return _apply(sigma_U, self.parens(self.clo))
        if kind == "ret":
            return _apply(first_return, self.parens(self.clo))
        if kind == "inv":
            return _apply(inverse, self.parens(self.expr))
        if kind == "comm":
            return _apply(commutator, *self.pair(self.expr, self.expr))
        if kind == "name":
            return lambda s: s._lookup(tok.text)
        if kind == "lparen":
            inner = self.expr()
            self.expect("rparen")
            return inner
        raise self.unexpected(tok, ("id", "phi", "sigma", "ret", "inv", "comm", "name", "("))

    # -- clopen expressions ------------------------------------------------

    def clo(self):
        return self.chain(self.clo_conj, "pipe", CloSet.union)

    def clo_conj(self):
        return self.chain(self.clo_atom, "amp", CloSet.intersect)

    def clo_atom(self):
        tok = self.next()
        kind = tok.kind
        if kind == "bang":
            return _apply(CloSet.complement, self.clo_atom())
        if kind == "all":
            return lambda s: CloSet.full(s.engine)
        if kind == "empty":
            return lambda s: CloSet.empty(s.engine)
        if kind == "name" and tok.text == "cyl":
            anchor, text = self.pair(self.number, lambda: self.expect("string").text)
            return lambda s: s._cylinder(anchor, text)
        if kind == "phi":
            self.expect("caret")
            k = self.number()
            inner = self.parens(self.clo)
            return lambda s: inner(s).shift_image(k)
        if kind == "img":
            elem, inner = self.pair(self.expr, self.clo)
            # the set is evaluated before the element
            return lambda s: element_image(inner(s), elem(s))
        if kind == "lparen":
            inner = self.clo()
            self.expect("rparen")
            return inner
        raise self.unexpected(tok, ("cyl", "all", "empty", "!", "phi", "img", "("))


def parse_element_text(text):
    """The program in `text`, compiled to a function of a Session."""
    return _Parser(text).program()


def parse_closet_text(text):
    """The clopen-set expression in `text`, compiled to a function of a Session."""
    parser = _Parser(text)
    f = parser.clo()
    parser.expect("eof")
    return f


class Session:
    """Evaluates expression texts over one engine; collects warnings and keeps
    `let` bindings from one program to the next."""

    def __init__(self, engine):
        self.engine = engine
        self.warnings = []
        self.bindings = {}

    def eval_program(self, text):
        return parse_element_text(text)(self)

    def eval_closet_text(self, text):
        return parse_closet_text(text)(self)

    def _lookup(self, name):
        if name not in self.bindings:
            raise SemanticError(f"unbound name {name!r}")
        return self.bindings[name]

    def _cylinder(self, anchor, text):
        letters = self.engine.alphabet.parse_word(text)
        out = CloSet.cylinder(self.engine, anchor, letters)
        if out.is_empty() and letters:
            self.warnings.append(f'cyl({anchor},"{text}") is empty: word not allowed')
        return out


# ---------------------------------------------------------------------------
# subshift definition files


def parse_subshift(text):
    """Parse the line-based subshift format into a description dict.  Each
    key but `forbidden`, which adds words, comes at most once, and `rule` at
    most once per letter."""
    description = {"forbidden": [], "rules": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno, 1)
        key = key.strip()
        value = value.strip()
        if key in ("alphabet", "kind", "cf", "depth") and key in description:
            raise ParseError(f"repeated key {key!r}", lineno, 1)
        if key == "alphabet":
            description["alphabet"] = tuple(value.split())
        elif key == "kind":
            description["kind"] = value
        elif key == "forbidden":
            description["forbidden"].extend(value.split())
        elif key == "rule":
            letter, arrow, image = (part.strip() for part in value.partition("->"))
            if not arrow:
                raise ParseError("rule wants 'letter -> word'", lineno, 1)
            if letter in description["rules"]:
                raise ParseError(f"second rule for {letter!r}", lineno, 1)
            description["rules"][letter] = image
        elif key == "cf":
            try:
                description["cf"] = tuple(parse_int(v) for v in value.split())
            except ValueError:
                raise ParseError("cf wants integers", lineno, 1) from None
        elif key == "depth":
            try:
                description["depth"] = parse_int(value)
            except ValueError:
                raise ParseError("depth wants an integer", lineno, 1) from None
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
    if "kind" not in description:
        raise ParseError("missing 'kind:' line", 1, 1)
    return description


def load_engine(path):
    with open(path, "r", encoding="utf-8") as handle:
        description = parse_subshift(handle.read())
    return build_engine(description)
