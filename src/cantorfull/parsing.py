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

Errors carry line/column and the expected-token set.
"""

from dataclasses import dataclass

from .closets import CloSet
from .constructions import first_return, sigma_U
from .elements import compose, commutator, element_image, identity, inverse, shift
from .errors import ParseError, SemanticError
from .language import build_engine
from .words import Word


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = {"*": "star", "(": "lparen", ")": "rparen", ",": "comma", ";": "semi",
            "=": "equals", "!": "bang", "&": "amp", "|": "pipe", "^": "caret"}
_KEYWORDS = {"id", "phi", "sigma", "ret", "inv", "comm", "let", "all", "empty", "img"}


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "name"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


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
        tok = self.peek()
        if tok.kind not in kinds:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.line, tok.col, expected=kinds)
        return self.next()

    # -- element expressions ---------------------------------------------

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

    # -- clopen expressions ------------------------------------------------

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


def parse_element_text(text):
    return _Parser(text).program()


def parse_closet_text(text):
    parser = _Parser(text)
    tree = parser.clo()
    parser.expect("eof")
    return tree


# ---------------------------------------------------------------------------
# printing expression trees back to text (canonical element dumps are read
# back by elements.parse_dump, not by these parsers)


def print_element(tree):
    kind = tree[0]
    if kind == "id":
        return "id"
    if kind == "phi":
        return "phi" if tree[1] == 1 else f"phi^{tree[1]}"
    if kind == "sigma":
        return f"sigma({print_closet(tree[1])})"
    if kind == "ret":
        return f"ret({print_closet(tree[1])})"
    if kind == "inv":
        return f"inv({print_element(tree[1])})"
    if kind == "comm":
        return f"comm({print_element(tree[1])},{print_element(tree[2])})"
    if kind == "binding":
        return tree[1]
    if kind == "compose":
        left = print_element(tree[1])
        right = print_element(tree[2])
        if tree[2][0] == "compose":
            right = f"({right})"
        return f"{left}*{right}"
    raise ValueError(f"unknown node {kind}")


def print_closet(tree):
    kind = tree[0]
    if kind == "all":
        return "all"
    if kind == "empty":
        return "empty"
    if kind == "cyl":
        return f'cyl({tree[1]},"{tree[2]}")'
    if kind == "shift":
        return f"phi^{tree[1]}({print_closet(tree[2])})"
    if kind == "img":
        return f"img({print_element(tree[1])},{print_closet(tree[2])})"
    if kind == "not":
        inner = print_closet(tree[1])
        if tree[1][0] in ("and", "or"):
            inner = f"({inner})"
        return f"!{inner}"
    if kind == "and":
        parts = []
        for side in tree[1:]:
            text = print_closet(side)
            if side[0] == "or":
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    if kind == "or":
        return " | ".join(print_closet(side) for side in tree[1:])
    raise ValueError(f"unknown node {kind}")


# ---------------------------------------------------------------------------
# evaluation against a session engine


class Session:
    """Evaluates parsed expressions over one engine; collects warnings."""

    def __init__(self, engine):
        self.engine = engine
        self.warnings = []
        self.bindings = {}

    def eval_program(self, text):
        bindings, tree = parse_element_text(text)
        for name, sub in bindings:
            self.bindings[name] = self.eval_element(sub)
        return self.eval_element(tree)

    def eval_closet_text(self, text):
        return self.eval_closet(parse_closet_text(text))

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
            out = CloSet.cylinder(self.engine, Word(letters, tree[1]))
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


# ---------------------------------------------------------------------------
# subshift definition files


def parse_subshift(text):
    """Parse the line-based subshift format into a description dict."""
    description = {"forbidden": [], "rules": {}}
    kind = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno, 1)
        key = key.strip()
        value = value.strip()
        if key == "alphabet":
            description["alphabet"] = tuple(value.split())
        elif key == "kind":
            kind = value
            description["kind"] = value
        elif key == "forbidden":
            description["forbidden"].extend(value.split())
        elif key == "rule":
            src, arrow, image = value.partition("->")
            if not arrow:
                raise ParseError("rule wants 'letter -> word'", lineno, 1)
            description["rules"][src.strip()] = image.strip()
        elif key == "cf":
            try:
                description["cf"] = tuple(int(v) for v in value.split())
            except ValueError:
                raise ParseError("cf wants integers", lineno, 1) from None
        elif key == "depth":
            try:
                description["depth"] = int(value)
            except ValueError:
                raise ParseError("depth wants an integer", lineno, 1) from None
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
    if kind is None:
        raise ParseError("missing 'kind:' line", 1, 1)
    return description


def load_engine(path):
    with open(path, "r", encoding="utf-8") as handle:
        description = parse_subshift(handle.read())
    return build_engine(description)
