"""Alphabets, words and centered windows.

A word is ``bytes``: byte i is the index of its i-th letter in the alphabet's
reference order, so fixed-length words compare, sort and hash natively in
that order.  Letter tokens appear only at the edge: :meth:`Alphabet.encode`,
``parse_word`` and ``format_word`` convert, and nothing else does.
A word answers position-free language queries as it is.  A *window*
x[-r..r] of a point is a word of length 2r + 1 centered at 0: index r + n
holds x[n].  Cocycle tables, clopen-set members, restriction maps and point
windows all follow that one rule, so a window's length says where it sits.
A word placed elsewhere, as a cylinder's is, comes with its anchor as a
separate argument (``CloSet.cylinder(engine, anchor, word)``).
"""

from .errors import SemanticError

MAX_LETTERS = 256   # one byte per letter


class Alphabet:
    """An ordered finite set of letter tokens.

    The construction order is the reference order for every lexicographic
    sort in the package (it need not agree with string order).
    """

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise SemanticError("alphabet must be nonempty")
        if len(letters) > MAX_LETTERS:
            raise SemanticError(f"alphabet has {len(letters)} letters; words hold at most "
                                f"{MAX_LETTERS}")
        if len(set(letters)) != len(letters):
            raise SemanticError("alphabet letters must be distinct")
        # single-character alphabets print words without separators
        self.joined = all(len(a) == 1 for a in letters)
        for letter in letters:
            # "-" prints the empty word and "." separates multi-character tokens
            if (not letter or any(c.isspace() for c in letter) or not letter.isprintable()
                    or letter == "-" or ("." in letter and not self.joined)):
                raise SemanticError(f"bad letter token {letter!r}")
        self.letters = letters
        self._index = {a: i for i, a in enumerate(letters)}

    def __len__(self):
        return len(self.letters)

    def index(self, letter):
        try:
            return self._index[letter]
        except KeyError:
            raise KeyError(f"letter {letter!r} not in alphabet") from None

    def encode(self, letters):
        """The word of an iterable of letter tokens; SemanticError on an
        unknown letter."""
        try:
            return bytes(map(self._index.__getitem__, letters))
        except KeyError as err:
            raise SemanticError(f"letter {err.args[0]!r} not in alphabet") from None

    def format_word(self, word):
        if not word:
            return "-"
        return ("" if self.joined else ".").join(map(self.letters.__getitem__, word))

    def parse_word(self, text):
        """Inverse of :meth:`format_word`; raises SemanticError on unknown letters."""
        if text == "-" or text == "":
            return b""
        return self.encode(text if self.joined else text.split("."))

    def __repr__(self):
        return f"Alphabet({' '.join(self.letters)})"


def factors(word, length):
    """All length-`length` factors of a word, in occurrence order."""
    if length < 0 or length > len(word):
        return ()
    return tuple(word[i:i + length] for i in range(len(word) - length + 1))
