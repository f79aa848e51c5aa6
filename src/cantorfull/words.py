"""Alphabets and anchored words.

A word is ``bytes``: byte i is the index of its i-th letter in the alphabet's
reference order, so fixed-length words compare, sort and hash natively in
that order.  Letter tokens appear only at the edge: :meth:`Alphabet.encode`,
``parse_word`` and ``format_word`` convert, and nothing else does.
*Unanchored* words answer position-free language queries, while the
:class:`Word` type carries an explicit anchor in Z (cocycle tables, cylinder
definitions and point windows are position-aware).  Keeping the anchor in the
type is deliberate; it removes a whole class of off-by-one mistakes.
"""

from typing import NamedTuple

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


class Word(NamedTuple):
    """A finite word anchored in Z: letters[i] sits at position anchor + i.

    ``len`` and ``word[p]`` read letters by position, not the tuple's two
    fields; the field names read the fields directly."""

    letters: bytes
    anchor: int = 0

    def __len__(self):
        return len(self.letters)

    @property
    def start(self):
        return self.anchor

    @property
    def end(self):
        """One past the last occupied position."""
        return self.anchor + len(self.letters)

    def __getitem__(self, position):
        """Letter index at absolute position (not sequence index)."""
        i = position - self.anchor
        if not 0 <= i < len(self.letters):
            raise IndexError(f"position {position} outside [{self.start}, {self.end})")
        return self.letters[i]

    def segment(self, lo, hi):
        """Letters at absolute positions lo..hi inclusive."""
        if lo < self.anchor or hi >= self.end:
            raise IndexError(f"segment [{lo}, {hi}] outside [{self.start}, {self.end})")
        return self.letters[lo - self.anchor: hi - self.anchor + 1]


def factors(word, length):
    """All length-`length` factors of an unanchored word, in occurrence order."""
    if length < 0 or length > len(word):
        return ()
    return tuple(word[i:i + length] for i in range(len(word) - length + 1))
