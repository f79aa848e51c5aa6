"""Alphabets and anchored words.

Words come in two flavours throughout the package: *unanchored* words are
plain tuples of letters (language queries are position-free), while the
:class:`Word` type carries an explicit anchor in Z (cocycle tables, cylinder
definitions and point windows are position-aware).  Keeping the anchor in the
type is deliberate; it removes a whole class of off-by-one mistakes.
"""

from dataclasses import dataclass


class Alphabet:
    """An ordered finite set of letter tokens.

    The construction order is the reference order for every lexicographic
    sort in the package (it need not agree with string order).
    """

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        for letter in letters:
            if not letter or any(c.isspace() for c in letter) or not letter.isprintable():
                raise ValueError(f"bad letter token {letter!r}")
        self.letters = letters
        self._index = {a: i for i, a in enumerate(letters)}
        # single-character alphabets print words without separators
        self.joined = all(len(a) == 1 for a in letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter):
        return letter in self._index

    def index(self, letter):
        try:
            return self._index[letter]
        except KeyError:
            raise KeyError(f"letter {letter!r} not in alphabet") from None

    def sort_key(self, word):
        return tuple(map(self._index.__getitem__, word))

    def format_word(self, word):
        if not word:
            return "-"
        return ("" if self.joined else ".").join(word)

    def parse_word(self, text):
        """Inverse of :meth:`format_word`; raises KeyError on unknown letters."""
        if text == "-" or text == "":
            return ()
        parts = tuple(text) if self.joined else tuple(text.split("."))
        for letter in parts:
            if letter not in self._index:
                raise KeyError(f"letter {letter!r} not in alphabet")
        return parts

    def __repr__(self):
        return f"Alphabet({' '.join(self.letters)})"


@dataclass(frozen=True)
class Word:
    """A finite word anchored in Z: letters[i] sits at position anchor + i."""

    letters: tuple
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
        """Letter at absolute position (not sequence index)."""
        i = position - self.anchor
        if not 0 <= i < len(self.letters):
            raise IndexError(f"position {position} outside [{self.start}, {self.end})")
        return self.letters[i]

    def segment(self, lo, hi):
        """Letters at absolute positions lo..hi inclusive."""
        if lo < self.anchor or hi >= self.end:
            raise IndexError(f"segment [{lo}, {hi}] outside [{self.start}, {self.end})")
        return self.letters[lo - self.anchor: hi - self.anchor + 1]

    def shifted(self, k):
        """The same letters as seen by phi^k: position n of the image holds
        the letter previously at n - k."""
        return Word(self.letters, self.anchor + k)


def factors(word, length):
    """All length-`length` factors of an unanchored word, in occurrence order."""
    word = tuple(word)
    if length < 0 or length > len(word):
        return ()
    return tuple(word[i:i + length] for i in range(len(word) - length + 1))


def has_period(word, p):
    """True iff word[i] == word[i+p] for all defined i (p >= 1)."""
    word = tuple(word)
    return all(word[i] == word[i + p] for i in range(len(word) - p))
