"""Clopen subsets of a subshift, as sets of allowed windows at a fixed radius.

A CloSet with radius r and member set M of allowed (2r+1)-words (``bytes``,
see :mod:`cantorfull.words`) denotes the union of cylinders
{x : x[-r..r] in M}.  Re-expressing at a larger radius never changes the
point set, so all boolean operations work at a common radius.  The reduced
(minimal-radius) form is canonical and backs equality and hashing.

``mask(R, c)`` is the one place that knows where the window of phi^c(U) sits
inside a radius-R window: it starts at index R + c - r.  Re-expression, shift
images and every construction that reads a set window by window build on it,
as lists of bools aligned with ``allowed_words(2R + 1)``.

A *family* is a sequence of pairs (S, c) standing for the sets phi^c(S).
``least_meet`` and ``is_partition`` are the one place that relates several
sets window by window: they read the family as masks at its common radius
R = max(r + |c|) and decide "pairwise disjoint" and "partition" there.
"""

from itertools import combinations, compress
from operator import add, and_

from .errors import EngineMismatch


class CloSet:
    __slots__ = ("engine", "radius", "members", "_reduced")

    def __init__(self, engine, radius, members):
        self.engine = engine
        self.radius = radius
        self.members = frozenset(members)
        self._reduced = None

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, engine):
        return cls(engine, 0, frozenset())

    @classmethod
    def full(cls, engine):
        return cls(engine, 0, frozenset(engine.allowed_words(1)))

    @classmethod
    def cylinder(cls, engine, anchor, word):
        """The set of points x with x[anchor + i] = word[i] for every i.  An
        unallowed word gives the empty set."""
        if not word:
            return cls.full(engine)
        radius = max(abs(anchor), abs(anchor + len(word) - 1))
        lo = radius + anchor
        members = [w for w in engine.allowed_words(2 * radius + 1)
                   if w[lo:lo + len(word)] == word]
        return cls(engine, radius, members)

    # -- representation -----------------------------------------------------

    def mask(self, radius, shift=0):
        """For each word of allowed_words(2 radius + 1), in that order: do the
        points it names lie in phi^shift of this set?  x is in phi^c(U) iff
        x[c-r .. c+r] is a member, which sits at radius + c - r in the word.
        The engine's cached restriction map names that factor, so each word
        costs one list read instead of a slice and a hash."""
        r = self.radius
        if abs(shift) > radius - r:
            raise ValueError("the window of the shifted set must lie inside the radius")
        size, members = 2 * r + 1, self.members
        flags = [w in members for w in self.engine.allowed_words(size)]
        return list(map(flags.__getitem__,
                        self.engine.restriction(2 * radius + 1, radius + shift - r, size)))

    def at_radius(self, radius):
        if radius < self.radius:
            raise ValueError("cannot shrink a CloSet's radius directly; use reduced()")
        if radius == self.radius:
            return self
        words = self.engine.allowed_words(2 * radius + 1)
        return CloSet(self.engine, radius, compress(words, self.mask(radius)))

    def reduced(self):
        """Canonical minimal-radius form: the least t at which membership is a
        function of the radius-t cores of this set's own windows, found by
        halving from t = r - 1.  A function of the t-core is one of every larger
        core, and every allowed (2t+1)-word is the core of an allowed window, so
        the members at t are the t-cores of the member windows; no other level
        is built."""
        if self._reduced is not None:
            return self._reduced
        r, members = self.radius, self.members
        outside = [u for u in self.engine.allowed_words(2 * r + 1) if u not in members]

        def cores(t):
            """The t-cores of the members, or None when a window outside has one."""
            inside = {u[r - t:r + t + 1] for u in members}
            return inside if inside.isdisjoint(u[r - t:r + t + 1] for u in outside) else None

        # the least t lies in [lo, hi]; cores(hi) is `found` once hi < r
        lo, hi, t, found = 0, r, r - 1, None
        while lo < hi:
            inside = cores(t)
            if inside is None:
                lo = t + 1
            else:
                hi, found = t, inside
            t = (lo + hi) // 2
        reduced = self if found is None else CloSet(self.engine, hi, found)
        self._reduced = reduced
        reduced._reduced = reduced
        return reduced

    def key(self):
        reduced = self.reduced()
        return (reduced.radius, tuple(sorted(reduced.members)))

    def __eq__(self, other):
        if not isinstance(other, CloSet):
            return NotImplemented
        if self.engine is not other.engine:
            raise EngineMismatch("CloSets live on different engines")
        r = max(self.radius, other.radius)
        return self.at_radius(r).members == other.at_radius(r).members

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        reduced = self.reduced()
        shown = sorted(self.engine.alphabet.format_word(w) for w in reduced.members)
        if len(shown) > 6:
            shown = shown[:6] + ["..."]
        return f"CloSet(r={reduced.radius}, {{{', '.join(shown)}}})"

    # -- boolean algebra ----------------------------------------------------

    def _common(self, other):
        if self.engine is not other.engine:
            raise EngineMismatch("CloSets live on different engines")
        r = max(self.radius, other.radius)
        return self.at_radius(r), other.at_radius(r), r

    def union(self, other):
        a, b, r = self._common(other)
        return CloSet(self.engine, r, a.members | b.members)

    def intersect(self, other):
        a, b, r = self._common(other)
        return CloSet(self.engine, r, a.members & b.members)

    def minus(self, other):
        a, b, r = self._common(other)
        return CloSet(self.engine, r, a.members - b.members)

    def complement(self):
        words = set(self.engine.allowed_words(2 * self.radius + 1))
        return CloSet(self.engine, self.radius, words - self.members)

    def symmetric_difference(self, other):
        a, b, r = self._common(other)
        return CloSet(self.engine, r, a.members ^ b.members)

    def is_empty(self):
        return not self.members

    def is_disjoint(self, other):
        return self.intersect(other).is_empty()

    def is_subset(self, other):
        a, b, _ = self._common(other)
        return a.members <= b.members

    # -- dynamics -----------------------------------------------------------

    def shift_image(self, k):
        """phi^k of this set: x is in the image iff x[k-r .. k+r] is a member."""
        if k == 0:
            return self
        big = self.radius + abs(k)
        words = self.engine.allowed_words(2 * big + 1)
        return CloSet(self.engine, big, compress(words, self.mask(big, k)))


# -- families -----------------------------------------------------------------


def _family_words(family):
    """The family's common radius R = max(r + |c|) and allowed_words(2R + 1)."""
    engine = family[0][0].engine
    if any(s.engine is not engine for s, _ in family):
        raise EngineMismatch("CloSets live on different engines")
    radius = max(s.radius + abs(c) for s, c in family)
    return radius, engine.allowed_words(2 * radius + 1)


def least_meet(family, allowed=()):
    """The least pair i < j, other than the pairs in `allowed`, whose members
    meet, with the least window of their meet at the family's radius, as
    (i, j, window); None when no other pair meets."""
    if len(family) < 2:
        return None
    radius, words = _family_words(family)
    masks = [s.mask(radius, c) for s, c in family]
    for i, j in combinations(range(len(masks)), 2):
        if (i, j) not in allowed:
            window = next(compress(words, map(and_, masks[i], masks[j])), None)
            if window is not None:
                return i, j, window
    return None


def is_partition(family):
    """Does every window at the family's radius lie in exactly one member?"""
    radius, words = _family_words(family)
    # column sums, one member at a time
    counts = [0] * len(words)
    for s, c in family:
        counts = list(map(add, counts, s.mask(radius, c)))
    return counts.count(1) == len(counts)
