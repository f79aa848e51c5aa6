"""Subshift language engines.

Four kinds of engine present a one-dimensional subshift: finite type
(forbidden words), primitive substitution (factors of the fixed points),
Sturmian via a continued-fraction expansion of the slope, and the higher-block
recoding of another engine, which :func:`proper_recode` produces.

Words are ``bytes`` of letter indices (see :mod:`cantorfull.words`), so a
level sorts natively in the alphabet's reference order.  Every engine answers
``allowed_words(L)`` (the length-L factors, sorted), ``is_allowed(word)``,
``point_window(M)`` (the window x[-M..M] of a canonical point, centered as
every window in the package is: 2M + 1 bytes, index M + n holding x[n]),
``local_period(word)`` (the lcm of the least periods of the points through
the cylinder of an allowed word when all of them are periodic, else 0) and
``periodic_blocks(p)`` (the block x[0..p-1] of each point x with phi^p x = x,
sorted).  phi^q fixes each point of a cylinder iff its local period divides q.

An SFT reads periods off its transfer graph, a recoding off its source, and a
minimal engine off its language (Morse-Hedlund): it has a point of period
<= p iff level p + 1 holds at most p words, and is then one orbit of that many
points.  So ``periodic_blocks(p)`` is ``allowed_words(p)`` when that count
divides p, else (), for every p.
``periodic_windows(p, r)`` holds the blocks' radius-r windows (:func:`periodic_window`).

``aperiodic`` is one rule for every kind: minimal, with ``local_period(b"")``
0.  It is exact for each: a nonempty SFT has periodic points (a minimal one
is one cycle); substitution and Sturmian engines are minimal, and a Sturmian
slope is irrational, so its orbit is infinite with no level read; a recoding
is conjugate to its source.  A substitution reads ``local_period`` off level
2 caps.dbound + 1 on first use: two displacements an element may hold at one
point differ by at most 2 caps.dbound, so answers on elements are exact, but
``aperiodic`` certifies only that no period is that short, and so does the
infinite X that ``matui_generators`` asks for.

Positions in ``allowed_words(L)`` name words wherever a table is aligned with
a level, as element tables are.  Three computed-once maps work on positions:
``word_index(L)`` (word -> position), ``restriction(L, start, size)`` (for
each word of length L, the position of its factor w[start:start+size]) and
``local_periods(L)`` (``local_period`` of each word of length L).  Engines are
immutable after construction; the caches behave as computed-once.

The canonical point is cached the same way.  Each kind computes windows of
one point that does not depend on the radius asked for: the SFT point is the
greedy walk from the least essential vertex, the substitution point the fixed
point of sigma^power at the seed pair, the Sturmian point the mechanical word
of the convergent of the quotients within the depth cap (the only ones read),
whose windows hold its levels, each certified by its count L + 1, and the
recoded point the recoding of its source's point.  ``point_window`` keeps the
widest window so far and slices narrower ones out of its middle.  The word
store bounds every window, a Sturmian level's included, and the convergent
denominator a Sturmian point and its recodings (``max_point_radius``).  A
recoding reads L - 1 source letters past its window, without that check.

Substitution windows and levels, and Sturmian windows, are copies of words
the engine defines, built by concatenating whole blocks, not letter by
letter: the blocks sigma^m(c) of a substitution, and the standard words of a
Sturmian slope (Lothaire, *Algebraic Combinatorics on Words*, ch. 2).

The shift convention is (phi x)(n) = x(n-1) throughout the package, so the
central window of phi^n(x) is x[-n-r .. -n+r].
"""

import itertools
import math

from .caps import caps_from_env
from .errors import (BadContinuedFraction, CapExceeded, DepthCapExceeded,
                     EmptySubshift, NonPrimitiveSubstitution, NotAperiodic,
                     NotMinimal, SemanticError)
from .words import Alphabet, factors


def periodic_window(block, radius):
    """The window x[-radius..radius] of the point x with period len(block)
    and x[0..len(block)-1] = block."""
    p = len(block)
    top = -(-radius // p) * p         # a multiple of p at least radius
    return (block * (2 * top // p + 1))[top - radius:top + radius + 1]


class LanguageEngine:
    """Common interface; see subclasses for the four kinds."""

    kind = "abstract"

    def __init__(self, alphabet, minimal=False):
        self.alphabet = alphabet
        self.minimal = minimal      # True when every orbit is dense
        self._period = None         # local_period of a minimal engine
        self.caps = caps_from_env()
        self._words = {}            # length -> sorted tuple of words
        self._word_index = {}       # length -> {word: position}
        self._restrictions = {}     # (length, start, size) -> tuple of positions
        self._local_periods = {}    # length -> tuple of local periods
        self._periodic = {}         # period -> periodic_blocks(period)
        self._periodic_windows = {}  # (period, radius) -> frozenset of windows
        self._point = b""           # widest window of the canonical point so far

    # -- queries ----------------------------------------------------------

    @property
    def aperiodic(self):
        """True when no point is periodic; see the module doc."""
        return self.minimal and self.local_period(b"") == 0

    def allowed_words(self, length):
        if length < 0:
            raise ValueError("length must be >= 0")
        if length not in self._words:
            if length == 0:
                self._words[0] = (b"",)
            else:
                found = self._enumerate(length)
                self._words[length] = found if isinstance(found, tuple) else tuple(sorted(found))
        return self._words[length]

    def word_index(self, length):
        """{word: its position in allowed_words(length)}."""
        index = self._word_index.get(length)
        if index is None:
            index = {w: i for i, w in enumerate(self.allowed_words(length))}
            self._word_index[length] = index
        return index

    def restriction(self, length, start, size):
        """For each word w of allowed_words(length), the position of its factor
        w[start:start + size] in allowed_words(size)."""
        key = (length, start, size)
        positions = self._restrictions.get(key)
        if positions is None:
            if start == 0 and size == length:
                positions = tuple(range(len(self.allowed_words(length))))
            else:
                index = self.word_index(size)
                positions = tuple([index[w[start:start + size]] for w in self.allowed_words(length)])
            self._restrictions[key] = positions
        return positions

    def local_periods(self, length):
        """local_period of each word of allowed_words(length), in that order."""
        periods = self._local_periods.get(length)
        if periods is None:
            periods = tuple(map(self.local_period, self.allowed_words(length)))
            self._local_periods[length] = periods
        return periods

    def is_allowed(self, word):
        return not word or word in self.word_index(len(word))

    def point_window(self, radius):
        """The centered window x[-radius..radius] of the engine's canonical
        point: a slice of the widest window so far, which grows on demand.
        MemoryCapExceeded past the word store: the window would hold more
        than caps.word_store letters."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.caps.check_store(2 * radius + 1, f"point window of {2 * radius + 1} letters")
        return self._cached_point(radius)

    def max_point_radius(self):
        """The widest radius point_window answers without raising: the word
        store's, or less where the presentation reaches less far."""
        return min((self.caps.word_store - 1) // 2, self._point_reach())

    def _cached_point(self, radius):
        """point_window without the word-store check: a recoding reads L - 1
        letters past the window its caller asked for."""
        if len(self._point) < 2 * radius + 1:
            self._point = self._point_window(radius)
        lo = len(self._point) // 2 - radius
        return self._point[lo:lo + 2 * radius + 1]

    # -- hooks -------------------------------------------------------------

    def _point_window(self, radius):
        """x[-radius..radius] of the canonical point, which does not depend
        on `radius`."""
        raise NotImplementedError

    def _point_reach(self):
        """The widest radius _point_window computes; unbounded by default."""
        return math.inf

    def _enumerate(self, length):
        """The length-`length` factors: a tuple when already in reference
        order without repeats, else any iterable of distinct words."""
        raise NotImplementedError

    def local_period(self, word):
        """The lcm of the least periods of the points through the cylinder of
        the allowed `word` when all of them are periodic, else 0.

        phi^q and phi^q' agree on the cylinder exactly when this number
        divides q - q' (0 divides only 0).
        """
        # a minimal engine: every point has the least period of its one
        # finite orbit, read up to 2 caps.dbound on first use
        if self._period is None:
            self._period = self._orbit_size(2 * self.caps.dbound)
        return self._period

    def _orbit_size(self, period):
        """A minimal engine's number of points if at most `period`, else 0."""
        count = len(self.allowed_words(period + 1))
        return count if count <= period else 0

    def cylinder_nonperiodic_exists(self, word, period):
        """Is some point through the cylinder of `word` not |period|-periodic?
        Never for period 0: the identity fixes every point."""
        if period == 0 or not self.is_allowed(word):
            return False
        m = self.local_period(word)
        return m == 0 or period % m != 0

    def periodic_blocks(self, period):
        """The block x[0..period-1] of each point x with phi^period x = x, in
        the alphabet's reference order; distinct blocks are distinct points."""
        if period < 1:
            raise ValueError("period must be >= 1")
        blocks = self._periodic.get(period)
        if blocks is None:
            blocks = self._periodic_blocks(period)
            self._periodic[period] = blocks
        return blocks

    def _periodic_blocks(self, period):
        # a minimal engine: one orbit whose size divides `period`, or none
        size = self._orbit_size(period)
        return self.allowed_words(period) if size and period % size == 0 else ()

    def periodic_windows(self, period, radius):
        """The windows x[-radius..radius] of the points x with phi^period x = x."""
        key = (period, radius)
        windows = self._periodic_windows.get(key)
        if windows is None:
            windows = frozenset(periodic_window(b, radius) for b in self.periodic_blocks(period))
            self._periodic_windows[key] = windows
        return windows

    def cylinder_periodic_exists(self, word, period):
        """Is some |period|-periodic point inside the cylinder of `word`
        (a centered window)?"""
        return word in self.periodic_windows(abs(period), (len(word) - 1) // 2)

    def __repr__(self):
        return f"<{self.kind} engine over {self.alphabet!r}>"


# ---------------------------------------------------------------------------
# subshifts of finite type


class SFTEngine(LanguageEngine):
    """Vertex-shift presentation: the De Bruijn graph on allowed (k-1)-words.

    Internally only the *allowed* k-words are stored, so approximations of
    engines with larger alphabets never enumerate the forbidden complement.
    """

    kind = "sft"

    def __init__(self, alphabet, forbidden):
        LanguageEngine.__init__(self, alphabet)
        if any(len(w) == 0 for w in forbidden):
            raise EmptySubshift("the empty word is forbidden")
        k = max([2] + [len(w) for w in forbidden])
        self.caps.check_store(len(alphabet) ** k,
                              f"normalizing forbidden words needs {len(alphabet)}^{k} windows")
        bad = set(forbidden)
        self._init_graph(k, frozenset(
            w for w in map(bytes, itertools.product(range(len(alphabet)), repeat=k))
            if not any(f in w for f in bad)))

    @classmethod
    def from_allowed(cls, alphabet, k, allowed_k):
        self = cls.__new__(cls)
        LanguageEngine.__init__(self, alphabet)
        self._init_graph(k, frozenset(allowed_k))
        return self

    def _init_graph(self, k, allowed_k):
        self.k = k
        self.allowed_k = allowed_k
        succ, pred = {}, {}
        for w in allowed_k:
            succ.setdefault(w[:-1], set()).add(w[1:])
            pred.setdefault(w[1:], set()).add(w[:-1])
        # the essential graph: prune vertices without a live successor or
        # predecessor until none is left (what remains lies on bi-infinite paths)
        live = set(succ) | set(pred)
        stack = list(live)
        while stack:
            v = stack.pop()
            if v in live and not (any(u in live for u in succ.get(v, ()))
                                  and any(u in live for u in pred.get(v, ()))):
                live.discard(v)
                stack.extend(succ.get(v, ()))
                stack.extend(pred.get(v, ()))
        if not live:
            raise EmptySubshift("transfer graph has no cycle")
        self.essential = frozenset(live)
        # edges labelled by the one-letter word they add, in alphabet order,
        # so greedy walks are deterministic
        self._succ = {v: sorted((u[-1:], u) for u in succ[v] if u in live) for v in live}
        self._pred = {v: sorted((u[:1], u) for u in pred[v] if u in live) for v in live}
        # {vertex: cycle length} on the cycles whose vertices all have one
        # successor and one predecessor.  Only such a cycle carries a cylinder
        # of periodic points: a second successor or predecessor anywhere on
        # the cycle lets a point loop and then leave, and that point is not
        # periodic.  A walk that leaves `single` or meets an earlier walk
        # closes no cycle, so every vertex is walked once.
        single = {v for v in live if len(self._succ[v]) == len(self._pred[v]) == 1}
        self._cycles = {}
        seen = set()
        for v in single:
            path, u = [], v
            while u in single and u not in seen:
                seen.add(u)
                path.append(u)
                u = self._succ[u][0][1]
            if path and u == path[0]:
                self._cycles.update(dict.fromkeys(path, len(path)))
        # minimal exactly when the essential graph is one isolated cycle
        self.minimal = set(self._cycles.values()) == {len(self.essential)}

    def _enumerate(self, length):
        k = self.k
        if length == k - 1:
            return self.essential
        if length < k - 1:
            return {v[i:i + length] for v in self.essential for i in range(k - length)}
        shorter = self.allowed_words(length - 1)
        candidates = len(shorter) * len(self.alphabet)
        self.caps.check_store(candidates, f"{candidates} candidate words at length {length}")
        # the shorter words are sorted and each extends in letter order, so
        # the extensions come out sorted and distinct
        return tuple(w + letter for w in shorter for letter, _ in self._succ[w[-(k - 1):]])

    def is_allowed(self, word):
        if not word:
            return True
        k = self.k
        if len(word) < k - 1:
            return word in self.word_index(len(word))
        if len(word) == k - 1:
            return word in self.essential
        if any(word[i:i + k] not in self.allowed_k for i in range(len(word) - k + 1)):
            return False
        return word[:k - 1] in self.essential and word[-(k - 1):] in self.essential

    def _point_window(self, radius):
        # greedy walks, forward and backward, from the least essential vertex
        # sitting at positions 0..k-2
        seed = min(self.essential)
        right, vertex = [seed], seed
        for _ in range(radius + 1 - len(seed)):
            letter, vertex = self._succ[vertex][0]
            right.append(letter)
        left, vertex = [], seed
        for _ in range(radius):
            letter, vertex = self._pred[vertex][0]
            left.append(letter)
        return b"".join(left[::-1] + right)[:2 * radius + 1]

    def _periodic_blocks(self, period):
        # a word w with w[period:] == w[:k-1] is a closed walk of `period`
        # edges, and every k-window of the periodic extension of w[:period]
        # lies in w; the words come sorted, and so do their distinct prefixes
        n = self.k - 1
        return tuple(w[:period] for w in self.allowed_words(period + n) if w[period:] == w[:n])

    def is_irreducible(self):
        start = next(iter(self.essential))
        return all(len(_reachable(edges, start)) == len(self.essential)
                   for edges in (self._succ, self._pred))

    def local_periods(self, length):
        # without an isolated cycle no cylinder holds only periodic points
        if not self._cycles:
            return (0,) * len(self.allowed_words(length))
        return super().local_periods(length)

    def local_period(self, word):
        # a cylinder of periodic points holds one point, on an isolated cycle
        # through each of its (k-1)-windows; a shorter word is the union of
        # the cylinders of the vertices it starts
        n = self.k - 1
        if len(word) >= n:
            return self._cycles.get(word[len(word) - n:], 0)
        periods = [self._cycles.get(v, 0) for v in self.essential if v[:len(word)] == word]
        return 0 if 0 in periods else math.lcm(*periods)


# ---------------------------------------------------------------------------
# primitive substitutions


class SubstitutionEngine(LanguageEngine):
    """Factors of the fixed points of a primitive substitution.

    Levels, points and ``apply_power`` are built by the block-power step:
    sigma^(m+1)(c) is the concatenation of sigma^m(d) for d in sigma(c).  With
    (P, (p, q)) the seed pair, the canonical point has x[-r..-1] the last r
    letters of sigma^(kP)(p) and x[0..r] the first r + 1 of sigma^(kP)(q), for
    every k that makes them that long."""

    kind = "substitution"

    def __init__(self, alphabet, rules):
        """`rules` holds the image of each letter, in alphabet order."""
        super().__init__(alphabet, minimal=True)
        self.rules = tuple(rules)
        for a, image in zip(alphabet.letters, self.rules):
            if not image:
                raise NonPrimitiveSubstitution(f"empty image for {a!r}")
        if not self._primitive():
            raise NonPrimitiveSubstitution("no power of the substitution matrix is positive")
        if max(map(len, self.rules)) < 2:
            raise NonPrimitiveSubstitution("substitution does not expand (all images are single letters)")
        self._pairs = self._allowed_pairs()

    def _primitive(self):
        n = len(self.alphabet)
        reach = [frozenset(image) for image in self.rules]
        step = reach
        for _ in range((n - 1) ** 2 + 1):
            if all(len(s) == n for s in step):
                return True
            step = [frozenset(c for b in s for c in reach[b]) for s in step]
        return all(len(s) == n for s in step)

    def apply(self, word):
        return b"".join(map(self.rules.__getitem__, word))

    def apply_power(self, word, power):
        blocks = next(itertools.islice(self._block_powers(), power, None))
        return b"".join(map(blocks.__getitem__, word))

    def _block_powers(self):
        """The tables [sigma^m(c) for each letter c], m = 0, 1, 2, ..., each
        built from the last by the block-power step."""
        blocks = [bytes((c,)) for c in range(len(self.alphabet))]
        while True:
            yield blocks
            blocks = [b"".join(map(blocks.__getitem__, image)) for image in self.rules]

    def _enumerate(self, length):
        """All length-`length` factors, read off sigma^m(a) sigma^m(b).

        Two-block lemma (Queffelec, *Substitution Dynamical Systems - Spectral
        Analysis*, LNM 1294, section 5; Pytheas Fogg, *Substitutions in
        Dynamics, Arithmetics and Combinatorics*, LNM 1794, ch. 1): every
        point is a shift of sigma^m(y) for a point y of the subshift, so every
        factor lies in sigma^m(w) for an allowed word w.  Take the least m
        with every block sigma^m(c) at least length-1 long.  A factor of that
        length cannot cover a whole block plus a letter on each side, so it
        lies in sigma^m(a) sigma^m(b) for an allowed 2-word ab.  Lengths 1
        and 2 take m = 0 and read the letters and 2-words off `self._pairs`.
        """
        blocks = next(b for b in self._block_powers() if min(map(len, b)) >= length - 1)
        return {f for a, b in self._pairs for f in factors(blocks[a] + blocks[b], length)}

    def _allowed_pairs(self):
        """The allowed 2-words: the 2-factors of each sigma(c), closed under
        adding the 2-factors of sigma(ab) for each ab already found."""
        pairs = set()
        pending = list(self.rules)
        while pending:
            for pair in factors(pending.pop(), 2):
                if pair not in pairs:
                    pairs.add(pair)
                    pending.append(self.apply(pair))
        return pairs

    def _seed_pair(self):
        """(power, (p, q)): the least power at which sigma^power(p) ends with p
        and sigma^power(q) starts with q for an allowed 2-word pq, the first
        such pq in alphabet order.

        ab -> last(sigma(a)) first(sigma(b)) maps allowed 2-words to allowed
        2-words, so it has a cycle of length at most len(self._pairs), and
        every pair on that cycle is a seed at that power.
        """
        letters = range(len(self.alphabet))
        first = list(letters)
        last = list(letters)
        for power in range(1, len(self._pairs) + 1):
            first = [self.rules[c][0] for c in first]
            last = [self.rules[c][-1] for c in last]
            for p in letters:
                for q in letters:
                    if last[p] == p and first[q] == q and bytes((p, q)) in self._pairs:
                        return power, (p, q)
        raise AssertionError("the pair map has a cycle no longer than its domain")

    def _point_window(self, radius):
        # each side is read at the least k long enough, and no table past
        # the larger of the two is built
        power, (p, q) = self._seed_pair()
        left = right = None
        for blocks in itertools.islice(self._block_powers(), 0, None, power):
            if left is None and len(blocks[p]) >= radius:
                left = blocks[p][len(blocks[p]) - radius:]
            if right is None and len(blocks[q]) > radius:
                right = blocks[q][:radius + 1]
            if left is not None and right is not None:
                return left + right


# ---------------------------------------------------------------------------
# Sturmian languages from continued fractions


class SturmianEngine(LanguageEngine):
    """Factors of the mechanical word of slope [0; a1, a2, ...], read off its
    point, of the convergent p/q of the quotients within the depth cap: level
    L is the factors of the window of radius min(N, q - 2), N = (2 + max a) L,
    which caps.word_store bounds.  Below q the recurrence function is
    R(L) < (max a + 3) L (Morse-Hedlund), so that window holds the level; the
    count L + 1 certifies it, and N > q raises DepthCapExceeded.

    The point x(n) = floor((n+1) p/q) - floor(n p/q) is read off the standard
    words s_{-1} = 1, s_0 = 0, s_n = s_{n-1}^(d_n) s_{n-2}, d_1 = a1 - 1 and
    d_n = a_n past it (Lothaire, *Algebraic Combinatorics on Words*, ch. 2):
    the lower Christoffel word of p/q is 0 w 1, with w the central palindrome,
    a prefix of s_k, so x[-r..r] = reverse(s_k[:r-1]) 1 0 s_k[:r] for r <= q - 2."""

    kind = "sturmian"

    def __init__(self, alphabet, quotients, depth_cap):
        if len(alphabet) != 2:
            raise BadContinuedFraction("a Sturmian engine needs a two-letter alphabet")
        quotients = tuple(quotients)
        if not quotients or any(not isinstance(a, int) or a < 1 for a in quotients):
            raise BadContinuedFraction("partial quotients must be a nonempty list of integers >= 1")
        if depth_cap < 1:
            raise BadContinuedFraction("depth cap must be >= 1")
        super().__init__(alphabet, minimal=True)
        self.quotients = quotients[:depth_cap]
        p, q = 0, 1                 # [0; a1, ..., ak], folded from the last quotient
        for a in reversed(self.quotients):
            p, q = q, a * q + p
        self.convergent = (p, q)

    def _enumerate(self, length):
        need, q = (2 + max(self.quotients)) * length, self.convergent[1]
        if need > q:
            raise DepthCapExceeded(f"level {length} needs a period of length >= {need} "
                                   "within depth cap")
        size = 2 * min(need, q - 2) + 1
        self.caps.check_store(size, f"level {length} reads a point window of {size} letters")
        found = set(factors(self._cached_point(size // 2), length))
        if len(found) != length + 1:
            raise DepthCapExceeded(f"cannot certify the length-{length} language at this depth")
        return found

    def _orbit_size(self, period):
        # the slope is irrational: the orbit is infinite, with no level read
        return 0

    def _point_reach(self):
        return self.convergent[1] - 2

    def _point_window(self, radius):
        q = self.convergent[1]
        if radius + 2 > q:
            raise DepthCapExceeded(f"window {radius} needs a convergent denominator > {radius + 1}")
        # x[0] = 0, x[-1] = 1, x[1..radius] = s[:radius], x[-n] = x[n - 1] for n >= 2
        s = self._standard_prefix(radius)
        return (b"\1" + s)[:radius][::-1] + (b"\0" + s)[:radius + 1]

    def _standard_prefix(self, size):
        """A prefix of s_k of at least `size` <= q - 2 letters.  Each s_n, n >= 1,
        is a prefix of the next, and so is s_{n-1}^j for j <= d_n: once d_n
        copies of s_{n-1} would reach `size` letters, the fewest that do stand
        for s_k."""
        prev, s = b"\1", b"\0"
        for n, a in enumerate(self.quotients):
            d = a - (n == 0)
            if d * len(s) >= size:
                return s * -(-size // len(s))
            prev, s = s, s * d + prev
        return s


# ---------------------------------------------------------------------------
# higher-block recodings


class RecodedEngine(LanguageEngine):
    """Conjugate presentation over the alphabet of allowed L-blocks: letter i
    is block i of ``source.allowed_words(L)``, named by the block as printed
    with "_" in place of ".", since a multi-character token holds no ".".
    When a source token holds "_", every token first has "~" written "~~" and
    "_" written "~_", so a bare "_" stands only for "." and names stay distinct."""

    kind = "recoded"

    def __init__(self, source, block_length):
        self.decode = source.allowed_words(block_length)
        tokens = source.alphabet.letters
        if any("_" in a for a in tokens):
            tokens = [a.replace("~", "~~").replace("_", "~_") for a in tokens]
        sep = "" if source.alphabet.joined else "."
        names = (sep.join(map(tokens.__getitem__, w)).replace(".", "_") for w in self.decode)
        super().__init__(Alphabet(names), minimal=source.minimal)
        self.caps = source.caps
        self.source = source
        self.block_length = block_length

    def encode_word(self, source_word):
        L = self.block_length
        index = self.source.word_index(L)
        return bytes([index[source_word[i:i + L]] for i in range(len(source_word) - L + 1)])

    def decode_word(self, word):
        """Source span of a recoded word; None if the blocks do not chain."""
        if not word:
            return b""
        L, blocks = self.block_length, self.decode
        span = blocks[word[0]] + bytes([blocks[c][-1] for c in word[1:]])
        return span if all(span[i:i + L] == blocks[c] for i, c in enumerate(word)) else None

    def _enumerate(self, length):
        return {self.encode_word(w)
                for w in self.source.allowed_words(length + self.block_length - 1)}

    def is_allowed(self, word):
        span = self.decode_word(word)
        return span is not None and self.source.is_allowed(span)

    # recoding is a conjugacy: periods are the source's
    def local_period(self, word):
        return self.source.local_period(self.decode_word(word))

    def _periodic_blocks(self, period):
        L = self.block_length
        return tuple(sorted(self.encode_word((b * L)[:period + L - 1])
                            for b in self.source.periodic_blocks(period)))

    def _point_reach(self):
        return self.source._point_reach() - (self.block_length - 1)

    def _point_window(self, radius):
        # the block at n is x[n..n+L-1]; x[-radius] sits at index L - 1
        L = self.block_length
        src = self.source._cached_point(radius + L - 1)
        return self.encode_word(src[L - 1:2 * radius + 2 * L - 1])


# ---------------------------------------------------------------------------
# module-level operations


def _encode(alphabet, word):
    """A caller's word, given as text or as letter tokens."""
    return alphabet.parse_word(word) if isinstance(word, str) else alphabet.encode(word)


def sft_engine(letters, forbidden):
    alphabet = Alphabet(letters)
    return SFTEngine(alphabet, [_encode(alphabet, w) for w in forbidden])


def substitution_engine(rules, order=None):
    alphabet = Alphabet(order if order is not None else rules)
    return SubstitutionEngine(alphabet, [_encode(alphabet, rules[a]) for a in alphabet.letters])


def sturmian_engine(quotients, depth_cap, letters=("a", "b")):
    return SturmianEngine(Alphabet(letters), quotients, depth_cap)


def build_engine(description):
    """Build an engine from a parsed description dict (see the file format); a
    Sturmian engine's depth cap defaults to the length of its expansion."""
    kind = description.get("kind")
    letters = description.get("alphabet")
    if not letters:
        raise SemanticError("missing alphabet")
    if kind == "sft":
        return sft_engine(letters, description.get("forbidden", ()))
    if kind == "substitution":
        rules = description.get("rules")
        if not rules or set(rules) != set(letters):
            raise SemanticError("substitution needs one rule per letter")
        return substitution_engine(rules, order=letters)
    if kind == "sturmian":
        cf = description.get("cf", ())
        return sturmian_engine(cf, description.get("depth", len(cf)), letters=letters)
    raise SemanticError(f"unknown engine kind {kind!r}")


def recurrence_bound(engine, word, cap=None):
    """Least R with every allowed (R-1)-word containing `word`; consecutive
    occurrences of `word` in any point are then at most R - |word| apart.  The
    default `cap` comes from the word and the alphabet, not from the caps."""
    if not engine.minimal:
        raise NotMinimal("recurrence bounds require a certified-minimal engine")
    if not engine.is_allowed(word):
        raise SemanticError(f"word {engine.alphabet.format_word(word)!r} is not allowed")
    if cap is None:
        cap = 10 * max(1, len(word)) * len(engine.alphabet) ** 2
    for bound in range(len(word) + 1, cap + 1):
        if all(word in u for u in engine.allowed_words(bound - 1)):
            return bound
    raise CapExceeded("no recurrence bound found", cap=cap)


def max_gap(engine, word):
    """The longest gap between consecutive occurrences of `word`, R - |word|
    for R its recurrence bound.  Exact: on a minimal engine, an allowed
    (R-2)-word without `word` lies strictly between two such occurrences."""
    return recurrence_bound(engine, word) - len(word)


def is_proper(engine, d):
    """No allowed word repeats a letter at distance <= d."""
    return all(len(set(w)) == len(w) for w in engine.allowed_words(d + 1))


def proper_recode(engine, d):
    """Conjugate d-proper engine via higher-block recoding: a RecodedEngine
    whose ``block_length`` L is the least such that no allowed (L+d)-word has
    a period <= d, and whose ``decode`` holds each letter's source block.
    The output is checked exhaustively on its (d+1)-words."""
    if not engine.aperiodic:
        raise NotAperiodic("proper recoding requires a certified-aperiodic engine")
    if d < 1:
        raise ValueError("d must be >= 1")
    caps = engine.caps
    block = None
    for length in range(1, caps.radius_search + 1):
        if not any(w[p:] == w[:-p]
                   for p in range(1, d + 1)
                   for w in engine.allowed_words(length + p)):
            block = length
            break
    if block is None:
        raise CapExceeded("no d-proper block length found", cap=caps.radius_search)
    recoded = RecodedEngine(engine, block)
    if not is_proper(recoded, d):
        raise AssertionError(f"recoded engine is not {d}-proper")
    return recoded


def sft_approximation(engine, n):
    """The SFT forbidding exactly the non-factors of length n."""
    if n < 1:
        raise ValueError("approximation order must be >= 1")
    if n == 1:
        letters = engine.allowed_words(1)
        approx = SFTEngine.from_allowed(engine.alphabet, 2, {a + b for a in letters for b in letters})
    else:
        approx = SFTEngine.from_allowed(engine.alphabet, n, engine.allowed_words(n))
    approx.caps = engine.caps
    return approx


def _reachable(edges, start):
    """Vertices reachable from `start` along (letter, vertex) adjacency lists."""
    seen = {start}
    stack = [start]
    while stack:
        for _, u in edges[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen
