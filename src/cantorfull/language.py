"""Subshift language engines.

Three presentations of a one-dimensional subshift are supported: finite type
(forbidden words), primitive substitution (factors of the fixed points), and
Sturmian via a continued-fraction expansion of the slope.  A fourth internal
kind, the higher-block recoding of another engine, is produced by
:func:`proper_recode`.

Every engine answers the same queries: ``allowed_words(L)`` (the length-L
factors, sorted in the alphabet's reference order), ``is_allowed(word)``,
and ``point_window(M)`` (the window x[-M..M] of a canonical point).  Engines
are immutable after construction; the caches behave as computed-once.

The shift convention is (phi x)(n) = x(n-1) throughout the package, so the
central window of phi^n(x) is x[-n-r .. -n+r].
"""

import itertools
from dataclasses import dataclass

from .caps import caps_from_env
from .errors import (BadContinuedFraction, CapExceeded, DepthCapExceeded,
                     EmptySubshift, MemoryCapExceeded, NonPrimitiveSubstitution,
                     NotAperiodic, NotImplementedSeed, NotMinimal, SemanticError)
from .words import Alphabet, Word, factors, has_period


def contains_factor(word, factor):
    n, m = len(word), len(factor)
    if m == 0:
        return True
    return any(word[i:i + m] == factor for i in range(n - m + 1))


class LanguageEngine:
    """Common interface; see subclasses for the three presentations."""

    kind = "abstract"

    def __init__(self, alphabet, minimal=None, aperiodic=None):
        self.alphabet = alphabet
        self.minimal = minimal      # tri-state: True / False / None (unknown)
        self.aperiodic = aperiodic
        self.caps = caps_from_env()
        self._words = {}            # length -> sorted tuple of words
        self._word_sets = {}        # length -> frozenset, for membership tests

    # -- queries ----------------------------------------------------------

    def allowed_words(self, length):
        if length < 0:
            raise ValueError("length must be >= 0")
        if length not in self._words:
            if length == 0:
                self._words[0] = ((),)
            else:
                found = self._enumerate(length)
                self._words[length] = tuple(sorted(found, key=self.alphabet.sort_key))
        return self._words[length]

    def is_allowed(self, word):
        if isinstance(word, Word):
            word = word.letters
        word = tuple(word)
        for letter in word:
            if letter not in self.alphabet:
                raise SemanticError(f"letter {letter!r} not in alphabet")
        return self._is_allowed(word)

    def point_window(self, radius):
        """The window x[-radius..radius] of the engine's canonical point."""
        raise NotImplementedError

    # -- hooks -------------------------------------------------------------

    def _enumerate(self, length):
        raise NotImplementedError

    def word_set(self, length):
        if length not in self._word_sets:
            self._word_sets[length] = frozenset(self.allowed_words(length))
        return self._word_sets[length]

    def _is_allowed(self, word):
        return not word or word in self.word_set(len(word))

    def cylinder_nonperiodic_exists(self, word, period):
        """Is some point through the cylinder of `word` not |period|-periodic?

        Exact for every engine kind; the workhorse behind identity decisions
        on engines with periodic points.
        """
        raise NotImplementedError

    def cylinder_periodic_exists(self, word, period):
        """Is some |period|-periodic point inside the cylinder of `word`
        (anchored at minus its radius)?"""
        if self.aperiodic is True:
            return False
        raise NotImplementedError

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
        forbidden = [tuple(w) for w in forbidden]
        if any(len(w) == 0 for w in forbidden):
            raise EmptySubshift("the empty word is forbidden")
        k = max([2] + [len(w) for w in forbidden])
        if len(alphabet) ** k > self.caps.word_store:
            raise MemoryCapExceeded(f"normalizing forbidden words needs {len(alphabet)}^{k} windows")
        bad = set(forbidden)
        self._init_graph(k, frozenset(
            w for w in itertools.product(alphabet.letters, repeat=k)
            if not any(contains_factor(w, f) for f in bad)))

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
        # edges labelled by the letter they add, in alphabet order, so greedy
        # walks are deterministic
        index = self.alphabet.index
        self._succ = {v: sorted(((u[-1], u) for u in succ[v] if u in live),
                                key=lambda e: index(e[0]))
                      for v in live}
        self._pred = {v: sorted(((u[0], u) for u in pred[v] if u in live),
                                key=lambda e: index(e[0]))
                      for v in live}
        self._short = {}          # length < k-1 -> allowed words
        self._defect = {}         # window size -> (overlap graph, defect edge map)
        self._periodic = {}       # period -> blocks
        self.minimal = self._single_cycle()
        self.aperiodic = False    # a nonempty SFT always has periodic points

    def _single_cycle(self):
        return all(len(self._succ[v]) == len(self._pred[v]) == 1 for v in self.essential)

    def _enumerate(self, length):
        k = self.k
        if length == k - 1:
            return self.essential
        if length < k - 1:
            if length not in self._short:
                self._short[length] = {v[i:i + length]
                                       for v in self.essential
                                       for i in range(k - 1 - length + 1)}
            return self._short[length]
        shorter = self.allowed_words(length - 1)
        if len(shorter) * len(self.alphabet) > self.caps.word_store:
            raise MemoryCapExceeded(f"more than {self.caps.word_store} words at length {length}")
        out = set()
        for w in shorter:
            for letter, _ in self._succ[w[-(k - 1):]]:
                out.add(w + (letter,))
        return out

    def _is_allowed(self, word):
        if not word:
            return True
        k = self.k
        if len(word) < k - 1:
            return word in self._enumerate(len(word))
        if len(word) == k - 1:
            return word in self.essential
        if any(word[i:i + k] not in self.allowed_k for i in range(len(word) - k + 1)):
            return False
        return word[:k - 1] in self.essential and word[-(k - 1):] in self.essential

    def point_window(self, radius):
        k = self.k
        seed = min(self.essential, key=self.alphabet.sort_key)
        letters = list(seed)
        start = 0
        while start + len(letters) - 1 < radius + k:
            letters.append(self._succ[tuple(letters[-(k - 1):])][0][0])
        while start > -radius:
            letters.insert(0, self._pred[tuple(letters[:k - 1])][0][0])
            start -= 1
        lo = -radius - start
        return Word(tuple(letters[lo:lo + 2 * radius + 1]), -radius)

    def periodic_blocks(self, period):
        """All points x with phi^period x = x, one length-`period` block each.

        The block is the orbit segment x[0..period-1]; distinct blocks are
        distinct points.  Blocks are enumerated as closed length-`period`
        walks in the transfer graph.
        """
        if period < 1:
            raise ValueError("period must be >= 1")
        if period in self._periodic:
            return self._periodic[period]
        blocks = set()
        for v0 in self.essential:
            # distance to v0 (those below `period`), for pruning walks that
            # cannot close in time; a closed walk stays in v0's component
            back = {v0: 0}
            frontier = [v0]
            for distance in range(1, period):
                frontier = {u: distance for v in frontier for _, u in self._pred[v]
                            if u not in back}
                back.update(frontier)
            stack = [(v0, ())]
            while stack:
                v, path = stack.pop()
                if len(path) == period:
                    if v == v0:
                        blocks.add(path)
                    continue
                remaining = period - len(path)
                for _, u in self._succ[v]:
                    if back.get(u, period + 1) <= remaining - 1:
                        stack.append((u, path + (v[0],)))
        out = tuple(sorted(blocks, key=self.alphabet.sort_key))
        self._periodic[period] = out
        return out

    def is_irreducible(self):
        start = next(iter(self.essential))
        return all(len(_reachable(edges, start)) == len(self.essential)
                   for edges in (self._succ, self._pred))

    def cylinder_periodic_exists(self, word, period):
        q = abs(period)
        r = (len(word) - 1) // 2
        for block in self.periodic_blocks(q):
            window = tuple(block[i % q] for i in range(-r, r + 1))
            if window == word:
                return True
        return False

    # -- identity automaton -------------------------------------------------

    def _defect_graph(self, size):
        """Overlap graph on allowed `size`-words with q-apart-mismatch edges marked."""
        if size not in self._defect:
            words = self.allowed_words(size)
            succ = {}
            index = {}
            for w in words:
                index.setdefault(w[:-1], []).append(w)
            for w in words:
                succ[w] = [u for u in index.get(w[1:], ())]
            self._defect[size] = succ
        return self._defect[size]

    def cylinder_nonperiodic_exists(self, word, period):
        q = abs(period)
        if q == 0:
            raise ValueError("period must be nonzero")
        if not self._is_allowed(word):
            return False
        size = max(q, self.k)
        if len(word) < size + 1:
            pad = size + 1 - len(word)
            left = pad // 2
            extended = [u for u in self.allowed_words(size + 1)
                        if u[left:left + len(word)] == word]
            return any(self.cylinder_nonperiodic_exists(u, period) for u in extended)
        succ = self._defect_graph(size)

        def is_defect(u, v):
            return v[-1] != u[size - q]

        path = [word[i:i + size] for i in range(len(word) - size + 1)]
        for u, v in zip(path, path[1:]):
            if is_defect(u, v):
                return True
        seen = {path[-1]}
        frontier = [path[-1]]
        while frontier:
            u = frontier.pop()
            for v in succ[u]:
                if is_defect(u, v):
                    return True
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        pred = {}
        for u, vs in succ.items():
            for v in vs:
                pred.setdefault(v, []).append(u)
        seen = {path[0]}
        frontier = [path[0]]
        while frontier:
            v = frontier.pop()
            for u in pred.get(v, ()):
                if is_defect(u, v):
                    return True
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return False


# ---------------------------------------------------------------------------
# primitive substitutions


class SubstitutionEngine(LanguageEngine):
    """Factors of the fixed points of a primitive substitution."""

    kind = "substitution"

    def __init__(self, alphabet, rules):
        super().__init__(alphabet, minimal=True)
        self.rules = {a: tuple(rules[a]) for a in alphabet.letters}
        for a, image in self.rules.items():
            if not image:
                raise NonPrimitiveSubstitution(f"empty image for {a!r}")
            for b in image:
                if b not in alphabet:
                    raise SemanticError(f"rule for {a!r} uses unknown letter {b!r}")
        if not self._primitive():
            raise NonPrimitiveSubstitution("no power of the substitution matrix is positive")
        if max(len(im) for im in self.rules.values()) < 2:
            raise NonPrimitiveSubstitution("substitution does not expand (all images are single letters)")
        self._pairs = self._allowed_pairs()
        self._scan_periodicity()

    def _primitive(self):
        letters = self.alphabet.letters
        reach = {a: frozenset(self.rules[a]) for a in letters}
        bound = (len(letters) - 1) ** 2 + 1
        step = reach
        for _ in range(bound):
            if all(len(step[a]) == len(letters) for a in letters):
                return True
            step = {a: frozenset(c for b in step[a] for c in reach[b]) for a in letters}
        return all(len(step[a]) == len(letters) for a in letters)

    def apply(self, word):
        return tuple(c for a in word for c in self.rules[a])

    def apply_power(self, word, power):
        for _ in range(power):
            word = self.apply(word)
        return word

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
        blocks = {c: (c,) for c in self.alphabet.letters}
        while min(len(w) for w in blocks.values()) < length - 1:
            blocks = {c: self.apply(w) for c, w in blocks.items()}
        return {f for a, b in self._pairs for f in factors(blocks[a] + blocks[b], length)}

    def _allowed_pairs(self):
        """The allowed 2-words: the 2-factors of each sigma(c), closed under
        adding the 2-factors of sigma(ab) for each ab already found."""
        pairs = set()
        pending = [self.rules[c] for c in self.alphabet.letters]
        while pending:
            for pair in factors(pending.pop(), 2):
                if pair not in pairs:
                    pairs.add(pair)
                    pending.append(self.apply(pair))
        return pairs

    def _scan_periodicity(self):
        maxrule = max(len(im) for im in self.rules.values())
        self._finite = None
        for p in range(1, self.caps.period_scan + 1):
            probe = 3 * p + 3 * maxrule + 12
            if any(has_period(w, p) for w in self.allowed_words(probe)):
                # a p-periodic point exists; minimal => the subshift is one
                # finite orbit, recoverable from any long enough word
                n = len(self.allowed_words(probe))
                long_word = self.allowed_words(3 * n)[0]
                blocks = sorted({tuple(long_word[i % n] for i in range(j, j + n))
                                 for j in range(n)}, key=self.alphabet.sort_key)
                self._finite = (n, tuple(blocks))
                self.aperiodic = False
                return
        self.aperiodic = True

    def finite_points(self):
        """(period, blocks) when the subshift is a single finite orbit, else None."""
        return self._finite

    def cylinder_nonperiodic_exists(self, word, period):
        q = abs(period)
        if not self._is_allowed(word):
            return False
        if self.aperiodic:
            return True
        n, blocks = self._finite
        r = (len(word) - 1) // 2
        for b in blocks:
            window = tuple(b[i % n] for i in range(-r, r + 1))
            if window == word and any(b[j] != b[(j + q) % n] for j in range(n)):
                return True
        return False

    def cylinder_periodic_exists(self, word, period):
        if self.aperiodic:
            return False
        q = abs(period)
        n, blocks = self._finite
        r = (len(word) - 1) // 2
        for b in blocks:
            window = tuple(b[i % n] for i in range(-r, r + 1))
            if window == word and all(b[j] == b[(j + q) % n] for j in range(n)):
                return True
        return False

    def _seed_pair(self):
        for power in range(1, self.caps.seed_power + 1):
            images = {a: self.apply_power((a,), power) for a in self.alphabet.letters}
            rights = [a for a in self.alphabet.letters if images[a][0] == a]
            lefts = [a for a in self.alphabet.letters if images[a][-1] == a]
            pairs = [(p, q) for p in lefts for q in rights if self._is_allowed((p, q))]
            if pairs:
                pairs.sort(key=lambda pq: (self.alphabet.index(pq[0]), self.alphabet.index(pq[1])))
                return power, pairs[0]
        raise NotImplementedSeed(f"no fixed-point seed pair up to power {self.caps.seed_power}")

    def point_window(self, radius):
        power, (p, q) = self._seed_pair()
        right = (q,)
        while len(right) < radius + 1:
            right = self.apply_power(right, power)
        left = (p,)
        while len(left) < radius:
            left = self.apply_power(left, power)
        letters = tuple(left[len(left) - radius:]) + right[:radius + 1]
        return Word(letters, -radius)


# ---------------------------------------------------------------------------
# Sturmian languages from continued fractions


class SturmianEngine(LanguageEngine):
    """Factors of the mechanical word of slope [0; a1, a2, ...].

    All queries are certified by finite standard words s_{k+1} = s_k^{a_{k+1}} s_{k-1};
    the complexity count L+1 is checked on every enumeration, and anything the
    truncated expansion cannot certify raises DepthCapExceeded.
    """

    kind = "sturmian"

    def __init__(self, alphabet, quotients, depth_cap):
        if len(alphabet) != 2:
            raise BadContinuedFraction("a Sturmian engine needs a two-letter alphabet")
        quotients = tuple(quotients)
        if not quotients or any(not isinstance(a, int) or a < 1 for a in quotients):
            raise BadContinuedFraction("partial quotients must be a nonempty list of integers >= 1")
        if depth_cap < 1:
            raise BadContinuedFraction("depth cap must be >= 1")
        super().__init__(alphabet, minimal=True, aperiodic=True)
        self.quotients = quotients
        self.depth_cap = depth_cap
        depth = min(len(quotients), depth_cap)
        zero, one = alphabet.letters
        s = [(zero,), (zero,) * (quotients[0] - 1) + (one,)]
        p, q = [0, 1], [1, quotients[0]]
        for k in range(1, depth):
            s.append(s[-1] * quotients[k] + s[-2])
            p.append(quotients[k] * p[-1] + p[-2])
            q.append(quotients[k] * q[-1] + q[-2])
        self._standard = s
        self.convergent = (p[-1], q[-1])

    def _enumerate(self, length):
        need = (2 + max(self.quotients)) * length
        word = next((s for s in self._standard if len(s) >= need), None)
        if word is None:
            raise DepthCapExceeded(f"no standard word of length >= {need} within depth cap")
        found = set(factors(word, length))
        if len(found) != length + 1:
            raise DepthCapExceeded(f"cannot certify the length-{length} language at this depth")
        return found

    def point_window(self, radius):
        p, q = self.convergent
        if radius + 2 > q:
            raise DepthCapExceeded(f"window {radius} needs a convergent denominator > {radius + 1}")
        bit = lambda n: (n + 1) * p // q - n * p // q
        letters = tuple(self.alphabet.letters[bit(n)] for n in range(-radius, radius + 1))
        return Word(letters, -radius)

    def cylinder_nonperiodic_exists(self, word, period):
        return self._is_allowed(word)


# ---------------------------------------------------------------------------
# higher-block recodings


class RecodedEngine(LanguageEngine):
    """Conjugate presentation over the alphabet of allowed L-blocks."""

    kind = "recoded"

    def __init__(self, source, block_length):
        blocks = source.allowed_words(block_length)
        names = tuple(source.alphabet.format_word(b) for b in blocks)
        super().__init__(Alphabet(names), minimal=source.minimal, aperiodic=source.aperiodic)
        self.caps = source.caps
        self.source = source
        self.block_length = block_length
        self.decode = dict(zip(names, blocks))
        self._encode = dict(zip(blocks, names))

    def encode_word(self, source_word):
        L = self.block_length
        return tuple(self._encode[source_word[i:i + L]]
                     for i in range(len(source_word) - L + 1))

    def decode_word(self, word):
        """Source span of a recoded word; None if the blocks do not chain."""
        L = self.block_length
        if not word:
            return ()
        span = list(self.decode[word[0]])
        for name in word[1:]:
            block = self.decode[name]
            if L > 1 and tuple(span[-(L - 1):]) != block[:-1]:
                return None
            span.append(block[-1])
        return tuple(span)

    def _enumerate(self, length):
        return {self.encode_word(w)
                for w in self.source.allowed_words(length + self.block_length - 1)}

    def _is_allowed(self, word):
        span = self.decode_word(word)
        return span is not None and self.source.is_allowed(span)

    def point_window(self, radius):
        src = self.source.point_window(radius + self.block_length - 1)
        L = self.block_length
        letters = tuple(self._encode[src.segment(n, n + L - 1)]
                        for n in range(-radius, radius + 1))
        return Word(letters, -radius)

    def cylinder_nonperiodic_exists(self, word, period):
        return self._is_allowed(word)


# ---------------------------------------------------------------------------
# module-level operations


def sft_engine(letters, forbidden):
    alphabet = Alphabet(letters)
    return SFTEngine(alphabet, [alphabet.parse_word(w) if isinstance(w, str) else tuple(w)
                                for w in forbidden])


def substitution_engine(rules, order=None):
    order = tuple(order) if order is not None else tuple(rules)
    alphabet = Alphabet(order)
    parsed = {a: (alphabet.parse_word(im) if isinstance(im, str) else tuple(im))
              for a, im in rules.items()}
    return SubstitutionEngine(alphabet, parsed)


def sturmian_engine(quotients, depth_cap, letters=("a", "b")):
    return SturmianEngine(Alphabet(letters), quotients, depth_cap)


def build_engine(description):
    """Build an engine from a parsed description dict (see the file format)."""
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
        return sturmian_engine(description.get("cf", ()), description.get("depth", 1),
                               letters=letters)
    raise SemanticError(f"unknown engine kind {kind!r}")


def recurrence_bound(engine, word, cap=None):
    """Least R with every allowed (R-1)-word containing `word`; gaps between
    occurrences of `word` in any point are then at most R - |word| + 1."""
    if engine.minimal is not True:
        raise NotMinimal("recurrence bounds require a certified-minimal engine")
    word = tuple(word.letters if isinstance(word, Word) else word)
    if not engine.is_allowed(word):
        raise SemanticError(f"word {word} is not allowed")
    if cap is None:
        cap = 10 * max(1, len(word)) * len(engine.alphabet) ** 2
    for bound in range(len(word) + 1, cap + 1):
        if all(contains_factor(u, word) for u in engine.allowed_words(bound - 1)):
            return bound
    raise CapExceeded("no recurrence bound found", cap=cap)


def max_gap(engine, word, cap=None):
    """Upper bound for the gap between consecutive occurrences of `word`."""
    return recurrence_bound(engine, word, cap=cap) - len(word) + 1


@dataclass(frozen=True)
class RecodingMap:
    block_length: int
    letter_decode: dict


def proper_recode(engine, d):
    """Conjugate d-proper engine via higher-block recoding, plus the decode map.

    The block length is the least L such that no allowed (L+d)-word has a
    period <= d; the output is checked exhaustively on its (d+1)-words.
    """
    if engine.aperiodic is not True:
        raise NotAperiodic("proper recoding requires a certified-aperiodic engine")
    if d < 1:
        raise ValueError("d must be >= 1")
    caps = engine.caps
    block = None
    for length in range(1, caps.radius_search + 1):
        if not any(has_period(w, p)
                   for p in range(1, d + 1)
                   for w in engine.allowed_words(length + p)):
            block = length
            break
    if block is None:
        raise CapExceeded("no d-proper block length found", cap=caps.radius_search)
    recoded = RecodedEngine(engine, block)
    for w in recoded.allowed_words(d + 1):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] == w[j]:
                    raise AssertionError(f"recoded engine is not {d}-proper at {w}")
    mapping = RecodingMap(block, {name: Word(blockword, 0)
                                  for name, blockword in recoded.decode.items()})
    return recoded, mapping


def periodic_points(engine, period):
    if not isinstance(engine, SFTEngine):
        raise SemanticError("periodic point enumeration requires an SFT engine")
    return engine.periodic_blocks(period)


def sft_approximation(engine, n):
    """The SFT forbidding exactly the non-factors of length n."""
    if n < 1:
        raise ValueError("approximation order must be >= 1")
    if n == 1:
        letters = [w[0] for w in engine.allowed_words(1)]
        approx = SFTEngine.from_allowed(engine.alphabet, 2, {(a, b) for a in letters for b in letters})
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


def is_irreducible(engine):
    if not isinstance(engine, SFTEngine):
        raise SemanticError("irreducibility is defined here for SFT engines")
    return engine.is_irreducible()
