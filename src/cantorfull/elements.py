"""Full-(semi)group elements as locally constant cocycle tables.

An Element over an engine is a total map from allowed (2r+1)-windows
(``bytes`` words, see :mod:`cantorfull.words`) to integer shift powers; it
induces f(x) = phi^{kappa(x)} x with kappa(x) = table(x[-r..r]).  Its
representation is ``values``, a tuple aligned with
``engine.allowed_words(2r+1)``: every table computation is position
arithmetic through the engine's restriction maps
(``LanguageEngine.restriction``), with no window sliced or hashed.
``table`` is a read-only {window: value} view derived from ``values`` on
first use, for readers that look windows up by word; a reader of many windows
takes the view once.  ``orbit_map`` is the reader along a point: the window of
phi^m x sits in a point window x[-R..R], centered (index R + n holds x[n]), at
index R - m - r, where the van Douwen walk also reads its one window per step.
It returns a list of images aligned with range(-window, window + 1).  A long
read takes the windows of _BLOCK consecutive n as one run of letters and reads
each distinct run once per call: the canonical points have low complexity, so
a window of 10^5 positions on Fibonacci or a Sturmian point repeats some 80
distinct runs.

``_preimages`` counts, over every allowed window y of length 2(r+D)+1, the k
in [-D, D] with table(y[k-r..k+r]) = k.  Bijectivity is certified at
construction by that count being exactly 1 (the witness k, the displacement of
the unique preimage, is what inversion uses), and ``element_image`` keeps the
windows whose count is nonzero with the values off the set blanked.

Composition follows compose(f, g) = f o g, apply g first.  Every window of
radius R = max(r_g, r_f + D_g) holds the window of f it reads, but the product
is often a function of smaller windows: compose counts up from max(r_f, r_g)
and builds the table at the first radius where every window determines its
value, reading f at a window that sticks out of w off the part inside w
(``_part_at``, None where the completions of that part disagree).  So a
product builds no level above the radius it finds.  A minimal engine's
levels grow by a word or two per radius, so there it composes at R alone.

Every Element is canonical from construction: ``__init__`` takes the values
down by ``_least_radius``, one radius at a time through the restriction maps,
to the least radius at which they are a function of the central cores.  That
table (``canonical_key``, ``canonical_dump``) is what orbit reads on periodic
points depend on.  ``map_key`` names the induced map, which ``is_identity``,
``equal`` and ``ball_sizes`` decide: on a cylinder of periodic points, values
that differ by a multiple of its ``local_period`` give the same map, so the
map key continues the descent, merging the congruences of a core's extensions
where they have a common solution.  Two values the caps admit differ by at
most 2 caps.dbound, the longest period a substitution engine reads, so these
answers are exact for every element the caps admit.
"""

import math
import operator
import re
from itertools import compress
from types import MappingProxyType

from .caps import parse_int
from .closets import CloSet
from .errors import (CapExceeded, EngineMismatch, NotBijective, NotInjective,
                     NotSurjective, ParseError, PartialTable, SemanticError)

# the n read together by Element.orbit_map: long enough that most reads of a
# canonical point are a hit on a run already read, short enough that those
# points have few distinct runs of that length.  A shorter read is at most one
# run, so it goes window by window.
_BLOCK = 64


class Element:
    __slots__ = ("engine", "radius", "values", "dbound", "_bijective", "_witness", "_table",
                 "_joined", "_parts", "_reads")

    def __init__(self, engine, radius, values, bijective):
        """`values` is a tuple aligned with engine.allowed_words(2 radius + 1);
        the element keeps them at their least radius."""
        self.engine = engine
        self.radius, self.values = _least_radius(engine, radius, values)
        self.dbound = max(max(self.values), -min(self.values))
        self._bijective = bijective      # True / False / None (not yet certified)
        self._witness = None
        self._table = None
        self._joined = None              # values, then the part tables compose reads
        self._parts = None               # (start, size) -> _join_part(self, start, size)
        self._reads = None               # (size, start, part_start, part_size) -> _part_at(...)

    # -- basic views ---------------------------------------------------------

    @property
    def table(self):
        """Read-only {window: value} view of `values`, built on first use.
        Readers that look up many windows read it once, not once per window."""
        if self._table is None:
            words = self.engine.allowed_words(2 * self.radius + 1)
            self._table = MappingProxyType(dict(zip(words, self.values)))
        return self._table

    def values_at(self, radius):
        """The values padded to radius >= self.radius: a tuple aligned with
        allowed_words(2 radius + 1), `values` itself at the element's own
        radius."""
        if radius == self.radius:
            return self.values
        if radius < self.radius:
            raise ValueError("cannot pad to a smaller radius")
        positions = self.engine.restriction(2 * radius + 1, radius - self.radius, 2 * self.radius + 1)
        return tuple(map(self.values.__getitem__, positions))

    def orbit_map(self, point, window, shift=0):
        """[n + kappa(phi^(n+shift) x) for n in range(-window, window + 1)], x
        read off the centered window `point`; IndexError when a read leaves it."""
        size, reach = 2 * self.radius + 1, len(point) // 2
        # the window of phi^m x, m = n + shift, starts at index top - n
        top = reach - shift - self.radius
        if top - window < 0 or top + window + size > len(point):
            raise IndexError(f"orbit window {window} at shift {shift} leaves "
                             f"[{-reach}, {reach + 1})")
        kappa = self.table
        if 2 * window + 1 < _BLOCK:
            return [n + kappa[point[top - n:top - n + size]] for n in range(-window, window + 1)]
        # the window of n starts one letter left of that of n - 1, so a run
        # holds the windows of its block from the right end
        runs = {}
        values = []
        for n in range(-window, window + 1, _BLOCK):
            count = min(_BLOCK, window + 1 - n)
            run = point[top - n - count + 1:top - n + size]
            got = runs.get(run)
            if got is None:
                got = runs[run] = [kappa[run[i:i + size]] for i in range(count - 1, -1, -1)]
            values += got
        return list(map(operator.add, range(-window, window + 1), values))

    # -- certification -------------------------------------------------------

    def _run_certificate(self):
        """For each window y of allowed_words(2(r+D)+1), in that order, the one
        k in [-D, D] with table(y[k+D .. k+D+2r]) = k."""
        engine = self.engine
        counts, witness = _preimages(engine, self.radius, self.values, self.dbound)
        if counts.count(1) != len(counts):
            for y, count in zip(engine.allowed_words(2 * (self.radius + self.dbound) + 1), counts):
                if count > 1:
                    raise NotInjective(engine.alphabet.format_word(y), count)
                if not count:
                    raise NotSurjective(engine.alphabet.format_word(y))
        return tuple(witness)

    @property
    def bijective(self):
        if self._bijective is None:
            try:
                self._witness = self._run_certificate()
                self._bijective = True
            except (NotInjective, NotSurjective):
                self._bijective = False
        return self._bijective

    def witness(self):
        if not self.bijective:
            raise NotBijective("element is not certified bijective")
        if self._witness is None:
            self._witness = self._run_certificate()
        return self._witness

    # -- canonical form ------------------------------------------------------

    def canonical_key(self):
        words = self.engine.allowed_words(2 * self.radius + 1)
        return (self.radius, tuple(zip(words, self.values)))

    def map_key(self):
        """(radius, values in allowed_words(2 radius + 1) order), a complete
        invariant of the induced map: the canonical table with each value
        reduced modulo its window's local period (0 keeps it exact), at the
        least radius where the extensions of every core have a common value."""
        engine, radius = self.engine, self.radius
        periods = engine.local_periods(2 * radius + 1)
        if not any(periods):
            # every value is exact, so the CRT step would fail at once: the
            # canonical table has a core whose extensions disagree
            return (radius, self.values)
        table = [(v % m if m else v, m) for v, m in zip(self.values, periods)]
        radius, table = _least_radius(engine, radius, table, _crt)
        return (radius, tuple(v for v, _ in table))

    def __repr__(self):
        return f"<element r={self.radius} d={self.dbound} over {self.engine.kind}>"


def _preimages(engine, radius, values, d):
    """For each window y of allowed_words(2(radius + d) + 1): how many k in
    [-d, d] have values[y[k+d .. k+d+2 radius]] = k, and the last such k (or 0).
    `values` is aligned with allowed_words(2 radius + 1); None matches no k."""
    size = 2 * (radius + d) + 1
    n = len(engine.allowed_words(size))
    counts = [0] * n
    last = [0] * n
    for k in range(-d, d + 1):
        if k not in values:
            continue
        hits = [v == k for v in values]
        cores = engine.restriction(size, k + d, 2 * radius + 1)
        for i in compress(range(n), map(hits.__getitem__, cores)):
            counts[i] += 1
            last[i] = k
    return counts, last


def _least_radius(engine, radius, values, merge=None):
    """(radius', values'): the values as a function of the central cores at the
    least radius' reached one step down at a time.  A step fails where two
    extensions of a core disagree and merge(a, b), their common value, is None
    or not given.  A function of its (2t+1)-cores is one of every larger core
    too, so the least radius is where the first step down fails."""
    while radius > 0:
        coarser = [None] * len(engine.allowed_words(2 * radius - 1))
        for j, v in zip(engine.restriction(2 * radius + 1, 1, 2 * radius - 1), values):
            seen = coarser[j]
            if seen is None:
                coarser[j] = v
            elif seen != v:
                coarser[j] = merge(seen, v) if merge else None
                if coarser[j] is None:
                    return radius, values
        radius, values = radius - 1, tuple(coarser)
    return radius, values


def _crt(a, b):
    """The common solution (value, modulus) of x = u (mod m) and x = v (mod n),
    or None if there is none or `a` is None; modulus 0 means an exact value."""
    if a is None:
        return None
    (u, m), (v, n) = a, b
    if m == 0 or n == 0:
        x = u if m == 0 else v
        if all(x == y if k == 0 else (x - y) % k == 0 for y, k in (a, b)):
            return (x, 0)
        return None
    g = math.gcd(m, n)
    if (v - u) % g:
        return None
    lcm = m // g * n
    return ((u + m * ((v - u) // g * pow(m // g, -1, n // g))) % lcm, lcm)


def _check_same_engine(f, g):
    if f.engine is not g.engine:
        raise EngineMismatch("elements live on different engines")


def make_element(engine, radius, values):
    """Group element with an eagerly computed bijectivity certificate."""
    e = make_semigroup_element(engine, radius, values)
    e._witness = e._run_certificate()
    e._bijective = True
    return e


def make_semigroup_element(engine, radius, values):
    """Semigroup element; bijectivity is attempted but failure is not an error.

    `values` is a sequence aligned with engine.allowed_words(2 radius + 1),
    or a {window: value} dict whose keys are exactly those windows; the
    element keeps them as a tuple.  PartialTable names the windows left
    without a value; SemanticError refuses a value with no window and names
    the window of a value that is not an int (a bool is not)."""
    words = engine.allowed_words(2 * radius + 1)
    if isinstance(values, dict):
        missing = [engine.alphabet.format_word(w) for w in words if w not in values]
        if missing:
            raise PartialTable(missing)
        if len(values) > len(words):
            extra = next(w for w in values if w not in engine.word_index(2 * radius + 1))
            raise SemanticError(f"window {engine.alphabet.format_word(extra)!r} is not an "
                                f"allowed window of radius {radius}")
        values = tuple(map(values.__getitem__, words))
    elif len(values) < len(words):
        raise PartialTable(map(engine.alphabet.format_word, words[len(values):]))
    elif len(values) > len(words):
        raise SemanticError(f"table has {len(values)} values for {len(words)} windows")
    values = tuple(values)
    # issuperset iterates the types without building a set of them
    if not {int}.issuperset(map(type, values)):
        w, v = next((w, v) for w, v in zip(words, values) if type(v) is not int)
        raise SemanticError(f"window {engine.alphabet.format_word(w)!r} has value {v!r}, "
                            f"not an integer")
    return _capped(Element(engine, radius, values, None))


def _capped(e):
    """`e`, whose displacements must stay within the engine's dbound cap."""
    if e.dbound > e.engine.caps.dbound:
        raise CapExceeded("displacement bound exceeded", cap=e.engine.caps.dbound)
    return e


def identity(engine):
    return make_element(engine, 0, (0,) * len(engine.allowed_words(1)))


def shift(engine, power=1):
    """phi^power as an element (constant cocycle)."""
    return make_element(engine, 0, (power,) * len(engine.allowed_words(1)))


def compose(f, g):
    """x -> f(g(x)), built at the least radius t in [max(r_f, r_g), R],
    R = max(r_g, r_f + D_g), at which every window determines the product,
    and then taken down to its least radius.  A minimal engine builds it at
    R: its levels grow by a word or two per radius, so a search below R
    would cost more than the levels it saves.  Each attempt at t reads g
    off g.values_at(t), which at t = r_g is g's own values, and f off the
    reads kept on f (_part_at) where its window sticks out.  Displacements
    add, and CapExceeded is raised past the engine's dbound cap."""
    _check_same_engine(f, g)
    engine, rf = f.engine, f.radius
    fsize = 2 * rf + 1
    top = max(g.radius, rf + g.dbound)
    # a padded table holds only values of g, so one set serves every radius
    ks = set(g.values)
    for radius in range(top if engine.minimal else max(rf, g.radius), top + 1):
        size = 2 * radius + 1
        kg = g.values_at(radius)
        # the window of phi^k x starts at index radius - k - r_f of the window;
        # where it sticks out, f is read off the part inside, whose table goes
        # after f's values in f._joined so that one table serves every k.  At
        # R no window sticks out, so the loop ends there.
        f_at, holes = {}, False
        for k in ks:
            lo = radius - k - rf
            if lo < 0 or lo + fsize > size:
                start = min(max(lo, 0), size)
                part_size = max(min(lo + fsize, size) - start, 0)
                f_at[k], hole = _part_at(f, size, start, start - lo if part_size else 0, part_size)
                holes |= hole
        table = f._joined if f_at else f.values
        if holes and any(table[f_at[k][i]] is None for i, k in enumerate(kg) if k in f_at):
            continue
        for k in ks - f_at.keys():
            f_at[k] = engine.restriction(size, radius - k - rf, fsize)
        values = tuple([k + table[f_at[k][i]] for i, k in enumerate(kg)])
        break
    bij = True if (f._bijective and g._bijective) else None
    return _capped(Element(engine, radius, values, bij))


def _part_at(f, size, start, part_start, part_size):
    """(positions, hole) for reading f at a window that sticks out of the
    words w of allowed_words(size): for each w, the position in f._joined of
    f's value read off w[start:start + part_size], the factor at part_start
    of f's windows; hole tells whether that part's table holds a None.  Kept
    on f, so a later product at the same radius copies no positions."""
    if f._reads is None:
        f._joined, f._parts, f._reads = list(f.values), {}, {}
    key = (size, start, part_start, part_size)
    got = f._reads.get(key)
    if got is None:
        offset, hole = f._parts.get((part_start, part_size)) or _join_part(f, part_start, part_size)
        positions = f.engine.restriction(size, start, part_size)
        got = f._reads[key] = (list(map(offset.__add__, positions)), hole)
    return got


def _join_part(f, start, size):
    """(offset, hole): appends to f._joined f's values as a function of the
    factor w[start:start + size] of its windows w, a table aligned with
    allowed_words(size) with None where two windows with that factor
    disagree, which starts at offset; hole tells whether it holds a None."""
    positions = f.engine.restriction(2 * f.radius + 1, start, size)
    part = [None] * len(f.engine.allowed_words(size))
    for j, v in zip(positions, f.values):
        part[j] = v
    # a factor whose windows disagree keeps None once it has it
    for j, v in zip(positions, f.values):
        if part[j] != v:
            part[j] = None
    got = f._parts[(start, size)] = (len(f._joined), None in part)
    f._joined += part
    return got


def inverse(f):
    """kappa_inv(y) = -k(y), k(y) the certificate witness."""
    values = tuple([-k for k in f.witness()])
    return Element(f.engine, f.radius + f.dbound, values, True)


def power(f, n):
    if n == 0:
        return identity(f.engine)
    base = f if n > 0 else inverse(f)
    out = base
    for _ in range(abs(n) - 1):
        out = compose(out, base)
    return out


def commutator(f, g):
    return compose(compose(f, g), compose(inverse(f), inverse(g)))


def is_identity(f):
    return not any(f.map_key()[1])


def equal(f, g):
    """Do f and g induce the same self-map of the subshift?"""
    _check_same_engine(f, g)
    return f.map_key() == g.map_key()


def order(f, cap=None):
    """Least n >= 1 with f^n = id, or None past the cap.  Each power is a
    composition, so CapExceeded is raised first when some f^n with n <= cap
    outgrows the engine's dbound cap (phi^65 under the default caps)."""
    cap = cap if cap is not None else f.engine.caps.order
    if not f.bijective:
        raise NotBijective("order is defined for group elements")
    g = f
    for n in range(1, cap + 1):
        if is_identity(g):
            return n
        if n < cap:
            g = compose(g, f)
    return None


def support(f):
    """Clopen hull of the moved set, refined at radius r + D: the windows
    whose value is not a multiple of their local period."""
    engine = f.engine
    radius = f.radius + f.dbound
    members = [w for w, v, m in zip(engine.allowed_words(2 * radius + 1), f.values_at(radius),
                                    engine.local_periods(2 * radius + 1))
               if (v % m if m else v)]
    return CloSet(engine, radius, members)


def element_image(closet, f):
    """f(U) as a CloSet (exact; works for semigroup elements too).

    At R = max(r_U, r_f), each window of U moves its points by its value k;
    a window of radius R + D is in f(U) when, for some k, its core at offset k
    is a window of U with value k."""
    if closet.engine is not f.engine:
        raise EngineMismatch("closet and element live on different engines")
    engine = f.engine
    radius, d = max(closet.radius, f.radius), f.dbound
    moved = [v if inside else None for v, inside in zip(f.values_at(radius), closet.mask(radius))]
    counts, _ = _preimages(engine, radius, moved, d)
    return CloSet(engine, radius + d, compress(engine.allowed_words(2 * (radius + d) + 1), counts))


def ball_sizes(generators, radius):
    """Sizes |B(1)| <= ... <= |B(radius)| for the symmetrized generating set
    (identity included), deduplicated by map keys.  A fresh element g h' is
    not multiplied by g's inverse: that makes g^-1 g h' = h', which is
    already stored."""
    if not generators:
        raise ValueError("need at least one generator")
    engine = generators[0].engine
    for g in generators:
        _check_same_engine(generators[0], g)
        if not g.bijective:
            raise NotBijective("ball enumeration wants group elements")
    gens, inverse_keys, index = [], [], {}      # index: map key -> position in gens
    for g in generators:
        h = inverse(g)
        g_key, h_key = g.map_key(), h.map_key()
        for e, key, undo in ((g, g_key, h_key), (h, h_key, g_key)):
            if key not in index:
                index[key] = len(gens)
                gens.append(e)
                inverse_keys.append(undo)
    undoes = [index[key] for key in inverse_keys]
    e = identity(engine)
    store = {e.map_key(): e}
    # skips[j]: the generator that frontier[j] skips
    frontier, skips = [e], [None]
    sizes = []
    for _ in range(radius):
        fresh, fresh_skips = [], []
        for h, skip in zip(frontier, skips):
            for i, g in enumerate(gens):
                if i == skip:
                    continue
                e = compose(g, h)
                key = e.map_key()
                if key not in store:
                    store[key] = e
                    fresh.append(e)
                    fresh_skips.append(undoes[i])
                    engine.caps.check_store(len(store), "ball grew past the element store")
        frontier, skips = fresh, fresh_skips
        sizes.append(len(store))
    return sizes


def canonical_dump(f):
    """Bit-exact canonical serialization (round-trips through parse_dump)."""
    fmt = f.engine.alphabet.format_word
    words = f.engine.allowed_words(2 * f.radius + 1)
    lines = [f"radius={f.radius} dbound={f.dbound}"]
    lines += [f"{fmt(w)} -> {v}" for w, v in zip(words, f.values)]
    return "\n".join(lines) + "\n"


_DUMP_HEADER = r"radius=([0-9]+)(?: dbound=([0-9]+))?"


def parse_dump(engine, text):
    """Inverse of canonical_dump, whose header may leave out the dbound the
    table determines.  Blank lines are skipped; a ParseError names the line,
    at column 1, of a bad header, of a line without '->', of a window outside
    the level, of a value that is not an integer, of a window given twice and,
    at the header, of a dbound other than the table's largest |value|."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    head_line, head = lines[0] if lines else (1, "")
    header = re.fullmatch(_DUMP_HEADER, head)
    if not header:
        raise ParseError("dump wants a header 'radius=R dbound=D'", head_line, 1)
    radius = int(header[1])
    level, table = engine.word_index(2 * radius + 1), {}
    for n, ln in lines[1:]:
        wtext, arrow, vtext = (part.strip() for part in ln.partition("->"))
        if not arrow:
            raise ParseError("dump wants 'window -> value'", n, 1)
        word = engine.alphabet.parse_word(wtext)
        if word not in level:
            raise ParseError(f"window {wtext!r} is not an allowed window of radius {radius}", n, 1)
        if word in table:
            raise ParseError(f"second value for window {wtext!r}", n, 1)
        try:
            table[word] = parse_int(vtext)
        except ValueError:
            raise ParseError("value wants an integer", n, 1) from None
    largest = max(map(abs, table.values()), default=0)
    if header[2] is not None and int(header[2]) != largest:
        raise ParseError(f"header dbound={header[2]}, but the table's largest |value| is "
                         f"{largest}", head_line, 1)
    return make_semigroup_element(engine, radius, table)
