"""Full-(semi)group elements as locally constant cocycle tables.

An Element over an engine is a total map from allowed (2r+1)-windows to
integer shift powers; it induces f(x) = phi^{kappa(x)} x with
kappa(x) = table(x[-r..r]).  Bijectivity is certified at construction by
preimage counting: over every allowed window y of length 2(r+D)+1 the number
of k in [-D, D] with table(y[k-r..k+r]) = k must be exactly 1 (the witness k
is the displacement of the unique preimage, which is what inversion uses).

Composition follows compose(f, g) = f o g, apply g first.

The canonical form (``canonical_key``, ``canonical_dump``) names the table,
which orbit reads on periodic points depend on.  ``map_key`` names the
induced map, which ``is_identity``, ``equal`` and ``ball_sizes`` decide: on a
cylinder of periodic points, values that differ by a multiple of its
``local_period`` give the same map.
"""

import math
from dataclasses import dataclass

from .closets import CloSet
from .errors import (CapExceeded, EngineMismatch, MemoryCapExceeded,
                     NotBijective, NotInjective, NotSurjective, PartialTable)
from .words import Word


@dataclass(frozen=True)
class CanonicalForm:
    radius: int
    entries: tuple          # ((word, displacement), ...) in alphabet order
    dbound: int


class Element:
    __slots__ = ("engine", "radius", "table", "dbound", "_bijective", "_witness", "_canonical")

    def __init__(self, engine, radius, table, bijective, witness=None):
        self.engine = engine
        self.radius = radius
        self.table = table
        self.dbound = max((abs(v) for v in table.values()), default=0)
        self._bijective = bijective      # True / False / None (not yet certified)
        self._witness = witness
        # canonical form: None until computed, False when it is this element
        # (a reference to itself would make a cycle that only the cyclic
        # garbage collector frees)
        self._canonical = None

    # -- basic views ---------------------------------------------------------

    def value_in(self, word, center_index):
        """Table value for the window centered at `center_index` of a letter tuple."""
        r = self.radius
        return self.table[word[center_index - r: center_index + r + 1]]

    def cocycle_at(self, point, position):
        """kappa(phi^{-position} ... ) read off an anchored point window: the
        value of the cocycle at the point whose central window sits at
        `position` in `point`."""
        return self.table[point.segment(position - self.radius, position + self.radius)]

    def padded_table(self, radius):
        if radius < self.radius:
            raise ValueError("cannot pad to a smaller radius")
        if radius == self.radius:
            return dict(self.table)
        pad = radius - self.radius
        size = 2 * self.radius + 1
        return {w: self.table[w[pad:pad + size]]
                for w in self.engine.allowed_words(2 * radius + 1)}

    # -- certification -------------------------------------------------------

    def _run_certificate(self):
        r, d = self.radius, self.dbound
        witness = {}
        for y in self.engine.allowed_words(2 * (r + d) + 1):
            ks = [k for k in range(-d, d + 1)
                  if self.table[y[k + d: k + d + 2 * r + 1]] == k]
            if len(ks) > 1:
                raise NotInjective(self.engine.alphabet.format_word(y), len(ks))
            if not ks:
                raise NotSurjective(self.engine.alphabet.format_word(y))
            witness[y] = ks[0]
        return witness

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

    def canonical_element(self):
        if self._canonical is not None:
            return self._canonical or self
        table, radius = self.table, self.radius
        for target in range(0, radius):
            groups = {}
            ok = True
            pad = radius - target
            size = 2 * target + 1
            for w, v in table.items():
                core = w[pad:pad + size]
                if groups.setdefault(core, v) != v:
                    ok = False
                    break
            if ok:
                reduced = Element(self.engine, target, groups, self._bijective)
                reduced._canonical = False
                self._canonical = reduced
                return reduced
        self._canonical = False
        return self

    def canonical_key(self):
        c = self.canonical_element()
        order = self.engine.alphabet.sort_key
        return (c.radius, tuple(sorted(c.table.items(), key=lambda kv: order(kv[0]))))

    def map_key(self):
        """(radius, values in allowed_words(2 radius + 1) order), a complete
        invariant of the induced map: the canonical table with each value
        reduced modulo its window's local period (0 keeps it exact), at the
        least radius where the extensions of every core have a common value."""
        c = self.canonical_element()
        engine, radius = self.engine, c.radius
        words = engine.allowed_words(2 * radius + 1)
        periods = [engine.local_period(w) for w in words]
        if not any(periods):
            # every value is exact, so the CRT step would fail at once: the
            # canonical table has a core whose extensions disagree
            return (radius, tuple(c.table[w] for w in words))
        table = {w: (c.table[w] % m if m else c.table[w], m) for w, m in zip(words, periods)}
        while radius > 0:
            coarser = {}
            for w, congruence in table.items():
                coarser[w[1:-1]] = _crt(coarser.get(w[1:-1], (0, 1)), congruence)
            if None in coarser.values():
                break
            table, radius = coarser, radius - 1
        return (radius, tuple(table[w][0] for w in engine.allowed_words(2 * radius + 1)))

    def __repr__(self):
        c = self.canonical_element()
        return f"<element r={c.radius} d={c.dbound} over {self.engine.kind}>"


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


def make_element(engine, radius, table):
    """Group element with an eagerly computed bijectivity certificate."""
    e = make_semigroup_element(engine, radius, table)
    e._witness = e._run_certificate()
    e._bijective = True
    return e


def make_semigroup_element(engine, radius, table):
    """Semigroup element; bijectivity is attempted but failure is not an error."""
    words = engine.allowed_words(2 * radius + 1)
    cleaned = {}
    missing = []
    for w in words:
        if w in table:
            cleaned[w] = int(table[w])
        else:
            missing.append(engine.alphabet.format_word(w))
    if missing:
        raise PartialTable(missing)
    d = max((abs(v) for v in cleaned.values()), default=0)
    if d > engine.caps.dbound:
        raise CapExceeded("displacement bound exceeded", cap=engine.caps.dbound)
    return Element(engine, radius, cleaned, None).canonical_element()


def identity(engine):
    return make_element(engine, 0, {w: 0 for w in engine.allowed_words(1)})


def shift(engine, power=1):
    """phi^power as an element (constant cocycle)."""
    return make_element(engine, 0, {w: power for w in engine.allowed_words(1)})


def compose(f, g):
    """x -> f(g(x)).  Radius max(r_g, r_f + D_g); displacements add."""
    _check_same_engine(f, g)
    engine = f.engine
    radius = max(g.radius, f.radius + g.dbound)
    rf, rg = f.radius, g.radius
    table = {}
    for w in engine.allowed_words(2 * radius + 1):
        kg = g.table[w[radius - rg: radius + rg + 1]]
        # the window of phi^{kg} x sits at position -kg
        kf = f.table[w[-kg - rf + radius: -kg + rf + radius + 1]]
        table[w] = kg + kf
    bij = True if (f._bijective and g._bijective) else None
    return Element(engine, radius, table, bij).canonical_element()


def inverse(f):
    """kappa_inv(y) = -k(y), k(y) the certificate witness."""
    witness = f.witness()
    table = {y: -k for y, k in witness.items()}
    return Element(f.engine, f.radius + f.dbound, table, True).canonical_element()


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
    """Least n >= 1 with f^n = id, or None past the cap."""
    cap = cap if cap is not None else f.engine.caps.order
    if not f.bijective:
        raise NotBijective("order is defined for group elements")
    g = f
    for n in range(1, cap + 1):
        if is_identity(g):
            return n
        g = compose(g, f)
    return None


def support(f):
    """Clopen hull of the moved set, refined at radius r + D."""
    engine = f.engine
    c = f.canonical_element()
    radius = c.radius + c.dbound
    table = c.padded_table(radius)
    members = {w for w, v in table.items()
               if v != 0 and engine.cylinder_nonperiodic_exists(w, v)}
    return CloSet(engine, radius, members)


def element_image(closet, f):
    """f(U) as a CloSet (exact; works for semigroup elements too)."""
    if closet.engine is not f.engine:
        raise EngineMismatch("closet and element live on different engines")
    engine = f.engine
    radius = max(closet.radius, f.radius)
    src = closet.at_radius(radius)
    d = f.dbound
    big = radius + d
    span = 2 * radius + 1
    out = set()
    buckets = {}
    for u in engine.allowed_words(2 * big + 1):
        for k in range(-d, d + 1):
            buckets.setdefault((k, u[k + d: k + d + span]), []).append(u)
    for w in src.members:
        k = f.table[w[radius - f.radius: radius + f.radius + 1]]
        out.update(buckets.get((k, w), ()))
    return CloSet(engine, big, out)


def ball_sizes(generators, radius):
    """Sizes |B(1)| <= ... <= |B(radius)| for the symmetrized generating set
    (identity included), deduplicated by map keys."""
    if not generators:
        raise ValueError("need at least one generator")
    engine = generators[0].engine
    for g in generators:
        _check_same_engine(generators[0], g)
        if not g.bijective:
            raise NotBijective("ball enumeration wants group elements")
    gens = []
    seen_gens = set()
    for g in generators:
        for h in (g, inverse(g)):
            key = h.map_key()
            if key not in seen_gens:
                seen_gens.add(key)
                gens.append(h)
    store = {identity(engine).map_key(): identity(engine)}
    frontier = list(store.values())
    sizes = []
    for _ in range(radius):
        fresh = []
        for h in frontier:
            for g in gens:
                e = compose(g, h)
                key = e.map_key()
                if key not in store:
                    store[key] = e
                    fresh.append(e)
                    if len(store) > engine.caps.word_store:
                        raise MemoryCapExceeded(f"ball grew past {engine.caps.word_store} elements")
        frontier = fresh
        sizes.append(len(store))
    return sizes


def canonical_form(f):
    radius, entries = f.canonical_key()
    return CanonicalForm(radius, entries, f.canonical_element().dbound)


def canonical_dump(f):
    """Bit-exact canonical serialization (round-trips through the parser)."""
    form = canonical_form(f)
    fmt = f.engine.alphabet.format_word
    lines = [f"radius={form.radius} dbound={form.dbound}"]
    lines += [f"{fmt(w)} -> {v}" for w, v in form.entries]
    return "\n".join(lines) + "\n"


def parse_dump(engine, text):
    """Inverse of canonical_dump."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    radius = int(head[0].split("=", 1)[1])
    table = {}
    for ln in lines[1:]:
        wtext, _, vtext = ln.partition("->")
        word = engine.alphabet.parse_word(wtext.strip())
        table[word] = int(vtext.strip())
    return make_semigroup_element(engine, radius, table)
