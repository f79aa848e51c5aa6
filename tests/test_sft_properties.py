"""SFT graph queries, the element layer and map-level element decisions
against brute-force oracles on random small SFTs.

The graph oracles work on strings straight from the forbidden words: a word
is admissible when it has no forbidden factor.  The periodicity oracle is a
search for a q-apart mismatch along the overlap graph of allowed words.  The
element oracle is the dict-based element layer: tables keyed by window,
composed, certified and canonicalised by slicing each window.
"""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorfull.closets import CloSet
from cantorfull.constructions import sigma_U
from cantorfull.elements import (Element, _crt, ball_sizes, canonical_dump, compose,
                                 equal, identity, inverse, is_identity,
                                 make_semigroup_element, order, parse_dump, shift, support)
from cantorfull.errors import EmptySubshift, NotGood
from cantorfull.language import RecodedEngine, sft_engine


@st.composite
def sfts(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    forbidden = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=3),
                              max_size=6, unique=True))
    return letters, forbidden


def admissible(word, forbidden):
    return not any(f in word for f in forbidden)


def extendable(letters, forbidden, k):
    """(k-1)-words that extend by |V| = |A|^(k-1) letters both ways; a path that
    long repeats a vertex, so they are the words on bi-infinite paths."""
    vertices = {"".join(v) for v in itertools.product(letters, repeat=k - 1)
                if admissible("".join(v), forbidden)}
    right, left = set(vertices), set(vertices)
    for _ in range(len(letters) ** (k - 1)):
        right = {v for v in right
                 if any(admissible(v + a, forbidden) and (v + a)[1:] in right for a in letters)}
        left = {v for v in left
                if any(admissible(a + v, forbidden) and (a + v)[:-1] in left for a in letters)}
    return right & left


def reachable(start, letters, forbidden):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for a in letters:
            if admissible(v + a, forbidden) and (v + a)[1:] not in seen:
                seen.add((v + a)[1:])
                stack.append((v + a)[1:])
    return seen


@settings(deadline=None, database=None)
@given(sfts())
def test_sft_graph_against_oracles(sft):
    letters, forbidden = sft
    k = max([2] + [len(f) for f in forbidden])
    essential = extendable(letters, forbidden, k)
    try:
        engine = sft_engine(letters, forbidden)
    except EmptySubshift:
        assert not essential
        return
    parse = engine.alphabet.parse_word
    assert engine.essential == set(map(parse, essential))
    assert engine.is_irreducible() == all(essential <= reachable(u, letters, forbidden)
                                          for u in essential)
    for p in range(1, 6):
        blocks = ["".join(b) for b in itertools.product(letters, repeat=p)]
        expected = [parse(b) for b in blocks if admissible(b * (k // p + 2), forbidden)]
        assert engine.periodic_blocks(p) == tuple(expected)


@functools.lru_cache(maxsize=64)
def overlap_graph(engine, size):
    """Allowed `size`-words, each with the allowed words that overlap it by size - 1."""
    index = {}
    for w in engine.allowed_words(size):
        index.setdefault(w[:-1], []).append(w)
    return {w: index.get(w[1:], []) for w in engine.allowed_words(size)}


def nonperiodic_oracle(engine, word, period):
    """Is some point through the cylinder of `word` not |period|-periodic?

    A point x is q-periodic iff x(n + q) = x(n) for all n.  Every point
    through the cylinder is a bi-infinite walk in the overlap graph of
    size-words (size >= q, k) that passes along `word`; the search looks for
    an edge u -> v on such a walk whose new letter differs from the letter q
    places back.
    """
    q = abs(period)
    if not engine.is_allowed(word):
        return False
    size = max(q, engine.k)
    if len(word) < size + 1:
        left = (size + 1 - len(word)) // 2
        return any(nonperiodic_oracle(engine, u, period)
                   for u in engine.allowed_words(size + 1)
                   if u[left:left + len(word)] == word)
    succ = overlap_graph(engine, size)
    pred = {}
    for u, vs in succ.items():
        for v in vs:
            pred.setdefault(v, []).append(u)

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


def same_map_oracle(f, g):
    """f and g agree on a window when their values are equal or when no point
    of the window is moved by their difference."""
    radius = max(f.radius, g.radius)
    words = f.engine.allowed_words(2 * radius + 1)
    return all(a == b or not nonperiodic_oracle(f.engine, w, a - b)
               for w, a, b in zip(words, f.values_at(radius), g.values_at(radius)))


@st.composite
def sft_engines(draw):
    letters, forbidden = draw(sfts())
    try:
        return sft_engine(letters, forbidden)
    except EmptySubshift:
        assume(False)


def tables(engine, low, high):
    """Semigroup elements of radius <= 1 with values in low..high."""
    def build(radius):
        words = engine.allowed_words(2 * radius + 1)
        return st.lists(st.integers(low, high), min_size=len(words), max_size=len(words)).map(
            lambda values: make_semigroup_element(engine, radius, dict(zip(words, values))))
    return st.integers(0, 1).flatmap(build)


@functools.lru_cache(maxsize=64)
def closed_walk_blocks(engine, period):
    """The blocks of the closed `period`-walks in the transfer graph, found by
    a depth-first search from every vertex."""
    blocks = set()
    for v0 in engine.essential:
        stack = [(v0, b"")]
        while stack:
            v, path = stack.pop()
            if len(path) == period:
                if v == v0:
                    blocks.add(path)
                continue
            stack.extend((u, path + v[:1]) for _, u in engine._succ[v])
    return blocks


def periodic_cylinder_oracle(engine, word, period):
    """Is some |period|-periodic point in the cylinder of `word` at minus its radius?"""
    q = abs(period)
    r = (len(word) - 1) // 2
    return any(bytes(block[i % q] for i in range(-r, r + 1)) == word
               for block in closed_walk_blocks(engine, q))


@settings(deadline=None, database=None)
@given(sft_engines())
def test_cylinder_periodic_exists_against_closed_walks(engine):
    words = [bytes(w) for length in (1, 3)
             for w in itertools.product(range(len(engine.alphabet)), repeat=length)]
    for w in words + list(engine.allowed_words(5)):
        for q in (1, 2, 3, -3, 4):
            assert engine.cylinder_periodic_exists(w, q) == periodic_cylinder_oracle(engine, w, q)


@settings(deadline=None, database=None)
@given(sft_engines(), st.integers(1, 3))
def test_recoded_periodic_blocks_are_encoded_source_blocks(engine, block_length):
    recoded = RecodedEngine(engine, block_length)
    for p in range(1, 5):
        def letter(block, i):
            """The recoded letter at i of the point with `block`."""
            return recoded.encode_word(bytes(block[(i + j) % p] for j in range(block_length)))[0]
        expected = sorted(bytes(letter(b, i) for i in range(p)) for b in engine.periodic_blocks(p))
        assert recoded.periodic_blocks(p) == tuple(expected)
        for w in recoded.allowed_words(3):
            assert recoded.local_period(w) == engine.local_period(recoded.decode_word(w))


@settings(deadline=None, database=None)
@given(sft_engines())
def test_cylinder_nonperiodic_exists_against_oracle(engine):
    for length in range(1, 6):
        for w in engine.allowed_words(length):
            for q in range(1, 7):
                assert engine.cylinder_nonperiodic_exists(w, q) == nonperiodic_oracle(engine, w, q)


@settings(deadline=None, database=None)
@given(st.data())
def test_map_key_decides_equality(data):
    engine = data.draw(sft_engines())
    f = data.draw(tables(engine, -2, 2))
    g = data.draw(tables(engine, -2, 2))
    assert equal(f, g) == (f.map_key() == g.map_key()) == same_map_oracle(f, g)
    if f.bijective:
        assert is_identity(compose(f, inverse(f)))
    again = parse_dump(engine, canonical_dump(f))
    assert canonical_dump(again) == canonical_dump(f) and equal(f, again)


def brute_force_ball(f, radius):
    gens = [f] if same_map_oracle(f, inverse(f)) else [f, inverse(f)]
    store = [identity(f.engine)]
    frontier, sizes = list(store), []
    for _ in range(radius):
        fresh = []
        for h in frontier:
            for g in gens:
                e = compose(g, h)
                if not any(same_map_oracle(e, old) for old in store):
                    store.append(e)
                    fresh.append(e)
        frontier = fresh
        sizes.append(len(store))
    return sizes


@settings(deadline=None, database=None)
@given(st.data())
def test_ball_sizes_against_oracle(data):
    engine = data.draw(sft_engines())
    f = data.draw(tables(engine, -1, 1))
    assume(f.bijective)
    assert ball_sizes([f], 3) == brute_force_ball(f, 3)


def oracle_words(letters, forbidden, length):
    """Allowed words from strings: a word of length >= k-1 is allowed when it
    is admissible and its first and last (k-1)-windows extend both ways; a
    shorter one when it is a factor of such a window."""
    k = max([2] + [len(f) for f in forbidden])
    n = k - 1
    ends = extendable(letters, forbidden, k)
    if length < n:
        return {v[i:i + length] for v in ends for i in range(n - length + 1)}
    return {w for w in map("".join, itertools.product(letters, repeat=length))
            if admissible(w, forbidden) and w[:n] in ends and w[length - n:] in ends}


@settings(deadline=None, database=None)
@given(sfts())
def test_sft_words_sorted_by_construction(sft):
    letters, forbidden = sft
    try:
        engine = sft_engine(letters, forbidden)
    except EmptySubshift:
        assume(False)
    for length in range(1, 9):
        # the letters are in string order, so the sorted strings are in reference order
        expected = sorted(oracle_words(letters, forbidden, length))
        assert engine.allowed_words(length) == tuple(map(engine.alphabet.parse_word, expected))


# -- the dict-based element layer, as the oracle for the positional one ------
# An element is (radius, {window: value}).


def dbound(table):
    return max(abs(v) for v in table.values())


def oracle_certificate(engine, element):
    """{window of length 2(r+D)+1: witness}, or None when not bijective."""
    r, table = element
    d = dbound(table)
    witness = {}
    for y in engine.allowed_words(2 * (r + d) + 1):
        ks = [k for k in range(-d, d + 1) if table[y[k + d: k + d + 2 * r + 1]] == k]
        if len(ks) != 1:
            return None
        witness[y] = ks[0]
    return witness


def oracle_canonical(element):
    r, table = element
    for target in range(r):
        groups = {}
        pad, size = r - target, 2 * target + 1
        if all(groups.setdefault(w[pad:pad + size], v) == v for w, v in table.items()):
            return target, groups
    return r, table


def oracle_compose(engine, f, g):
    (rf, tf), (rg, tg) = f, g
    radius = max(rg, rf + dbound(tg))
    table = {}
    for w in engine.allowed_words(2 * radius + 1):
        kg = tg[w[radius - rg: radius + rg + 1]]
        table[w] = kg + tf[w[-kg - rf + radius: -kg + rf + radius + 1]]
    return oracle_canonical((radius, table))


def oracle_inverse(engine, f):
    witness = oracle_certificate(engine, f)
    return oracle_canonical((f[0] + dbound(f[1]), {y: -k for y, k in witness.items()}))


def oracle_dump(engine, f):
    radius, table = oracle_canonical(f)
    fmt = engine.alphabet.format_word
    lines = [f"radius={radius} dbound={dbound(table)}"]
    lines += [f"{fmt(w)} -> {v}" for w, v in sorted(table.items())]
    return "\n".join(lines) + "\n"


def oracle_map_key(engine, f):
    radius, values = oracle_canonical(f)
    periods = {w: engine.local_period(w) for w in values}
    table = {w: (v % periods[w] if periods[w] else v, periods[w]) for w, v in values.items()}
    while radius > 0:
        coarser = {}
        for w, congruence in table.items():
            coarser[w[1:-1]] = _crt(coarser.get(w[1:-1], (0, 1)), congruence)
        if None in coarser.values():
            break
        table, radius = coarser, radius - 1
    return (radius, tuple(table[w][0] for w in engine.allowed_words(2 * radius + 1)))


def raw_tables(engine, low, high):
    """(radius, {window: value}) with radius <= 1 and values in low..high."""
    def build(radius):
        words = engine.allowed_words(2 * radius + 1)
        return st.lists(st.integers(low, high), min_size=len(words), max_size=len(words)).map(
            lambda values: (radius, dict(zip(words, values))))
    return st.integers(0, 1).flatmap(build)


def as_pair(element):
    return element.radius, dict(element.table)


@settings(deadline=None, database=None)
@given(st.data())
def test_element_layer_against_dict_oracle(data):
    engine = data.draw(sft_engines())
    raw_f, raw_g = data.draw(raw_tables(engine, -2, 2)), data.draw(raw_tables(engine, -2, 2))
    f, g = (make_semigroup_element(engine, *raw) for raw in (raw_f, raw_g))
    of, og = oracle_canonical(raw_f), oracle_canonical(raw_g)
    assert as_pair(f) == of and as_pair(g) == og
    assert canonical_dump(f) == oracle_dump(engine, raw_f)
    assert f.map_key() == oracle_map_key(engine, raw_f)
    fg = compose(f, g)
    assert as_pair(fg) == oracle_compose(engine, of, og)
    assert canonical_dump(fg) == oracle_dump(engine, oracle_compose(engine, of, og))
    assert fg.map_key() == oracle_map_key(engine, as_pair(fg))
    witness = oracle_certificate(engine, of)
    assert f.bijective == (witness is not None)
    if witness is not None:
        assert f.witness() == tuple(witness.values())
        assert as_pair(inverse(f)) == oracle_inverse(engine, of)


def test_compose_below_the_top_radius_against_dict_oracle():
    """Words in phi^(+-1) and sigma_U^(+-1): products such as phi^-1 phi or
    sigma_U sigma_U^-1 are functions of their windows below R = max(r_g,
    r_f + D_g), the radius the oracle composes at, and such draws occur."""
    below = []

    @settings(deadline=None, database=None)
    @given(st.data())
    def check(data):
        engine = data.draw(sft_engines())
        gens = [shift(engine), shift(engine, -1)]
        word = data.draw(st.sampled_from(engine.allowed_words(data.draw(st.integers(2, 3)))))
        try:
            s = sigma_U(CloSet.cylinder(engine, -1, word))
            gens += [s, inverse(s)]
        except NotGood:
            pass
        f = data.draw(st.sampled_from(gens))
        for g in data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
            top = max(g.radius, f.radius + g.dbound)
            if widest_radius(engine, 0, top) < top:
                break      # the oracle would slice a level of more than 2500 windows
            fg = compose(f, g)
            assert as_pair(fg) == oracle_compose(engine, as_pair(f), as_pair(g))
            below.append(fg.radius < top)
            f = fg

    check()
    assert any(below)


@pytest.mark.parametrize("letters, forbidden, word", [("ab", ["bb"], "aab"), ("01", [], "001")])
def test_compose_at_and_above_the_right_radius_against_dict_oracle(monkeypatch, letters,
                                                                   forbidden, word):
    """sigma_U sigma_U is built at r_g, where compose reads g's values as
    they are; sigma_U (phi sigma_U) fails there and at r_g + 1, and is built
    at R = r_f + D_g = 4 off g's values padded to that radius."""
    engine = sft_engine(letters, forbidden)
    s = sigma_U(CloSet.cylinder(engine, -1, engine.alphabet.parse_word(word)))
    phi_s = compose(shift(engine), s)
    assert s.values_at(s.radius) is s.values and phi_s.values_at(phi_s.radius) is phi_s.values
    assert (s.radius, phi_s.radius, phi_s.dbound) == (2, 2, 2)
    tried, values_at = [], Element.values_at
    monkeypatch.setattr(Element, "values_at",
                        lambda e, radius: tried.append(radius) or values_at(e, radius))
    for g, radii in ((s, [2]), (phi_s, [2, 3, 4])):
        tried.clear()
        fg = compose(s, g)
        assert tried == radii
        assert as_pair(fg) == oracle_compose(engine, as_pair(s), as_pair(g))


def widest_radius(engine, low, high, max_windows=2500):
    """The largest radius in low..high whose level holds at most `max_windows`
    words, or `low`; levels are built upwards, never past the first too large."""
    radius = low
    while radius < high and len(engine.allowed_words(2 * radius + 3)) <= max_windows:
        radius += 1
    return radius


def check_descent(data, engine, raw):
    """Pad the raw table by 1-4 radii, so that the canonical form is reached
    in several steps down, and move each value by a multiple of its window's
    local period, which keeps the map and so the map key."""
    radius = widest_radius(engine, raw[0] + 1, raw[0] + data.draw(st.integers(1, 4)))
    words = engine.allowed_words(2 * radius + 1)
    base = tuple(raw[1][w] for w in engine.allowed_words(2 * raw[0] + 1))
    exact = Element(engine, raw[0], base, None).values_at(radius)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    moved = tuple(v + rng.randint(-1, 1) * engine.local_period(w) for w, v in zip(words, exact))
    keys = set()
    for values in (exact, moved):
        padded, table = Element(engine, radius, values, None), (radius, dict(zip(words, values)))
        least, groups = oracle_canonical(table)
        # canonical from construction: the element holds the least radius
        assert padded.radius == least
        assert padded.values == tuple(groups[w] for w in engine.allowed_words(2 * least + 1))
        assert padded.canonical_key() == (least, tuple(sorted(groups.items())))
        assert canonical_dump(padded) == oracle_dump(engine, table)
        assert padded.map_key() == oracle_map_key(engine, table)
        keys.add(padded.map_key())
    assert len(keys) == 1


@settings(deadline=None, database=None)
@given(st.data())
def test_multi_step_descent_against_dict_oracle(data):
    engine = data.draw(sft_engines())
    check_descent(data, engine, data.draw(raw_tables(engine, -2, 2)))


def support_oracle(f):
    """The per-window rule: a window of radius r + D is in the support when
    its value is nonzero and some point of its cylinder is not periodic with
    that period."""
    engine = f.engine
    radius = f.radius + f.dbound
    return CloSet(engine, radius, [w for w, v in zip(engine.allowed_words(2 * radius + 1),
                                                     f.values_at(radius))
                                   if v != 0 and engine.cylinder_nonperiodic_exists(w, v)])


@settings(deadline=None, database=None)
@given(st.data())
def test_support_against_the_per_window_rule(data):
    engine = data.draw(sft_engines())
    f = data.draw(tables(engine, -3, 3))
    got, want = support(f), support_oracle(f)
    assert (got.radius, got.members) == (want.radius, want.members)


@settings(deadline=None, database=None)
@given(st.data())
def test_order_against_oracle(data):
    engine = data.draw(sft_engines())
    f = data.draw(tables(engine, -1, 1))
    assume(f.bijective)
    cap = 4
    expected, g = None, f
    for n in range(1, cap + 1):
        if same_map_oracle(g, identity(engine)):
            expected = n
            break
        g = compose(g, f)
    assert order(f, cap) == expected


@st.composite
def closets(draw, engine):
    radius = draw(st.integers(0, 2))
    words = engine.allowed_words(2 * radius + 1)
    return CloSet(engine, radius, draw(st.sets(st.sampled_from(words))))


@settings(deadline=None, database=None)
@given(st.data())
def test_closet_boolean_laws(data):
    engine = data.draw(sft_engines())
    a, b, c = (data.draw(closets(engine)) for _ in range(3))
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
    assert a.union(b.intersect(c)) == a.union(b).intersect(a.union(c))
    assert a.complement().complement() == a
    assert a.is_subset(b) == a.minus(b).is_empty()
