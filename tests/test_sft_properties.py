"""SFT graph queries and map-level element decisions against brute-force
oracles on random small SFTs.

The graph oracles work on strings straight from the forbidden words: a word
is admissible when it has no forbidden factor.  The periodicity oracle is a
search for a q-apart mismatch along the overlap graph of allowed words.
"""

import functools
import itertools

from hypothesis import assume, given, settings, strategies as st

from cantorfull.elements import (ball_sizes, canonical_dump, compose, equal,
                                 identity, inverse, is_identity,
                                 make_semigroup_element, parse_dump)
from cantorfull.errors import EmptySubshift
from cantorfull.language import sft_engine


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
    assert engine.essential == {tuple(v) for v in essential}
    assert engine.is_irreducible() == all(essential <= reachable(u, letters, forbidden)
                                          for u in essential)
    for p in range(1, 6):
        blocks = ["".join(b) for b in itertools.product(letters, repeat=p)]
        expected = [tuple(b) for b in blocks if admissible(b * (k // p + 2), forbidden)]
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
    tf, tg = f.padded_table(radius), g.padded_table(radius)
    return all(tf[w] == tg[w] or not nonperiodic_oracle(f.engine, w, tf[w] - tg[w])
               for w in tf)


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
