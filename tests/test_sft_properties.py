"""SFT graph queries against brute-force oracles on random small SFTs.

The oracles work on strings straight from the forbidden words: a word is
admissible when it has no forbidden factor.
"""

import itertools

from hypothesis import given, settings, strategies as st

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
