import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorfull.actions import clopen_orbit
from cantorfull.closets import CloSet, is_partition, least_meet
from cantorfull.elements import compose, element_image, shift
from cantorfull.errors import EngineMismatch
from cantorfull.language import RecodedEngine, substitution_engine
from conftest import sample_elements
from test_sft_properties import closets, sft_engines, tables, widest_radius


def text_cylinder(engine, text, anchor):
    return CloSet.cylinder(engine, anchor, engine.alphabet.parse_word(text))


def random_closets(engine, count, seed):
    rng = random.Random(seed)
    words = engine.allowed_words(3)
    out = []
    for _ in range(count):
        members = [w for w in words if rng.random() < 0.5]
        out.append(CloSet(engine, 1, members))
    return out


def test_empty_and_full(fibonacci):
    empty, full = CloSet.empty(fibonacci), CloSet.full(fibonacci)
    assert empty.is_empty() and not full.is_empty()
    assert empty.at_radius(3) == empty
    assert full.at_radius(2) == full
    assert full.complement() == empty


def test_cylinder_reexpression(fibonacci):
    U = text_cylinder(fibonacci, "a", 0)
    assert U.at_radius(4) == U
    assert U.at_radius(4).reduced().radius == 0


def test_unallowed_cylinder_is_empty(fibonacci):
    assert text_cylinder(fibonacci, "bb", 0).is_empty()


def test_boolean_algebra_identities(fibonacci, golden_mean):
    for engine in (fibonacci, golden_mean):
        full = CloSet.full(engine)
        triples = random_closets(engine, 30, seed=11)
        for u, v, w in zip(triples[::3], triples[1::3], triples[2::3]):
            assert u.union(v) == v.union(u)
            assert u.intersect(v) == v.intersect(u)
            assert u.union(v.union(w)) == u.union(v).union(w)
            assert u.intersect(v.intersect(w)) == u.intersect(v).intersect(w)
            assert u.intersect(v.union(w)) == u.intersect(v).union(u.intersect(w))
            assert u.union(v.intersect(w)) == u.union(v).intersect(u.union(w))
            assert u.union(u.intersect(v)) == u
            assert u.intersect(u.union(v)) == u
            assert u.union(v).complement() == u.complement().intersect(v.complement())
            assert u.intersect(v).complement() == u.complement().union(v.complement())
            assert u.complement().complement() == u
            assert u.union(u.complement()) == full
            assert u.intersect(u.complement()).is_empty()


def test_subset_via_complement(fibonacci):
    U = text_cylinder(fibonacci, "aa", 0)
    V = text_cylinder(fibonacci, "a", 0)
    assert U.is_subset(V)
    assert U.intersect(V.complement()).is_empty()
    assert not V.is_subset(U)


def test_shift_image_examples(fibonacci):
    U = text_cylinder(fibonacci, "a", 0)
    assert U.shift_image(1) == text_cylinder(fibonacci, "a", 1)
    assert U.shift_image(2).shift_image(-2) == U
    meet = U.intersect(text_cylinder(fibonacci, "a", 1))
    assert meet == text_cylinder(fibonacci, "aa", 0)
    assert not meet.is_empty()


def test_element_image_of_shift(fibonacci):
    U = text_cylinder(fibonacci, "ab", 0)
    phi = shift(fibonacci)
    assert element_image(U, phi) == U.shift_image(1)


def test_element_image_composition(fibonacci, fib_pool):
    closets = random_closets(fibonacci, 6, seed=5)
    for U, (f, g) in zip(closets, zip(sample_elements(fib_pool, 6, 7),
                                      sample_elements(fib_pool, 6, 8))):
        assert element_image(U, compose(f, g)) == element_image(element_image(U, g), f)


def test_engine_mismatch(fibonacci, golden_mean):
    with pytest.raises(EngineMismatch):
        CloSet.full(fibonacci).union(CloSet.full(golden_mean))


def test_mask_is_aligned_with_the_level(fibonacci):
    U = text_cylinder(fibonacci, "b", 0)
    words, b = fibonacci.allowed_words(5), fibonacci.alphabet.index("b")
    assert U.mask(2) == [w[2] == b for w in words]
    assert U.mask(2, 1) == [w[3] == b for w in words]
    assert U.mask(2, -2) == [w[0] == b for w in words]
    with pytest.raises(ValueError):
        U.mask(2, 3)


# -- slicing oracles: each read done by hand, one window slice at a time ------


def oracle_at_radius(closet, radius):
    if radius == closet.radius:
        return closet
    pad = radius - closet.radius
    members = [w for w in closet.engine.allowed_words(2 * radius + 1)
               if w[pad:pad + 2 * closet.radius + 1] in closet.members]
    return CloSet(closet.engine, radius, members)


def oracle_shift_image(closet, k):
    if k == 0:
        return closet
    r = closet.radius
    big = r + abs(k)
    lo = (k - r) + big
    members = [w for w in closet.engine.allowed_words(2 * big + 1)
               if w[lo:lo + 2 * r + 1] in closet.members]
    return CloSet(closet.engine, big, members)


def oracle_reduced(closet):
    current = closet
    while current.radius > 0:
        r = current.radius
        groups = {}
        for u in closet.engine.allowed_words(2 * r + 1):
            groups.setdefault(u[1:-1], []).append(u)
        inside = set()
        for w, extensions in groups.items():
            hits = sum(1 for u in extensions if u in current.members)
            if hits == len(extensions):
                inside.add(w)
            elif hits != 0:
                return current
        current = CloSet(closet.engine, r - 1, inside)
    return current


def oracle_element_image(closet, f):
    engine = f.engine
    radius = max(closet.radius, f.radius)
    src = oracle_at_radius(closet, radius)
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


def oracle_key(closet):
    reduced = oracle_reduced(closet)
    return (reduced.radius, tuple(sorted(reduced.members)))


def assert_same_set(got, want):
    assert got.radius == want.radius
    assert got.members == want.members
    assert got.key() == oracle_key(want)


def check_reads(data, engine, closet, low, high):
    radius = closet.radius + data.draw(st.integers(0, 2))
    assert_same_set(closet.at_radius(radius), oracle_at_radius(closet, radius))
    k = data.draw(st.integers(-3, 3))
    assert_same_set(closet.shift_image(k), oracle_shift_image(closet, k))
    assert_same_set(closet.reduced(), oracle_reduced(closet))
    # re-expressed up to 12 radii wider (as far as levels of 2500 words go),
    # the set reduces back across a large drop
    wide = closet.at_radius(widest_radius(engine, closet.radius,
                                          closet.radius + data.draw(st.integers(0, 12))))
    assert_same_set(wide.reduced(), oracle_reduced(wide))
    f = data.draw(tables(engine, low, high))
    assert_same_set(element_image(closet, f), oracle_element_image(closet, f))


@settings(deadline=None, database=None)
@given(st.data())
def test_clopen_reads_against_slicing_oracles_on_sfts(data):
    engine = data.draw(sft_engines())
    check_reads(data, engine, data.draw(closets(engine)), -1, 1)


def check_cylinder_reads(data, engine):
    word = data.draw(st.integers(1, 5).flatmap(
        lambda n: st.sampled_from(engine.allowed_words(n))))
    closet = CloSet.cylinder(engine, data.draw(st.integers(-3, 3)), word)
    check_reads(data, engine, closet, -2, 2)


@settings(deadline=None, database=None)
@given(st.data())
def test_clopen_reads_against_slicing_oracles_on_fibonacci(fibonacci, data):
    check_cylinder_reads(data, fibonacci)


@pytest.fixture(scope="module")
def recoded_fibonacci(fibonacci):
    return RecodedEngine(fibonacci, 2)


@pytest.mark.parametrize("name", ["thue_morse", "sturmian_fib", "recoded_fibonacci"])
@settings(deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_clopen_reads_against_slicing_oracles_on_other_kinds(request, name, data):
    check_cylinder_reads(data, request.getfixturevalue(name))


def starts_block(word, c, n):
    """Does index c of a Thue-Morse word start a sigma^n-block?  A doubled
    letter straddles a 2-block boundary, so each step desubstitutes the word
    by the first letter of each block."""
    for _ in range(n):
        phase = next(i for i in range(len(word) - 1) if word[i] == word[i + 1]) + 1
        if (c - phase) % 2:
            return False
        word, c = word[phase % 2::2], (c - phase % 2) // 2
    return True


def test_reduced_across_a_large_drop_builds_no_level():
    """P7, the points whose position 0 starts a sigma^7-block of Thue-Morse,
    written at radius 768, is a union of 4 cylinders of radius 65."""
    engine = substitution_engine({"a": "ab", "b": "ba"})
    words = engine.allowed_words(2 * 768 + 1)
    p7 = CloSet(engine, 768, [w for w in words if starts_block(w, 768, 7)])
    levels = set(engine._words)
    reduced = p7.reduced()
    assert set(engine._words) == levels
    assert (reduced.radius, len(reduced.members)) == (65, 4)
    assert reduced.members == {w[768 - 65:768 + 66] for w in p7.members}
    assert oracle_reduced(reduced) is reduced and reduced.at_radius(768) == p7
    assert clopen_orbit(p7, cap=300) == 128
    aba = text_cylinder(engine, "aba", -1)
    wide = aba.at_radius(300)
    levels = set(engine._words)
    assert_same_set(wide.reduced(), aba)
    assert set(engine._words) == levels


# -- families: the pairwise loops that least_meet and is_partition replaced ---


def oracle_least_meet(family, allowed=()):
    """Shift images intersected pair by pair; the witness is the least member
    of the meet re-expressed at the family's radius."""
    radius = max(s.radius + abs(c) for s, c in family)
    sets = [s.shift_image(c) for s, c in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if (i, j) in allowed:
                continue
            meet = sets[i].intersect(sets[j])
            if not meet.is_empty():
                return i, j, min(meet.at_radius(radius).members)
    return None


def oracle_is_partition(family):
    """Pairwise disjoint shift images whose union is the whole space."""
    sets = [s.shift_image(c) for s, c in family]
    if any(not a.is_disjoint(b) for i, a in enumerate(sets) for b in sets[i + 1:]):
        return False
    total = sets[0]
    for piece in sets[1:]:
        total = total.union(piece)
    return total == CloSet.full(sets[0].engine)


@st.composite
def random_partitions(draw, engine):
    """The words of one radius dealt into 1-4 pieces (some maybe empty), all
    moved by one shift."""
    radius = draw(st.integers(0, 2))
    words = engine.allowed_words(2 * radius + 1)
    count = draw(st.integers(1, 4))
    deal = draw(st.lists(st.integers(0, count - 1), min_size=len(words), max_size=len(words)))
    shift_by = draw(st.integers(-3, 3))
    return [(CloSet(engine, radius, [w for w, k in zip(words, deal) if k == piece]), shift_by)
            for piece in range(count)]


def check_family(data, family):
    pairs = [(i, j) for i in range(len(family)) for j in range(i + 1, len(family))]
    allowed = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2))) if pairs else set()
    assert least_meet(family) == oracle_least_meet(family)
    assert least_meet(family, allowed) == oracle_least_meet(family, allowed)
    assert is_partition(family) == oracle_is_partition(family)


def check_partitions(data, engine):
    family = data.draw(random_partitions(engine))
    assert is_partition(family)
    check_family(data, family)
    # a dropped piece, a duplicated piece, a piece moved by another shift
    k = data.draw(st.integers(0, len(family) - 1))
    check_family(data, family[:k] + family[k + 1:] or family)
    check_family(data, family + [family[k]])
    moved = (family[k][0], data.draw(st.integers(-3, 3)))
    check_family(data, family[:k] + [moved] + family[k + 1:])


@settings(deadline=None, database=None)
@given(st.data())
def test_family_query_against_pairwise_loops_on_sfts(data):
    engine = data.draw(sft_engines())
    family = [(data.draw(closets(engine)), data.draw(st.integers(-3, 3)))
              for _ in range(data.draw(st.integers(1, 5)))]
    check_family(data, family)
    check_partitions(data, engine)


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse"])
@settings(deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_family_query_against_pairwise_loops_on_cylinders(request, name, data):
    engine = request.getfixturevalue(name)
    words = st.integers(1, 4).flatmap(lambda n: st.sampled_from(engine.allowed_words(n)))
    family = [(CloSet.cylinder(engine, data.draw(st.integers(-3, 0)), data.draw(words)),
               data.draw(st.integers(-3, 3)))
              for _ in range(data.draw(st.integers(2, 5)))]
    check_family(data, family)
    check_partitions(data, engine)


def test_family_query_examples(fibonacci, golden_mean):
    a = text_cylinder(fibonacci, "a", 0)
    b = text_cylinder(fibonacci, "b", 0)
    # bb does not occur, so b misses phi^-1(b); bab does, so phi^-1(b) meets phi(b)
    assert least_meet([(b, -1), (b, 0)]) is None
    assert least_meet([(b, -1), (b, 0), (b, 1)]) == (0, 2, fibonacci.alphabet.parse_word("bab"))
    # phi^-1(a) and a meet where x[-1] = x[0] = a: the window aab at radius 1
    assert least_meet([(a, -1), (a, 0), (a, 1)]) == (0, 1, fibonacci.alphabet.parse_word("aab"))
    assert least_meet([(a, 0), (a, 1)], allowed={(0, 1)}) is None
    assert is_partition([(a, 0), (b, 0)]) and is_partition([(a, 2), (b, 2)])
    assert not is_partition([(a, 0), (b, 1)])
    assert not is_partition([(a, 0)]) and not is_partition([(a, 0), (b, 0), (b, 0)])
    with pytest.raises(EngineMismatch):
        least_meet([(a, 0), (CloSet.full(golden_mean), 0)])
