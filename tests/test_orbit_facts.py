"""The facts read off an orbit against copies of the earlier readers, kept
here as the reference: the index, the half-orbit stabilizer test, Putnam's
crossing witness, block orbits and the Houghton ends, over generated words in
phi^+-1, sigma_U of good cylinders and first returns."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from cantorfull.actions import (block_orbits, index_mod, orbit_permutation,
                                putnam_blocks, stabilizer_check)
from cantorfull.constructions import (HoughtonProfile, cylinder, first_return, houghton_engine_y,
                                      houghton_engine_y3, houghton_orbit_map,
                                      houghton_profile, is_good, sigma_U)
from cantorfull.elements import compose, inverse, shift
from cantorfull.errors import SemanticError, StabilizerViolated, WindowTooSmall
from cantorfull.language import sturmian_engine, substitution_engine
from conftest import enumerate_bijective


# -- the reference: three scans of j(n) = n + kappa(phi^n x) over three ranges --


def oracle_index_mod(psi):
    r, d = psi.radius, psi.dbound
    point = psi.engine.point_window(d + r + 5)
    values = []
    for s in range(5):
        image = dict(zip(range(-d, d + 1), psi.orbit_map(point, d, s)))
        left = sum(1 for n in range(-d, 0) if image[n] >= 0)
        right = sum(1 for n in range(0, d) if image[n] < 0)
        values.append(left - right)
    if len(set(values)) != 1:
        raise AssertionError("index is not basepoint-independent")
    return values[0]


def oracle_stabilizer_check(psi, window=None):
    r, d = psi.radius, psi.dbound
    if window is None:
        window = 4 * (r + d) if r + d else 4
    perm = orbit_permutation(psi, window)
    c = perm.c
    for n in range(0, window - c + 1):
        if perm(n) < 0:
            return False
    for n in range(-window + c, 0):
        if perm(n) >= 0:
            return False
    return True


def oracle_crossing_witness(perm):
    for n in perm.defined_range():
        if n < 0 <= perm(n) or (n >= 0 and perm(n) < 0):
            return n, perm(n)
    return None


def oracle_putnam_witness(elements, window):
    """The crossing the earlier putnam_blocks reported, or None."""
    family, seen = [], set()
    for f in elements:
        for g in (f, inverse(f)):
            if g.canonical_key() not in seen:
                seen.add(g.canonical_key())
                family.append(g)
    for f in family:
        perm = orbit_permutation(f, window)
        if not oracle_stabilizer_check(f, window):
            return oracle_crossing_witness(perm)
    return None


def oracle_block_orbits(elements, block):
    """The earlier union over f and f^-1.  It sized its window by the f alone,
    so it raised WindowTooSmall where an inverse has a larger r + D; here the
    window covers the inverses too."""
    start, end = block
    family = elements + [inverse(f) for f in elements]
    window = max(abs(start), abs(end)) + max(f.radius + f.dbound for f in family)
    perms = [orbit_permutation(f, window) for f in family]
    parent = {n: n for n in range(start, end)}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for n in range(start, end):
        for p in perms:
            m = p(n)
            if start <= m < end:
                parent[find(n)] = find(m)
    orbits = {}
    for n in range(start, end):
        orbits.setdefault(find(n), []).append(n)
    return sorted(map(tuple, orbits.values()))


def _oracle_houghton_kind(engine):
    size, pairs = len(engine.alphabet), set(engine.allowed_words(2))
    if size == 2 and pairs == {b"\0\0", b"\0\1", b"\1\1"}:
        return "y2"
    if size == 3 and pairs == {b"\0\0", b"\0\1", b"\1\2", b"\2\1"}:
        return "y3"
    raise SemanticError("profiles are defined on the Y and Y' engines")


def _oracle_end_translation(table, positions, label):
    deviations = {table[n] - n for n in positions}
    if len(deviations) != 1:
        raise WindowTooSmall(f"{label} end does not stabilize in the window")
    return deviations.pop()


def oracle_houghton_profile(f, window):
    """The profile, one branch per engine."""
    if not f.bijective:
        raise AssertionError("the generated elements are bijective")
    kind = _oracle_houghton_kind(f.engine)
    if window < 1:
        raise WindowTooSmall("the ends are read off positions 1..window on each side")
    table = dict(zip(range(-window, window + 1), houghton_orbit_map(f, window)))
    quarter = max(1, window // 4)
    if kind == "y2":
        t_plus = _oracle_end_translation(table, range(window - quarter + 1, window + 1), "+inf")
        t_minus = _oracle_end_translation(table, range(-window, -window + quarter), "-inf")
        ends = (t_plus, t_minus)

        def expected(n):
            return n + (t_plus if n >= 0 else t_minus)
    else:
        t_plus = _oracle_end_translation(table, range(window - quarter + 1, window + 1), "+inf")
        evens = [n for n in range(-window, -window + 2 * quarter + 1) if n % 2 == 0]
        odds = [n for n in range(-window, -window + 2 * quarter + 1) if n % 2 != 0]
        t_even = _oracle_end_translation(table, evens, "even -inf")
        t_odd = _oracle_end_translation(table, odds, "odd -inf")
        ends = (t_plus, t_even, t_odd)

        def expected(n):
            if n >= 0:
                return n + t_plus
            return n + (t_even if n % 2 == 0 else t_odd)

    exceptional = tuple(n for n in sorted(table) if table[n] != expected(n))
    if any(abs(n) > window // 2 for n in exceptional):
        raise WindowTooSmall("deviations reach outside half the window")
    return HoughtonProfile(ends, exceptional)


# -- generated elements --------------------------------------------------------


ENGINES = {
    "fibonacci": lambda: substitution_engine({"a": "ab", "b": "a"}),
    "thue_morse": lambda: substitution_engine({"a": "ab", "b": "ba"}),
    "sturmian": lambda: sturmian_engine([1] * 12, 12),
    "y": houghton_engine_y,
    "y3": houghton_engine_y3,
}


@functools.cache
def generators(name):
    """phi^+-1, sigma_U of the good cylinders of 2 and 3 letters at a few
    anchors, and first returns to the one-letter cylinders (aperiodic engines)
    or every radius-1 bijection with |values| <= 2 (Y and Y', which have no
    first returns)."""
    engine = ENGINES[name]()
    fmt = engine.alphabet.format_word
    gens = [shift(engine), shift(engine, -1)]
    for anchor in (-4, -1, 0, 2):
        for length in (2, 3):
            for w in engine.allowed_words(length):
                U = cylinder(engine, anchor, tuple(fmt(w)))
                if is_good(U):
                    gens.append(sigma_U(U))
    if engine.aperiodic is True:
        gens += [first_return(cylinder(engine, 0, (letter,))) for letter in engine.alphabet.letters]
    else:
        gens += enumerate_bijective(engine, 1, 2)
    return gens


def _word(name):
    return st.lists(st.sampled_from(generators(name)), min_size=1, max_size=3).map(
        lambda picks: functools.reduce(compose, picks))


def words_on(*names):
    """Products of one to three generators on one of the named engines."""
    return st.sampled_from(names).flatmap(_word)


def families_on(*names):
    """One or two such products, on one engine."""
    return st.sampled_from(names).flatmap(
        lambda name: st.lists(_word(name), min_size=1, max_size=2))


APERIODIC = ("fibonacci", "thue_morse", "sturmian")


@settings(deadline=None, database=None, max_examples=150)
@given(words_on(*APERIODIC))
def test_index_and_stabilizer_against_the_scans(f):
    assert index_mod(f) == oracle_index_mod(f)
    assert stabilizer_check(f) == oracle_stabilizer_check(f)


@settings(deadline=None, database=None, max_examples=100)
@given(families_on("fibonacci"), st.integers(0, 12))
def test_putnam_witness_against_the_scans(elements, extra):
    family = elements + [inverse(f) for f in elements]
    d = max(f.dbound for f in family)
    window = max(f.radius + f.dbound for f in family) + extra
    try:
        putnam_blocks(elements, window)
        witness = None
    except StabilizerViolated as err:
        witness = (err.position, err.image)
    except WindowTooSmall as err:
        # past the stabilizer test: too few returns of the orbit pattern
        assert "displacements" not in str(err)
        witness = None
    expected = oracle_putnam_witness(elements, window)
    if window >= 2 * d:
        assert witness == expected
    elif expected is not None:
        # below 2D the earlier scans skipped positions, so they could only
        # miss a crossing, never report one that is not there
        assert witness is not None


@settings(deadline=None, database=None, max_examples=100)
@given(families_on("fibonacci", "sturmian"), st.integers(-20, 20), st.integers(1, 30))
def test_block_orbits_against_the_scans(elements, start, length):
    block = (start, start + length)
    assert block_orbits(elements, block) == oracle_block_orbits(elements, block)


def _outcome(function, *args):
    try:
        return function(*args)
    except (SemanticError, WindowTooSmall) as err:
        return type(err), str(err)


@settings(deadline=None, database=None, max_examples=60)
@given(words_on("y", "y3"))
def test_houghton_ends_against_the_branches(f):
    for window in range(65):
        assert _outcome(houghton_profile, f, window) == _outcome(oracle_houghton_profile, f, window)


def test_houghton_ends_differ_by_parity_on_y3():
    # a -> 0, b -> -1, c -> +1 exchanges neighbouring b and c on the tail, so
    # the even and odd -inf ends translate in opposite directions
    f = next(g for g in generators("y3") if g.radius == 0 and
             [g.table[bytes([i])] for i in range(3)] == [0, -1, 1])
    profile = houghton_profile(f, 64)
    assert profile.end_translations == (0, 1, -1)
    assert profile == oracle_houghton_profile(f, 64)


# -- the window bug: below 2D the earlier scans read the inverse's crossing ---


def test_stabilizer_check_reads_every_crossing(fibonacci):
    assert stabilizer_check(shift(fibonacci, 5)) is False
    assert oracle_stabilizer_check(shift(fibonacci, 5), 5) is True


def test_putnam_reports_the_first_crossing(fibonacci):
    with pytest.raises(StabilizerViolated) as err:
        putnam_blocks([shift(fibonacci, 5)], 5)
    assert (err.value.position, err.value.image) == (-5, 0)
    assert oracle_putnam_witness([shift(fibonacci, 5)], 5) == (0, -5)
    with pytest.raises(StabilizerViolated) as err:
        putnam_blocks([shift(fibonacci, 5)], 6)
    assert (err.value.position, err.value.image) == (-5, 0)
