import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorfull.closets import CloSet
from cantorfull.elements import (compose, element_image, equal, identity, inverse, shift,
                                 make_semigroup_element)
from cantorfull.errors import (CapExceeded, DepthCapExceeded, EngineMismatch,
                               NonPrimitiveSubstitution, NotAperiodic, NotBijective, SemanticError,
                               StabilizerViolated, WindowTooSmall)
from cantorfull.actions import (_check_injective, _unrefuted, block_orbits, clopen_orbit,
                                index_mod, lef_certificate, orbit_permutation,
                                putnam_blocks, stabilizer_check)
from cantorfull.constructions import cylinder, first_return, is_good, sigma_U
from cantorfull.language import (max_gap, proper_recode, sft_engine, sturmian_engine,
                                 substitution_engine)
from conftest import sample_elements, segment
from test_language import substitutions
from test_sft_properties import (as_pair, closets, oracle_compose, sft_engines, tables,
                                 widest_radius)


def test_orbit_permutation_shift_and_identity(fibonacci):
    perm = orbit_permutation(shift(fibonacci), 12)
    assert all(perm(n) == n + 1 for n in perm.defined_range())
    perm = orbit_permutation(identity(fibonacci), 12)
    assert all(perm(n) == n for n in perm.defined_range())
    assert "n\timage" in perm.tsv()


def test_orbit_permutation_sigma_cycles(fibonacci):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    perm = orbit_permutation(s, 40)
    moved = [n for n in range(-30, 31) if perm(n) != n]
    assert moved
    seen = set()
    for n in moved:
        if n in seen:
            continue
        cycle = {n, perm(n), perm(perm(n))}
        assert perm(perm(perm(n))) == n
        assert len(cycle) == 3
        seen |= cycle


@pytest.mark.parametrize("at", [1, 4095, 8191, 9998])
def test_injectivity_check_sees_a_collision_across_chunks(at):
    # images[at] takes the value of images[at + 1], a displacement of 1; at
    # 4095 and 8191 the pair straddles the start of a chunk
    images = list(range(-5000, 5000))
    _check_injective(images, 1)
    images[at] = images[at + 1]
    with pytest.raises(AssertionError, match="not injective"):
        _check_injective(images, 1)


def test_orbit_permutation_window_guard(fibonacci):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    with pytest.raises(WindowTooSmall):
        orbit_permutation(s, s.radius + s.dbound - 1)


def test_orbit_permutation_partial_homomorphism(fibonacci, fib_pool):
    fs = sample_elements(fib_pool, 10, 41)
    gs = sample_elements(fib_pool, 10, 42)
    for f, g in zip(fs, gs):
        fg = compose(f, g)
        window = 24
        pf = orbit_permutation(f, window + g.dbound)
        pg = orbit_permutation(g, window + g.dbound)
        pfg = orbit_permutation(fg, window + g.dbound)
        for n in range(-window, window + 1):
            assert pfg(n) == pf(pg(n))


def test_index_mod_values(fibonacci):
    assert index_mod(shift(fibonacci)) == 1
    assert index_mod(shift(fibonacci, -3)) == -3
    assert index_mod(identity(fibonacci)) == 0
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    assert index_mod(s) == 0
    assert index_mod(first_return(cylinder(fibonacci, 0, ("a",)))) == 1


def test_index_mod_homomorphism_sample(fib_pool):
    fs = sample_elements(fib_pool, 20, 51)
    gs = sample_elements(fib_pool, 20, 52)
    for f, g in zip(fs, gs):
        assert index_mod(compose(f, g)) == index_mod(f) + index_mod(g)


def test_index_mod_needs_aperiodicity(y_engine):
    with pytest.raises(NotAperiodic):
        index_mod(shift(y_engine))


def test_stabilizer_check(fibonacci):
    assert stabilizer_check(identity(fibonacci))
    assert not stabilizer_check(shift(fibonacci))


def find_positive_sigma(engine, window=48):
    """A 3-cycle whose moved orbit positions stay inside the positives."""
    for anchor in range(2, window // 2):
        for w in engine.allowed_words(3):
            U = CloSet.cylinder(engine, anchor, w)
            from cantorfull.constructions import is_good
            if not is_good(U):
                continue
            s = sigma_U(U)
            if stabilizer_check(s):
                return s
    raise AssertionError("no positively supported 3-cycle found")


def test_stabilizer_positive_sigma(fibonacci):
    s = find_positive_sigma(fibonacci)
    perm = orbit_permutation(s, 48)
    moved = [n for n in perm.defined_range() if perm(n) != n]
    assert moved
    # no moved position crosses the origin in either direction
    assert all((n >= 0) == (perm(n) >= 0) for n in moved)


def test_putnam_blocks_identity(fibonacci):
    result = putnam_blocks([identity(fibonacci)], 16)
    assert result.invariant
    assert result.blocks


def test_putnam_recurrence_set_stays_in_the_window(fibonacci):
    # every n matches when no element moves a point: n runs to the window's end
    result = putnam_blocks([identity(fibonacci)], 10)
    assert result.recurrence_set == tuple(range(-10, 11))
    assert result.blocks == tuple((n, n + 1) for n in range(-10, 10))


def test_putnam_blocks_refuses_an_empty_family():
    with pytest.raises(SemanticError, match="need at least one element"):
        putnam_blocks([], 10)


def test_block_orbits_refuses_an_empty_family():
    with pytest.raises(SemanticError, match="need at least one element"):
        block_orbits([], (0, 3))


def test_putnam_blocks_shift_violates(fibonacci):
    with pytest.raises(StabilizerViolated):
        putnam_blocks([shift(fibonacci)], 16)


def test_putnam_blocks_positive_family(fibonacci):
    s = find_positive_sigma(fibonacci)
    result = putnam_blocks([s], 48)
    assert result.invariant
    assert result.displacement == s.dbound
    for block in result.blocks:
        orbits = block_orbits([s], block)
        assert sum(len(o) for o in orbits) == block[1] - block[0]


def test_clopen_orbit(fibonacci, period_two):
    assert clopen_orbit(CloSet.full(fibonacci)) == 1
    assert clopen_orbit(cylinder(fibonacci, 0, ("a",)), cap=64) is None
    assert clopen_orbit(cylinder(period_two, 0, ("a",))) == 2
    # every length is refuted before an image is built, and still the
    # element's engine is checked
    with pytest.raises(EngineMismatch):
        clopen_orbit(cylinder(fibonacci, 0, ("a",)), f=shift(period_two))


def seen_set_orbit(closet, cap, step):
    """Every image's key kept in a set, until one repeats: the loop that
    clopen_orbit replaced, which does not rely on `step` being a bijection."""
    seen = {closet.key()}
    current = closet
    for _ in range(cap):
        current = step(current).reduced()
        key = current.key()
        if key in seen:
            return len(seen)
        seen.add(key)
    return None


@settings(deadline=None, database=None)
@given(st.data())
def test_clopen_orbit_against_the_seen_set_loop_on_sfts(data):
    engine = data.draw(sft_engines())
    closet = data.draw(closets(engine))
    # the n-th image lies at radius about r + n
    r = closet.radius
    cap = widest_radius(engine, r + 1, r + data.draw(st.integers(1, 4))) - r
    assert clopen_orbit(closet, cap) == seen_set_orbit(closet, cap, lambda c: c.shift_image(1))
    f = data.draw(tables(engine, -1, 1))
    if f.bijective:
        assert clopen_orbit(closet, cap, f=f) == seen_set_orbit(
            closet, cap, lambda c: element_image(c, f))
    else:
        with pytest.raises(NotBijective):
            clopen_orbit(closet, cap, f=f)


def test_clopen_orbit_under_a_first_return(fibonacci):
    U = cylinder(fibonacci, 0, ("b",))
    psi = first_return(U)
    sizes = []
    for n in range(1, 5):
        for w in fibonacci.allowed_words(n):
            V = CloSet.cylinder(fibonacci, 0, w)
            sizes.append(clopen_orbit(V, 10, f=psi))
            assert sizes[-1] == seen_set_orbit(V, 10, lambda c: element_image(c, psi))
    # psi fixes the sets off U and moves those inside it along an infinite orbit
    assert 1 in sizes and None in sizes
    assert clopen_orbit(U, f=psi) == 1


@st.composite
def minimal_engines(draw):
    """A primitive substitution, a Sturmian engine, or a proper recoding of
    an aperiodic one; the expansions are deep enough for the levels drawn."""
    kind = draw(st.sampled_from(["substitution", "sturmian", "recoded"]))
    if kind == "sturmian" or (kind == "recoded" and draw(st.booleans())):
        # quotients up to a denominator of 5000 at least: point windows
        # of some 10^4 letters, however large the quotients
        quotients, q, q_prev = [], 1, 0
        while q < 5000:
            quotients.append(draw(st.integers(1, 8)))
            q, q_prev = quotients[-1] * q + q_prev, q
        engine = sturmian_engine(quotients, len(quotients))
    else:
        try:
            engine = substitution_engine(draw(substitutions()))
        except NonPrimitiveSubstitution:
            assume(False)
    if kind == "recoded":
        assume(engine.aperiodic is True)
        engine = proper_recode(engine, draw(st.integers(1, 2)))
    return engine


def admitted(build, argument):
    """build(argument), or the draw is rejected when the caps refuse the
    element: CapExceeded is the package's answer there."""
    try:
        return build(argument)
    except CapExceeded:
        assume(False)


def orbit_steps(data, engine):
    """f and the step of its orbit: phi, the first return to a cylinder, or
    sigma_U of a good cylinder (phi when none of the drawn ones is good)."""
    kind = data.draw(st.sampled_from(["phi", "first_return", "sigma"]))
    if kind == "first_return":
        word = data.draw(st.sampled_from(engine.allowed_words(data.draw(st.integers(1, 2)))))
        f = admitted(first_return, CloSet.cylinder(engine, data.draw(st.integers(-1, 0)), word))
        return f, lambda c: element_image(c, f)
    if kind == "sigma":
        good = [c for c in (CloSet.cylinder(engine, -1, w) for w in engine.allowed_words(3))
                if is_good(c)]
        if good:
            f = admitted(sigma_U, data.draw(st.sampled_from(good)))
            return f, lambda c: element_image(c, f)
    return None, lambda c: c.shift_image(1)


@settings(deadline=None, database=None)
@given(st.data())
def test_clopen_orbit_against_the_seen_set_loop_on_minimal_engines(data):
    engine = data.draw(minimal_engines())
    # a nonempty proper subset of a level, so the orbit is not one set
    words = engine.allowed_words(2 * data.draw(st.integers(0, 2)) + 1)
    members = data.draw(st.sets(st.sampled_from(words), min_size=1, max_size=len(words) - 1))
    closet = CloSet(engine, (len(words[0]) - 1) // 2, members)
    f, step = orbit_steps(data, engine)
    cap = data.draw(st.integers(1, 10))
    start = closet.reduced()
    left = list(_unrefuted(start, cap, f))
    assert left == sorted(set(left)) and set(left) <= set(range(1, cap + 1))
    # a refuted n really moves the set
    current = start
    for n in range(1, cap + 1):
        current = step(current).reduced()
        if n not in left:
            assert current.key() != start.key()
    assert clopen_orbit(closet, cap, f=f) == seen_set_orbit(closet, cap, step)


@settings(deadline=None, database=None)
@given(st.data())
def test_compose_on_minimal_engines_is_the_top_radius_table(data):
    """On a minimal engine the product is the oracle's table at
    R = max(r_g, r_f + D_g), taken down to its least radius."""
    engine = data.draw(minimal_engines())
    f = orbit_steps(data, engine)[0] or shift(engine)
    g = orbit_steps(data, engine)[0] or shift(engine, -1)
    for first, second in ((f, g), (g, f), (f, inverse(f))):
        product = admitted(lambda pair: compose(*pair), (first, second))
        assert as_pair(product) == oracle_compose(engine, as_pair(first), as_pair(second))


@settings(deadline=None, database=None)
@given(minimal_engines())
def test_max_gap_is_the_longest_return(engine):
    """Some allowed word of length max_gap + |w| holds w at its two ends and
    nowhere else: the gap is attained, not only a bound."""
    for length in (1, 2, 3):
        for w in engine.allowed_words(length):
            gap = max_gap(engine, w)
            # the next occurrence at gap is the word's last |w| letters
            assert any(u.startswith(w) and u.find(w, 1) == gap
                       for u in engine.allowed_words(gap + length)), w


@settings(deadline=None, database=None)
@given(st.one_of(sft_engines(), minimal_engines()))
def test_aperiodic_is_one_rule_on_every_engine_kind(engine):
    assert engine.aperiodic is (engine.minimal and engine.local_period(b"") == 0)
    if engine.aperiodic:
        assert all(engine.periodic_blocks(p) == () for p in range(1, 13))
    if engine.kind == "sft":
        # a nonempty SFT has a cycle, and so a periodic point
        assert any(engine.periodic_blocks(p) for p in range(1, 13))


def test_clopen_orbit_refutes_without_building_levels():
    engine = substitution_engine({"a": "ab", "b": "a"})
    closet = cylinder(engine, 0, ("a",))
    levels = set(engine._words)
    assert clopen_orbit(closet, cap=64) is None
    assert set(engine._words) == levels


def agrees_with_the_plain_loop(closet, cap, f=None):
    """clopen_orbit is the seen-set loop's answer wherever that loop answers;
    where the loop runs out of depth, clopen_orbit may answer or raise the same."""
    step = (lambda c: c.shift_image(1)) if f is None else (lambda c: element_image(c, f))
    try:
        want = seen_set_orbit(closet, cap, step)
    except DepthCapExceeded:
        try:
            clopen_orbit(closet, cap, f=f)
        except DepthCapExceeded:
            pass
        return
    assert clopen_orbit(closet, cap, f=f) == want


def test_clopen_orbit_under_a_small_word_store(monkeypatch):
    # a cap past 155 asks for more than radius 499, the widest point the word
    # store allows, so the read is clamped; on a recoding it reads its source
    # past radius 499
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=1000")
    fib = substitution_engine({"a": "ab", "b": "a"})
    recoded = proper_recode(fib, 2)
    U = cylinder(fib, 0, ("b",))
    psi = first_return(U)
    for closet in (U, cylinder(fib, -1, ("a", "a", "b")), CloSet.full(fib)):
        agrees_with_the_plain_loop(closet, 64)
        agrees_with_the_plain_loop(closet, 64, psi)
    assert clopen_orbit(U, cap=300) is None
    for word in recoded.allowed_words(1):
        agrees_with_the_plain_loop(CloSet.cylinder(recoded, 0, word), 160)


def test_clopen_orbit_on_shallow_sturmian_engines():
    # convergent denominators 5, 13 and 89: points of radius 3, 11 and 87,
    # certified levels up to lengths 1, 4 and 29
    for quotients in ([1, 1, 2], [1] * 6, [1] * 10):
        engine = sturmian_engine(quotients, len(quotients))
        for closet in [CloSet.full(engine)] + [CloSet.cylinder(engine, 0, w)
                                               for w in engine.allowed_words(1)]:
            for cap in (1, 8, 64):
                agrees_with_the_plain_loop(closet, cap)


def test_lef_trivial(fibonacci):
    cert = lef_certificate([identity(fibonacci)])
    assert (cert.order, cert.period) == (1, 1)
    assert cert.verify()


def test_lef_phi_id(fibonacci):
    cert = lef_certificate([identity(fibonacci), shift(fibonacci)])
    assert cert.period == 2  # the order-1 fixed point cannot separate phi from id
    assert cert.verify()
    assert '"witnesses"' in cert.to_json()


def test_lef_rejects_duplicates(fibonacci):
    with pytest.raises(SemanticError):
        lef_certificate([shift(fibonacci), shift(fibonacci)])


def test_lef_cap_exceeded(fibonacci):
    with pytest.raises(CapExceeded):
        lef_certificate([identity(fibonacci), shift(fibonacci)], n_cap=1, p_cap=1)


def test_lef_on_irreducible_sft(golden_mean):
    cert = lef_certificate([identity(golden_mean), shift(golden_mean)])
    assert cert.verify()


def test_lef_points_print_in_the_alphabet_format():
    # "x" and "yy" need separators, so the block x x prints as "x.x", not "xx"
    engine = sft_engine(["x", "yy"], [])
    cert = lef_certificate([shift(engine), identity(engine)])
    points = json.loads(cert.to_json())["points"]
    assert "x.x" in points and "xx" not in points
    assert [engine.alphabet.parse_word(text) for text in points] == list(cert.points)


def test_lef_separates_sigma_powers(matui_set):
    engine = matui_set.engine
    s = matui_set.generators[0]
    elements = [identity(engine), shift(engine), s, compose(s, s)]
    cert = lef_certificate(elements, n_cap=8, p_cap=12)
    assert cert.order <= 8 and cert.period <= 12
    assert cert.verify()
    assert len(cert.witnesses) == 6


# The segment-based reads these functions replaced, kept as oracles.

def oracle_orbit_table(psi, window, base_shift=0, point=None):
    r = psi.radius
    if point is None:
        point = psi.engine.point_window(window + r + abs(base_shift))
    kappa = psi.table
    table = {}
    for n in range(-window, window + 1):
        m = n + base_shift
        table[n] = n + kappa[segment(point, -m - r, -m + r)]
    return table


def oracle_index_mod(psi):
    r, d = psi.radius, psi.dbound
    kappa = psi.table
    values = []
    for s in range(5):
        point = psi.engine.point_window(d + r + 5)
        image = {n: n + kappa[segment(point, -(n + s) - r, -(n + s) + r)] for n in range(-d, d)}
        left = sum(1 for n in range(-d, 0) if image[n] >= 0)
        right = sum(1 for n in range(0, d) if image[n] < 0)
        values.append(left - right)
    return values[0]


def read_elements(engine, good, letter=None):
    """sigma_U of the cylinder of `good` at -1, the first return to `letter`
    at 0 (when given) and their product with phi^2, and phi^-3."""
    sigma = sigma_U(cylinder(engine, -1, good))
    if letter is None:
        return [sigma, compose(sigma, shift(engine, 2)), shift(engine, -3)]
    ret = first_return(cylinder(engine, 0, letter))
    return [sigma, ret, compose(compose(sigma, ret), shift(engine, 2)), shift(engine, -3)]


# reads below one block, of one block and a position either side, and of many
# blocks (Element.orbit_map reads 64 consecutive n as one run)
LONG_READS = [(window, base_shift) for window in (31, 32, 63, 64, 65, 128, 1000, 5000)
              for base_shift in (0, 7, -7)]


def test_orbit_reads_match_segment_oracle(fibonacci, thue_morse):
    recoded = proper_recode(fibonacci, 2)
    # deep enough for windows of 5000
    sturmian = sturmian_engine([1] * 30, 30)
    cases = [(fibonacci, ("a", "a", "b"), ("b",)), (sturmian, ("a", "b", "b"), ("a",)),
             (thue_morse, ("a", "a", "b"), ("b",)),
             (recoded, ("aaba", "abaa"), ("abab",)),
             # its canonical point is the eventually periodic walk a b a b ...
             (sft_engine("ab", ["aa"]), ("b", "b", "a"), None)]
    for engine, good, letter in cases:
        for f in read_elements(engine, good, letter):
            for window, base_shift in [(f.radius + f.dbound, 0), (50, 0), (40, 7), (40, -9),
                                       *LONG_READS]:
                table = oracle_orbit_table(f, window, base_shift)
                expected = [table[n] for n in range(-window, window + 1)]
                point = engine.point_window(window + f.radius + abs(base_shift))
                assert f.orbit_map(point, window, base_shift) == expected
                if base_shift == 0:
                    assert orbit_permutation(f, window).images == expected
            if engine.aperiodic is not True:
                continue
            assert index_mod(f) == oracle_index_mod(f)


def test_orbit_map_reads_a_point_of_distinct_runs(full_shift):
    # a random point: almost every run of letters orbit_map reads is new
    radius = 5000 + 20
    point = bytes(random.Random(19).randrange(2) for _ in range(2 * radius + 1))
    sigma = sigma_U(CloSet.cylinder(full_shift, -1, b"\0\0\1"))
    for f in (sigma, inverse(sigma), compose(sigma, shift(full_shift, 2)), shift(full_shift, -3)):
        for window, base_shift in LONG_READS:
            table = oracle_orbit_table(f, window, base_shift, point)
            assert f.orbit_map(point, window, base_shift) == [table[n] for n in
                                                              range(-window, window + 1)]


def test_windowed_permutation_reads_only_its_window(fibonacci):
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    window = 70
    perm = orbit_permutation(s, window)
    table = oracle_orbit_table(s, window)
    assert [perm(n) for n in perm.defined_range()] == [table[n] for n in range(-window, window + 1)]
    # -2 window would be a valid list index, counted from the end
    for n in (window + 1, -window - 1, -2 * window):
        with pytest.raises(KeyError):
            perm(n)
    assert perm.tsv() == "n\timage\n" + "".join(f"{n}\t{table[n]}\n"
                                                 for n in range(-window, window + 1))


def test_orbit_map_refuses_reads_outside_the_point(fibonacci):
    phi = shift(fibonacci)
    point = fibonacci.point_window(5)
    assert phi.orbit_map(point, 5) == [n + 1 for n in range(-5, 6)]
    for window, base_shift in ((10, 0), (6, 0), (5, 1), (5, -1), (0, 6), (0, -6)):
        with pytest.raises(IndexError):
            phi.orbit_map(point, window, base_shift)
