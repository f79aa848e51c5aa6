import collections
import itertools
import json
import re

import pytest

from cantorfull.closets import CloSet, least_meet
from cantorfull.elements import (canonical_dump, compose, equal, identity,
                                 inverse, is_identity, make_element, order,
                                 power, shift, support, element_image)
from cantorfull.errors import (CantorfullError, CapExceeded, DepthCapExceeded,
                               EngineMismatch, FixedPointFound, NotGood,
                               NotOmniscient, OdometerLike, OverlapError,
                               PreconditionViolated, SemanticError,
                               SurplusViolated, WindowTooSmall)
from cantorfull.language import (sft_engine, SFTEngine, sturmian_engine,
                                 substitution_engine)
from cantorfull.words import Alphabet, factors
from cantorfull.constructions import (HoughtonProfile, SymmetricEmbedding,
                                      TowerPartition, _swap_element, cylinder, first_return,
                                      gw_transport, houghton_engine_y,
                                      houghton_engine_y3, houghton_orbit_map,
                                      houghton_profile, is_good, is_proper,
                                      kr_towers, lamplighter_pair,
                                      matui_by_recursion, matui_cylinder_sigma,
                                      matui_generators, qeqz_check,
                                      rokhlin_base, sigma_U,
                                      van_douwen_certify,
                                      van_douwen_involutions,
                                      van_douwen_walk, van_douwen_witness)
from cantorfull.language import max_gap
from conftest import enumerate_bijective, sample_elements, segment


# -- good sets and sigma --------------------------------------------------


def test_sigma_of_empty_is_identity(fibonacci):
    assert equal(sigma_U(CloSet.empty(fibonacci)), identity(fibonacci))


def test_sigma_order_three(fibonacci):
    U = cylinder(fibonacci, -1, ("a", "a", "b"))
    assert is_good(U)
    s = sigma_U(U)
    assert order(s) == 3
    assert equal(inverse(s), compose(s, s))
    hull = U.shift_image(-1).union(U).union(U.shift_image(1))
    assert support(s).is_subset(hull)


def test_bad_set_on_y(y_engine):
    U = cylinder(y_engine, 0, ("a",))
    assert not is_good(U)
    with pytest.raises(NotGood):
        sigma_U(U)


# -- symmetric embeddings ---------------------------------------------------


def test_symmetric_embed_s3(fibonacci):
    phi = shift(fibonacci)
    emb = SymmetricEmbedding([identity(fibonacci), phi, compose(phi, phi)],
                             cylinder(fibonacci, -1, ("a", "a", "b")))
    assert emb.verify_relations()
    cycle = emb.element((1, 2, 0))
    swap = emb.element((1, 0, 2))
    assert is_identity(power(cycle, 3))
    assert is_identity(power(swap, 2))
    t23, t13 = emb.element((0, 2, 1)), emb.element((2, 1, 0))
    assert equal(compose(swap, compose(t23, swap)), t13)
    assert not is_identity(swap)


def test_symmetric_embed_trivial_and_overlap(fibonacci):
    emb = SymmetricEmbedding([identity(fibonacci)], cylinder(fibonacci, -1, ("a", "a", "b")))
    assert is_identity(emb.element((0,)))
    with pytest.raises(OverlapError):
        SymmetricEmbedding([identity(fibonacci), identity(fibonacci)],
                           cylinder(fibonacci, -1, ("a", "a", "b")))


# -- first return and towers -----------------------------------------------


def test_first_return_full_space(fibonacci):
    assert equal(first_return(CloSet.full(fibonacci)), shift(fibonacci))


def test_first_return_times(fibonacci):
    fr_a = first_return(cylinder(fibonacci, 0, ("a",)))
    assert set(fr_a.table.values()) - {0} == {1, 2}
    fr_b = first_return(cylinder(fibonacci, 0, ("b",)))
    assert set(fr_b.table.values()) - {0} == {2, 3}


def test_first_return_gaps_match_point_window(fibonacci):
    for text in ("a", "b", "aab"):
        letters = fibonacci.alphabet.parse_word(text)
        U = cylinder(fibonacci, 0, text)
        fr = first_return(U)
        times = set(fr.table.values()) - {0}
        bound = max_gap(fibonacci, letters)
        window = fibonacci.point_window(5 * bound)
        hits = [i for i in range(len(window) - len(letters) + 1)
                if window[i:i + len(letters)] == letters]
        gaps = {b - a for a, b in zip(hits, hits[1:])}
        assert gaps == times


def test_fact_pe_periodicity(fibonacci):
    phi_inv = inverse(shift(fibonacci))
    for letters in (("a",), ("b",)):
        fr = first_return(cylinder(fibonacci, 0, letters))
        g = compose(phi_inv, fr)
        n = order(g, cap=1000)
        sup_k = max(fr.table.values())
        fact = 1
        for i in range(1, sup_k + 1):
            fact *= i
        assert n is not None and fact % n == 0


def test_kr_towers_examples(fibonacci):
    single = kr_towers(CloSet.full(fibonacci))
    assert [h for _, h in single.pieces] == [1]
    over_b = kr_towers(cylinder(fibonacci, 0, ("b",)))
    assert sorted(h for _, h in over_b.pieces) == [2, 3]
    over_aab = kr_towers(cylinder(fibonacci, -1, ("a", "a", "b")))
    fr = first_return(cylinder(fibonacci, -1, ("a", "a", "b")))
    assert sorted({h for _, h in over_aab.pieces}) == sorted(set(fr.table.values()) - {0})
    assert over_aab.verify()


def oracle_tower_verify(pieces):
    """Nonempty bases, levels disjoint pair by pair, union the whole space."""
    levels = []
    for base, height in pieces:
        if base.is_empty():
            return False
        levels.extend(base.shift_image(i) for i in range(height))
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            if not levels[i].is_disjoint(levels[j]):
                return False
    total = levels[0]
    for piece in levels[1:]:
        total = total.union(piece)
    return total == CloSet.full(total.engine)


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse"])
def test_tower_verify_against_pairwise_oracle(request, name):
    engine = request.getfixturevalue(name)
    empty = CloSet.empty(engine)
    for U in small_cylinders(engine):
        pieces = kr_towers(U).pieces
        (base, height), rest = pieces[0], pieces[1:]
        broken = {
            "dropped piece": rest or ((base, height - 1),),
            "duplicated level": pieces + ((base, 1),),
            "taller tower": ((base, height + 1),) + rest,
            "empty base": pieces + ((empty, 1),),
        }
        assert TowerPartition(pieces).verify() and oracle_tower_verify(pieces)
        for kind, bad in broken.items():
            assert not TowerPartition(bad).verify(), kind
            assert not oracle_tower_verify(bad), kind


def oracle_good_witness(closet):
    """(pair names, least window of the meet) of the first meeting pair."""
    translates = {-1: closet.shift_image(-1), 0: closet, 1: closet.shift_image(1)}
    for i, j in ((-1, 0), (-1, 1), (0, 1)):
        meet = translates[i].intersect(translates[j])
        if not meet.is_empty():
            return (f"phi^{i}U", f"phi^{j}U"), closet.engine.alphabet.format_word(min(meet.members))
    return None


def oracle_qeqz_violation(U, V):
    labeled = [("phi^-1U", U.shift_image(-1)), ("U", U), ("phiU", U.shift_image(1)),
               ("phi^-1V", V.shift_image(-1)), ("V", V), ("phiV", V.shift_image(1))]
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            (ni, si), (nj, sj) = labeled[i], labeled[j]
            if {ni, nj} != {"phiU", "phi^-1V"} and not si.is_disjoint(sj):
                return ni, nj
    return None


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse", "golden_mean"])
def test_good_decision_against_pairwise_oracle(request, name):
    engine = request.getfixturevalue(name)
    for U in small_cylinders(engine) + [CloSet.cylinder(engine, -2, w) for w in engine.allowed_words(5)]:
        witness = oracle_good_witness(U)
        assert is_good(U) == (witness is None)
        if witness is not None:
            with pytest.raises(NotGood) as err:
                sigma_U(U)
            assert (err.value.pair, err.value.word) == witness


def test_qeqz_decision_against_pairwise_oracle(matui_set):
    """Cylinders of 3-words at -1 on the proper engine: phi U meets phi^-1 V
    for some pairs (allowed), other translates for others (refused)."""
    engine = matui_set.engine
    sets = [CloSet.cylinder(engine, -1, w) for w in engine.allowed_words(3)]
    outcomes = set()
    for U, V in itertools.product(sets, repeat=2):
        violation = oracle_qeqz_violation(U, V)
        if violation is None:
            meets = not U.shift_image(1).is_disjoint(V.shift_image(-1))
            outcomes.add("allowed meet" if meets else "disjoint")
            assert qeqz_check(U, V)
        else:
            outcomes.add("violated")
            with pytest.raises(PreconditionViolated) as err:
                qeqz_check(U, V)
            assert err.value.pair == violation
    assert outcomes == {"allowed meet", "disjoint", "violated"}


def test_tower_reports(fibonacci):
    towers = kr_towers(cylinder(fibonacci, 0, ("b",)))
    tsv = towers.tsv()
    assert tsv.startswith("tower_id\theight\tbase_word_count")
    assert "digraph" in towers.dot()


# -- Rokhlin bases -----------------------------------------------------------


def test_rokhlin_base_trivial(fibonacci):
    assert rokhlin_base(shift(fibonacci), 1) == CloSet.full(fibonacci)


def test_rokhlin_base_for_shift(fibonacci):
    for n in (2, 3):
        base = rokhlin_base(shift(fibonacci), n)
        translates = [base.shift_image(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert translates[i].is_disjoint(translates[j])


def test_rokhlin_fixed_point_detected(fibonacci):
    with pytest.raises(FixedPointFound):
        rokhlin_base(identity(fibonacci), 2)
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    with pytest.raises(FixedPointFound):
        rokhlin_base(s, 3)


def test_rokhlin_on_free_cyclic_action(period_two):
    # phi generates a free Z/2 action on the two-point subshift
    base = rokhlin_base(shift(period_two), 2)
    assert base.is_disjoint(base.shift_image(1))
    assert base.union(base.shift_image(1)) == CloSet.full(period_two)


def oracle_rokhlin_base(f, n):
    """The greedy subcover, cell by cell: at the least radius whose cells are
    each disjoint from their f^i-images, 0 < i < n, take each cell in word
    order minus the f^i-images, 0 < |i| < n, of the cells before it."""
    engine = f.engine
    caps = engine.caps
    if n < 1:
        raise SemanticError("n must be >= 1")
    if n == 1:
        return CloSet.full(engine)
    powers = {}
    for i in range(1, n):
        powers[i] = power(f, i)
        for w, v in powers[i].table.items():
            if v == 0 or engine.cylinder_periodic_exists(w, v):
                raise FixedPointFound(i, engine.alphabet.format_word(w))
    for i in range(1, n):
        powers[-i] = inverse(powers[i])

    start = max(g.radius for g in powers.values())
    chosen = None
    for radius in range(start, caps.radius_search + 1):
        words = engine.allowed_words(2 * radius + 1)
        cells = [CloSet(engine, radius, {w}) for w in words]
        if all(cell.is_disjoint(element_image(cell, powers[i]))
               for cell in cells for i in range(1, n)):
            chosen = cells
            break
    if chosen is None:
        raise CapExceeded("no small enough neighborhoods found", cap=caps.radius_search)

    base = CloSet.empty(engine)
    shadow = CloSet.empty(engine)
    for cell in chosen:
        base = base.union(cell.minus(shadow))
        for i in range(-(n - 1), n):
            img = element_image(cell, powers[i]) if i else cell
            shadow = shadow.union(img)

    translates = [base if i == 0 else element_image(base, powers[i]) for i in range(n)]
    if least_meet([(t, 0) for t in translates]) is not None:
        raise AssertionError("Rokhlin translates are not disjoint")
    acc = base
    fwd = bwd = base
    for _ in range(caps.orbit):
        if acc == CloSet.full(engine):
            return base
        fwd = element_image(fwd, f)
        bwd = element_image(bwd, inverse(f))
        grown = acc.union(fwd).union(bwd)
        if grown == acc:
            raise AssertionError("f-orbit of the base does not cover the space")
        acc = grown.reduced()
    raise CapExceeded("cover verification did not terminate", cap=caps.orbit)


def rokhlin_grid(engine):
    """Products of two of phi, phi^-1 and phi^2 and those three alone, the
    first returns to the letter cylinders (on a minimal engine) and each
    composed with phi, and sigma_U of the good centered cylinders of length
    <= 3: those with r + D <= 6."""
    phi = shift(engine)
    moves = [phi, inverse(phi), shift(engine, 2)]
    grid = moves + [compose(g, h) for g, h in itertools.product(moves, repeat=2)]
    if engine.minimal is True:
        returns = [first_return(CloSet(engine, 0, {w})) for w in engine.allowed_words(1)]
        grid += returns + [compose(g, phi) for g in returns]
    cylinders = [CloSet.cylinder(engine, -(length // 2), w)
                 for length in (1, 2, 3) for w in engine.allowed_words(length)]
    grid += [sigma_U(c) for c in cylinders if is_good(c)]
    return [g for g in grid if g.radius + g.dbound <= 6]


def rokhlin_outcome(construct, f, n):
    """The base's key, or the type and message of the error raised."""
    try:
        return construct(f, n).key()
    except CantorfullError as err:
        return type(err), str(err)


def test_rokhlin_base_is_the_greedy_subcover(fibonacci, thue_morse, period_two, golden_mean,
                                             monkeypatch):
    engines = [fibonacci, thue_morse, substitution_engine({"a": "aab", "b": "ba"}),
               sturmian_engine([2, 1, 3, 1, 2, 1, 1], 7), period_two,
               sft_engine("abc", ["aa", "bb", "cc"]), golden_mean]
    # engines read their caps when built: these stop the radius search at 2
    monkeypatch.setenv("CANTORFULL_CAPS", "radius_search=2")
    engines += [substitution_engine({"a": "ab", "b": "a"}),
                substitution_engine({"a": "ab", "b": "ba"})]
    kinds = collections.Counter()
    for engine in engines:
        for f in rokhlin_grid(engine):
            for n in (2, 3, 4):
                expected = rokhlin_outcome(oracle_rokhlin_base, f, n)
                got = rokhlin_outcome(rokhlin_base, f, n)
                if expected[0] is DepthCapExceeded and got != expected:
                    # the greedy reads level R + d_i only up to its first
                    # failing cell, the rule reads R + D at every R: the word
                    # that runs past the depth cap can come at a smaller R
                    assert got[0] is DepthCapExceeded
                    assert depth_cap_length(got[1]) < depth_cap_length(expected[1])
                else:
                    assert got == expected, (engine, f, n)
                kinds[expected[0] if isinstance(expected[0], type) else CloSet] += 1
    assert set(kinds) == {CloSet, FixedPointFound, DepthCapExceeded, CapExceeded}, kinds


def depth_cap_length(message):
    """The word length a DepthCapExceeded message says the engine cannot reach."""
    return int(re.search(r"length >= (\d+)", message).group(1))


# -- Glasner-Weiss transport --------------------------------------------------


def test_gw_empty_target(fibonacci):
    result = gw_transport(cylinder(fibonacci, 0, ("a",)), CloSet.empty(fibonacci))
    assert equal(result.alpha, identity(fibonacci))
    assert result.contained and result.index == 0


def test_gw_transport_a_over_b(fibonacci):
    A = cylinder(fibonacci, 0, ("a",))
    B = cylinder(fibonacci, 0, ("b",))
    result = gw_transport(A, B)
    assert result.contained
    assert element_image(B, result.alpha).is_subset(A)
    assert result.index == 0
    assert all(t["parity"] == "even" for t in result.towers)
    assert '"contained": true' in result.to_json()


def test_gw_surplus_violated(fibonacci):
    with pytest.raises(SurplusViolated):
        gw_transport(cylinder(fibonacci, 0, ("b",)), cylinder(fibonacci, 0, ("a",)))


# -- Matui generators and the commutator recursion ---------------------------


def test_matui_counts_and_orders(matui_set):
    engine = matui_set.engine
    assert is_proper(engine, 4)
    assert len(matui_set.generators) == len(engine.allowed_words(3))
    assert all(order(g) == 3 for g in matui_set.generators)


def test_matui_recursion_reconstructs_depth2_and_3(matui_set):
    engine = matui_set.engine
    for h in engine.allowed_words(5):
        assert equal(matui_by_recursion(engine, h), matui_cylinder_sigma(engine, h))
    for h in engine.allowed_words(7)[:4]:
        assert equal(matui_by_recursion(engine, h), matui_cylinder_sigma(engine, h))


def test_matui_recursion_word_witness(matui_set):
    from cantorfull.constructions import matui_recursion_word
    from cantorfull.parsing import Session
    engine = matui_set.engine
    for h in engine.allowed_words(5)[:3]:
        witness = matui_recursion_word(engine, h)
        rebuilt = Session(engine).eval_program(witness)
        assert equal(rebuilt, matui_cylinder_sigma(engine, h))


def test_120_generators_on_full_proper_shift():
    letters = "abcdef"
    alphabet = Alphabet(letters)
    allowed = {bytes(w) for w in itertools.product(range(len(letters)), repeat=5)
               if len(set(w)) == 5}
    engine = SFTEngine.from_allowed(alphabet, 5, allowed)
    assert is_proper(engine, 4)
    words3 = engine.allowed_words(3)
    assert len(words3) == 120 == 6 * 5 * 4
    s = sigma_U(CloSet.cylinder(engine, -1, words3[0]))
    assert order(s) == 3


def test_qeqz_trivial_and_violated(fibonacci, matui_set):
    empty = CloSet.empty(matui_set.engine)
    assert qeqz_check(empty, empty)
    U = cylinder(fibonacci, -1, ("a", "a", "b"))
    with pytest.raises(PreconditionViolated):
        qeqz_check(U, U)


def test_qeqz_on_recursion_pairs(matui_set):
    engine = matui_set.engine
    count = 0
    for h in engine.allowed_words(5):
        U = CloSet.cylinder(engine, -1, h[2:])   # right part: qeqz's U
        V = CloSet.cylinder(engine, -1, h[:-2])  # left part: qeqz's V
        assert qeqz_check(U, V)
        count += 1
    assert count == len(engine.allowed_words(5))


# -- lamplighter --------------------------------------------------------------


@pytest.fixture(scope="module")
def lamp(fibonacci):
    return lamplighter_pair(cylinder(fibonacci, 0, ("b",)))


def test_lamplighter_relations(lamp):
    assert lamp.checked_shifts == 32
    e = identity(lamp.engine)
    assert equal(compose(lamp.sigma0, lamp.sigma0), e)
    conj = compose(lamp.Psi, compose(lamp.sigma((0,)), inverse(lamp.Psi)))
    assert equal(conj, lamp.sigma((1,)))


def test_lamplighter_commuting_lamps(lamp):
    s0, s1 = lamp.sigma((0,)), lamp.sigma((1,))
    both = lamp.sigma((0, 1))
    assert equal(both, compose(s0, s1))
    assert equal(compose(s0, s1), compose(s1, s0))
    assert support(s0).is_disjoint(support(s1))


def test_lamplighter_rejections(period_two, fibonacci):
    with pytest.raises(OdometerLike):
        lamplighter_pair(cylinder(period_two, 0, ("a",)))
    with pytest.raises(OverlapError):
        lamplighter_pair(cylinder(fibonacci, 0, ("a",)))


# -- van Douwen ---------------------------------------------------------------


def test_van_douwen_involutions():
    engine, sigmas = van_douwen_involutions(3)
    for s in sigmas:
        assert order(s, cap=4) == 2
    product = compose(sigmas[0], sigmas[1])
    # low powers by direct tables; beyond that exponential SFT complexity
    # makes materialization infeasible and the walk certificate takes over
    assert order(product, cap=3) is None
    for n in range(4, 13):
        word = tuple(k for _ in range(n) for k in (0, 1))
        assert van_douwen_certify(engine, sigmas, word[:n]) == (True, True)


def oracle_van_douwen_involutions(q):
    """The involutions built from hand offsets: on the radius-1 window w,
    sigma_a moves by +1 where w[1] = a and by -1 where w[2] = a."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:q]
    engine = sft_engine(letters, [c + c for c in letters])
    return [make_element(engine, 1, tuple(1 if w[1] == a else -1 if w[2] == a else 0
                                          for w in engine.allowed_words(3)))
            for a in range(q)]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_van_douwen_involutions_against_hand_offsets(q):
    _, sigmas = van_douwen_involutions(q)
    assert [canonical_dump(s) for s in sigmas] == \
        [canonical_dump(s) for s in oracle_van_douwen_involutions(q)]


def test_van_douwen_walk_matches_paper():
    engine, sigmas = van_douwen_involutions(3)
    window, expected = van_douwen_witness(engine, (0, 1, 2))
    # x[-5..5]: x[1..3] spells the indices, x[0] differs from x[3]
    assert len(window) == 11 and engine.is_allowed(window)
    assert segment(window, 1, 3) == bytes((0, 1, 2)) and window[5 + 0] != window[5 + 3]
    assert van_douwen_walk(sigmas, (0, 1, 2), window) == expected == -3


def test_van_douwen_certificates_short_words():
    engine, sigmas = van_douwen_involutions(3)
    for ks in [(0,), (0, 1), (1, 0, 1), (2, 0, 1, 2)]:
        automaton_ok, witness_ok = van_douwen_certify(engine, sigmas, ks)
        assert automaton_ok and witness_ok
        m = identity(engine)
        for k in ks:
            m = compose(m, sigmas[k])
        assert not is_identity(m)


# -- Houghton profiles --------------------------------------------------------


def test_houghton_shift_profile():
    engine = houghton_engine_y()
    profile = houghton_profile(shift(engine), 64)
    assert profile.end_translations == (1, 1)
    assert profile.exceptional_set == ()


def test_houghton_transposition_fixture():
    engine = houghton_engine_y()
    table = {}
    moves = {engine.alphabet.parse_word("abb"): 1, engine.alphabet.parse_word("aab"): -1}
    for w in engine.allowed_words(5):
        table[w] = moves.get(w[2:], 0)
    from cantorfull.elements import make_element
    t = make_element(engine, 2, table)
    profile = houghton_profile(t, 64)
    assert profile.end_translations == (0, 0)
    assert profile.exceptional_set == (0, 1)
    images = houghton_orbit_map(t, 4)
    assert images[4] == 1 and images[5] == 0 and images[6] == 2


@pytest.mark.parametrize("build", [houghton_engine_y, houghton_engine_y3])
def test_houghton_window_zero_is_too_small(build):
    with pytest.raises(WindowTooSmall):
        houghton_profile(shift(build()), 0)


def test_houghton_y3_shift():
    engine = houghton_engine_y3()
    profile = houghton_profile(shift(engine), 64)
    assert profile.end_translations == (1, 1, 1)
    assert profile.exceptional_set == ()


# -- slicing oracles: each construction built window by window ----------------


def oracle_sigma_U(closet):
    engine = closet.engine
    r = closet.radius
    radius = r + 1
    members = closet.members

    def value(w):
        # window for "x in phi^c(U)" sits at position c
        if w[radius - r: radius + r + 1] in members:
            return 1
        if w[1 + radius - r: 1 + radius + r + 1] in members:
            return -2
        if w[-1 + radius - r: -1 + radius + r + 1] in members:
            return 1
        return 0

    return make_element(engine, radius, {w: value(w) for w in engine.allowed_words(2 * radius + 1)})


def oracle_swap_element(closet):
    engine = closet.engine
    r = closet.radius
    radius = r + 1
    members = closet.members

    def value(w):
        if w[radius - r: radius + r + 1] in members:
            return 1
        if w[1 + radius - r: 1 + radius + r + 1] in members:
            return -1
        return 0

    return make_element(engine, radius, {w: value(w) for w in engine.allowed_words(2 * radius + 1)})


def oracle_first_return(closet):
    engine = closet.engine
    src = closet.reduced()
    gap = min(max_gap(engine, w) for w in src.members)
    r = src.radius
    radius = r + gap
    members = src.members
    table = {}
    for y in engine.allowed_words(2 * radius + 1):
        if y[gap: gap + 2 * r + 1] not in members:
            table[y] = 0
            continue
        for k in range(1, gap + 1):
            if y[gap - k: gap - k + 2 * r + 1] in members:
                table[y] = k
                break
        else:
            raise CapExceeded("no return within the recurrence bound", cap=gap)
    return make_element(engine, radius, table)


def oracle_kr_pieces(closet, refine_by=()):
    """((base radius, base members, height), ...) in the towers' order."""
    engine = closet.engine
    src = closet.reduced()
    gap = min(max_gap(engine, w) for w in src.members)
    refine_radius = max([s.radius for s in refine_by], default=0)
    r = src.radius
    radius = r + gap + refine_radius
    members = src.members
    refined = [s.at_radius(refine_radius) if s.radius < refine_radius else s
               for s in refine_by]
    groups = {}
    for y in engine.allowed_words(2 * radius + 1):
        center = radius
        if y[center - r: center + r + 1] not in members:
            continue
        height = None
        for k in range(1, gap + 1):
            if y[center - k - r: center - k + r + 1] in members:
                height = k
                break
        if height is None:
            raise CapExceeded("no return within the recurrence bound", cap=gap)
        signature = []
        for i in range(height):
            for s in refined:
                rs = s.radius
                window = y[center - i - rs: center - i + rs + 1]
                signature.append(window in s.members)
        groups.setdefault((height, tuple(signature)), set()).add(y)
    return [(radius, frozenset(words), height)
            for (height, _), words in sorted(
                groups.items(),
                key=lambda kv: (kv[0][0], kv[0][1], min(kv[1])))]


def oracle_permutation_parity(perm):
    """1 when the permutation has an odd number of even-length cycles."""
    seen = [False] * len(perm)
    odd = False
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            odd = not odd
    return 1 if odd else 0


def oracle_cycle_string(perm):
    cycles = []
    seen = set()
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "()"


def oracle_gw_transport(engine, base, A, B):
    """The transport element over `base`, its table read window by window,
    and the tower reports: each level classified by pairwise is_subset."""
    class_sets = {"A": A.minus(B), "B": B.minus(A), "AB": A.intersect(B),
                  "none": A.union(B).complement()}
    plans, report = [], []
    for t, (radius, members, height) in enumerate(oracle_kr_pieces(base, (A, B))):
        piece = CloSet(engine, radius, members)
        classes = {name: [] for name in class_sets}
        for i in range(height):
            level = piece.shift_image(i)
            name = next(name for name, s in class_sets.items() if level.is_subset(s))
            classes[name].append(i)
        if len(classes["A"]) < len(classes["B"]):
            raise SurplusViolated(t)
        perm = list(range(height))
        targets = sorted(classes["A"])[:len(classes["B"])]
        rest_dst = sorted(set(classes["A"]) - set(targets)) + sorted(classes["B"])
        for b, a in zip(sorted(classes["B"]), targets):
            perm[b] = a
        for s, d in zip(sorted(classes["A"]), rest_dst):
            perm[s] = d
        if oracle_permutation_parity(perm) == 1:
            u, v = sorted(max(classes.values(), key=len))[:2]
            perm[u], perm[v] = perm[v], perm[u]
        plans.append((piece, height, perm))
        report.append({"id": t, "height": height, "classes": classes,
                       "permutation": oracle_cycle_string(perm), "parity": "even"})
    radius = max(piece.radius + height - 1 for piece, height, _ in plans)
    table = {}
    for w in engine.allowed_words(2 * radius + 1):
        hits = []
        for piece, height, perm in plans:
            r = piece.radius
            for i in range(height):
                if w[i - r + radius: i + r + radius + 1] in piece.members:
                    hits.append(perm[i] - i)
        assert len(hits) == 1
        table[w] = hits[0]
    return make_element(engine, radius, table), report


def small_cylinders(engine):
    return [CloSet.cylinder(engine, anchor, w) for n in (1, 2, 3)
            for w in engine.allowed_words(n) for anchor in range(-n + 1, 1)]


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse", "golden_mean"])
def test_sigma_and_swap_against_slicing_oracles(request, name):
    engine = request.getfixturevalue(name)
    checked = 0
    for U in small_cylinders(engine) + [CloSet.cylinder(engine, -2, w) for w in engine.allowed_words(5)]:
        if is_good(U):
            assert canonical_dump(sigma_U(U)) == canonical_dump(oracle_sigma_U(U))
            checked += 1
        if U.is_disjoint(U.shift_image(1)):
            assert canonical_dump(_swap_element(U)) == canonical_dump(oracle_swap_element(U))
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse"])
def test_returns_and_towers_against_slicing_oracles(request, name):
    engine = request.getfixturevalue(name)
    sets = small_cylinders(engine)
    refiners = [(), (sets[0],), (sets[0], sets[-1])]
    for U in sets:
        assert canonical_dump(first_return(U)) == canonical_dump(oracle_first_return(U))
        for refine_by in refiners:
            pieces = [(base.radius, base.members, height)
                      for base, height in kr_towers(U, refine_by=refine_by).pieces]
            assert pieces == oracle_kr_pieces(U, refine_by)


def test_towers_refuse_refiners_on_another_engine(fibonacci, thue_morse):
    with pytest.raises(EngineMismatch):
        kr_towers(cylinder(fibonacci, 0, "b"), refine_by=(cylinder(thue_morse, 0, "a"),))
    with pytest.raises(EngineMismatch):
        kr_towers(cylinder(fibonacci, 0, "b"),
                  refine_by=(cylinder(fibonacci, 0, "a"), cylinder(thue_morse, 0, "a")))


def test_returns_and_towers_refuse_non_minimal_engines(golden_mean):
    U = cylinder(golden_mean, 0, ("b",))
    with pytest.raises(NotOmniscient):
        first_return(U)
    with pytest.raises(NotOmniscient):
        kr_towers(U)


@pytest.mark.parametrize("name, pairs", [
    ("fibonacci", [(((0, "a"),), ((0, "b"),)), (((0, "a"),), ((-1, "bab"),)),
                   (((0, "a"),), ((-1, "aba"),)), (((0, "a"),), ())]),
    ("thue_morse", [(((0, "a"),), ((-1, "bab"),)), (((0, "ab"),), ((-1, "bba"),)),
                    (((0, "a"),), ()), (((0, "a"),), ((-1, "bb"),)),
                    (((0, "b"),), ((-1, "aa"),))]),
])
def test_gw_transport_against_slicing_oracle(request, name, pairs):
    engine = request.getfixturevalue(name)

    def closet(cells):
        out = CloSet.empty(engine)
        for anchor, letters in cells:
            out = out.union(cylinder(engine, anchor, tuple(letters)))
        return out

    for a_cells, b_cells in pairs:
        A, B = closet(a_cells), closet(b_cells)
        result = gw_transport(A, B)
        alpha, towers = oracle_gw_transport(engine, result.base, A, B)
        assert canonical_dump(result.alpha) == canonical_dump(alpha)
        assert list(result.towers) == towers
        assert result.to_json() == json.dumps({"contained": True, "mod": 0, "towers": towers},
                                              indent=2, sort_keys=True) + "\n"


def test_symmetric_embedding_against_slicing_oracle(fibonacci):
    phi = shift(fibonacci)
    emb = SymmetricEmbedding([identity(fibonacci), phi, compose(phi, phi)],
                             cylinder(fibonacci, -1, ("a", "a", "b")))
    for perm in itertools.permutations(range(3)):
        swaps = [emb._swaps[(i, perm[i])] for i in range(3)]
        radius = max([im.radius for im in emb.images] + [h.radius for h in swaps])
        images = [im.at_radius(radius) for im in emb.images]
        table = {}
        for w in fibonacci.allowed_words(2 * radius + 1):
            table[w] = next((h.table[w[radius - h.radius: radius + h.radius + 1]]
                             for im, h in zip(images, swaps) if w in im.members), 0)
        expected = make_element(fibonacci, radius, table)
        assert canonical_dump(emb.element(perm)) == canonical_dump(expected)


# -- orbit reads: the per-n window builds that Element.orbit_map replaced -----


def oracle_houghton_orbit_map(f, window):
    """n -> n + kappa(w_n), each window w_n of phi^n x0 built letter by letter."""
    engine = f.engine
    y3 = len(engine.alphabet) == 3
    a, b, c = range(3)      # the letters a, b, c as indices
    r = f.radius

    def letter(pos, n):
        if pos <= n:
            return a
        if not y3:
            return b
        return b if (pos - n) % 2 == 1 else c

    return {n: n + f.table[bytes(letter(p, n) for p in range(-r, r + 1))]
            for n in range(-window, window + 1)}


@pytest.mark.parametrize("build", [houghton_engine_y, houghton_engine_y3])
def test_houghton_orbit_map_against_window_oracle(build):
    engine = build()
    phi, s = shift(engine), sigma_U(cylinder(engine, 0, ("a", "b")))
    elements = [phi, s, compose(phi, s), compose(s, phi)]
    elements += [inverse(f) for f in elements]
    for f in elements:
        for window in [*range(41), 64, 65, 300]:
            table = oracle_houghton_orbit_map(f, window)
            assert houghton_orbit_map(f, window) == [table[n] for n in range(-window, window + 1)]


def oracle_van_douwen_walk(sigmas, indices, window):
    """Each step reads the central window of phi^total x, x[-total-r..-total+r],
    and adds what it reads to total."""
    total = 0
    for k in indices:
        r = sigmas[k].radius
        total += sigmas[k].table[segment(window, -total - r, -total + r)]
    return total


@pytest.mark.parametrize("q", [3, 4])
def test_van_douwen_walk_against_shifting_oracle(q):
    engine, sigmas = van_douwen_involutions(q)
    words, frontier = [], [()]
    for _ in range(5):
        frontier = [w + (k,) for w in frontier for k in range(q) if not w or w[-1] != k]
        words += frontier
    for ks in words:
        word, expected = van_douwen_witness(engine, ks)
        walked = van_douwen_walk(sigmas, ks, word)
        assert walked == oracle_van_douwen_walk(sigmas, ks, word) == expected
