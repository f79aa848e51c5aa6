"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions themselves.
"""

import itertools
import math
import time

import pytest

from cantorfull.closets import CloSet
from cantorfull.elements import (ball_sizes, compose, equal, identity,
                                 inverse, is_identity, order, shift,
                                 element_image, make_element)
from cantorfull.errors import SurplusViolated
from cantorfull.actions import (clopen_orbit, index_mod, lef_certificate,
                                orbit_permutation)
from cantorfull.constructions import (SymmetricEmbedding, cylinder,
                                      first_return, gw_transport,
                                      houghton_profile, is_good, kr_towers,
                                      lamplighter_pair, matui_by_recursion,
                                      matui_cylinder_sigma, matui_generators,
                                      qeqz_check, sigma_U, van_douwen_certify,
                                      van_douwen_involutions)
from cantorfull.jm import (correlation, decay_report, hn_lower_bound,
                           identity_view, translation_view,
                           transposition_view)
from conftest import enumerate_bijective, sample_elements, _enrich


def report(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


def test_01_group_laws(fibonacci, golden_mean, fib_pool, gm_pool):
    checks = 0
    for engine, pool, seed in ((fibonacci, fib_pool, 101),
                               (golden_mean, gm_pool, 202)):
        assert all(f.radius <= 2 and f.dbound <= 3 for f in pool)
        e = identity(engine)
        fs = sample_elements(pool, 200, seed)
        gs = sample_elements(pool, 200, seed + 1)
        hs = sample_elements(pool, 200, seed + 2)
        for f, g, h in zip(fs, gs, hs):
            assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))
            assert equal(compose(f, e), f) and equal(compose(e, f), f)
            assert equal(compose(f, inverse(f)), e)
            assert equal(compose(inverse(f), f), e)
            checks += 1
    assert checks == 400
    report(1, f"group laws exact on {checks} random triples over two engines")


def test_02_qeqz_and_generation(matui_set):
    engine = matui_set.engine
    admissible = 0
    for h in engine.allowed_words(5):
        assert qeqz_check(CloSet.cylinder(engine, -1, h[2:]), CloSet.cylinder(engine, -1, h[:-2]))
        admissible += 1
    words3 = engine.allowed_words(3)
    for u, v in itertools.product(words3, words3):
        if admissible >= 60:
            break
        U, V = CloSet.cylinder(engine, -1, u), CloSet.cylinder(engine, -1, v)
        try:
            assert qeqz_check(U, V)
            admissible += 1
        except Exception as err:
            from cantorfull.errors import PreconditionViolated
            if not isinstance(err, PreconditionViolated):
                raise
    assert admissible >= 50
    rebuilt = 0
    for h in engine.allowed_words(5):
        assert equal(matui_by_recursion(engine, h), matui_cylinder_sigma(engine, h))
        rebuilt += 1
    for h in engine.allowed_words(7):
        assert equal(matui_by_recursion(engine, h), matui_cylinder_sigma(engine, h))
        rebuilt += 1
    report(2, f"qeqz exact on {admissible} admissible pairs; "
              f"{rebuilt} cylinder 3-cycles rebuilt by the commutator recursion")


def test_03_mod_homomorphism(fibonacci, fib_pool):
    assert index_mod(shift(fibonacci)) == 1
    fs = sample_elements(fib_pool, 100, 303)
    gs = sample_elements(fib_pool, 100, 304)
    for f, g in zip(fs, gs):
        assert index_mod(compose(f, g)) == index_mod(f) + index_mod(g)
    torsion = [sigma_U(CloSet.cylinder(fibonacci, -1, w))
               for w in fibonacci.allowed_words(3)
               if is_good(CloSet.cylinder(fibonacci, -1, w))]
    emb = SymmetricEmbedding([identity(fibonacci), shift(fibonacci)],
                             cylinder(fibonacci, -1, ("a", "a", "b")))
    torsion.append(emb.element((1, 0)))
    for t in torsion:
        assert order(t, cap=12) is not None
        assert index_mod(t) == 0
    for f in sample_elements(fib_pool, 10, 305):
        # identical values at 5 shifted basepoints (checked inside index_mod,
        # and a sixth, phi^5 x, here for good measure)
        d = f.dbound
        images = f.orbit_map(fibonacci.point_window(d + f.radius + 5), d, 5)
        assert index_mod(f) == sum(1 if n < 0 else -1 for n, m in zip(range(-d, d + 1), images)
                                   if (n < 0) != (m < 0))
    report(3, "mod: phi -> 1, additive on 100 pairs, kills torsion, "
              "basepoint-shift invariant")


def test_04_first_return_periodicity(fibonacci):
    phi_inv = inverse(shift(fibonacci))
    details = []
    for word in (("a",), ("b",), ("a", "a", "b")):
        anchor = 0 if len(word) == 1 else -1
        fr = first_return(cylinder(fibonacci, anchor, word))
        g = compose(phi_inv, fr)
        n = order(g, cap=2000)
        sup_k = max(fr.table.values())
        assert n is not None
        assert math.factorial(sup_k) % n == 0
        details.append(f"[{''.join(word)}]: order {n} | {sup_k}!")
    report(4, "; ".join(details))


def test_05_kr_towers(fibonacci):
    bases = [cylinder(fibonacci, 0, ("a",)), cylinder(fibonacci, 0, ("b",)),
             cylinder(fibonacci, 0, ("a", "a")), cylinder(fibonacci, 0, ("a", "b")),
             cylinder(fibonacci, 0, ("b", "a")), cylinder(fibonacci, -1, ("a", "a", "b")),
             cylinder(fibonacci, -1, ("a", "b", "a")), cylinder(fibonacci, -1, ("b", "a", "a")),
             cylinder(fibonacci, -1, ("b", "a", "b")), cylinder(fibonacci, -2, ("a", "a", "b", "a", "b"))]
    for base in bases:
        partition = kr_towers(base)
        assert partition.verify()
    report(5, f"tower partitions exact over {len(bases)} cylinder bases")


def test_06_gw_transport(fibonacci):
    A = cylinder(fibonacci, 0, ("a",))
    B = cylinder(fibonacci, 0, ("b",))
    result = gw_transport(A, B)
    assert element_image(B, result.alpha).is_subset(A)
    assert result.index == 0
    assert all(t["parity"] == "even" for t in result.towers)
    with pytest.raises(SurplusViolated):
        gw_transport(B, A)
    report(6, f"alpha(B) in A over {len(result.towers)} towers, mod 0, even; "
              "reversed roles rejected")


def test_07_matui_generators(matui_set):
    engine = matui_set.engine
    count = len(matui_set.generators)
    assert count == len(engine.allowed_words(3)) == 10  # recorded fixture
    for g in matui_set.generators:
        assert order(g, cap=6) == 3
    report(7, f"{count} generators, each of order exactly 3")


def test_08_van_douwen_freeness():
    engine, sigmas = van_douwen_involutions(3)
    words = [()]
    by_length = {0: [()]}
    checked = 0
    for n in range(1, 9):
        words = [w + (k,) for w in words for k in range(3) if not w or w[-1] != k]
        by_length[n] = list(words)
        for ks in words:
            automaton_ok, witness_ok = van_douwen_certify(engine, sigmas, ks)
            assert automaton_ok and witness_ok
            checked += 1
    # tie the certificates to full table identity decisions at low length
    for ks in [(0,), (1, 2), (0, 1, 0)]:
        m = identity(engine)
        for k in ks:
            m = compose(m, sigmas[k])
        assert not is_identity(m)
    assert checked == sum(3 * 2 ** (n - 1) for n in range(1, 9))

    def reduce_word(ks):
        out = []
        for k in ks:
            if out and out[-1] == k:
                out.pop()
            else:
                out.append(k)
        return tuple(out)

    # pairwise distinctness up to length 4 follows: m1 m2^{-1} reduces to a
    # nonempty word of length <= 8, already certified non-identity above
    short = [w for n in range(5) for w in by_length[n]]
    distinct_pairs = 0
    for i, w1 in enumerate(short):
        for w2 in short[i + 1:]:
            quotient = reduce_word(w1 + tuple(reversed(w2)))
            assert quotient != ()
            distinct_pairs += 1
    report(8, f"{checked} reduced words non-identity; certificates agree; "
              f"{distinct_pairs} pairs distinct up to length 4")


def _bijective_pool(engine):
    pool = enumerate_bijective(engine, 1, 2)
    return _enrich(pool, max_radius=3, max_dbound=3)


def test_09_houghton_profiles(y_engine, yprime_engine):
    pool = _bijective_pool(y_engine)
    assert len(pool) >= 20
    for f in sample_elements(pool, 50, 909):
        profile = houghton_profile(f, 64)
        assert len(profile.end_translations) == 2
        assert profile.end_translations[0] == profile.end_translations[1]
        assert all(abs(n) <= 32 for n in profile.exceptional_set)
    table = {}
    moves = {y_engine.alphabet.parse_word("abb"): 1, y_engine.alphabet.parse_word("aab"): -1}
    for w in y_engine.allowed_words(5):
        table[w] = moves.get(w[2:], 0)
    transposition = make_element(y_engine, 2, table)
    fixture = houghton_profile(transposition, 64)
    assert fixture.end_translations == (0, 0)
    assert fixture.exceptional_set == (0, 1)
    pool3 = _bijective_pool(yprime_engine)
    assert len(pool3) >= 10
    for f in sample_elements(pool3, 20, 910):
        profile = houghton_profile(f, 64)
        assert len(profile.end_translations) == 3
        assert all(abs(n) <= 32 for n in profile.exceptional_set)
    report(9, "50 Y-profiles with equal ends, fixture matches, "
              "20 Y'-profiles stabilize at window 64")


def test_10_jm_sandwich_and_decay(fibonacci):
    start = time.time()
    s = sigma_U(cylinder(fibonacci, -1, ("a", "a", "b")))
    views = {
        "identity": identity_view(),
        "translation": translation_view(),
        "transposition": transposition_view(),
        "sigma_orbit": orbit_permutation(s, 10_000 + s.dbound),
    }
    ratio_bounds = {"identity": 0.0, "translation": 0.55,
                    "transposition": 1.1, "sigma_orbit": 0.55}
    for name, view in views.items():
        for n in (10, 100, 1000, 10_000):
            b, c = hn_lower_bound(view, n), correlation(view, n)
            assert b <= c + 1e-12
            assert c <= 1.0 + 1e-12
        report_rows = decay_report(view, [10, 100, 1000, 10_000])
        assert report_rows.max_ratio <= ratio_bounds[name]
    assert abs(correlation(transposition_view(), 1) - 0.5) <= 1e-15
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(10, f"sandwich and decay for 4 views up to n=10^4 in {elapsed:.2f}s; "
               "C((0 1),1) = 0.5 exactly")


def test_11_lef_certificates(matui_set):
    engine = matui_set.engine
    s = matui_set.generators[0]
    elements = [identity(engine), shift(engine), s, compose(s, s)]
    cert = lef_certificate(elements, n_cap=8, p_cap=12)
    assert cert.order <= 8 and cert.period <= 12
    assert len(cert.witnesses) == 6
    assert cert.verify()
    report(11, f"four elements separated at n={cert.order}, p={cert.period}; "
               "certificate re-verified")


def test_12_lamplighter(fibonacci):
    pair = lamplighter_pair(cylinder(fibonacci, 0, ("b",)))
    assert pair.checked_shifts == 32  # conjugation exact for all F in {-2..2}
    keys = [pair.lamp_set((n,)).key() for n in range(-3, 4)]
    assert len(set(keys)) == 7
    sizes = ball_sizes([pair.Psi, pair.sigma0], 5)
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    report(12, f"32 conjugation relations exact; psi^n(V) distinct for |n|<=3; "
               f"ball sizes {sizes} strictly increase")


def test_13_odometer_detection(fibonacci, period_two):
    assert clopen_orbit(cylinder(period_two, 0, ("a",)), cap=64) == 2
    assert clopen_orbit(CloSet.full(period_two), cap=64) == 1
    for word, anchor in ((("a",), 0), (("b",), 0), (("a", "a", "b"), -1)):
        assert clopen_orbit(cylinder(fibonacci, anchor, word), cap=64) is None
    report(13, "finite orbits on the periodic shift; cap 64 exceeded on "
               "three Fibonacci cylinders")
