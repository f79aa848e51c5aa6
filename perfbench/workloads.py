"""Seeded task lists of the three library workloads.

A workload is a `setup` that builds what the first task needs (timed as set-up)
and a list of task groups built from the seed.  A task is a user-level call
plus a check of its output; only the call is timed.  Groups run in a fixed
order because the engines' caches make a task's cost depend on what ran
before it; the seed picks parameters of equal cost within a group.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import cantorfull as cf
from cantorfull import constructions

FIBONACCI = {"a": "ab", "b": "a"}
THUE_MORSE = {"a": "ab", "b": "ba"}

# Good cylinders whose sigma_U generates with phi; the options of one engine
# are mirror images or complements, so a seed's choice leaves the cost alone.
SFT_SIGMAS = {"gm": ("aab", "baa"), "fs": ("001", "011", "100", "110")}
# Ball radius and sizes recorded at the commit that defined this benchmark.
SFT_BALLS = {"gm": (5, [5, 15, 41, 107, 277]), "fs": (4, [5, 15, 41, 107]),
             "vd": (5, [4, 10, 22, 46, 94])}
LAMPLIGHTER_BALL = [4, 10, 22, 44, 84]


@dataclass
class Task:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def strictly_increasing(sizes):
    return all(a < b for a, b in zip(sizes, sizes[1:]))


def thue_morse_complexity(n):
    """Number of Thue-Morse factors of length n (Brlek 1989)."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1      # n - 1 = 2^r + q with 0 < q <= 2^r
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def cylinder(engine, anchor, word):
    return cf.cylinder(engine, anchor, tuple(word))


# ---------------------------------------------------------------------------
# subst_language: cold substitution enumeration and what is built on it


def subst_setup():
    return {"fib": cf.substitution_engine(FIBONACCI), "tm": cf.substitution_engine(THUE_MORSE)}


def subst_tasks(ctx, rng):
    fib, tm = ctx["fib"], ctx["tm"]
    held = {}

    def cold(rules, length):
        return len(cf.substitution_engine(rules).allowed_words(length))

    def lamplighter():
        held["pair"] = cf.lamplighter_pair(cylinder(fib, 0, "b"))
        return held["pair"].checked_shifts

    def gw(engine, a, b):
        A, B = cylinder(engine, *a), cylinder(engine, *b)
        result = cf.gw_transport(A, B)
        return (result.contained, result.index, cf.element_image(B, result.alpha).is_subset(A))

    # Cold engines: every call builds its engine (the periodicity scan already
    # enumerates lengths up to 90, so any L in 40..90 costs the same).  They
    # are the most numerous tasks, so they set the median (Fibonacci) and the
    # tail percentile (Thue-Morse); half run before the lamplighter and half
    # after it, so their samples spread over the whole pass.
    def cold_block():
        block = []
        for name, rules, count, tasks in (("fib", FIBONACCI, lambda n: n + 1, 10),
                                          ("tm", THUE_MORSE, thue_morse_complexity, 5)):
            for _ in range(tasks):
                n = rng.randint(40, 90)
                block.append(Task(f"cold {name} allowed_words({n})",
                                  lambda r=rules, n=n: cold(r, n),
                                  lambda v, n=n, c=count: v == c(n)))
        return block

    lamp_group = [
        Task("lamplighter_pair fib cyl(0,b)", lamplighter, lambda v: v == 32),
        Task("ball_sizes(Psi, sigma0, 5)",
             lambda: cf.ball_sizes([held["pair"].Psi, held["pair"].sigma0], 5),
             lambda v: strictly_increasing(v) and v == LAMPLIGHTER_BALL),
    ]
    hit_group = []
    for _ in range(2):
        n = rng.randint(91, 120)
        hit_group.append(Task(f"fib allowed_words({n})", lambda n=n: len(fib.allowed_words(n)),
                              lambda v, n=n: v == n + 1))
    tower_group = []
    for engine, name, cyls in ((fib, "fib", [(0, "a"), (0, "b"), (-1, "aab"), (-1, "aba"), (-1, "baa")]),
                               (tm, "tm", [(0, "a"), (0, "b"), (-1, "aab"), (-1, "aba"), (-1, "abb")])):
        anchor, word = rng.choice(cyls)
        tower_group.append(Task(f"kr_towers {name} cyl({anchor},{word})",
                                lambda e=engine, a=anchor, w=word: cf.kr_towers(cylinder(e, a, w)).verify(),
                                lambda v: v is True))
    gw_group = []
    for engine, name, pairs in ((fib, "fib", [((0, "a"), (0, "b")), ((0, "a"), (-1, "bab")),
                                              ((0, "a"), (-1, "aba"))]),
                                (tm, "tm", [((0, "a"), (-1, "bb")), ((0, "b"), (-1, "aa"))])):
        a, b = rng.choice(pairs)
        gw_group.append(Task(f"gw_transport {name} {a} {b}", lambda e=engine, a=a, b=b: gw(e, a, b),
                             lambda v: v == (True, 0, True)))
    orbit_group = []
    for _ in range(2):
        anchor, word = rng.choice([(0, "a"), (0, "b"), (-1, "aab"), (-1, "aba"), (0, "ab")])
        orbit_group.append(Task(f"clopen_orbit fib cyl({anchor},{word})",
                                lambda a=anchor, w=word: cf.clopen_orbit(cylinder(fib, a, w), cap=64),
                                lambda v: v is None))
    return [cold_block(), lamp_group, hit_group, tower_group, gw_group, orbit_group, cold_block()]


# ---------------------------------------------------------------------------
# sft_compose: composition and canonicalisation on SFTs


def sft_setup():
    engines = {"gm": cf.sft_engine("ab", ["bb"]), "fs": cf.sft_engine("01", [])}
    vd, involutions = cf.van_douwen_involutions(3)
    return {"engines": engines, "vd": vd, "involutions": list(involutions),
            "phi": {name: cf.shift(engine) for name, engine in engines.items()},
            "sigmas": {name: [cf.sigma_U(cylinder(engine, -1, w)) for w in SFT_SIGMAS[name]]
                       for name, engine in engines.items()}}


def _evaluate(engine, gens, word):
    out = cf.identity(engine)
    for i, inverted in word:
        out = cf.compose(out, cf.inverse(gens[i]) if inverted else gens[i])
    return out


def sft_tasks(ctx, rng):
    engines = dict(ctx["engines"], vd=ctx["vd"])
    gens = {name: [ctx["phi"][name], rng.choice(ctx["sigmas"][name])] for name in SFT_SIGMAS}
    gens["vd"] = [ctx["involutions"][i] for i in rng.sample(range(3), 3)]

    ball_group = [Task(f"ball_sizes {name} radius {radius}",
                       lambda g=gens[name], r=radius: cf.ball_sizes(g, r),
                       lambda v, x=expected: strictly_increasing(v) and v == x)
                  for name, (radius, expected) in SFT_BALLS.items()]

    def laws(engine, gens, words):
        f, g, h = (_evaluate(engine, gens, w) for w in words)
        e = cf.identity(engine)
        return (cf.equal(cf.compose(cf.compose(f, g), h), cf.compose(f, cf.compose(g, h)))
                and cf.equal(cf.compose(f, cf.inverse(f)), e)
                and cf.equal(cf.compose(cf.inverse(f), f), e)
                and cf.equal(cf.compose(f, e), f))

    # The same generator patterns every pass: all phi/sigma triples on the two
    # SFTs, eight letter patterns on the van Douwen shift.
    triples = {name: [[[(t, inverted)] for t, inverted in zip(types, (False, True, False))]
                      for types in itertools.product((0, 1), repeat=3)]
               for name in SFT_SIGMAS}
    triples["vd"] = [[[("abc".index(ch), False)] for ch in pattern]
                     for pattern in ("aaa", "aab", "aba", "baa", "abb", "bab", "abc", "acb")]
    # Two triples per task: one triple alone can take well under a millisecond.
    law_group = [Task(f"group laws {name} {i}",
                      lambda e=engines[name], g=gens[name], ws=triples[name][i:i + 2]:
                      all(laws(e, g, w) for w in ws),
                      lambda v: v is True)
                 for name in engines for i in range(0, 8, 2)]

    def conjugate_order(engine, gens, word, sigma):
        w = _evaluate(engine, gens, word)
        return cf.order(cf.compose(cf.compose(w, sigma), cf.inverse(w)))

    # Every 3-cycle conjugated by phi^{+-1}, every involution by each other one.
    # Longer conjugators push the powers on the full shift past the word-store cap.
    order_group = [Task(f"order {name} {k} conjugate {word}",
                        lambda e=engines[name], g=gens[name], w=word, s=sigma:
                        conjugate_order(e, g, w, s),
                        lambda v: v == 3)
                   for name in SFT_SIGMAS for k, sigma in enumerate(ctx["sigmas"][name])
                   for word in ([(0, False)], [(0, True)])]
    order_group += [Task(f"order vd {i} conjugate {j}",
                         lambda i=i, j=j: conjugate_order(ctx["vd"], gens["vd"], [(j, False)],
                                                          gens["vd"][i]),
                         lambda v: v == 2)
                    for i, j in itertools.permutations(range(3), 2)]
    return [ball_group, law_group, order_group]


# ---------------------------------------------------------------------------
# orbit_reads: reading fixed element tables along long point windows


def orbit_setup():
    fib = cf.substitution_engine(FIBONACCI)
    st = cf.sturmian_engine([1] * 30, 30)
    y = cf.sft_engine("ab", ["ba"])
    vd, involutions = cf.van_douwen_involutions(4)
    elements = {}
    for name, engine, good, letter in (("fib", fib, "aab", "b"), ("st", st, "abb", "a")):
        sigma = cf.sigma_U(cylinder(engine, -1, good))
        ret = cf.first_return(cylinder(engine, 0, letter))
        comp = cf.compose(cf.compose(sigma, ret), cf.shift(engine, 2))
        elements[name] = {"sigma": sigma, "ret": ret, "comp": comp}
    y_sigma = cf.sigma_U(cylinder(y, 0, "ab"))
    elements["y"] = {"phi": cf.shift(y), "sigma": y_sigma, "comp": cf.compose(cf.shift(y), y_sigma)}
    return {"elements": elements, "vd": vd, "involutions": involutions}


def _injective(perm):
    values = [perm(n) for n in perm.defined_range()]
    return len(set(values)) == len(values) and all(abs(perm(n) - n) <= perm.c
                                                   for n in perm.defined_range())


def _sandwich(report):
    return len(report.rows) == 5 and all(b <= c + 1e-12 and c <= 1.0 + 1e-12
                                         for _, c, b, _, _ in report.rows)


def orbit_tasks(ctx, rng):
    elements = ctx["elements"]
    choices = [(e, k) for e in ("fib", "st") for k in ("sigma", "ret", "comp")]

    orbit_group = []
    for engine, kind in choices:
        for base in (10_000, 50_000):
            window = int(base * rng.uniform(0.95, 1.0))
            orbit_group.append(Task(f"orbit_permutation {engine} {kind} {window}",
                                    lambda f=elements[engine][kind], w=window:
                                    cf.orbit_permutation(f, w), _injective))

    def decay(f, n):
        view = cf.orbit_permutation(f, n + f.radius + f.dbound)
        return cf.decay_report(view, [10, 100, 1_000, 10_000, n])

    engine, n = rng.choice(("fib", "st")), rng.randint(95_000, 100_000)
    decay_group = [Task(f"decay_report {engine} comp {n}",
                        lambda f=elements[engine]["comp"], n=n: decay(f, n), _sandwich)]

    def index_check(engine, kind):
        parts = elements[engine]
        def check(value):
            if kind == "sigma":
                return value == 0
            if kind == "comp":
                return value == cf.index_mod(parts["ret"]) + 2
            return value == cf.index_mod(parts["comp"]) - 2
        return check

    index_group = []
    for _ in range(4):
        engine, kind = rng.choice(choices)
        index_group.append(Task(f"index_mod {engine} {kind}",
                                lambda f=elements[engine][kind]: cf.index_mod(f),
                                index_check(engine, kind)))
    houghton_group = []
    for _ in range(4):
        kind = rng.choice(("phi", "sigma", "comp"))
        window = rng.choice((64, 128, 256))
        houghton_group.append(Task(
            f"houghton_profile y {kind} {window}",
            lambda f=elements["y"][kind], w=window: cf.houghton_profile(f, w),
            lambda p, w=window: (p.end_translations[0] == p.end_translations[1]
                                 and all(abs(n) <= w // 2 for n in p.exceptional_set))))

    words = [()]
    reduced = []
    for _ in range(7):
        words = [w + (k,) for w in words for k in range(4) if not w or w[-1] != k]
        reduced.extend(words)
    rng.shuffle(reduced)

    def certify_all():
        return sum(all(constructions.van_douwen_certify(ctx["vd"], ctx["involutions"], ks)) for ks in reduced)

    certify_group = [Task(f"van_douwen_certify {len(reduced)} words", certify_all,
                          lambda v: v == len(reduced) == 4372)]
    return [orbit_group, decay_group, index_group, houghton_group, certify_group]


WORKLOADS = {
    "subst_language": (subst_setup, subst_tasks),
    "sft_compose": (sft_setup, sft_tasks),
    "orbit_reads": (orbit_setup, orbit_tasks),
}


def task_list(workload, ctx, seed, smoke=False):
    """The seeded tasks of one pass, in run order; smoke keeps one per group."""
    groups = WORKLOADS[workload][1](ctx, random.Random(f"{workload}:{seed}"))
    return [task for group in groups for task in (group[:1] if smoke else group)]
