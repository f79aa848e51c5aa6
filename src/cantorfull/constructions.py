"""Named constructions over the cocycle algebra.

Everything here is exact: the resulting elements carry bijectivity
certificates, and hypotheses and postconditions are verified rather than
assumed.  Those about a family of clopen sets (disjoint translates, tower
partitions) go through the family query of :mod:`cantorfull.closets`.
A Rokhlin base is read off one level of windows, each window's cell against
the cells of its images: the greedy cell-by-cell subcover, with no set per cell.
"""

import json
from itertools import compress
from typing import NamedTuple

from .actions import clopen_orbit, index_mod
from .closets import CloSet, is_partition, least_meet
from .elements import (Element, commutator, compose, element_image, equal,
                       identity, inverse, is_identity, make_element, power,
                       shift)
from .errors import (CapExceeded, EngineMismatch, FixedPointFound,
                     NotBijective, NotGood, NotMinimal, NotOmniscient,
                     OdometerLike, OverlapError,
                     PreconditionViolated, SearchExhausted, SemanticError,
                     SurplusViolated, WindowTooSmall)
from .language import (is_proper, max_gap, proper_recode, recurrence_bound,
                       sft_engine)


# ---------------------------------------------------------------------------
# good sets and their 3-cycles


def _good_meet(closet):
    """least_meet of phi^-1 U, U and phi U."""
    return least_meet([(closet, -1), (closet, 0), (closet, 1)])


def is_good(closet):
    """{-1,0,1}-good: U, phi(U), phi^{-1}(U) pairwise disjoint."""
    return _good_meet(closet) is None


def sigma_U(closet):
    """The order-<=3 cycle U -> phi(U) -> phi^{-1}(U) -> U, identity elsewhere.

    Cocycle: +1 on U, -2 on phi(U), +1 on phi^{-1}(U).
    """
    meet = _good_meet(closet)
    if meet is not None:
        i, j, window = meet
        raise NotGood((f"phi^{i - 1}U", f"phi^{j - 1}U"),
                      closet.engine.alphabet.format_word(window))
    radius = closet.radius + 1
    values = tuple(1 if here else -2 if ahead else 1 if behind else 0
                   for here, ahead, behind in zip(closet.mask(radius), closet.mask(radius, 1),
                                                  closet.mask(radius, -1)))
    return make_element(closet.engine, radius, values)


def cylinder(engine, anchor, letters):
    """The cylinder of the letter tokens `letters` placed from `anchor` on."""
    return CloSet.cylinder(engine, anchor, engine.alphabet.encode(letters))


# ---------------------------------------------------------------------------
# symmetric-group embeddings


class SymmetricEmbedding:
    """rho: S_n -> full group, sigma -> T_sigma moving the disjoint copies
    g_i(U) by g_{sigma(i)} g_i^{-1}.  Permutations are 0-indexed tuples."""

    def __init__(self, moves, closet):
        self.moves = list(moves)
        self.closet = closet
        self.n = len(self.moves)
        engine = closet.engine
        self.images = [element_image(closet, g) for g in self.moves]
        meet = least_meet([(im, 0) for im in self.images])
        if meet is not None:
            raise OverlapError(f"images {meet[0]} and {meet[1]} of U overlap")
        self._swaps = {(i, j): compose(self.moves[j], inverse(self.moves[i]))
                       for i in range(self.n) for j in range(self.n)}
        self.engine = engine

    def element(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise SemanticError(f"{perm} is not a permutation of 0..{self.n - 1}")
        engine = self.engine
        swaps = [self._swaps[(i, perm[i])] for i in range(self.n)]
        radius = max([im.radius for im in self.images] + [h.radius for h in swaps])
        # the images are pairwise disjoint, so each window takes at most one swap
        values = [0] * len(engine.allowed_words(2 * radius + 1))
        for im, h in zip(self.images, swaps):
            for j, v in compress(enumerate(h.values_at(radius)), im.mask(radius)):
                values[j] = v
        return make_element(engine, radius, values)

    def verify_relations(self):
        """Coxeter relations for the adjacent transpositions (complete for S_n)."""
        if self.n == 1:
            return is_identity(self.element((0,)))
        def swap(i):
            p = list(range(self.n))
            p[i], p[i + 1] = p[i + 1], p[i]
            return self.element(tuple(p))
        s = [swap(i) for i in range(self.n - 1)]
        e = identity(self.engine)
        for i, si in enumerate(s):
            if not equal(compose(si, si), e):
                return False
            if i + 1 < len(s):
                if not is_identity(power(compose(si, s[i + 1]), 3)):
                    return False
            for j in range(i + 2, len(s)):
                if not is_identity(power(compose(si, s[j]), 2)):
                    return False
        return True


# ---------------------------------------------------------------------------
# first-return maps and Kakutani-Rokhlin towers


def first_return(closet):
    """phi_A: x in A -> phi^k x for the least k >= 1 with phi^k x in A."""
    engine = closet.engine
    if not engine.minimal:
        raise NotOmniscient("first return needs a certified-minimal engine")
    if closet.is_empty():
        raise NotOmniscient("the empty set is not omniscient")
    src = closet.reduced()
    gap = min(max_gap(engine, w) for w in src.members)
    radius = src.radius + gap
    return make_element(engine, radius, _return_times(src, radius, gap))


def _return_times(src, radius, gap):
    """For each word of allowed_words(2 radius + 1): 0 off `src`, else the
    least k in 1..gap with the points it names in phi^-k(src)."""
    back = [src.mask(radius, -k) for k in range(1, gap + 1)]
    times = []
    for j, inside in enumerate(src.mask(radius)):
        k = next((k for k, hit in enumerate(back, 1) if hit[j]), None) if inside else 0
        if k is None:
            raise CapExceeded("no return within the recurrence bound", cap=gap)
        times.append(k)
    return times


class TowerPartition(NamedTuple):
    """Kakutani-Rokhlin towers: level i of the tower over a base B is phi^i(B).
    The partition postcondition is the family query's partition test on the
    levels, at their common radius."""

    pieces: tuple      # ((base CloSet, height), ...) sorted by height then base

    def verify(self):
        if any(base.is_empty() for base, _ in self.pieces):
            return False
        return is_partition([(base, i) for base, height in self.pieces for i in range(height)])

    def tsv(self):
        lines = ["tower_id\theight\tbase_word_count"]
        for t, (base, height) in enumerate(self.pieces):
            lines.append(f"{t}\t{height}\t{len(base.reduced().members)}")
        return "\n".join(lines) + "\n"

    def dot(self):
        out = ["digraph towers {", "  rankdir=BT;"]
        for t, (_, height) in enumerate(self.pieces):
            for i in range(height):
                out.append(f'  "t{t}l{i}" [label="tower {t} level {i}"];')
                if i:
                    out.append(f'  "t{t}l{i - 1}" -> "t{t}l{i}";')
        out.append("}")
        return "\n".join(out) + "\n"


def kr_towers(closet, refine_by=()):
    """Kakutani-Rokhlin partition over `closet`, bases refined by return time
    (and, optionally, so every level lies inside or outside each given set)."""
    engine = closet.engine
    if any(s.engine is not engine for s in refine_by):
        raise EngineMismatch("CloSets live on different engines")
    if not engine.minimal:
        raise NotOmniscient("towers need a certified-minimal engine")
    if closet.is_empty():
        raise NotOmniscient("the empty set has no towers")
    src = closet.reduced()
    gap = min(max_gap(engine, w) for w in src.members)
    radius = src.radius + gap + max([s.radius for s in refine_by], default=0)
    times = _return_times(src, radius, gap)
    # level i of the column over [y] lives in phi^i([y]), so it lies in a set
    # s exactly when the points [y] names lie in phi^-i(s)
    levels = [[s.mask(radius, -i) for s in refine_by] for i in range(max(times))]
    groups = {}
    for j, (y, height) in enumerate(zip(engine.allowed_words(2 * radius + 1), times)):
        if height:
            signature = tuple(hit[j] for i in range(height) for hit in levels[i])
            groups.setdefault((height, signature), set()).add(y)
    # the (height, signature) keys are distinct, so they alone order the pieces
    pieces = [(CloSet(engine, radius, words), height)
              for (height, _), words in sorted(groups.items())]
    partition = TowerPartition(tuple(pieces))
    if not partition.verify():
        raise AssertionError("tower partition failed its exactness check")
    return partition

# ---------------------------------------------------------------------------
# Glasner-Weiss transport


def _cycles(perm):
    """The cycles of length >= 2 of a permutation of 0..n-1, each from its
    least point, in order of that point."""
    cycles, seen = [], set()
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle, j = [i], perm[i]
        while j != i:
            cycle.append(j)
            j = perm[j]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


class GWTransport(NamedTuple):
    alpha: Element
    base: CloSet
    towers: tuple            # dicts: height, classes, permutation, parity
    contained: bool
    index: int

    def to_json(self):
        return json.dumps({
            "contained": self.contained,
            "mod": self.index,
            "towers": [dict(t) for t in self.towers],
        }, indent=2, sort_keys=True) + "\n"


def _transport_base(target, engine, depth):
    """Single-cylinder base inside `target`, refined `depth` extra letters,
    chosen to maximize the recurrence bound (rarer word, taller towers)."""
    rho = target.radius + depth
    candidates = sorted(target.at_radius(rho).members)
    if not candidates:
        raise NotOmniscient("transport target is empty")
    # max keeps the first, so the least, of the words with the largest bound
    best = max(candidates, key=lambda w: recurrence_bound(engine, w))
    base = CloSet(engine, rho, {best})
    return base if least_meet([(base, i) for i in range(5)]) is None else None


def gw_transport(A, B):
    """alpha in the derived subgroup with alpha(B) inside A, built from level
    permutations of Kakutani-Rokhlin towers; requires #A-levels >= #B-levels
    in every tower (the clopen shadow of mu(B) < mu(A))."""
    engine = A.engine
    if not engine.minimal:
        raise NotMinimal("transport needs a certified-minimal engine")
    if B.engine is not engine:
        raise EngineMismatch("CloSets live on different engines")
    last_error = None
    for depth in range(4):
        base = _transport_base(A, engine, depth)
        if base is None:
            continue
        try:
            return _gw_attempt(engine, base, A, B)
        except SurplusViolated as err:
            last_error = err
    raise last_error if last_error is not None else NotOmniscient("no 5-disjoint base found")


# the transport class of a window, from (in A, in B)
_GW_CLASS = {(True, False): "A", (False, True): "B", (True, True): "AB", (False, False): "none"}


def _gw_attempt(engine, base, A, B):
    # kr_towers has verified that the levels partition X at this radius
    towers = kr_towers(base, refine_by=(A, B))
    radius = max(piece.radius + height - 1 for piece, height in towers.pieces)
    window_class = [_GW_CLASS[key] for key in zip(A.mask(radius), B.mask(radius))]
    positions = range(len(window_class))
    values = [0] * len(window_class)
    report = []
    for t, (piece, height) in enumerate(towers.pieces):
        # each level as the positions of its windows in allowed_words(2 radius + 1)
        levels = [list(compress(positions, piece.mask(radius, i))) for i in range(height)]
        classes = {name: [] for name in _GW_CLASS.values()}
        for i, level in enumerate(levels):
            names = set(map(window_class.__getitem__, level))
            if len(names) != 1:
                raise AssertionError("tower level not refined into a class")
            classes[names.pop()].append(i)
        a, b = classes["A"], classes["B"]
        if len(a) < len(b):
            raise SurplusViolated(t)
        # B-levels go to the first A-levels, A-levels to the other A-levels, then to B
        perm = list(range(height))
        for src, dst in zip(b + a, a + b):
            perm[src] = dst
        cycles = _cycles(perm)
        if sum(len(c) - 1 for c in cycles) % 2:
            big = max(classes.values(), key=len)
            if len(big) < 2:
                raise SurplusViolated(t)
            u, v = big[:2]
            # compose with the transposition (u v) on the right: swap sources
            perm[u], perm[v] = perm[v], perm[u]
            cycles = _cycles(perm)
        for i, level in enumerate(levels):
            for j in level:
                values[j] = perm[i] - i
        report.append({
            "id": t,
            "height": height,
            "classes": classes,
            "permutation": "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()",
            "parity": "even",
        })
    alpha = make_element(engine, radius, values)
    contained = element_image(B, alpha).is_subset(A)
    index = index_mod(alpha)
    if not contained or index != 0:
        raise AssertionError("transport postcondition failed")
    return GWTransport(alpha, base, tuple(report), contained, index)


# ---------------------------------------------------------------------------
# Matui's generating set and the commutator recursion


class MatuiSet(NamedTuple):
    """engine: the given engine if 4-proper, else its 4-proper RecodedEngine."""

    engine: object
    generators: tuple
    cylinder_words: tuple     # the window x[-1..1] of each generator's cylinder


def matui_generators(engine):
    """sigma over every cylinder Cyl({-1,0,1}, f) of the 4-proper recoding.
    X minimal and infinite is read off ``engine.aperiodic`` alone, since it
    implies minimal: on a substitution, no period <= 2 caps.dbound (see
    :mod:`cantorfull.language`)."""
    if not engine.aperiodic:
        raise NotMinimal("the finite generating set needs a minimal infinite subshift")
    engine = engine if is_proper(engine, 4) else proper_recode(engine, 4)
    words = engine.allowed_words(3)
    gens = tuple(sigma_U(CloSet.cylinder(engine, -1, h)) for h in words)
    return MatuiSet(engine, gens, tuple(words))


def matui_cylinder_sigma(engine, h):
    """sigma_{Cyl(I_n, h)} built directly; h is the window at -n..n."""
    n = (len(h) - 1) // 2
    return sigma_U(CloSet.cylinder(engine, -n, h))


def matui_by_recursion(engine, h):
    """sigma_{Cyl(I_n, h)} as an iterated commutator of the length-3 generators:
    sigma_{Cyl(I_n,h)} = [sigma_{Cyl(I_{n-1}, left)}, sigma_{Cyl(I_{n-1}, right)}^{-1}]
    where left/right drop two letters from the right/left end of h."""
    n = (len(h) - 1) // 2
    if n < 1 or len(h) != 2 * n + 1:
        raise SemanticError("recursion wants an odd window of radius >= 1")
    if n == 1:
        return matui_cylinder_sigma(engine, h)
    left = matui_by_recursion(engine, h[:-2])
    right = matui_by_recursion(engine, h[2:])
    return commutator(left, inverse(right))


def matui_recursion_word(engine, h):
    """The recursion's explicit word witness over the generating set, in the
    CLI's element grammar; evaluating it reproduces sigma_{Cyl(I_n, h)}."""
    n = (len(h) - 1) // 2
    if n == 1:
        return f'sigma(cyl(-1,"{engine.alphabet.format_word(h)}"))'
    left = matui_recursion_word(engine, h[:-2])
    right = matui_recursion_word(engine, h[2:])
    return f"comm({left},inv({right}))"


def qeqz_check(U, V):
    """Exact check of [sigma_V, sigma_U^{-1}] = sigma_{phi U and phi^{-1} V};
    the six translates of U and V must be pairwise disjoint except possibly
    phi U with phi^{-1} V."""
    names = ("phi^-1U", "U", "phiU", "phi^-1V", "V", "phiV")
    # pair (2, 3): phi U may meet phi^-1 V
    meet = least_meet([(U, -1), (U, 0), (U, 1), (V, -1), (V, 0), (V, 1)], allowed={(2, 3)})
    if meet is not None:
        raise PreconditionViolated((names[meet[0]], names[meet[1]]))
    lhs = commutator(sigma_U(V), inverse(sigma_U(U)))
    rhs = sigma_U(U.shift_image(1).intersect(V.shift_image(-1)))
    return equal(lhs, rhs)

# ---------------------------------------------------------------------------
# lamplighter pairs inside non-odometer systems


class LamplighterPair(NamedTuple):
    engine: object
    U: CloSet
    V: CloSet
    psi: Element              # first return to U
    Psi: Element              # psi * (phi psi phi^{-1})
    sigma0: Element           # swap of V and phi(V)
    checked_shifts: int = 0

    def lamp_set(self, F):
        """A_F: symmetric difference of psi^n(V) over n in F."""
        return _lamp_set(_psi_orbit(self.psi, self.V, min(F, default=0), max(F, default=0)), F)

    def sigma(self, F):
        """Involution exchanging A_F and phi(A_F) by phi^{+-1}."""
        return _swap_element(self.lamp_set(F))


def _psi_orbit(psi, closet, lo, hi):
    """{n: psi^n(closet)} for n from min(lo, 0) to max(hi, 0), each image
    built from its neighbour by one element_image."""
    images = {0: closet}
    for n in range(1, hi + 1):
        images[n] = element_image(images[n - 1], psi)
    psi_inv = inverse(psi) if lo < 0 else None
    for n in range(-1, lo - 1, -1):
        images[n] = element_image(images[n + 1], psi_inv)
    return images


def _lamp_set(images, F):
    """A_F read off {n: psi^n(V)}."""
    out = CloSet.empty(images[0].engine)
    for n in sorted(F):
        out = out.symmetric_difference(images[n])
    return out


def _swap_element(closet):
    """The involution swapping `closet` and phi(closet); they must be disjoint."""
    engine = closet.engine
    if not closet.is_disjoint(closet.shift_image(1)):
        raise OverlapError("set overlaps its shift; cannot swap")
    radius = closet.radius + 1
    values = tuple(1 if here else -1 if ahead else 0
                   for here, ahead in zip(closet.mask(radius), closet.mask(radius, 1)))
    return make_element(engine, radius, values)


def lamplighter_pair(U):
    """A lamplighter inside the full group: Psi acts as the shift on the lamps
    sigma_F, F a finite subset of Z.  Requires U disjoint from phi(U) and a
    clopen orbit of U that does not close up (non-odometer behaviour).

    Both orbit searches, U under phi and each candidate V under the first
    return psi, go through ``clopen_orbit``.  Its canonical-point reads
    refute orbit lengths before any image is built: on Fibonacci with
    U = [b] they refute every length up to the cap, for U and for the V
    found, and only the candidates equal to U, which psi fixes, have an
    image built."""
    engine = U.engine
    if not U.is_disjoint(U.shift_image(1)):
        raise OverlapError("U must be disjoint from phi(U)")
    if clopen_orbit(U) is not None:
        raise OdometerLike("the clopen orbit of U closes up")
    psi = first_return(U)
    phi = shift(engine)
    Psi = compose(psi, compose(compose(phi, psi), inverse(phi)))

    # each candidate is one allowed window of U, so a nonempty subset of it
    base = U.reduced()
    candidate_words = [(base.radius + ext, w) for ext in range(9)
                       for w in sorted(base.at_radius(base.radius + ext).members)]
    candidates = (CloSet(engine, rho, {w}) for rho, w in candidate_words)
    V = next((cand for cand in candidates if clopen_orbit(cand, f=psi) is None), None)
    if V is None:
        raise SearchExhausted("no refining cylinder with an infinite return orbit")

    pair = LamplighterPair(engine, U, V, psi, Psi, _swap_element(V))
    return pair._replace(checked_shifts=_verify_lamplighter(pair))


def _verify_lamplighter(pair):
    if not equal(compose(pair.sigma0, pair.sigma0), identity(pair.engine)):
        raise AssertionError("sigma_{0} is not an involution")
    images = _psi_orbit(pair.psi, pair.V, -3, 3)
    if len({image.key() for image in images.values()}) != len(images):
        raise AssertionError("psi^n(V) are not pairwise distinct")
    subsets = [()]
    for n in range(-2, 3):
        subsets += [s + (n,) for s in subsets]
    Psi_inv = inverse(pair.Psi)
    for F in subsets:
        lhs = compose(pair.Psi, compose(_swap_element(_lamp_set(images, F)), Psi_inv))
        rhs = _swap_element(_lamp_set(images, [n + 1 for n in F]))
        if not equal(lhs, rhs):
            raise AssertionError(f"conjugation relation fails for F={F}")
    return len(subsets)


# ---------------------------------------------------------------------------
# van Douwen involutions on the proper shift


VAN_DOUWEN_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def van_douwen_involutions(q):
    """The proper shift (no equal adjacent letters) on q >= 3 letters and the
    involutions sigma_i: shift by +1 on [letter_i at 0], -1 on [letter_i at 1]."""
    if not 3 <= q <= len(VAN_DOUWEN_LETTERS):
        raise SemanticError(f"need between 3 and {len(VAN_DOUWEN_LETTERS)} letters, got {q}")
    letters = VAN_DOUWEN_LETTERS[:q]
    engine = sft_engine(letters, [c + c for c in letters])
    return engine, [_swap_element(cylinder(engine, 0, letter)) for letter in letters]


def van_douwen_witness(engine, indices):
    """The centered window x[-n-2..n+2] of an explicit point x with x(j) =
    letter_{k_j} for j = 1..n; applying the reversed word of involutions walks
    x to phi^{-n} x, which differs from x.  x[-n-2..-2] alternates two letters.
    Returns (window, expected_total_shift)."""
    n = len(indices)
    letters = range(len(engine.alphabet))

    def pick(*avoid):
        for c in letters:
            if c not in avoid:
                return c

    here = pick(indices[0], indices[-1])
    before, after = pick(here), pick(indices[-1])
    near = pick(before)
    left = (bytes((pick(near), near)) * (n // 2 + 1))[-n - 1:]
    return left + bytes((before, here, *indices, after, pick(after))), -n


def van_douwen_walk(sigmas, indices, window):
    """Apply sigma_{k_1}, ..., sigma_{k_n} in turn (the inverse of the reduced
    word m = sigma_{k_1} ... sigma_{k_n}) to the point of the centered
    `window`; returns the cumulative shift.  Each step reads the window of
    phi^total x; IndexError when it leaves `window`."""
    total, reach = 0, len(window) // 2
    for k in indices:
        sigma = sigmas[k]
        size = 2 * sigma.radius + 1
        top = reach - total - sigma.radius
        if top < 0 or top + size > len(window):
            raise IndexError(f"walk at shift {total} leaves [{-reach}, {reach + 1})")
        total += sigma.table[window[top:top + size]]
    return total


def van_douwen_certify(engine, sigmas, indices):
    """Two independent non-identity certificates for the reduced word
    m = sigma_{k_1} ... sigma_{k_n}.

    The walk shows the inverse word shifts the witness cylinder by -n whole;
    the automaton certificate then exhibits a non-n-periodic point through it,
    while the witness point itself is non-n-periodic because its letters at 0
    and n differ.  Returns (automaton_ok, witness_ok).
    """
    n = len(indices)
    window, expected = van_douwen_witness(engine, indices)
    if van_douwen_walk(sigmas, indices, window) != expected:
        return False, False
    # x[-1..n+2]: the span the walk reads and one letter more
    automaton_ok = engine.cylinder_nonperiodic_exists(window[n + 1:], n)
    witness_ok = window[n + 2] != window[2 * n + 2]
    return automaton_ok, witness_ok


# ---------------------------------------------------------------------------
# Houghton-type profiles on the non-minimal examples


class HoughtonProfile(NamedTuple):
    end_translations: tuple
    exceptional_set: tuple


def houghton_engine_y():
    """Two-letter shift forbidding 'ba': the compactification Z u {+-inf}."""
    return sft_engine("ab", ["ba"])


def houghton_engine_y3():
    """Three-letter shift allowing only aa, ab, bc, cb: three ends."""
    return sft_engine("abc", ["ac", "ba", "bb", "ca", "cc"])


def _houghton_tail(engine):
    """The letters that repeat on the right of x0: b on Y, b c on Y'."""
    size, pairs = len(engine.alphabet), set(engine.allowed_words(2))
    if size == 2 and pairs == {b"\0\0", b"\0\1", b"\1\1"}:
        return b"\1"
    if size == 3 and pairs == {b"\0\0", b"\0\1", b"\1\2", b"\2\1"}:
        return b"\1\2"
    raise SemanticError("profiles are defined on the Y and Y' engines")


# the -inf ends by residue of n modulo the tail's length
_MINUS_ENDS = {1: ("-inf",), 2: ("even -inf", "odd -inf")}


def houghton_orbit_map(f, window):
    """The images n + kappa(phi^n x0) for n in range(-window, window + 1),
    x0 = a at every position <= 0, then b b b ... (Y) or b c b c ... (Y')."""
    engine = f.engine
    tail = _houghton_tail(engine)
    radius = window + f.radius
    engine.caps.check_store(2 * radius + 1, f"point window of {2 * radius + 1} letters")
    x0 = bytes(radius + 1) + (tail * radius)[:radius]
    return f.orbit_map(x0, window)


def _end_translation(images, window, positions, label):
    deviations = {images[n + window] - n for n in positions}
    if len(deviations) != 1:
        raise WindowTooSmall(f"{label} end does not stabilize in the window")
    return deviations.pop()


def houghton_profile(f, window):
    """Per-end eventual translations and the exceptional set of the induced
    integer permutation.  Ends: (+inf,) then (-inf,) for Y; (+inf, even -inf,
    odd -inf) for Y'.  phi^n x0 for n -> -inf reads the tail of x0, so that
    end has one translation per residue of n modulo the tail's length q."""
    if not f.bijective:
        raise NotBijective("profiles are defined for group elements")
    q = len(_houghton_tail(f.engine))
    if window < 1:
        raise WindowTooSmall("the ends are read off positions 1..window on each side")
    images = houghton_orbit_map(f, window)
    quarter = max(1, window // 4)
    t_plus = _end_translation(images, window, range(window - quarter + 1, window + 1), "+inf")
    reads = range(-window, -window + q * quarter + q - 1)
    t_minus = tuple(
        _end_translation(images, window, [n for n in reads if n % q == residue], label)
        for residue, label in enumerate(_MINUS_ENDS[q]))
    exceptional = tuple(n for n, m in zip(range(-window, window + 1), images)
                        if m != n + (t_plus if n >= 0 else t_minus[n % q]))
    if any(abs(n) > window // 2 for n in exceptional):
        raise WindowTooSmall("deviations reach outside half the window")
    return HoughtonProfile((t_plus,) + t_minus, exceptional)

# ---------------------------------------------------------------------------
# Rokhlin bases for fixed-point-free powers


def rokhlin_base(f, n):
    """A clopen U with f^i(U), 0 <= i < n, pairwise disjoint and whose full
    f-orbit covers the space; requires f^i fixed-point-free for 0 < i < n.

    Read off one level.  R is the least radius, from the powers' radii up, at
    which no window y of radius R + D has g(y) in its own R-cell, for every
    g = f^i, 0 < |i| < n, and D their largest displacement.  U is the windows
    whose cell comes before that of every g(y): the greedy union of each cell,
    in word order, minus the images of the cells before it, as a point lies
    in such an image exactly when some g takes it to an earlier cell.
    """
    engine = f.engine
    if n < 1:
        raise SemanticError("n must be >= 1")
    if n == 1:
        return CloSet.full(engine)
    powers = []
    for i in range(1, n):
        g = compose(powers[-1], f) if powers else f
        for w, v in zip(engine.allowed_words(2 * g.radius + 1), g.values):
            if v == 0 or engine.cylinder_periodic_exists(w, v):
                raise FixedPointFound(i, engine.alphabet.format_word(w))
        powers.append(g)
    powers += [inverse(g) for g in powers]      # powers[n - 1] is f^-1

    d = max(g.dbound for g in powers)
    for radius in range(max(g.radius for g in powers), engine.caps.radius_search + 1):
        size = 2 * (radius + d) + 1
        # the cell of phi^k y starts at index d - k of y
        cells = {k: engine.restriction(size, d - k, 2 * radius + 1)
                 for k in {0}.union(*(g.values for g in powers))}
        kappas = [g.values_at(radius + d) for g in powers]
        rows = [(cells[0][j], [cells[k][j] for k in ks]) for j, ks in enumerate(zip(*kappas))]
        if not any(here in images for here, images in rows):
            keep = [here < min(images) for here, images in rows]
            base = CloSet(engine, radius + d, compress(engine.allowed_words(size), keep))
            break
    else:
        raise CapExceeded("no small enough neighborhoods found", cap=engine.caps.radius_search)

    if least_meet([(base, 0)] + [(element_image(base, g), 0) for g in powers[:n - 1]]) is not None:
        raise AssertionError("Rokhlin translates are not disjoint")
    acc = fwd = bwd = base
    for _ in range(engine.caps.orbit):
        if acc == CloSet.full(engine):
            return base
        fwd, bwd = element_image(fwd, f), element_image(bwd, powers[n - 1])
        grown = acc.union(fwd).union(bwd)
        if grown == acc:
            raise AssertionError("f-orbit of the base does not cover the space")
        acc = grown.reduced()
    raise CapExceeded("cover verification did not terminate", cap=engine.caps.orbit)
