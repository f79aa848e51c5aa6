"""Orbit actions on Z, the index homomorphism, block stability, clopen
orbits and finite-quotient (LEF) certificates.

The canonical basepoint is always the engine's point_window point, and
j_x(psi)(n) = n + kappa(phi^n x).  A point window x[-R..R] is centered bytes,
index R + n holding x[n].  Where the window of phi^n x sits in it is known to
``Element.orbit_map``, which every orbit reader here calls, and to the coded
sequence of ``_unrefuted``, which reads a clopen set's windows by the same
rule: x[-n-r..-n+r].
A ``WindowedPermutation`` keeps its window, the list of images of
-window, ..., window in that order (readers index it by position, n + window)
and the displacement bound c.
Since |j(n) - n| <= D, every crossing of the origin (n and j(n) on opposite
sides of 0) lies in [-D, D); ``_crossings`` reads that range once, and the
index and the half-orbit stabilizer test are both read off it.

``clopen_orbit`` is the one loop over the images of a clopen set, under phi
or any group element.  A bijection's orbit first repeats at the set itself,
so each reduced image is compared with the reduced start.  Before any image
is built, the canonical point rules lengths out: if f^n(U) = U, the coded
sequence u(k) = [phi^k x in U] has u(k) = u(j^n(k)) for every k, with j the
orbit map of f, so one k where they differ refutes n (``_unrefuted``).  Only
the lengths left are compared as sets, so the answer stays exact.  For a
Fibonacci cylinder every length up to the cap is refuted and no level is
built; on the constant greedy point of the full shift nothing is.  The reads only
refute: an orbit is still called infinite by running out of the cap.
"""

import json
import operator
from typing import NamedTuple

from .elements import element_image, equal, inverse, make_element
from .errors import (CapExceeded, EngineMismatch, NotAperiodic, NotBijective, NotInjective,
                     NotSurjective, PartialTable, SemanticError, StabilizerViolated,
                     WindowTooSmall)
from .language import SFTEngine, periodic_window, sft_approximation


class WindowedPermutation(NamedTuple):
    """j_x(psi) restricted to [-window, window]: images[i] is the image of
    n = i - window; c bounds |g(n) - n|."""

    window: int
    images: list
    c: int

    def __call__(self, n):
        """The image of n; KeyError outside [-window, window]."""
        if -self.window <= n <= self.window:
            return self.images[n + self.window]
        raise KeyError(n)

    def defined_range(self):
        return range(-self.window, self.window + 1)

    def tsv(self):
        lines = ["n\timage"]
        lines += [f"{n}\t{m}" for n, m in zip(self.defined_range(), self.images)]
        return "\n".join(lines) + "\n"


def orbit_permutation(psi, window):
    """The permutation n -> n + kappa(phi^n x) on [-window, window], x the
    canonical basepoint; ``Element.orbit_map`` reads shifted basepoints.

    Injectivity is checked over overlapping chunks: j(n) = j(m) needs
    |n - m| = |kappa(m) - kappa(n)| <= 2d, so the chunks
    images[lo:lo + _CHUNK + 2d], lo stepping by _CHUNK, hold every pair that
    could collide, and no set over the whole window is built."""
    r, d = psi.radius, psi.dbound
    if window < r + d:
        raise WindowTooSmall(f"window {window} < radius+dbound = {r + d}")
    point = psi.engine.point_window(window + r)
    images = psi.orbit_map(point, window)
    _check_injective(images, d)
    return WindowedPermutation(window, images, d)


# positions per chunk of the injectivity check
_CHUNK = 4096


def _check_injective(images, d):
    """AssertionError unless the values n + kappa(n), |kappa| <= d, listed
    for consecutive n are distinct; see ``orbit_permutation``."""
    for lo in range(0, len(images), _CHUNK):
        chunk = images[lo:lo + _CHUNK + 2 * d]
        if len(set(chunk)) != len(chunk):
            raise AssertionError("orbit restriction is not injective")


def _crossings(psi, point, shift=0):
    """The pairs (n, j(n)) with n and j(n) on opposite sides of 0, in order
    of n, basepoint phi^shift x for x read off `point`."""
    d = psi.dbound
    images = psi.orbit_map(point, d, shift)
    return [(n, m) for n, m in zip(range(-d, d + 1), images) if (n < 0) != (m < 0)]


# the basepoints phi^s x, 0 <= s < _INDEX_BASEPOINTS, that index_mod reads
_INDEX_BASEPOINTS = 5


def index_mod(psi):
    """Net transfer of the orbit across the origin; the abelianization onto Z.

    mod(psi) = #{n < 0 : j(n) >= 0} - #{n >= 0 : j(n) < 0}, the signed count
    of crossings, cross-checked at the basepoints x, phi x, ..., phi^4 x.
    Needs ``engine.aperiodic``: on a substitution, no period <= 2 caps.dbound.
    """
    if not psi.engine.aperiodic:
        raise NotAperiodic("the index needs an infinite orbit at the basepoint")
    point = psi.engine.point_window(psi.dbound + psi.radius + _INDEX_BASEPOINTS)
    values = [sum(1 if n < 0 else -1 for n, _ in _crossings(psi, point, s))
              for s in range(_INDEX_BASEPOINTS)]
    if len(set(values)) != 1:
        raise AssertionError("index is not basepoint-independent")
    return values[0]


def stabilizer_check(psi):
    """Does j_x(psi) map N into N and its complement into itself (the
    stabilizer of the positive half-orbit)?  Exact: no n crosses the origin."""
    return not _crossings(psi, psi.engine.point_window(psi.dbound + psi.radius))


class PutnamBlocks(NamedTuple):
    blocks: tuple            # (start, end) half-open interior blocks
    recurrence_set: tuple
    displacement: int
    invariant: bool

    def tsv(self):
        lines = ["start\tend\tinvariant"]
        lines += [f"{a}\t{b}\t{str(self.invariant).lower()}" for a, b in self.blocks]
        return "\n".join(lines) + "\n"


def putnam_blocks(elements, window):
    """Interval blocks P_n between returns of the coded orbit pattern,
    each invariant under every j_x(f) when all f stabilize the half-orbit.

    The recurrence set is I = {n : tau(n+k) = tau(k) for all f and 0 <= k < m},
    m the maximal displacement; blocks are the gaps between consecutive
    points of I, verified to be permuted within themselves.
    """
    if not elements:
        raise SemanticError("need at least one element")
    family = []
    seen = set()
    for f in elements:
        for g in (f, inverse(f)):
            key = g.canonical_key()
            if key not in seen:
                seen.add(key)
                family.append(g)
    perms = []
    for f in family:
        if f.radius + f.dbound > window:
            raise WindowTooSmall("window too small for the family's displacements")
        perm = orbit_permutation(f, window)
        crossing = next(((n, j) for n, j in zip(perm.defined_range(), perm.images)
                         if (n < 0) != (j < 0)), None)
        if crossing is not None:
            raise StabilizerViolated(*crossing)
        perms.append(perm)
    m = max((f.dbound for f in family), default=0)
    # tau[i] is the displacement at n = i - window
    tau = [list(map(operator.sub, p.images, p.defined_range())) for p in perms]
    recurrence = []
    # n and the run of m displacements from it lie in the window, also for m = 0
    for n in range(-window, window - max(m, 1) + 2):
        if all(t[n + window:n + window + m] == t[window:window + m] for t in tau):
            recurrence.append(n)
    if len(recurrence) < 2:
        raise WindowTooSmall("recurrence set too sparse in the window")
    blocks = []
    invariant = True
    for a, b in zip(recurrence, recurrence[1:]):
        if a < -window + m or b > window - m:
            continue
        blocks.append((a, b))
        cells = set(range(a, b))
        for p in perms:
            if set(p.images[a + window:b + window]) != cells:
                invariant = False
    if not blocks:
        raise WindowTooSmall("no interior blocks in the window")
    return PutnamBlocks(tuple(blocks), tuple(recurrence), m, invariant)


def block_orbits(elements, block):
    """Orbits of a block of integers under the induced permutations."""
    if not elements:
        raise SemanticError("need at least one element")
    start, end = block
    window = max(abs(start), abs(end)) + max(f.radius + f.dbound for f in elements)
    perms = [orbit_permutation(f, window) for f in elements]
    parent = {n: n for n in range(start, end)}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    # an edge n - f^-1(n) inside the block is the edge m - f(m) from m = f^-1(n)
    for p in perms:
        for n, m in zip(range(start, end), p.images[start + window:end + window]):
            if start <= m < end:
                parent[find(n)] = find(m)
    orbits = {}
    for n in range(start, end):
        orbits.setdefault(find(n), []).append(n)
    return sorted(map(tuple, orbits.values()))


def _unrefuted(start, cap, f=None):
    """The n in 1..cap, in increasing order, that the canonical point x leaves
    open as orbit lengths of `start` under f (phi when None).

    u(k) = [phi^k x in start] is read off x[-k-s..-k+s], s the radius of
    `start`, as orbit_map reads windows, and j(k) = k + kappa(phi^k x) (k + 1
    under phi), so that f^n(phi^k x) = phi^(j^n(k)) x.  When u(k) != u(j^n(k)),
    phi^k x witnesses f^n(start) != start, and n is refuted.  The compared k
    fill [-2 cap - 32, 2 cap + 32], several times the longest period tested
    (an aperiodic primitive substitution's point repeats a period boundedly
    many times: at most ~3.6 times on Fibonacci), and each is followed for
    cap steps of at most D.
    The window shrinks to what the engine's point reaches, and leaves every n
    open when nothing is left of it."""
    engine = start.engine
    d = 1 if f is None else f.dbound
    r = start.radius if f is None else max(start.radius, f.radius)
    reach = min(2 * cap + 32 + cap * d, engine.max_point_radius() - r)
    width = reach - cap * d
    if width < 0:
        yield from range(1, cap + 1)
        return
    point = engine.point_window(reach + r)
    size, members = 2 * start.radius + 1, start.members
    # u[k + reach]: the window of phi^k x starts at index top - k
    top = reach + r - start.radius
    u = [point[i:i + size] in members for i in range(top + reach, top - reach - 1, -1)]
    lo, hi = reach - width, reach + width + 1
    if f is None:
        # j^n(k) = k + n: u against itself n positions on
        here = u[lo:hi]
        for n in range(1, cap + 1):
            if u[lo + n:hi + n] == here:
                yield n
        return
    step = [m + reach for m in f.orbit_map(point, reach)]
    # a position that j fixes witnesses nothing
    at = [i for i in range(lo, hi) if step[i] != i]
    here = list(map(u.__getitem__, at))
    for n in range(1, cap + 1):
        at = list(map(step.__getitem__, at))
        if all(map(operator.eq, map(u.__getitem__, at), here)):
            yield n


def clopen_orbit(closet, cap=None, f=None):
    """Size of the orbit of the clopen set under the group element f (phi
    when None), or None past the cap.  The lengths the canonical point
    refutes are skipped (``_unrefuted``); each one left is decided by
    comparing the reduced image with the reduced start.  Each image is
    reduced, which keeps the radius from growing step after step."""
    cap = cap if cap is not None else closet.engine.caps.orbit
    if f is not None:
        if not f.bijective:
            raise NotBijective("clopen orbits are taken under group elements")
        if f.engine is not closet.engine:
            raise EngineMismatch("closet and element live on different engines")
    start = current = closet.reduced()
    built = 0
    for n in _unrefuted(start, cap, f):
        for _ in range(n - built):
            current = (current.shift_image(1) if f is None else element_image(current, f)).reduced()
        built = n
        # reduced forms are canonical
        if current.radius == start.radius and current.members == start.members:
            return n
    return None


# ---------------------------------------------------------------------------
# LEF certificates via periodic points of SFT approximations


class FiniteQuotientCert(NamedTuple):
    alphabet: object         # the engine's Alphabet, which prints the points
    order: int               # approximation order n
    period: int              # period bound p
    points: tuple            # length-p blocks, one per periodic point
    images: tuple            # per element: tuple of point indices
    witnesses: tuple         # (i, j, point index) separating each pair

    def verify(self):
        size = len(self.points)
        for image in self.images:
            if sorted(image) != list(range(size)):
                return False
        for i, j, w in self.witnesses:
            if self.images[i][w] == self.images[j][w]:
                return False
        return True

    def to_json(self):
        return json.dumps({
            "n": self.order,
            "p": self.period,
            "points": list(map(self.alphabet.format_word, self.points)),
            "images": {str(i): list(img) for i, img in enumerate(self.images)},
            "witnesses": [list(w) for w in self.witnesses],
        }, indent=2, sort_keys=True) + "\n"


def _lift_to(approx, element):
    return make_element(approx, element.radius, dict(element.table))


def _act_on_block(lift, block):
    """The block of the image of the periodic point with block `block`."""
    k = lift.table[periodic_window(block, lift.radius)]
    shift = -k % len(block)
    return block[shift:] + block[:shift]


def lef_certificate(elements, n_cap=None, p_cap=None):
    """A finite quotient separating the given distinct elements: the least
    approximation order n whose lifts are certified bijective, then the least
    period p whose periodic points separate every pair."""
    if not elements:
        raise SemanticError("need at least one element")
    engine = elements[0].engine
    n_cap = n_cap if n_cap is not None else engine.caps.lef_n
    p_cap = p_cap if p_cap is not None else engine.caps.lef_p
    if not engine.minimal and not (isinstance(engine, SFTEngine) and engine.is_irreducible()):
        raise SemanticError("certificates need a minimal engine or an irreducible SFT")
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if equal(elements[i], elements[j]):
                raise SemanticError(f"elements {i} and {j} coincide")
    pairs = [(i, j) for i in range(len(elements)) for j in range(i + 1, len(elements))]
    last_unseparated = pairs[0] if pairs else None
    for n in range(1, n_cap + 1):
        approx = sft_approximation(engine, n)
        try:
            lifts = [_lift_to(approx, f) for f in elements]
        except (PartialTable, NotInjective, NotSurjective):
            continue
        for p in range(1, p_cap + 1):
            points = approx.periodic_blocks(p)
            if not points:
                continue
            # a certified bijection permutes the p-periodic points
            index = {b: t for t, b in enumerate(points)}
            images = [tuple(index[_act_on_block(lift, b)] for b in points) for lift in lifts]
            witnesses = []
            separated = True
            for i, j in pairs:
                witness = next((t for t in range(len(points))
                                if images[i][t] != images[j][t]), None)
                if witness is None:
                    separated = False
                    last_unseparated = (i, j)
                    break
                witnesses.append((i, j, witness))
            if separated:
                cert = FiniteQuotientCert(engine.alphabet, n, p, points, tuple(images),
                                          tuple(witnesses))
                if not cert.verify():
                    raise AssertionError("certificate failed re-verification")
                return cert
    raise CapExceeded(f"pair {last_unseparated} not separated within caps",
                      cap=(n_cap, p_cap))
