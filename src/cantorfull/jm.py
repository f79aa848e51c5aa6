"""Almost-invariance certificates from the cosine-product correlation.

For a bounded-displacement permutation g of Z and the angle profile
theta(n, j) = (pi/4) min(sqrt(|j|/n), 1), the correlation

    C(n) = prod_j cos(theta(n, j) - theta(n, g(j)))

is a finite product (factors with |j| >= n + c are exactly 1) and satisfies
exp(-sum_j (theta(n,j) - theta(n,g(j)))^2) <= C(n) <= 1, the per-factor bound
being cos(x) >= exp(-x^2) on [-pi/4, pi/4].  The kernels themselves are never
materialized; everything reduces to this product.

The angle differences theta(n, j) - theta(n, g(j)) for one n are computed
once and shared by C(n) and its lower bound.  The angles theta(n, k) form one
table per n, built without a Python call per k.  An orbit view, which holds
its images as a run aligned with its window, is read by position; any other g
is evaluated once per j.
Products are evaluated as a balanced tree over the sorted j range and
cross-checked against the sum-of-logs form to 1e-9 relative.
"""

import itertools
import math
import operator
from array import array
from typing import NamedTuple

from .errors import RangeUnavailable


def theta(n, j):
    """Angle profile in [0, pi/4]; 0 at j = 0, clamped at |j| >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (math.pi / 4) * min(math.sqrt(abs(j) / n), 1.0)


class EventuallyTranslation:
    """Permutation of Z acting as per-end translations outside a finite table."""

    def __init__(self, left, right, exceptions=()):
        self.left = left
        self.right = right
        self.exceptions = dict(exceptions)
        bounds = [abs(left), abs(right)]
        bounds += [abs(abs(v) - abs(j)) for j, v in self.exceptions.items()]
        self.c = max(bounds)

    def __call__(self, j):
        if j in self.exceptions:
            return self.exceptions[j]
        return j + (self.right if j >= 0 else self.left)


def identity_view():
    return EventuallyTranslation(0, 0)


def translation_view(k=1):
    return EventuallyTranslation(k, k)


def transposition_view(a=0, b=1):
    return EventuallyTranslation(0, 0, {a: b, b: a})


class ReflectedView:
    """Conjugation of g by n -> -n; displacement in the |.| metric is unchanged."""

    def __init__(self, base):
        self.base = base
        self.c = base.c

    def __call__(self, j):
        return -self.base(-j)


def _evaluate(g, j):
    try:
        return g(j)
    except KeyError:
        raise RangeUnavailable(f"g is not evaluable at {j}") from None


def _balanced_product(values):
    if not values:
        return 1.0
    while len(values) > 1:
        paired = list(map(operator.mul, values[0:len(values) - 1:2], values[1::2]))
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def _span(g, n):
    """n + c, the half-width beyond which every factor is exactly 1; checked
    against the view's window when it has one."""
    span = n + g.c
    window = getattr(g, "window", None)
    if window is not None and window < span:
        raise RangeUnavailable(f"view window {window} < n + c = {span}")
    return span


def _paired(span):
    """0, 1, -1, 2, -2, ..., span, -span: the order of the factors of C(n)."""
    return itertools.chain((0,), itertools.chain.from_iterable(
        zip(range(1, span + 1), range(-1, -span - 1, -1))))


def _angles(n, top):
    """[theta(n, k) for k in range(top)]: sqrt(k / n) <= 1 exactly when k <= n,
    so the clamp leaves pi/4 from k = n on."""
    if n < 1:
        raise ValueError("n must be >= 1")
    low = min(top, n)
    roots = map(math.sqrt, map(operator.truediv, range(low), itertools.repeat(n)))
    return [*map((math.pi / 4).__mul__, roots), *[math.pi / 4] * (top - low)]


def _deltas(g, n):
    """theta(n, j) - theta(n, g(j)) for j in _paired(n + c).

    The angles come from a table of theta(n, k) indexed by k = |j|, so every
    difference is the float the two theta calls would give; |g(j)| <= |j| + c
    <= span + c.  A view with images (an orbit window) is read by position;
    any other g is evaluated once per j.
    """
    span = _span(g, n)
    angles = _angles(n, span + g.c + 1)
    images = getattr(g, "images", None)
    if images is not None:
        zero = g.window
    else:
        zero = span
        try:
            images = [g(j) for j in range(-span, span + 1)]
        except KeyError:
            for j in _paired(span):
                _evaluate(g, j)
            raise
    # j = 0, -1, ..., -span at even places, j = 1, ..., span at odd ones
    deltas = array("d", bytes(8 * (2 * span + 1)))
    for place, run in ((0, images[zero - span:zero + 1][::-1]),
                       (1, images[zero + 1:zero + span + 1])):
        deltas[place::2] = array("d", map(operator.sub, angles[place:span + 1],
                                          map(angles.__getitem__, map(abs, run))))
    return deltas


def _correlation(deltas):
    """C(n) from the deltas of _deltas: j and -j share a factor, so the result
    is bit-identical under reflection and under widening the range."""
    cosines = map(math.cos, deltas)
    factors = [next(cosines)]
    factors += map(operator.mul, cosines, cosines)
    product = _balanced_product(factors)
    via_logs = math.exp(math.fsum(map(math.log, factors)))
    if abs(product - via_logs) > 1e-9 * max(abs(product), 1e-300):
        raise AssertionError("product and log-sum evaluations disagree")
    return min(max(product, 0.0), 1.0)


def _lower_bound(deltas):
    # fsum is correctly rounded, so the order of the deltas does not matter
    return math.exp(-math.fsum(map(operator.mul, deltas, deltas)))


def correlation(g, n):
    """The inner-product correlation C(n) in [0, 1]."""
    return _correlation(_deltas(g, n))


def hn_lower_bound(g, n):
    """exp(-sum of squared angle differences) <= C(n)."""
    return _lower_bound(_deltas(g, n))


class CorrelationReport(NamedTuple):
    rows: tuple    # (n, C, B, 1-C, (1-C) n / log n)

    @property
    def max_ratio(self):
        return max(r[4] for r in self.rows)

    def tsv(self):
        lines = ["n\tC\tB\tone_minus_C\tratio"]
        for n, c, b, omc, ratio in self.rows:
            lines.append(f"{n}\t{c!r}\t{b!r}\t{omc!r}\t{ratio!r}")
        return "\n".join(lines) + "\n"

    def loglog_table(self):
        lines = []
        for n, _, _, omc, _ in self.rows:
            bar = "#" * max(0, min(48, int(-math.log10(max(omc, 1e-300)) * 8)))
            lines.append(f"n=10^{math.log10(n):4.1f}  1-C={omc:10.3e}  {bar}")
        return "\n".join(lines) + "\n"


def decay_report(g, n_list):
    """Sandwich rows B(n) <= C(n) <= 1 and the decay ratio (1-C(n)) n / log n."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    rows = []
    for n in n_list:
        if n < 2:
            raise ValueError("report rows need n >= 2")
        deltas = _deltas(g, n)
        c, b = _correlation(deltas), _lower_bound(deltas)
        if not (b <= c + 1e-12 and c <= 1.0 + 1e-12):
            raise AssertionError(f"sandwich violated at n={n}")
        rows.append((n, c, b, 1.0 - c, (1.0 - c) * n / math.log(n)))
    return CorrelationReport(tuple(rows))
