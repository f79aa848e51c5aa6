"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` wraps the public functions and methods of every layer module
and rebinds each wrapper wherever the original is bound: in every
``cantorfull`` module namespace (``from .x import y`` copies bindings) and in
every class.  `uninstall` puts every original back.  A span's self time is its
duration minus the time of the spans it encloses.

Spans are named ``<module>.<function>``; methods drop the class name, so
``language.point_window`` sums every engine class, except for classes in
QUALIFIED.  Some spans get layer-specific counters (see the ``_hook_*``
functions); the README lists every reported metric.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "cantorfull"
LAYERS = ("words", "language", "closets", "elements", "constructions", "actions",
          "jm", "parsing", "cli")

# Leaves called once per letter, window or orbit position: a timing wrapper
# would cost more than they do, so their time stays in the caller's self time.
UNWRAPPED = {"words.Alphabet.index", "words.Word.segment", "words.Word.shifted",
             "words.has_period", "language.contains_factor",
             "elements.Element.cocycle_at", "elements.Element.value_in", "jm.theta"}
# Counted without timing.
COUNTED = {"words.Alphabet.sort_key"}
QUALIFIED = {"Session"}
# Private functions reported under their own span name.
RENAMED = {
    "language.SFTEngine.__init__": "language.build.sft",
    "language.SFTEngine.from_allowed": "language.build.sft",
    "language.SubstitutionEngine.__init__": "language.build.substitution",
    "language.SturmianEngine.__init__": "language.build.sturmian",
    "elements.Element._run_certificate": "elements.certificate",
}


def _targets():
    """(qualified name, span name, function) for every function to wrap."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{layer}.{attr}", f"{layer}.{attr}", obj))
            elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                  and not attr.startswith("_")):
                for mattr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not inspect.isfunction(fn):
                        continue
                    qual = f"{layer}.{attr}.{mattr}"
                    span = f"{layer}.{attr}.{mattr}" if attr in QUALIFIED else f"{layer}.{mattr}"
                    out.append((qual, RENAMED.get(qual, span), fn))
    return [(qual, span, fn) for qual, span, fn in out
            if qual not in UNWRAPPED
            and (qual in RENAMED or not qual.rsplit(".", 1)[1].startswith("_"))]


def bindings():
    """Every (owner, attribute) -> object binding a tracer may replace."""
    out = {}
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, obj in vars(module).items():
            out[(module, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE) and id(obj) not in seen:
                seen.add(id(obj))
                for mattr, member in vars(obj).items():
                    out[(obj, mattr)] = member
    return out


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [calls, self_s, total_s]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._saved = []
        self._in_miss = False
        self._allowed_words = None

    # -- install / uninstall ------------------------------------------------

    def install(self):
        targets = _targets()
        wrappers = {id(fn): self._wrap(qual, span, fn) for qual, span, fn in targets}
        self._allowed_words = next(fn for qual, _, fn in targets
                                   if qual == "language.LanguageEngine.allowed_words")
        for (owner, attr), obj in bindings().items():
            fn = getattr(obj, "__func__", obj)
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                continue
            if isinstance(obj, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(obj, staticmethod):
                wrapper = staticmethod(wrapper)
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, qual, span, fn):
        if qual in COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[span + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        hook = HOOKS.get(span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def close(name, frame, start):
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][1][0] += duration
            record = spans[name]
            record[0] += 1
            record[1] += duration - frame[0]
            record[2] += duration

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = hook(self, args, kwargs) if hook else None
            name = next(state) if state is not None else span
            frame = [0.0]
            stack.append((name, frame))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(name, frame, start)
                if state is not None:
                    state.close()
                raise
            close(name, frame, start)
            if state is not None:
                try:
                    state.send(result)
                except StopIteration:
                    pass
            return result
        return timed

    def caller(self):
        """Span name of the innermost open span (a hook's caller), or None."""
        return self._stack[-1][0] if self._stack else None

    def words_at(self, engine, length):
        """Size of a language level, read through the unwrapped method (a cache hit
        right after the traced call that needed it)."""
        return len(self._allowed_words(engine, length))

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


def merge(snapshots):
    out = {"spans": {}, "counts": defaultdict(float), "maxima": defaultdict(float)}
    for snap in snapshots:
        for name, (calls, self_s, total_s) in snap["spans"].items():
            record = out["spans"].setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += self_s
            record[2] += total_s
        for name, value in snap["counts"].items():
            out["counts"][name] += value
        for name, value in snap["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
    return {"spans": out["spans"], "counts": dict(out["counts"]),
            "maxima": dict(out["maxima"])}


# ---------------------------------------------------------------------------
# hooks: generators that yield the span name before the call, then receive
# the result (they are closed without a result when the call raises)


def _hook_allowed_words(tracer, args, kwargs):
    engine, length = args[0], (args[1] if len(args) > 1 else kwargs["length"])
    cache = getattr(engine, "_words", None)
    miss = cache is None or length not in cache
    outermost = miss and not tracer._in_miss
    if outermost:
        tracer._in_miss = True
        tracemalloc.start()
    kind = engine.kind
    try:
        result = yield f"language.allowed_words.{kind}"
        if miss:
            tracer.counts[f"language.allowed_words.{kind}.misses"] += 1
            tracer.counts[f"language.allowed_words.{kind}.words"] += len(result)
    finally:
        if outermost:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer._in_miss = False
            tracer.maxima["language.allowed_words.peak_kb"] = max(
                tracer.maxima["language.allowed_words.peak_kb"], peak / 1024.0)


def _hook_at_radius(tracer, args, kwargs):
    closet, radius = args[0], (args[1] if len(args) > 1 else kwargs["radius"])
    yield "closets.at_radius"
    if radius > closet.radius:
        tracer.counts["closets.at_radius.words_scanned"] += tracer.words_at(
            closet.engine, 2 * radius + 1)


def _hook_compose(tracer, args, kwargs):
    f, g = args[0], args[1]
    radius = max(g.radius, f.radius + g.dbound)
    if tracer.caller() == "elements.ball_sizes":
        tracer.counts["elements.ball_sizes.attempts"] += 1
    result = yield "elements.compose"
    tracer.counts["elements.compose.windows"] += tracer.words_at(f.engine, 2 * radius + 1)
    tracer.maxima["elements.compose.radius_max"] = max(
        tracer.maxima["elements.compose.radius_max"], result.radius)
    tracer.maxima["elements.compose.dbound_max"] = max(
        tracer.maxima["elements.compose.dbound_max"], result.dbound)


def _hook_certificate(tracer, args, kwargs):
    element = args[0]
    yield "elements.certificate"
    tracer.counts["elements.certificate.windows"] += tracer.words_at(
        element.engine, 2 * (element.radius + element.dbound) + 1)


def _hook_ball_sizes(tracer, args, kwargs):
    result = yield "elements.ball_sizes"
    sizes = result[0] if isinstance(result, tuple) else result
    if sizes:
        tracer.counts["elements.ball_sizes.new"] += sizes[-1] - 1


HOOKS = {
    "language.allowed_words": _hook_allowed_words,
    "closets.at_radius": _hook_at_radius,
    "elements.compose": _hook_compose,
    "elements.certificate": _hook_certificate,
    "elements.ball_sizes": _hook_ball_sizes,
}
