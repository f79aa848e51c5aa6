"""Metric names, units and directions, and their values from a trace snapshot.

BENCHMARK.json lists the same names; selftest.py checks that they agree.
"""

import os
import re

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("task_p50_ms", "ms", "lower", 0.25),
    ("task_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

ENGINE_KINDS = ("sft", "substitution", "sturmian", "recoded")
CLOSETS = ("cylinder", "at_radius", "reduced", "shift_image", "key")
ELEMENTS = ("compose", "inverse", "canonical_element", "canonical_key", "certificate",
            "element_image", "is_identity", "equal")
CONSTRUCTIONS = ("sigma_U", "first_return", "kr_towers", "gw_transport", "matui_generators",
                 "lamplighter_pair", "van_douwen_certify", "houghton_profile")
ACTIONS = ("orbit_permutation", "index_mod", "clopen_orbit", "lef_certificate")
JM = ("correlation", "decay_report")
SLOC_MODULES = ("__init__", "caps", "errors", "words", "language", "closets", "elements",
                "constructions", "actions", "jm", "parsing", "cli")


def _per_layer():
    out = [("import.cantorfull_ms", "ms", "lower"), ("import.networkx_ms", "ms", "lower"),
           ("words.sort_key.calls", "count", "lower")]
    out += [(f"language.build.{k}.s", "s", "lower") for k in ENGINE_KINDS[:3]]
    for kind in ENGINE_KINDS:
        out += [(f"language.allowed_words.{kind}.misses", "count", "lower"),
                (f"language.allowed_words.{kind}.words", "count", "lower"),
                (f"language.allowed_words.{kind}.self_s", "s", "lower")]
    out += [("language.allowed_words.hit_ratio", "ratio", "higher"),
            ("language.allowed_words.peak_kb", "kB", "lower")]
    for name in ("language.point_window", "language.cylinder_nonperiodic_exists"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for module, names in (("closets", CLOSETS), ("elements", ELEMENTS),
                          ("constructions", CONSTRUCTIONS), ("actions", ACTIONS), ("jm", JM)):
        for name in names:
            out += [(f"{module}.{name}.calls", "count", "lower"),
                    (f"{module}.{name}.self_s", "s", "lower")]
    out += [("closets.at_radius.words_scanned", "count", "lower"),
            ("elements.compose.windows", "count", "lower"),
            ("elements.compose.radius_max", "count", "lower"),
            ("elements.compose.dbound_max", "count", "lower"),
            ("elements.certificate.windows", "count", "lower"),
            ("elements.ball_sizes.attempts", "count", "lower"),
            ("elements.ball_sizes.new_ratio", "ratio", "higher")]
    out += [(f"parsing.{name}.self_s", "s", "lower")
            for name in ("load_engine", "Session.eval_program", "Session.eval_closet_text")]
    out += [("cli.main.self_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    out += [(f"sloc.{m}", "lines", "lower") for m in SLOC_MODULES + ("total",)]
    return out


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def layer_values(snapshot):
    """Per-layer values from a (merged) tracer snapshot; unused spans give 0."""
    spans, counts, maxima = snapshot["spans"], snapshot["counts"], snapshot["maxima"]

    def span(name, field):
        record = spans.get(name, (0, 0.0, 0.0))
        return {"calls": record[0], "self_s": record[1], "total_s": record[2]}[field]

    out = {"words.sort_key.calls": counts.get("words.sort_key.calls", 0)}
    for kind in ENGINE_KINDS[:3]:
        out[f"language.build.{kind}.s"] = span(f"language.build.{kind}", "total_s")
    calls = misses = 0
    for kind in ENGINE_KINDS:
        name = f"language.allowed_words.{kind}"
        out[f"{name}.misses"] = counts.get(f"{name}.misses", 0)
        out[f"{name}.words"] = counts.get(f"{name}.words", 0)
        out[f"{name}.self_s"] = span(name, "self_s")
        calls += span(name, "calls")
        misses += out[f"{name}.misses"]
    out["language.allowed_words.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
    out["language.allowed_words.peak_kb"] = maxima.get("language.allowed_words.peak_kb", 0.0)
    for module, names in (("language", ("point_window", "cylinder_nonperiodic_exists")),
                          ("closets", CLOSETS), ("elements", ELEMENTS),
                          ("constructions", CONSTRUCTIONS), ("actions", ACTIONS), ("jm", JM)):
        for name in names:
            out[f"{module}.{name}.calls"] = span(f"{module}.{name}", "calls")
            out[f"{module}.{name}.self_s"] = span(f"{module}.{name}", "self_s")
    for name in ("closets.at_radius.words_scanned", "elements.compose.windows",
                 "elements.certificate.windows", "elements.ball_sizes.attempts"):
        out[name] = counts.get(name, 0)
    for name in ("elements.compose.radius_max", "elements.compose.dbound_max"):
        out[name] = maxima.get(name, 0)
    attempts = counts.get("elements.ball_sizes.attempts", 0)
    out["elements.ball_sizes.new_ratio"] = (counts.get("elements.ball_sizes.new", 0) / attempts
                                            if attempts else 0.0)
    for name in ("load_engine", "Session.eval_program", "Session.eval_closet_text"):
        out[f"parsing.{name}.self_s"] = span(f"parsing.{name}", "self_s")
    out["cli.main.self_s"] = span("cli.main", "self_s")
    return out


def sloc(src_dir):
    """Non-blank, non-comment lines per module under src/cantorfull."""
    out = {}
    for module in SLOC_MODULES:
        path = os.path.join(src_dir, "cantorfull", f"{module}.py")
        out[f"sloc.{module}"] = _count_lines(path) if os.path.exists(path) else 0
    package = os.path.join(src_dir, "cantorfull")
    out["sloc.total"] = sum(_count_lines(os.path.join(package, name))
                            for name in sorted(os.listdir(package)) if name.endswith(".py"))
    return out


def _count_lines(path):
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip() and not line.strip().startswith("#"))


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_times(stderr_text):
    """Cumulative import time in ms of the top-level cantorfull and networkx
    packages, from `python -X importtime` output (0 when not imported)."""
    out = {"import.cantorfull_ms": 0.0, "import.networkx_ms": 0.0}
    for line in stderr_text.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(3) in ("cantorfull", "networkx"):
            out[f"import.{match.group(3)}_ms"] = int(match.group(1)) / 1000.0
    return out
