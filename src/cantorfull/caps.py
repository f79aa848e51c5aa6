"""Configurable computation caps.

All open-ended searches in the package are bounded by a cap from this module.
Each engine owns one :class:`Caps`, ``engine.caps``, read from the environment
variable CANTORFULL_CAPS when the engine is built; a recoded engine or an SFT
approximation takes the caps of the engine it comes from.  The variable
overrides defaults with a comma-separated list of key=value pairs, e.g.
``CANTORFULL_CAPS=dbound=32,orbit=128``.  Keys: dbound, order, orbit, lef_n,
lef_p, period_scan, seed_power, word_store, radius_search.
"""

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Caps:
    dbound: int = 64          # max |displacement| of any constructed cocycle
    order: int = 4096         # order() iteration cap
    orbit: int = 64           # clopen_orbit iteration cap
    lef_n: int = 8            # lef_certificate approximation-order cap
    lef_p: int = 12           # lef_certificate period cap
    period_scan: int = 12     # aperiodicity scan: periods checked
    seed_power: int = 12      # substitution fixed-point seed: powers tried
    word_store: int = 500_000  # enumeration guard (words, ball elements)
    radius_search: int = 64   # cover-refinement radius guard


def parse_caps(text):
    names = {f.name for f in fields(Caps)}
    updates = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in names:
            raise ValueError(f"unknown cap {key!r}")
        try:
            updates[key] = int(value)
        except ValueError:
            raise ValueError(f"cap {key!r} needs an integer, got {value.strip()!r}") from None
    return Caps(**updates)


def caps_from_env():
    return parse_caps(os.environ.get("CANTORFULL_CAPS", ""))

