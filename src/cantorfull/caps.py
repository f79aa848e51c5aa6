"""Configurable computation caps.

Every open-ended search in the package is bounded by a cap from this module
but ``language.recurrence_bound``, whose default cap is computed from its arguments.

Each engine owns one :class:`Caps`, ``engine.caps``, read from the environment
variable CANTORFULL_CAPS when the engine is built; a recoded engine or an SFT
approximation takes the caps of the engine it comes from.  The variable
overrides defaults with a comma-separated list of key=value pairs, e.g.
``CANTORFULL_CAPS=dbound=32,orbit=128``.  Keys: dbound, order, orbit, lef_n,
lef_p, word_store, radius_search; each value is an integer >= 0, written in
the one integer syntax of the text interface (`INTEGER`): ASCII digits after
an optional '-', with spaces around it but no sign '+', no '_' and no other
digits (``int`` would read ``1_0`` as 10 and ``٣`` as 3).
"""

import os
import re
from typing import NamedTuple

from .errors import MemoryCapExceeded

# Integers wherever the package reads text: the expression tokenizer, the
# subshift file, CANTORFULL_CAPS and the CLI's integer options.  A string,
# which `re` compiles on first use rather than on every import.
INTEGER = r"-?[0-9]+"


def parse_int(text):
    """The integer `text` spells in the syntax of `INTEGER`, the whole of it;
    ValueError otherwise."""
    if not re.fullmatch(INTEGER, text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Caps(NamedTuple):
    dbound: int = 64          # max |displacement| of any constructed cocycle, products included
    order: int = 4096         # order() iteration cap
    orbit: int = 64           # clopen_orbit iteration cap
    lef_n: int = 8            # lef_certificate approximation-order cap
    lef_p: int = 12           # lef_certificate period cap
    # enumeration guard: words, ball elements and point-window letters, the
    # windows Sturmian levels are read off included
    word_store: int = 500_000
    radius_search: int = 64   # cover-refinement radius guard

    def check_store(self, size, what):
        """MemoryCapExceeded(`what`) past the word store: its one comparison."""
        if size > self.word_store:
            raise MemoryCapExceeded(what, cap=self.word_store)


def parse_caps(text):
    updates = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in Caps._fields:
            raise ValueError(f"unknown cap {key!r}")
        try:
            updates[key] = parse_int(value.strip())
        except ValueError:
            raise ValueError(f"cap {key!r} needs an integer, got {value.strip()!r}") from None
        if updates[key] < 0:
            raise ValueError(f"cap {key!r} must be >= 0, got {updates[key]}")
    return Caps(**updates)


def caps_from_env():
    return parse_caps(os.environ.get("CANTORFULL_CAPS", ""))

