"""The package's records: field names, order and defaults, and immutability."""

import pytest

from cantorfull.actions import FiniteQuotientCert, PutnamBlocks, WindowedPermutation
from cantorfull.caps import Caps, parse_caps
from cantorfull.constructions import (GWTransport, HoughtonProfile, LamplighterPair,
                                      MatuiSet, TowerPartition)
from cantorfull.jm import CorrelationReport
from cantorfull.parsing import Token

CAPS_DEFAULTS = {"dbound": 64, "order": 4096, "orbit": 64, "lef_n": 8, "lef_p": 12,
                 "word_store": 500_000, "radius_search": 64}

# record -> (field names in order, defaults)
RECORDS = {
    Caps: (tuple(CAPS_DEFAULTS), CAPS_DEFAULTS),
    Token: (("kind", "text", "line", "col"), {}),
    WindowedPermutation: (("window", "images", "c"), {}),
    PutnamBlocks: (("blocks", "recurrence_set", "displacement", "invariant"), {}),
    FiniteQuotientCert: (("alphabet", "order", "period", "points", "images", "witnesses"), {}),
    TowerPartition: (("pieces",), {}),
    GWTransport: (("alpha", "base", "towers", "contained", "index"), {}),
    MatuiSet: (("engine", "generators", "cylinder_words"), {}),
    LamplighterPair: (("engine", "U", "V", "psi", "Psi", "sigma0", "checked_shifts"),
                      {"checked_shifts": 0}),
    HoughtonProfile: (("end_translations", "exceptional_set"), {}),
    CorrelationReport: (("rows",), {}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_fields_and_defaults(record):
    names, defaults = RECORDS[record]
    assert record._fields == names
    assert record._field_defaults == defaults


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    value = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_caps_defaults():
    assert Caps() == parse_caps("") == Caps(**CAPS_DEFAULTS)
    assert parse_caps("order=0,lef_p=0") == Caps(order=0, lef_p=0)
    assert repr(Caps()) == ("Caps(dbound=64, order=4096, orbit=64, lef_n=8, lef_p=12, "
                            "word_store=500000, radius_search=64)")


@pytest.mark.parametrize("text, message", [
    ("dbound=-1", "cap 'dbound' must be >= 0, got -1"),
    ("lef_p=-2", "cap 'lef_p' must be >= 0, got -2"),
    ("orbit=5,radius_search=-1", "cap 'radius_search' must be >= 0, got -1"),
])
def test_negative_caps_are_refused(text, message):
    with pytest.raises(ValueError) as err:
        parse_caps(text)
    assert str(err.value) == message

