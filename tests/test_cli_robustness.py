"""Property test: argv built from the CLI grammar, including bad values, never
lets an exception escape ``cli.main``; every call ends with exit code 0, 1
or 2.  Runs over the subshift files in perfbench/subshifts under tiny caps,
so every search stops early."""

import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from cantorfull import cli
from cantorfull.cli import main

SUBSHIFTS = sorted(str(p) for p in
                   (pathlib.Path(__file__).parent.parent / "perfbench" / "subshifts").glob("*.subshift"))
TINY_CAPS = "word_store=200,dbound=4,order=16"

def _mostly(valid, *malformed):
    """`valid` three times in four, else one of the malformed texts."""
    return st.one_of(valid, valid, valid, st.sampled_from(malformed))


numbers = st.integers(-2, 6).map(str)
ints = _mostly(numbers, "x", "", "2.5", "1e9", "--", "²", "٣")
words = _mostly(st.one_of(st.text(alphabet="ab", min_size=1, max_size=4),
                          st.text(alphabet="abcz", max_size=3)), "-", "a.b", " ", "'")
lists = _mostly(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=4).map(
    lambda v: ",".join(map(str, sorted(v)))), "", ",", "2,,5", "3,2", "2;5", "x,3", "2, 4")


def _closets(expr):
    base = st.one_of(st.sampled_from(["all", "empty"]),
                     st.builds(lambda i, w: f'cyl({i},"{w}")', numbers, words))
    return st.recursive(base, lambda c: st.one_of(
        st.builds("!{}".format, c),
        st.builds("({}&{})".format, c, c),
        st.builds("({}|{})".format, c, c),
        st.builds(lambda i, x: f"phi^{i}({x})", numbers, c),
        st.builds(lambda e, x: f"img({e},{x})", expr, c)), max_leaves=3)


def _expressions():
    def extend(e):
        clo = _closets(e)
        return st.one_of(
            st.builds("{}*{}".format, e, e),
            st.builds("inv({})".format, e),
            st.builds("comm({},{})".format, e, e),
            st.builds("sigma({})".format, clo),
            st.builds("ret({})".format, clo))
    base = st.one_of(st.sampled_from(["id", "phi", "u"]), st.builds("phi^{}".format, numbers))
    return st.recursive(base, extend, max_leaves=3)


# well-formed text three times in four; `u` is bound only after a let
_valid = _expressions()
exprs = _mostly(st.one_of(_valid, st.builds("let u = {}; {}".format, _valid, _valid)),
                "phi^", "foo", "(", "phi*", "", "let u = phi;", "phi^²")
closets = _mostly(_closets(_valid), "cyl(0,", 'cyl(a,"b")', ")", "!", "")


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _flat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _command(**options):
    """argv for the options of one command; each is a (name, strategy, required)."""
    return _flat(*(values.map(lambda v, n=name: [n, v]) if required else _option(name, values)
                   for name, values, required in options.values()))


def _repeated(name, values):
    return st.lists(values, min_size=1, max_size=2).map(
        lambda vs: [a for v in vs for a in (name, v)])


# argv after the command's two words, keyed by (group, command)
STRATEGIES = {
    ("lang", "words"): _command(length=("--length", ints, True)),
    ("lang", "recur"): _command(word=("--word", words, True), cap=("--cap", ints, False)),
    ("lang", "recode"): _command(d=("--d", ints, True)),
    ("elem", "eval"): _command(expr=("--expr", exprs, True)),
    ("elem", "canon"): _command(expr=("--expr", exprs, True)),
    ("elem", "order"): _command(expr=("--expr", exprs, True), cap=("--cap", ints, False)),
    ("elem", "mod"): _command(expr=("--expr", exprs, True)),
    ("elem", "equal"): _command(left=("--left", exprs, True), right=("--right", exprs, True)),
    ("construct", "sigma"): _command(closet=("--closet", closets, True)),
    ("construct", "towers"): _command(closet=("--closet", closets, True)),
    ("construct", "gw"): _command(A=("--A", closets, True), B=("--B", closets, True)),
    ("construct", "matui"): _command(),
    ("construct", "lamplighter"): _command(closet=("--closet", closets, True)),
    ("construct", "vandouwen"): _command(q=("--q", ints, False), max_len=("--max-len", ints, False)),
    ("construct", "houghton"): _command(expr=("--expr", exprs, True),
                                        window=("--window", ints, False)),
    ("act", "orbit"): _command(expr=("--expr", exprs, True), window=("--window", ints, True)),
    ("act", "putnam"): _flat(_repeated("--expr", exprs),
                             st.tuples(st.just("--window"), ints).map(list)),
    ("act", "lef"): _flat(_repeated("--expr", exprs), _option("--n-cap", ints),
                          _option("--p-cap", ints)),
    ("act", "odometer"): _command(closet=("--closet", closets, True), cap=("--cap", ints, False)),
    ("jm", "corr"): _command(g=("--g", exprs, True), n=("--n", ints, True)),
    ("jm", "report"): _flat(_command(g=("--g", exprs, True), n=("--n", lists, True)),
                            st.sampled_from([[], ["--loglog"]])),
    ("group", "ball"): _flat(_repeated("--gen", exprs),
                             st.tuples(st.just("--radius"), ints).map(list)),
}
COMMANDS = st.one_of([_flat(st.just(list(key)), argv) for key, argv in STRATEGIES.items()])


def test_every_command_has_a_strategy():
    assert list(STRATEGIES) == [(group, command) for group, command, *_ in cli.COMMANDS]


SESSIONS = _mostly(st.sampled_from(SUBSHIFTS).map(lambda path: ["--subshift", path]),
                   [], ["--subshift", "missing.subshift"])


@settings(deadline=None, database=None, max_examples=150)
@given(SESSIONS, COMMANDS)
def test_cli_exit_codes_on_generated_argv(session, command):
    argv = session + command
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as env:
        env.setenv("CANTORFULL_CAPS", TINY_CAPS)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
