"""Property test: argv built from the CLI grammar, including bad values, never
lets an exception escape ``cli.main``; every call ends with exit code 0, 1
or 2.  Runs over the subshift files in perfbench/subshifts under tiny caps,
so every search stops early."""

import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

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


def _command(*words, **options):
    """argv for one subcommand; each option is a (name, strategy, required)."""
    parts = [st.just(list(words))]
    for name, values, required in options.values():
        parts.append(values.map(lambda v, n=name: [n, v]) if required else _option(name, values))
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _repeated(name, values):
    return st.lists(values, min_size=1, max_size=2).map(
        lambda vs: [a for v in vs for a in (name, v)])


COMMANDS = st.one_of(
    _command("lang", "words", length=("--length", ints, True)),
    _command("lang", "recur", word=("--word", words, True), cap=("--cap", ints, False)),
    _command("lang", "recode", d=("--d", ints, True)),
    _command("elem", "eval", expr=("--expr", exprs, True)),
    _command("elem", "canon", expr=("--expr", exprs, True)),
    _command("elem", "order", expr=("--expr", exprs, True), cap=("--cap", ints, False)),
    _command("elem", "mod", expr=("--expr", exprs, True)),
    _command("elem", "equal", left=("--left", exprs, True), right=("--right", exprs, True)),
    _command("construct", "sigma", closet=("--closet", closets, True)),
    _command("construct", "towers", closet=("--closet", closets, True)),
    _command("construct", "gw", A=("--A", closets, True), B=("--B", closets, True)),
    _command("construct", "matui"),
    _command("construct", "lamplighter", closet=("--closet", closets, True)),
    _command("construct", "vandouwen", q=("--q", ints, False), max_len=("--max-len", ints, False)),
    _command("construct", "houghton", expr=("--expr", exprs, True),
             window=("--window", ints, False)),
    _command("act", "orbit", expr=("--expr", exprs, True), window=("--window", ints, True)),
    st.tuples(st.just(["act", "putnam"]), _repeated("--expr", exprs),
              st.tuples(st.just("--window"), ints).map(list)).map(lambda ps: sum(ps, [])),
    st.tuples(st.just(["act", "lef"]), _repeated("--expr", exprs),
              _option("--n-cap", ints), _option("--p-cap", ints)).map(lambda ps: sum(ps, [])),
    _command("act", "odometer", closet=("--closet", closets, True), cap=("--cap", ints, False)),
    _command("jm", "corr", g=("--g", exprs, True), n=("--n", ints, True)),
    st.tuples(_command("jm", "report", g=("--g", exprs, True), n=("--n", lists, True)),
              st.sampled_from([[], ["--loglog"]])).map(lambda ps: sum(ps, [])),
    st.tuples(st.just(["group", "ball"]), _repeated("--gen", exprs),
              st.tuples(st.just("--radius"), ints).map(list)).map(lambda ps: sum(ps, [])),
)

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
