"""Batch command-line interface.

Every element command needs a session engine (``--subshift FILE``); elements
are not portable across engines.  All outputs are deterministic: words print
in the alphabet's reference order and floats print via repr.  Exit codes:
0 success; 1 for a bad argument (a missing option, a number outside the
range the option parser checks, an unreadable file, an unparsable
expression); 2 for a domain error (a well-formed request the subshift or
the construction refuses, such as a word outside its language or a van
Douwen shift on more letters than it names), with a stable code from the
error hierarchy.  Errors print to stderr.

Each command is one row of `COMMANDS`: its group, its name, its handler and
its options, each with its keywords for ``add_argument``.  `_build_parser`
makes the groups and commands in the order of the rows, and `_run` calls the
handler with a session over the --subshift engine.  To add a command, write
a handler ``(session, args)`` that prints the command's output, and add its
row; tests/test_cli_robustness.py then asks for a strategy for its argv.
"""

import argparse
import sys

from .actions import (clopen_orbit, lef_certificate, orbit_permutation,
                      putnam_blocks, index_mod)
from .caps import caps_from_env, parse_int
from .constructions import (gw_transport, houghton_profile, kr_towers,
                            lamplighter_pair, matui_generators, sigma_U,
                            van_douwen_certify, van_douwen_involutions)
from .elements import ball_sizes, canonical_dump, equal, order
from .errors import CantorfullError, ParseError
from .jm import decay_report, correlation
from .language import proper_recode, recurrence_bound
from .parsing import Session, load_engine


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_from(low):
    """argparse type: an integer >= low (argparse names it in its messages)."""
    def integer(text):
        value = parse_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value
    return integer


def _int(text):
    return parse_int(text)


_int.__name__ = "int"       # argparse names it: "invalid int value"


def increasing_list(text):
    """argparse type for ``jm report --n``: increasing integers >= 2."""
    values = [_int_from(2)(v) for v in text.split(",") if v]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"expected an increasing list, got {text}")
    return values


def _session(args):
    if not args.subshift:
        raise UsageError("this command needs --subshift FILE")
    try:
        engine = load_engine(args.subshift)
    except OSError as err:
        raise UsageError(f"cannot read --subshift {args.subshift}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read --subshift {args.subshift}: not UTF-8 text ({err.reason})") from None
    return Session(engine)


def _orbit_view(session, expr, span):
    element = session.eval_program(expr)
    return orbit_permutation(element, span + element.radius + element.dbound)


# -- handlers: (session, parsed arguments) -> None, printing to stdout -------


def _words(session, args):
    engine = session.engine
    for w in engine.allowed_words(args.length):
        print(engine.alphabet.format_word(w))


def _recur(session, args):
    word = session.engine.alphabet.parse_word(args.word)
    print(recurrence_bound(session.engine, word, cap=args.cap))


def _recode(session, args):
    engine = session.engine
    recoded = proper_recode(engine, args.d)
    print(f"block_length={recoded.block_length}")
    for name, block in zip(recoded.alphabet.letters, recoded.decode):
        print(f"{name} -> {engine.alphabet.format_word(block)}")


def _canon(session, args):
    sys.stdout.write(canonical_dump(session.eval_program(args.expr)))


def _order(session, args):
    n = order(session.eval_program(args.expr), cap=args.cap)
    cap = args.cap if args.cap is not None else session.engine.caps.order
    print(n if n is not None else f"exceeds-cap {cap}")


def _mod(session, args):
    print(index_mod(session.eval_program(args.expr)))


def _equal(session, args):
    left = session.eval_program(args.left)
    right = session.eval_program(args.right)
    print("true" if equal(left, right) else "false")


def _sigma(session, args):
    sys.stdout.write(canonical_dump(sigma_U(session.eval_closet_text(args.closet))))


def _towers(session, args):
    partition = kr_towers(session.eval_closet_text(args.closet))
    try:
        dot = open(args.dot, "w", encoding="utf-8") if args.dot else None
    except OSError as err:
        raise UsageError(f"cannot write --dot {args.dot}: {err.strerror}") from None
    sys.stdout.write(partition.tsv())
    if dot:
        with dot:
            dot.write(partition.dot())


def _gw(session, args):
    result = gw_transport(session.eval_closet_text(args.A), session.eval_closet_text(args.B))
    sys.stdout.write(result.to_json())


def _matui(session, args):
    ms = matui_generators(session.engine)
    print(f"count={len(ms.generators)} alphabet={len(ms.engine.alphabet)}")
    for word in ms.cylinder_words:
        print(ms.engine.alphabet.format_word(word))


def _lamplighter(session, args):
    pair = lamplighter_pair(session.eval_closet_text(args.closet))
    print(f"relations_checked={pair.checked_shifts}")
    print(f"V={pair.engine.alphabet.format_word(min(pair.V.reduced().members))}")


def _van_douwen(session, args):
    """Needs no session: the construction builds its own engine."""
    engine, sigmas = van_douwen_involutions(args.q)
    # q (q-1)^(L-1) reduced words of each length L, counted before listing
    total, level = 0, args.q
    for _ in range(args.max_len):
        total, level = total + level, level * (args.q - 1)
        engine.caps.check_store(total, f"reduced words up to length {args.max_len} "
                                "exceed the word store")
    words = []
    frontier = [()]
    for _ in range(args.max_len):
        frontier = [w + (k,) for w in frontier for k in range(args.q)
                    if not w or w[-1] != k]
        words += frontier
    agree = all(all(van_douwen_certify(engine, sigmas, ks)) for ks in words)
    print(f"checked={len(words)} all_nonidentity={str(agree).lower()}")


def _houghton(session, args):
    profile = houghton_profile(session.eval_program(args.expr), args.window)
    print(f"ends={','.join(map(str, profile.end_translations))}")
    print(f"exceptional={','.join(map(str, profile.exceptional_set)) or '-'}")


def _orbit(session, args):
    sys.stdout.write(orbit_permutation(session.eval_program(args.expr), args.window).tsv())


def _putnam(session, args):
    elements = [session.eval_program(e) for e in args.expr]
    sys.stdout.write(putnam_blocks(elements, args.window).tsv())


def _lef(session, args):
    elements = [session.eval_program(e) for e in args.expr]
    sys.stdout.write(lef_certificate(elements, n_cap=args.n_cap, p_cap=args.p_cap).to_json())


def _odometer(session, args):
    size = clopen_orbit(session.eval_closet_text(args.closet), cap=args.cap)
    cap = args.cap if args.cap is not None else session.engine.caps.orbit
    print(f"finite {size}" if size is not None else f"exceeds-cap {cap}")


def _corr(session, args):
    print(repr(correlation(_orbit_view(session, args.g, args.n), args.n)))


def _report(session, args):
    report = decay_report(_orbit_view(session, args.g, args.n[-1]), args.n)
    sys.stdout.write(report.tsv())
    if args.loglog:
        sys.stdout.write(report.loglog_table())


def _ball(session, args):
    sizes = ball_sizes([session.eval_program(e) for e in args.gen], args.radius)
    print("radius\tsize")
    for i, size in enumerate(sizes, start=1):
        print(f"{i}\t{size}")


# -- the commands: (group, command, handler, {option: add_argument keywords}) --

_TEXT = {"required": True}                      # a text option
_TEXTS = {"action": "append", "required": True}  # a text option that may repeat


def _number(low, **keywords):
    return dict(keywords, type=_int_from(low))


COMMANDS = (
    ("lang", "words", _words, {"--length": _number(0, required=True)}),
    ("lang", "recur", _recur, {"--word": _TEXT, "--cap": _number(1)}),
    ("lang", "recode", _recode, {"--d": _number(1, required=True)}),
    ("elem", "eval", _canon, {"--expr": _TEXT}),
    ("elem", "canon", _canon, {"--expr": _TEXT}),
    ("elem", "order", _order, {"--expr": _TEXT, "--cap": _number(1)}),
    ("elem", "mod", _mod, {"--expr": _TEXT}),
    ("elem", "equal", _equal, {"--left": _TEXT, "--right": _TEXT}),
    ("construct", "sigma", _sigma, {"--closet": _TEXT}),
    ("construct", "towers", _towers,
     {"--closet": _TEXT, "--dot": {"help": "also write a DOT diagram to this path"}}),
    ("construct", "gw", _gw, {"--A": _TEXT, "--B": _TEXT}),
    ("construct", "matui", _matui, {}),
    ("construct", "lamplighter", _lamplighter, {"--closet": _TEXT}),
    ("construct", "vandouwen", _van_douwen,
     {"--q": {"type": _int, "default": 3}, "--max-len": _number(1, default=4)}),
    ("construct", "houghton", _houghton, {"--expr": _TEXT, "--window": _number(0, default=64)}),
    ("act", "orbit", _orbit, {"--expr": _TEXT, "--window": _number(0, required=True)}),
    ("act", "putnam", _putnam, {"--expr": _TEXTS, "--window": _number(0, required=True)}),
    ("act", "lef", _lef, {"--expr": _TEXTS, "--n-cap": _number(1), "--p-cap": _number(1)}),
    ("act", "odometer", _odometer, {"--closet": _TEXT, "--cap": _number(1)}),
    ("jm", "corr", _corr, {"--g": _TEXT, "--n": _number(1, required=True)}),
    ("jm", "report", _report,
     {"--g": _TEXT, "--n": {"type": increasing_list, "required": True,
                            "help": "comma-separated increasing list"},
      "--loglog": {"action": "store_true"}}),
    ("group", "ball", _ball, {"--gen": _TEXTS, "--radius": _number(0, required=True)}),
)


def _build_parser():
    # --help shows the module doc up to its last paragraph, which is for developers
    parser = _Parser(prog="cantorfull", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--subshift", help="subshift definition file")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for group, command, handler, options in COMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="command", required=True)
        cmd = groups[group].add_parser(command)
        cmd.set_defaults(handler=handler)
        for flag, keywords in options.items():
            cmd.add_argument(flag, **keywords)
    return parser


def _run(args):
    """Run the command's handler in a session over the --subshift engine,
    whose warnings follow the output, or precede the error line when the
    command fails; the van Douwen handler builds its own engine and gets no
    session."""
    if args.handler is _van_douwen:
        _van_douwen(None, args)
        return 0
    session = _session(args)
    try:
        args.handler(session, args)
    finally:
        for message in session.warnings:
            print(f"warning: {message}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        try:
            caps_from_env()
        except ValueError as err:
            raise UsageError(f"bad CANTORFULL_CAPS: {err}") from None
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 1
    except CantorfullError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
