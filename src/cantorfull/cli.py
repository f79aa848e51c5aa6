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
"""

import argparse
import sys

from .actions import (clopen_orbit, lef_certificate, orbit_permutation,
                      putnam_blocks, index_mod)
from .caps import caps_from_env
from .constructions import (gw_transport, houghton_profile, kr_towers,
                            lamplighter_pair, matui_generators, sigma_U,
                            van_douwen_certify, van_douwen_involutions)
from .elements import ball_sizes, canonical_dump, equal, order
from .errors import CantorfullError, MemoryCapExceeded, ParseError
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
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return int(text)
    return integer


def increasing_list(text):
    """argparse type for ``jm report --n``: increasing integers >= 2."""
    values = [_int_from(2)(v) for v in text.split(",") if v]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"expected an increasing list, got {text}")
    return values


def _build_parser():
    parser = _Parser(prog="cantorfull", description=__doc__)
    parser.add_argument("--subshift", help="subshift definition file")
    sub = parser.add_subparsers(dest="group", required=True)

    lang = sub.add_parser("lang").add_subparsers(dest="command", required=True)
    words = lang.add_parser("words")
    words.add_argument("--length", type=_int_from(0), required=True)
    recur = lang.add_parser("recur")
    recur.add_argument("--word", required=True)
    recur.add_argument("--cap", type=_int_from(1))
    recode = lang.add_parser("recode")
    recode.add_argument("--d", type=_int_from(1), required=True)

    elem = sub.add_parser("elem").add_subparsers(dest="command", required=True)
    for name in ("eval", "canon"):
        cmd = elem.add_parser(name)
        cmd.add_argument("--expr", required=True)
    cmd = elem.add_parser("order")
    cmd.add_argument("--expr", required=True)
    cmd.add_argument("--cap", type=_int_from(1))
    cmd = elem.add_parser("mod")
    cmd.add_argument("--expr", required=True)
    cmd = elem.add_parser("equal")
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)

    cons = sub.add_parser("construct").add_subparsers(dest="command", required=True)
    cmd = cons.add_parser("sigma")
    cmd.add_argument("--closet", required=True)
    cmd = cons.add_parser("towers")
    cmd.add_argument("--closet", required=True)
    cmd.add_argument("--dot", help="also write a DOT diagram to this path")
    cmd = cons.add_parser("gw")
    cmd.add_argument("--A", required=True)
    cmd.add_argument("--B", required=True)
    cons.add_parser("matui")
    cmd = cons.add_parser("lamplighter")
    cmd.add_argument("--closet", required=True)
    cmd = cons.add_parser("vandouwen")
    cmd.add_argument("--q", type=int, default=3)
    cmd.add_argument("--max-len", type=_int_from(1), default=4)
    cmd = cons.add_parser("houghton")
    cmd.add_argument("--expr", required=True)
    cmd.add_argument("--window", type=_int_from(0), default=64)

    act = sub.add_parser("act").add_subparsers(dest="command", required=True)
    cmd = act.add_parser("orbit")
    cmd.add_argument("--expr", required=True)
    cmd.add_argument("--window", type=_int_from(0), required=True)
    cmd = act.add_parser("putnam")
    cmd.add_argument("--expr", action="append", required=True)
    cmd.add_argument("--window", type=_int_from(0), required=True)
    cmd = act.add_parser("lef")
    cmd.add_argument("--expr", action="append", required=True)
    cmd.add_argument("--n-cap", type=_int_from(1))
    cmd.add_argument("--p-cap", type=_int_from(1))
    cmd = act.add_parser("odometer")
    cmd.add_argument("--closet", required=True)
    cmd.add_argument("--cap", type=_int_from(1))

    jm = sub.add_parser("jm").add_subparsers(dest="command", required=True)
    cmd = jm.add_parser("corr")
    cmd.add_argument("--g", required=True)
    cmd.add_argument("--n", type=_int_from(1), required=True)
    cmd = jm.add_parser("report")
    cmd.add_argument("--g", required=True)
    cmd.add_argument("--n", type=increasing_list, required=True,
                     help="comma-separated increasing list")
    cmd.add_argument("--loglog", action="store_true")

    group = sub.add_parser("group").add_subparsers(dest="command", required=True)
    cmd = group.add_parser("ball")
    cmd.add_argument("--gen", action="append", required=True)
    cmd.add_argument("--radius", type=_int_from(0), required=True)
    return parser


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


def _van_douwen(args):
    engine, sigmas = van_douwen_involutions(args.q)
    # q (q-1)^(L-1) reduced words of each length L, counted before listing
    total, level = 0, args.q
    for _ in range(args.max_len):
        total, level = total + level, level * (args.q - 1)
        if total > engine.caps.word_store:
            raise MemoryCapExceeded(f"reduced words up to length {args.max_len} "
                                    "exceed the word store", cap=engine.caps.word_store)
    words = []
    frontier = [()]
    for _ in range(args.max_len):
        frontier = [w + (k,) for w in frontier for k in range(args.q)
                    if not w or w[-1] != k]
        words += frontier
    agree = all(all(van_douwen_certify(engine, sigmas, ks)) for ks in words)
    print(f"checked={len(words)} all_nonidentity={str(agree).lower()}")


def _run(args):
    """Run one command; every command but ``construct vandouwen`` works in a
    session over the --subshift engine, whose warnings follow the output, or
    precede the error line when the command fails."""
    if (args.group, args.command) == ("construct", "vandouwen"):
        _van_douwen(args)
        return 0
    session = _session(args)
    try:
        _session_command(session, args)
    finally:
        for message in session.warnings:
            print(f"warning: {message}", file=sys.stderr)
    return 0


def _session_command(session, args):
    group, command = args.group, args.command
    engine = session.engine
    if group == "lang":
        if command == "words":
            for w in engine.allowed_words(args.length):
                print(engine.alphabet.format_word(w))
        elif command == "recur":
            word = engine.alphabet.parse_word(args.word)
            print(recurrence_bound(engine, word, cap=args.cap))
        elif command == "recode":
            recoded, mapping = proper_recode(engine, args.d)
            print(f"block_length={mapping.block_length}")
            for name, block in zip(recoded.alphabet.letters, mapping.letter_decode):
                print(f"{name} -> {engine.alphabet.format_word(block)}")
    elif group == "elem":
        if command in ("eval", "canon"):
            sys.stdout.write(canonical_dump(session.eval_program(args.expr)))
        elif command == "order":
            n = order(session.eval_program(args.expr), cap=args.cap)
            cap = args.cap if args.cap is not None else engine.caps.order
            print(n if n is not None else f"exceeds-cap {cap}")
        elif command == "mod":
            print(index_mod(session.eval_program(args.expr)))
        elif command == "equal":
            left = session.eval_program(args.left)
            right = session.eval_program(args.right)
            print("true" if equal(left, right) else "false")
    elif group == "construct":
        if command == "sigma":
            sys.stdout.write(canonical_dump(sigma_U(session.eval_closet_text(args.closet))))
        elif command == "towers":
            partition = kr_towers(session.eval_closet_text(args.closet))
            try:
                dot = open(args.dot, "w", encoding="utf-8") if args.dot else None
            except OSError as err:
                raise UsageError(f"cannot write --dot {args.dot}: {err.strerror}") from None
            sys.stdout.write(partition.tsv())
            if dot:
                with dot:
                    dot.write(partition.dot())
        elif command == "gw":
            result = gw_transport(session.eval_closet_text(args.A),
                                  session.eval_closet_text(args.B))
            sys.stdout.write(result.to_json())
        elif command == "matui":
            ms = matui_generators(engine)
            print(f"count={len(ms.generators)} alphabet={len(ms.engine.alphabet)}")
            for word in ms.cylinder_words:
                print(ms.engine.alphabet.format_word(word))
        elif command == "lamplighter":
            pair = lamplighter_pair(session.eval_closet_text(args.closet))
            print(f"relations_checked={pair.checked_shifts}")
            print(f"V={pair.engine.alphabet.format_word(min(pair.V.reduced().members))}")
        elif command == "houghton":
            profile = houghton_profile(session.eval_program(args.expr), args.window)
            print(f"ends={','.join(map(str, profile.end_translations))}")
            print(f"exceptional={','.join(map(str, profile.exceptional_set)) or '-'}")
    elif group == "act":
        if command == "orbit":
            perm = orbit_permutation(session.eval_program(args.expr), args.window)
            sys.stdout.write(perm.tsv())
        elif command == "putnam":
            elements = [session.eval_program(e) for e in args.expr]
            sys.stdout.write(putnam_blocks(elements, args.window).tsv())
        elif command == "lef":
            elements = [session.eval_program(e) for e in args.expr]
            cert = lef_certificate(elements, n_cap=args.n_cap, p_cap=args.p_cap)
            sys.stdout.write(cert.to_json())
        elif command == "odometer":
            size = clopen_orbit(session.eval_closet_text(args.closet), cap=args.cap)
            cap = args.cap if args.cap is not None else engine.caps.orbit
            print(f"finite {size}" if size is not None else f"exceeds-cap {cap}")
    elif group == "jm":
        if command == "corr":
            view = _orbit_view(session, args.g, args.n)
            print(repr(correlation(view, args.n)))
        elif command == "report":
            view = _orbit_view(session, args.g, args.n[-1])
            report = decay_report(view, args.n)
            sys.stdout.write(report.tsv())
            if args.loglog:
                sys.stdout.write(report.loglog_table())
    elif group == "group":
        gens = [session.eval_program(e) for e in args.gen]
        sizes = ball_sizes(gens, args.radius)
        print("radius\tsize")
        for i, size in enumerate(sizes, start=1):
            print(f"{i}\t{size}")
    else:
        raise UsageError(f"unknown command {group} {command}")


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
