import json
import os
import pathlib
import subprocess
import sys

import pytest

import cantorfull
from cantorfull.cli import main
from cantorfull.elements import equal, parse_dump, shift
from cantorfull.errors import ParseError, SemanticError
from cantorfull.language import substitution_engine
from cantorfull.parsing import Session, parse_element_text, parse_subshift


FIB = """\
alphabet: a b
kind: substitution
rule: a -> ab
rule: b -> a
"""

Y = """\
alphabet: a b
kind: sft
forbidden: ba
"""

GOLDEN = """\
alphabet: a b
kind: sft
forbidden: bb
"""

TM = """\
alphabet: a b
kind: substitution
rule: a -> ab
rule: b -> ba
"""

STURM = """\
alphabet: a b
kind: sturmian
cf: 1 1 1 1 1 1 1 1 1 1 1 1
depth: 12
"""


# the Fibonacci file of the benchmark's command mix, read only
PERFBENCH_FIB = str(pathlib.Path(__file__).resolve().parent.parent
                    / "perfbench" / "subshifts" / "fibonacci.subshift")


@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.subshift"
    path.write_text(FIB)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_subshift_formats():
    desc = parse_subshift(FIB)
    assert desc["kind"] == "substitution" and desc["rules"]["a"] == "ab"
    assert parse_subshift(Y)["forbidden"] == ["ba"]
    assert parse_subshift(STURM)["cf"][:3] == (1, 1, 1)
    with pytest.raises(ParseError):
        parse_subshift("alphabet a b\n")
    with pytest.raises(ParseError):
        parse_subshift("alphabet: a b\n")  # missing kind


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_element_text("phi^")
    assert err.value.line == 1 and err.value.column >= 4

    with pytest.raises(ParseError):
        parse_element_text("sigma(")


def test_session_evaluation(fibonacci):
    session = Session(fibonacci)
    element = session.eval_program('let s = sigma(cyl(-1,"aab")); s*s*s')
    from cantorfull.elements import is_identity
    assert is_identity(element)
    assert equal(session.eval_program("phi^-3"),
                 shift(fibonacci, -3))


def test_session_warning_on_empty_cylinder(fibonacci):
    session = Session(fibonacci)
    closet = session.eval_closet_text('cyl(0,"bb")')
    assert closet.is_empty()
    assert session.warnings
    # "ba" is an allowed Fibonacci word, so its cylinder is nonempty
    assert not Session(fibonacci).eval_closet_text('cyl(0,"ba")').is_empty()


def test_unbound_name(fibonacci):
    session = Session(fibonacci)
    with pytest.raises(SemanticError):
        session.eval_program("nope")


def test_cli_lang_words(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "lang", "words", "--length", "3")
    assert code == 0
    assert out.splitlines() == ["aab", "aba", "baa", "bab"]


def test_cli_mod_phi(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "elem", "mod", "--expr", "phi")
    assert code == 0 and out.strip() == "1"


def test_cli_eval_dump_roundtrip(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "elem", "eval",
                       "--expr", 'sigma(cyl(-1,"aab"))')
    assert code == 0 and out.startswith("radius=")
    engine = substitution_engine({"a": "ab", "b": "a"})
    session = Session(engine)
    direct = session.eval_program('sigma(cyl(-1,"aab"))')
    assert equal(parse_dump(engine, out), direct)


def test_cli_equal_and_order(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "elem", "equal",
                       "--left", "phi*inv(phi)", "--right", "id")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "--subshift", fib_file, "elem", "order",
                       "--expr", 'sigma(cyl(-1,"aab"))')
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "--subshift", fib_file, "elem", "order",
                       "--expr", "phi", "--cap", "5")
    assert code == 0 and out.strip() == "exceeds-cap 5"


def test_cli_order_stops_at_the_displacement_cap(capsys, monkeypatch, fib_file):
    # each power of the first return grows its displacement; the product is
    # refused at the cap instead of searching on to --cap
    monkeypatch.setenv("CANTORFULL_CAPS", "dbound=16")
    code, out, err = run(capsys, "--subshift", fib_file, "elem", "order",
                         "--expr", 'ret(cyl(0,"b"))', "--cap", "40")
    assert code == 2 and out == ""
    assert err == "error: cap-exceeded: displacement bound exceeded (cap=16)\n"


@pytest.mark.parametrize("expr", ["phi^²", "phi^٣"])
def test_cli_exponents_take_ascii_digits_only(capsys, fib_file, expr):
    # "²" and "٣" pass str.isdigit, and int() reads "٣" as 3
    code, out, err = run(capsys, "--subshift", fib_file, "elem", "eval", "--expr", expr)
    assert code == 1 and out == ""
    assert err == f"error: syntax-error: line 1, column 5: unexpected character {expr[-1]!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["lang", "words", "--length", "٣"], "argument --length: invalid integer value: '٣'"),
    (["lang", "words", "--length", "1_0"], "argument --length: invalid integer value: '1_0'"),
    (["jm", "report", "--g", "phi", "--n", "2,1_0"],
     "argument --n: invalid increasing_list value: '2,1_0'"),
    (["construct", "vandouwen", "--q", "٣"], "argument --q: invalid int value: '٣'"),
], ids=["digit", "underscore", "list", "q"])
def test_cli_integer_options_take_ascii_digits_only(capsys, fib_file, argv, message):
    # int() reads "٣" as 3 and "1_0" as 10; the token syntax reads neither
    assert run(capsys, "--subshift", fib_file, *argv) == (1, "", f"usage error: {message}\n")


def test_cli_gw_json(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "construct", "gw",
                       "--A", 'cyl(0,"a")', "--B", 'cyl(0,"b")')
    assert code == 0
    payload = json.loads(out)
    assert payload["contained"] is True and payload["mod"] == 0


def test_cli_jm_report(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "jm", "report",
                       "--g", "phi", "--n", "10,100,1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tC\tB\tone_minus_C\tratio"
    assert len(lines) == 4
    code, loglog, err = run(capsys, "--subshift", fib_file, "jm", "report",
                            "--g", "phi", "--n", "10,100,1000", "--loglog")
    assert (code, err) == (0, "")
    assert loglog == out + (
        "n=10^ 1.0  1-C= 9.311e-02  ########\n"
        "n=10^ 2.0  1-C= 1.317e-02  ###############\n"
        "n=10^ 3.0  1-C= 1.679e-03  ######################\n")


def test_cli_odometer(capsys, fib_file, tmp_path):
    code, out, _ = run(capsys, "--subshift", fib_file, "act", "odometer",
                       "--closet", 'cyl(0,"a")')
    assert code == 0 and out.strip() == "exceeds-cap 64"
    p2 = tmp_path / "p2.subshift"
    p2.write_text("alphabet: a b\nkind: sft\nforbidden: aa bb\n")
    code, out, _ = run(capsys, "--subshift", str(p2), "act", "odometer",
                       "--closet", 'cyl(0,"a")')
    assert code == 0 and out.strip() == "finite 2"


def test_cli_ball(capsys, fib_file):
    code, out, _ = run(capsys, "--subshift", fib_file, "group", "ball",
                       "--gen", "phi", "--radius", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["1\t3", "2\t5", "3\t7"]


def test_cli_vandouwen(capsys):
    code, out, _ = run(capsys, "construct", "vandouwen", "--q", "3", "--max-len", "3")
    assert code == 0
    assert "all_nonidentity=true" in out


def test_cli_vandouwen_letter_limit(capsys):
    code, out, err = run(capsys, "construct", "vandouwen", "--q", "27", "--max-len", "1")
    assert code == 2 and out == ""
    assert "semantic-error" in err and "26" in err


def test_cli_vandouwen_counts_words_against_the_store(capsys, monkeypatch):
    # 6 * 5^7 + ... + 6 = 585,936 reduced words, past the default store
    code, out, err = run(capsys, "construct", "vandouwen", "--q", "6", "--max-len", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: memory-cap-exceeded: ") and err.endswith("(cap=500000)\n")
    code, out, _ = run(capsys, "construct", "vandouwen", "--q", "5", "--max-len", "5")
    assert code == 0 and out == "checked=1705 all_nonidentity=true\n"
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=100")
    code, out, err = run(capsys, "construct", "vandouwen", "--q", "3", "--max-len", "6")
    assert code == 2 and out == ""
    assert err.startswith("error: memory-cap-exceeded: ") and err.endswith("(cap=100)\n")


def test_cli_vandouwen_stops_at_the_first_length_past_the_store():
    # the count is checked at each length, so a billion lengths stop at the
    # 18th (3 * (2^18 - 1) words), long before the loop would end
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cantorfull.__file__).parent.parent))
    env.pop("CANTORFULL_CAPS", None)
    done = subprocess.run([sys.executable, "-m", "cantorfull.cli", "construct", "vandouwen",
                           "--q", "3", "--max-len", "1000000000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: memory-cap-exceeded: ")


def test_cli_orbit_window_is_capped_by_the_word_store(capsys, monkeypatch, fib_file):
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=1000")
    code, out, err = run(capsys, "--subshift", fib_file, "act", "orbit", "--expr", "phi",
                         "--window", "600")
    assert code == 2 and out == ""
    assert err.startswith("error: memory-cap-exceeded: ") and err.endswith("(cap=1000)\n")


def test_cli_exit_codes(capsys, fib_file):
    code, _, err = run(capsys, "--subshift", fib_file, "lang", "recur", "--word", "bb")
    assert code == 2 and "semantic-error" in err
    code, _, err = run(capsys, "--subshift", fib_file, "elem", "eval", "--expr", "phi^")
    assert code == 1 and "syntax-error" in err
    code, _, err = run(capsys, "elem", "eval", "--expr", "phi")
    assert code == 1 and "usage" in err


def test_cli_missing_subshift_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.subshift")
    code, out, err = run(capsys, "--subshift", missing, "elem", "eval", "--expr", "phi")
    assert code == 1 and out == ""
    assert err == f"usage error: cannot read --subshift {missing}: No such file or directory\n"


def test_cli_subshift_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "bytes.subshift"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "--subshift", str(path), "lang", "words", "--length", "2")
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot read --subshift {path}: ")


def test_cli_recur_unknown_letter(capsys, fib_file):
    code, out, err = run(capsys, "--subshift", fib_file, "lang", "recur", "--word", "zz")
    assert code == 2 and out == "" and "semantic-error" in err


@pytest.mark.parametrize("argv", [
    ["lang", "words", "--length", "-1"],
    ["lang", "recode", "--d", "0"],
    ["jm", "corr", "--g", "phi", "--n", "0"],
    ["jm", "report", "--g", "phi", "--n", "5,3"],
    ["jm", "report", "--g", "phi", "--n", "1,x"],
    ["jm", "report", "--g", "phi", "--n", "1,5"],
    ["group", "ball", "--gen", "phi", "--radius", "-1"],
    ["construct", "houghton", "--expr", "phi", "--window", "-2"],
    ["elem", "order", "--expr", "phi", "--cap", "-1"],
    ["act", "odometer", "--closet", 'cyl(0,"a")', "--cap", "-1"],
    ["construct", "vandouwen", "--q", "3", "--max-len", "-1"],
    ["lang", "recur", "--word", "a", "--cap", "0"],
    ["act", "orbit", "--expr", "phi", "--window", "-1"],
    ["act", "lef", "--expr", "phi", "--n-cap", "0"],
    ["act", "lef", "--expr", "phi", "--p-cap", "-1"],
])
def test_cli_out_of_range_numbers_are_usage_errors(capsys, fib_file, argv):
    code, out, err = run(capsys, "--subshift", fib_file, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: argument ")


@pytest.mark.parametrize("caps, message", [
    ("bogus=1", "unknown cap 'bogus'"),
    ("period_scan=0", "unknown cap 'period_scan'"),
    ("dbound=32,orbit=x", "cap 'orbit' needs an integer, got 'x'"),
    ("dbound=٣", "cap 'dbound' needs an integer, got '٣'"),
    ("dbound=-1", "cap 'dbound' must be >= 0, got -1"),
    ("lef_p=-2", "cap 'lef_p' must be >= 0, got -2"),
    ("order=3,radius_search=-1", "cap 'radius_search' must be >= 0, got -1"),
])
def test_cli_bad_caps_variable(capsys, monkeypatch, fib_file, caps, message):
    monkeypatch.setenv("CANTORFULL_CAPS", caps)
    code, out, err = run(capsys, "--subshift", fib_file, "lang", "words", "--length", "2")
    assert code == 1 and out == ""
    assert err == f"usage error: bad CANTORFULL_CAPS: {message}\n"


def test_cli_zero_caps_are_legal(capsys, monkeypatch, fib_file):
    monkeypatch.setenv("CANTORFULL_CAPS", "order=0")
    code, out, err = run(capsys, "--subshift", fib_file, "elem", "order", "--expr", "phi")
    assert (code, out, err) == (0, "exceeds-cap 0\n", "")


def test_cli_alphabet_of_257_letters_is_a_semantic_error(capsys, tmp_path):
    path = tmp_path / "wide.subshift"
    letters = " ".join(f"l{i}" for i in range(257))
    path.write_text(f"alphabet: {letters}\nkind: sft\n")
    code, out, err = run(capsys, "--subshift", str(path), "lang", "words", "--length", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "256" in err and "Traceback" not in err


@pytest.mark.parametrize("letters, message", [
    ("a a", "alphabet letters must be distinct"),
    ("a.b c", "bad letter token 'a.b'"),
    ("- a", "bad letter token '-'"),
])
def test_cli_ambiguous_alphabets_are_semantic_errors(capsys, tmp_path, letters, message):
    path = tmp_path / "bad.subshift"
    path.write_text(f"alphabet: {letters}\nkind: sft\n")
    code, out, err = run(capsys, "--subshift", str(path), "lang", "words", "--length", "2")
    assert (code, out, err) == (2, "", f"error: semantic-error: {message}\n")


def test_cli_recur_on_two_fixed_points_is_not_minimal(capsys, tmp_path):
    path = tmp_path / "fixed.subshift"
    path.write_text("alphabet: a b\nkind: sft\nforbidden: ab ba\n")
    code, out, err = run(capsys, "--subshift", str(path), "lang", "recur", "--word", "a")
    assert code == 2 and out == ""
    assert err.startswith("error: not-minimal: ")


@pytest.mark.parametrize("where", ["missing/towers.dot", "."])
def test_cli_towers_dot_to_an_unwritable_path(capsys, fib_file, tmp_path, where):
    path = tmp_path / where
    code, out, err = run(capsys, "--subshift", fib_file, "construct", "towers",
                         "--closet", 'cyl(0,"b")', "--dot", str(path))
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert (code, out, err) == (1, "", f"usage error: cannot write --dot {path}: {reason}\n")


def test_cli_towers_dot_is_written(capsys, fib_file, tmp_path):
    path = tmp_path / "towers.dot"
    code, out, _ = run(capsys, "--subshift", fib_file, "construct", "towers",
                       "--closet", 'cyl(0,"b")', "--dot", str(path))
    assert code == 0 and out.startswith("tower_id\t")
    assert path.read_text().startswith("digraph towers {")


ORBIT_13 = """\
alphabet: a b
kind: substitution
rule: a -> aaaaaaaaaaaab
rule: b -> aaaaaaaaaaaab
"""

ORBIT_81 = """\
alphabet: a b c d e
kind: substitution
rule: a -> ebc
rule: b -> ebb
rule: c -> ebd
rule: d -> ebb
rule: e -> eba
"""


@pytest.mark.parametrize("text, argv, expected", [
    (ORBIT_13, ["elem", "equal", "--left", "phi^13", "--right", "id"], (0, "true\n", "")),
    (ORBIT_13, ["elem", "order", "--expr", "phi", "--cap", "100"], (0, "13\n", "")),
    (ORBIT_13, ["elem", "mod", "--expr", "phi"], (2, "", "not-aperiodic")),
    (ORBIT_13, ["lang", "recode", "--d", "1"], (2, "", "not-aperiodic")),
    (ORBIT_13, ["construct", "matui"], (2, "", "not-minimal")),
    (ORBIT_81, ["elem", "equal", "--left", "phi^40", "--right", "inv(phi^41)"], (0, "true\n", "")),
], ids=["equal", "order", "mod", "recode", "matui", "equal81"])
def test_cli_one_finite_orbit(capsys, tmp_path, text, argv, expected):
    path = tmp_path / "orbit.subshift"
    path.write_text(text)
    code, out, err = run(capsys, "--subshift", str(path), *argv)
    if code == 2:
        err = err.split(":")[1].strip()
    assert (code, out, err) == expected


def test_cli_determinism(capsys, fib_file):
    first = run(capsys, "--subshift", fib_file, "construct", "towers",
                "--closet", 'cyl(0,"b")')
    second = run(capsys, "--subshift", fib_file, "construct", "towers",
                 "--closet", 'cyl(0,"b")')
    assert first == second and first[0] == 0


SIGMA = 'sigma(cyl(-1,"aab"))'
ELEMENT_CALLS = (["elem", "canon", "--expr", f"phi*{SIGMA}"],
                 ["group", "ball", "--gen", "phi", "--gen", SIGMA, "--radius", "3"],
                 ["lang", "words", "--length", "6"])


@pytest.mark.parametrize("text, calls", [
    (FIB, ELEMENT_CALLS + (["construct", "towers", "--closet", 'cyl(-1,"aab")'],
                           ["construct", "gw", "--A", 'cyl(0,"a")', "--B", 'cyl(-1,"bab")'])),
    (GOLDEN, ELEMENT_CALLS),
    (TM, (["construct", "towers", "--closet", 'cyl(-1,"abb")'],
          ["construct", "gw", "--A", 'cyl(0,"a")', "--B", 'cyl(-1,"bb")'])),
], ids=["fibonacci", "golden_mean", "thue_morse"])
def test_cli_determinism_across_hash_seeds(tmp_path, text, calls):
    """Set and dict-of-set iteration order follows the hash seed; the output
    must not, so each command runs in fresh interpreters under two seeds."""
    path = tmp_path / "engine.subshift"
    path.write_text(text)
    env = {k: v for k, v in os.environ.items() if k != "CANTORFULL_CAPS"}
    env["PYTHONPATH"] = str(pathlib.Path(cantorfull.__file__).parent.parent)
    for argv in calls:
        results = []
        for seed in ("0", "1"):
            done = subprocess.run([sys.executable, "-m", "cantorfull.cli", "--subshift",
                                   str(path), *argv],
                                  env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True)
            results.append((done.returncode, done.stdout))
        assert results[0] == results[1] and results[0][0] == 0 and results[0][1]


def test_cli_sturmian_session(capsys, tmp_path):
    path = tmp_path / "sturm.subshift"
    path.write_text(STURM)
    code, out, _ = run(capsys, "--subshift", str(path), "lang", "words", "--length", "2")
    assert code == 0 and len(out.splitlines()) == 3


def test_cli_sturmian_depth_defaults_to_the_expansion(capsys, tmp_path):
    with_depth = tmp_path / "sturm.subshift"
    with_depth.write_text(STURM)
    without = tmp_path / "nodepth.subshift"
    without.write_text(STURM.replace("depth: 12\n", ""))
    outputs = [run(capsys, "--subshift", str(path), "lang", "words", "--length", "3")
               for path in (with_depth, without)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert len(outputs[0][1].splitlines()) == 4


def test_cli_syntax_errors_come_before_evaluation(capsys, fib_file):
    """sigma(cyl(0,"a")) is not good on Fibonacci, but the trailing * is a
    syntax error, and syntax comes first."""
    code, _, err = run(capsys, "--subshift", fib_file, "elem", "eval", "--expr", 'sigma(cyl(0,"a"))')
    assert code == 2 and "not-good" in err
    code, _, err = run(capsys, "--subshift", fib_file, "elem", "eval", "--expr", 'sigma(cyl(0,"a"))*')
    assert code == 1 and "syntax-error" in err


def test_syntax_error_positions_count_newlines_in_strings(capsys, fib_file):
    code, out, err = run(capsys, "--subshift", fib_file, "elem", "canon",
                         "--expr", 'sigma(cyl(0,"a\nb")) *')
    assert (code, out) == (1, "")
    assert err == ("error: syntax-error: line 2, column 7: unexpected 'end of input' "
                   "(expected id, phi, sigma, ret, inv, comm, name, ()\n")
    code, out, err = run(capsys, "--subshift", fib_file, "elem", "canon",
                         "--expr", 'let s = sigma(cyl(-1,"aab"));\ns * )')
    assert (code, out) == (1, "")
    assert err == ("error: syntax-error: line 2, column 5: unexpected ')' "
                   "(expected id, phi, sigma, ret, inv, comm, name, ()\n")


def test_cli_unterminated_string(capsys, fib_file):
    assert run(capsys, "--subshift", fib_file, "elem", "eval", "--expr", 'sigma(cyl(0,"a))') == \
        (1, "", "error: syntax-error: line 1, column 13: unterminated string\n")


def test_cli_forbidden_lines_add_words(capsys, tmp_path):
    path = tmp_path / "proper.subshift"
    path.write_text("alphabet: a b c\nkind: sft\nforbidden: aa bb\nforbidden: cc\n")
    code, out, _ = run(capsys, "--subshift", str(path), "lang", "words", "--length", "2")
    assert (code, out.split()) == (0, ["ab", "ac", "ba", "bc", "ca", "cb"])


def test_cli_putnam_blocks(capsys):
    code, out, err = run(capsys, "--subshift", PERFBENCH_FIB, "act", "putnam",
                         "--expr", 'sigma(cyl(0,"aab"))', "--window", "40")
    assert (code, err) == (0, "")
    assert out.splitlines()[:4] == ["start\tend\tinvariant", "-37\t-32\ttrue",
                                    "-32\t-29\ttrue", "-29\t-24\ttrue"]
    assert out.splitlines()[-1] == "31\t34\ttrue"


def test_cli_lamplighter(capsys):
    assert run(capsys, "--subshift", PERFBENCH_FIB, "construct", "lamplighter",
               "--closet", 'cyl(0,"b")') == (0, "relations_checked=32\nV=aabaa\n", "")


def test_cli_warnings_precede_the_error_line(capsys, fib_file):
    code, out, err = run(capsys, "--subshift", fib_file, "construct", "towers",
                         "--closet", 'cyl(0,"bb")')
    assert (code, out) == (2, "")
    assert err == ('warning: cyl(0,"bb") is empty: word not allowed\n'
                   "error: not-omniscient: the empty set has no towers\n")


@pytest.mark.parametrize("text, code, message", [
    ("alphabet: a b\nkind: substitution\nrule: a ab\nrule: b -> a\n", 1,
     "error: syntax-error: line 3, column 1: rule wants 'letter -> word'"),
    ("alphabet: a b\nkind: sturmian\ncf: 1 x 1\n", 1,
     "error: syntax-error: line 3, column 1: cf wants integers"),
    ("alphabet: a b\nkind: sturmian\ncf: 1 1\ndepth: many\n", 1,
     "error: syntax-error: line 4, column 1: depth wants an integer"),
    ("alphabet: a b\nkind: sft\ncolour: red\n", 1,
     "error: syntax-error: line 3, column 1: unknown key 'colour'"),
    ("kind: sft\nforbidden: aa\n", 2, "error: semantic-error: missing alphabet"),
    ("alphabet: a b\nkind: substitution\nrule: a -> ab\n", 2,
     "error: semantic-error: substitution needs one rule per letter"),
    ("alphabet: a b\nkind: odometer\n", 2, "error: semantic-error: unknown engine kind 'odometer'"),
    ("alphabet: a b\nkind: substitution\nrule: a -> ab\nrule: b -> a\nrule: a -> b\n", 1,
     "error: syntax-error: line 5, column 1: second rule for 'a'"),
    ("alphabet: a b\nkind: sft\nkind: substitution\nrule: a -> ab\nrule: b -> a\n", 1,
     "error: syntax-error: line 3, column 1: repeated key 'kind'"),
    ("alphabet: a b\nkind: sft\nalphabet: a b c\n", 1,
     "error: syntax-error: line 3, column 1: repeated key 'alphabet'"),
    ("alphabet: a b\nkind: sturmian\ncf: 1 1\ncf: 1 2\n", 1,
     "error: syntax-error: line 4, column 1: repeated key 'cf'"),
    ("alphabet: a b\nkind: sturmian\ncf: 1 1\ndepth: 2\ndepth: 3\n", 1,
     "error: syntax-error: line 5, column 1: repeated key 'depth'"),
    ("# the golden mean\nalphabet: a b\n\n# no two b\nkind: sft\nforbidden bb\n", 1,
     "error: syntax-error: line 6, column 1: expected 'key: value'"),
    ("alphabet: a b\nkind: sturmian\ncf: ١ 1_0 1\n", 1,
     "error: syntax-error: line 3, column 1: cf wants integers"),
    ("alphabet: a b\nkind: sturmian\ncf: 1 1\ndepth: +3\n", 1,
     "error: syntax-error: line 4, column 1: depth wants an integer"),
], ids=["rule", "cf", "depth", "key", "alphabet", "rules", "kind", "rule-twice", "kind-twice",
        "alphabet-twice", "cf-twice", "depth-twice", "comments", "cf-digits", "depth-sign"])
def test_cli_subshift_file_errors(capsys, tmp_path, text, code, message):
    path = tmp_path / "bad.subshift"
    path.write_text(text)
    assert run(capsys, "--subshift", str(path), "lang", "words", "--length", "2") == \
        (code, "", message + "\n")


def test_cli_recur_stops_at_its_cap(capsys, tmp_path):
    path = tmp_path / "sturm.subshift"
    path.write_text(STURM)
    assert run(capsys, "--subshift", str(path), "lang", "recur", "--word", "abb", "--cap", "3") == \
        (2, "", "error: cap-exceeded: no recurrence bound found (cap=3)\n")


def test_cli_exit_codes_through_a_process(fib_file):
    """`python -m cantorfull.cli` passes main's return value to the shell."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cantorfull.__file__).parent.parent))
    env.pop("CANTORFULL_CAPS", None)
    for argv, code in ((["--subshift", fib_file, "elem", "mod", "--expr", "phi"], 0),
                       (["elem", "eval", "--expr", "phi"], 1),
                       (["--subshift", fib_file, "lang", "recur", "--word", "bb"], 2)):
        done = subprocess.run([sys.executable, "-m", "cantorfull.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == code
    assert done.stderr == "error: semantic-error: word 'bb' is not allowed\n"
