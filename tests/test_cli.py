import json

import pytest

from cantorfull.cli import main
from cantorfull.elements import equal, parse_dump, shift
from cantorfull.errors import ParseError, SemanticError
from cantorfull.language import substitution_engine
from cantorfull.parsing import (Session, parse_closet_text, parse_element_text,
                                parse_subshift, print_closet, print_element)


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

STURM = """\
alphabet: a b
kind: sturmian
cf: 1 1 1 1 1 1 1 1 1 1 1 1
depth: 12
"""


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


def test_expression_roundtrip():
    texts = ['phi^-3', 'id', 'phi*phi^2', 'inv(sigma(cyl(-1,"aab")))',
             'comm(phi,sigma(cyl(0,"a")))*id',
             'sigma(cyl(1,"ab") & !cyl(0,"b") | phi^2(all))']
    for text in texts:
        _, tree = parse_element_text(text)
        printed = print_element(tree)
        _, again = parse_element_text(printed)
        assert again == tree
        assert print_element(again) == printed


def test_closet_roundtrip():
    texts = ['all', 'empty', '!cyl(0,"a")', 'cyl(0,"a") & cyl(1,"b") | empty',
             'img(phi,cyl(0,"a"))', 'phi^-2(cyl(3,"ab"))']
    for text in texts:
        tree = parse_closet_text(text)
        printed = print_closet(tree)
        assert parse_closet_text(printed) == tree


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


@pytest.mark.parametrize("caps, message", [
    ("bogus=1", "unknown cap 'bogus'"),
    ("dbound=32,orbit=x", "cap 'orbit' needs an integer, got 'x'"),
])
def test_cli_bad_caps_variable(capsys, monkeypatch, fib_file, caps, message):
    monkeypatch.setenv("CANTORFULL_CAPS", caps)
    code, out, err = run(capsys, "--subshift", fib_file, "lang", "words", "--length", "2")
    assert code == 1 and out == ""
    assert err == f"usage error: bad CANTORFULL_CAPS: {message}\n"


def test_cli_determinism(capsys, fib_file):
    first = run(capsys, "--subshift", fib_file, "construct", "towers",
                "--closet", 'cyl(0,"b")')
    second = run(capsys, "--subshift", fib_file, "construct", "towers",
                 "--closet", 'cyl(0,"b")')
    assert first == second and first[0] == 0


def test_cli_sturmian_session(capsys, tmp_path):
    path = tmp_path / "sturm.subshift"
    path.write_text(STURM)
    code, out, _ = run(capsys, "--subshift", str(path), "lang", "words", "--length", "2")
    assert code == 0 and len(out.splitlines()) == 3
