import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cantorfull
from cantorfull.caps import Caps
from cantorfull.elements import ball_sizes, shift
from cantorfull.errors import CapExceeded, MemoryCapExceeded
from cantorfull.constructions import houghton_engine_y, houghton_orbit_map
from cantorfull.language import proper_recode, sft_engine, sturmian_engine, substitution_engine

PACKAGE = pathlib.Path(cantorfull.__file__).parent


def loaded_by_import(module):
    """Is `module` in sys.modules after a fresh interpreter imports the CLI?"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = f"import sys, cantorfull, cantorfull.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_networkx_out():
    assert not loaded_by_import("networkx")


def test_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast, dis and tokenize: ~10 ms per CLI call
    assert not loaded_by_import("dataclasses")


def test_caps_are_read_when_an_engine_is_built(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "dbound=1")
    engine = sft_engine("01", [])
    fib = substitution_engine({"a": "ab", "b": "a"})
    monkeypatch.delenv("CANTORFULL_CAPS")
    with pytest.raises(CapExceeded) as err:
        shift(engine, 2)
    assert err.value.cap == 1
    assert proper_recode(fib, 2).caps is fib.caps
    assert shift(sft_engine("01", []), 2).dbound == 2


def assert_names_cap(err, cap):
    assert err.value.cap == cap and err.value.code == "memory-cap-exceeded"
    assert str(err.value).endswith(f"(cap={cap})")


def test_memory_caps_are_named_by_the_sft_normaliser(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=10")
    with pytest.raises(MemoryCapExceeded) as err:
        sft_engine("abc", ["abc"])          # 3^3 windows
    assert_names_cap(err, 10)


def test_memory_caps_are_named_by_sft_enumeration(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=50")
    engine = sft_engine("ab", [])
    with pytest.raises(MemoryCapExceeded) as err:
        engine.allowed_words(6)             # 32 words of length 5, two letters each
    assert_names_cap(err, 50)


def test_memory_caps_are_named_by_ball_sizes(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=4")
    engine = sft_engine("ab", [])
    with pytest.raises(MemoryCapExceeded) as err:
        ball_sizes([shift(engine)], 3)      # the second sphere makes 5 elements
    assert_names_cap(err, 4)


def test_memory_caps_are_named_by_point_windows(monkeypatch):
    monkeypatch.setenv("CANTORFULL_CAPS", "word_store=1000")
    fib = substitution_engine({"a": "ab", "b": "a"})
    engines = [fib, sft_engine("ab", ["aa"]), sturmian_engine([1] * 30, 30),
               proper_recode(fib, 2)]
    for engine in engines:
        assert len(engine.point_window(400)) == 801
        # the widest window under the cap; a recoding reads past it in its source
        assert len(engine.point_window(499)) == 999
        assert engine.max_point_radius() == 499
        with pytest.raises(MemoryCapExceeded) as err:
            engine.point_window(500)
        assert_names_cap(err, 1000)
    y = houghton_engine_y()
    assert len(houghton_orbit_map(shift(y), 499)) == 999
    with pytest.raises(MemoryCapExceeded) as err:
        houghton_orbit_map(shift(y), 500)
    assert_names_cap(err, 1000)


def test_no_function_local_imports():
    local = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local.update(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert sorted(local) == []


def test_no_unreferenced_helpers():
    """Every module-level function, class and constant of the package is
    named somewhere in it besides its own definition; an export from
    __init__ counts as a use."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                own = []
            # a recursive call or a reference from its own body is no use
            used |= names - set(own)
            defined += [(path.name, name) for name in own if not name.startswith("__")]
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []


def _alias_of(node):
    """Does `node` only hand its parameters on to another public callable,
    in order, or return self?"""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
        return False
    value, params = body[0].value, [a.arg for a in node.args.posonlyargs + node.args.args]
    if isinstance(value, ast.Name):
        return params[:1] == ["self"] and value.id == "self"
    if not isinstance(value, ast.Call) or value.keywords or node.args.vararg or node.args.kwarg:
        return False
    func = value.func
    callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "_")
    return not callee.startswith("_") and [getattr(a, "id", None) for a in value.args] == params


def test_no_public_aliases():
    """No public function or method of the package is another public
    callable under a second name: a body that is one return of a call with
    exactly its own parameters, in order, or a method that returns self."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and _alias_of(node)):
                found.append(f"{path.name}:{node.name}")
    assert found == []


def test_word_store_is_compared_only_in_caps():
    """Caps.check_store is the one comparison with the word store; reads that
    compute a reach, like max_point_radius, are not comparisons."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "caps.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(inner, ast.Attribute) and inner.attr == "word_store"
                    for inner in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_cap_is_read():
    source = "\n".join(path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py")))
    unread = [name for name in Caps._fields
              if not re.search(rf"\bcaps\.{name}\b", source)]
    assert unread == []
