"""Replay of the recorded CLI mix: every variant of the benchmark's command
mix runs in-process through ``cli.main``, and the sha256 of its stdout and its
exit code must match ``perfbench/cli_expected.json``.  The file is only read."""

import hashlib
import pathlib
import sys

import pytest

from cantorfull.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import climix  # noqa: E402

EXPECTED = climix.load_expected()
VARIANTS = [variant for stratum in climix.STRATA for variant in stratum]


def test_every_variant_is_recorded():
    assert sorted(map(climix.key, VARIANTS)) == sorted(EXPECTED)


@pytest.mark.parametrize("variant", VARIANTS, ids=climix.key)
def test_recorded_cli_output(variant, capsys, monkeypatch):
    monkeypatch.delenv("CANTORFULL_CAPS", raising=False)
    subshift, argv = variant
    prefix = [] if subshift is None else [
        "--subshift", str(ROOT / "perfbench" / "subshifts" / f"{subshift}.subshift")]
    code = main(prefix + list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    assert {"sha256": hashlib.sha256(out).hexdigest(), "code": code} == EXPECTED[climix.key(variant)]
