"""The command mix of the cli_calls workload and its recorded outputs.

Each stratum is a list of variants of one short CLI call; a pass runs every
stratum once, with a seeded choice of variant, so every seed runs the same mix
of commands.  Each variant is (subshift, argv); subshift names a file under
``perfbench/subshifts`` or is None.

``cli_expected.json`` holds the sha256 of stdout and the exit code of every
variant.  Regenerate it only when an output change is intended:

    python3 perfbench/climix.py record
"""

import hashlib
import json
import os
import subprocess
import sys

from procs import HERE, ROOT, child_env

EXPECTED_PATH = os.path.join(HERE, "cli_expected.json")

SIGMA_FIB = 'sigma(cyl(-1,"aab"))'
SIGMA_TM = 'sigma(cyl(-1,"aba"))'
SIGMA_GM = 'sigma(cyl(-1,"aab"))'
SIGMA_ST = 'sigma(cyl(-1,"abb"))'

STRATA = [
    [("fibonacci", ["lang", "words", "--length", n]) for n in ("8", "10", "12")],
    [("thue_morse", ["lang", "words", "--length", n]) for n in ("6", "8", "10")],
    [("golden_mean", ["lang", "words", "--length", n]) for n in ("6", "8", "9")],
    [("sturmian", ["lang", "recur", "--word", w]) for w in ("abb", "bab", "bba")],
    [("fibonacci", ["lang", "recode", "--d", d]) for d in ("2", "3", "4")],
    [("fibonacci", ["elem", "canon", "--expr", e])
     for e in (SIGMA_FIB, 'ret(cyl(0,"b"))', f"phi^2*{SIGMA_FIB}")],
    [("golden_mean", ["elem", "order", "--expr", e])
     for e in (SIGMA_GM, f'{SIGMA_GM}*sigma(cyl(-2,"aabab"))', 'sigma(cyl(-1,"baa"))')],
    [("y", ["elem", "equal", "--left", left, "--right", right])
     for left, right in (("phi*inv(phi)", "id"), ('sigma(cyl(0,"ab"))', "id"),
                         ("phi^2", "phi*phi"))],
    [("thue_morse", ["elem", "mod", "--expr", e])
     for e in ("phi", f"phi^2*{SIGMA_TM}", f"inv(phi)*{SIGMA_TM}")],
    [("fibonacci", ["construct", "sigma", "--closet", c])
     for c in ('cyl(-1,"aab")', 'cyl(-1,"baa")', 'cyl(-1,"bab")')],
    [("fibonacci", ["construct", "towers", "--closet", c])
     for c in ('cyl(0,"a")', 'cyl(0,"b")', 'cyl(-1,"aab")')],
    [("fibonacci", ["construct", "gw", "--A", a, "--B", b])
     for a, b in (('cyl(0,"a")', 'cyl(0,"b")'), ('cyl(0,"a")', 'cyl(-1,"bab")'),
                  ('cyl(0,"a")', 'cyl(-1,"aba")'))],
    [(s, ["construct", "matui"]) for s in ("fibonacci", "sturmian")],
    [("y", ["construct", "houghton", "--expr", e])
     for e in ("phi", 'sigma(cyl(0,"ab"))', 'phi*sigma(cyl(0,"ab"))')],
    [(None, ["construct", "vandouwen", "--q", q, "--max-len", m])
     for q, m in (("3", "3"), ("3", "4"), ("4", "3"))],
    [("sturmian", ["act", "orbit", "--expr", e, "--window", w])
     for e, w in ((SIGMA_ST, "100"), ("phi", "200"), (f"phi*{SIGMA_ST}", "150"))],
    [("fibonacci", ["act", "odometer", "--closet", c, "--cap", "16"])
     for c in ('cyl(0,"a")', 'cyl(0,"b")', 'cyl(-1,"aab")')],
    [(s, ["act", "lef", "--expr", "phi", "--expr", "id"]) for s in ("fibonacci", "golden_mean")],
    [("fibonacci", ["jm", "corr", "--g", g, "--n", n])
     for g, n in (("phi", "100"), (SIGMA_FIB, "1000"), ('ret(cyl(0,"b"))', "500"))],
    [("fibonacci", ["jm", "report", "--g", g, "--n", "10,100,1000"])
     for g in (SIGMA_FIB, "phi")],
    [(s, ["group", "ball", "--gen", "phi", "--gen", g, "--radius", "3"])
     for s, g in (("fibonacci", SIGMA_FIB), ("golden_mean", SIGMA_GM))],
]


def command(variant):
    """argv after the interpreter, relative to the repository root."""
    subshift, argv = variant
    prefix = [] if subshift is None else ["--subshift", f"perfbench/subshifts/{subshift}.subshift"]
    return ["-m", "cantorfull.cli"] + prefix + list(argv)


def key(variant):
    subshift, argv = variant
    return " ".join([subshift or "-"] + list(argv))


def digest(data):
    return hashlib.sha256(data).hexdigest()


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def record():
    """Run every variant under two hash seeds; refuse outputs that differ."""
    expected = {}
    for stratum in STRATA:
        for variant in stratum:
            seen = set()
            for hashseed in (0, 12345):
                proc = subprocess.run([sys.executable] + command(variant), cwd=ROOT,
                                      env=child_env(hashseed), capture_output=True,
                                      check=False)
                seen.add((digest(proc.stdout), proc.returncode))
                if proc.returncode != 0 or proc.stderr:
                    raise SystemExit(f"{key(variant)}: exit {proc.returncode}, "
                                     f"stderr {proc.stderr.decode()!r}")
            if len(seen) != 1:
                raise SystemExit(f"{key(variant)}: output depends on the hash seed")
            sha, code = seen.pop()
            expected[key(variant)] = {"sha256": sha, "code": code}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 perfbench/climix.py record")
    print(f"recorded {record()} variants")
