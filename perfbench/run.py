"""Benchmark of the cantorfull library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_calls, subst_language, sft_compose, orbit_reads (see README.md).
Every pass of a workload runs in a fresh child process, so caches start cold as
they do for a script or CLI user; passes repeat the same seeded task list until
the next one would end after S seconds (at least two run).  Task times are
scaled to a nominal host speed (speed.py) and pooled over every pass.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  Every task's output is checked
in both modes.  The last line of stdout is the result JSON; the line before it
is a JSON object of details (sample counts, tail percentile, error rate, hash
seed, failures).
"""

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
import zlib

import climix
import metrics
import speed
from procs import ROOT, SRC, Child, child_env, run
from tracer import merge

WORKLOADS = ("cli_calls", "subst_language", "sft_compose", "orbit_reads")
MIN_PASSES = 2
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
WORKER = os.path.join("perfbench", "worker.py")


class Outcome:
    """What the passes of one mode measured."""

    def __init__(self):
        self.setups, self.walls, self.elapsed, self.latencies, self.rss = [], [], [], [], []
        self.references, self.attempted, self.failures, self.traces = [], 0, [], []
        self.raw_setups = []

    def add_setup(self, seconds, before, after):
        self.setups.append(speed.scaled(seconds, (before, after)))
        self.raw_setups.append(seconds)

    def add_pass(self, latencies, references, elapsed, failures, rss):
        """`references[i]` lists the reference timings taken around and
        during task i; a pass's wall time is the sum of its scaled task times,
        and `elapsed` is how long the pass really took."""
        scaled = [speed.scaled(x, refs) for x, refs in zip(latencies, references)]
        self.walls.append(sum(scaled))
        self.elapsed.append(elapsed)
        self.latencies.append(scaled)
        self.references.extend(r for refs in references for r in refs)
        self.rss.append(rss)
        self.attempted += len(latencies)
        self.failures.extend(failures)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# cli_calls: one closed-loop client making sequential CLI calls


def cli_variants(seed):
    rng = random.Random(f"cli_calls:{seed}")
    chosen = [rng.choice(stratum) for stratum in climix.STRATA]
    rng.shuffle(chosen)
    return chosen


def cli_setups(env, outcome, count):
    for _ in range(count):
        before = speed.reference_s()
        _, err, code, _, seconds = run(["-c", "import cantorfull.cli"], env)
        if code != 0:
            fail(f"import cantorfull.cli failed: {err.decode(errors='replace')[-500:]}")
        outcome.add_setup(seconds, before, speed.reference_s())


def cli_pass(env, outcome, variants, expected, trace=False):
    latencies, references, failures, rss = [], [], [], 0.0
    started = time.perf_counter()
    for variant in variants:
        want = expected.get(climix.key(variant))
        if trace:
            argv = [WORKER, "cli", "--"] + climix.command(variant)[2:]
        else:
            argv = climix.command(variant)
        before = speed.reference_s()
        out, err, code, rss_mb, seconds = run(argv, env)
        latencies.append(seconds)
        references.append((before, speed.reference_s()))
        rss = max(rss, rss_mb)
        if trace:
            if code != 0:
                failures.append(f"{climix.key(variant)}: worker exit {code}: "
                                f"{err.decode(errors='replace')[-300:]}")
                continue
            result = json.loads(out.decode().strip().splitlines()[-1])
            outcome.traces.append(result["trace"])
            code, sha = result["code"], result["sha256"]
        else:
            sha = climix.digest(out)
        if want is None or (sha, code) != (want["sha256"], want["code"]):
            failures.append(f"{climix.key(variant)}: exit {code}, stdout sha256 {sha[:12]} "
                            f"differs from the recorded output")
    outcome.add_pass(latencies, references, time.perf_counter() - started, failures, rss)


# ---------------------------------------------------------------------------
# library workloads: each pass is one worker process


def lib_setup(env, outcome, workload, seed):
    before = speed.reference_s()
    child = Child([WORKER, "setup", "--workload", workload, "--seed", str(seed)], env)
    try:
        ready = child.readline()
        seconds = time.perf_counter() - child.started
        out, err, code, _, _ = child.finish()
    finally:
        child.kill()
    if ready.strip() != b"READY" or code != 0:
        fail(f"{workload} set-up failed: {err.decode(errors='replace')[-800:]}")
    outcome.add_setup(seconds, before, float(out.split()[0]))


def lib_pass(env, outcome, workload, seed, trace=False, smoke=False):
    argv = [WORKER, "pass", "--workload", workload, "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--smoke"] * smoke
    before = speed.reference_s()
    child = Child(argv, env)
    try:
        ready = child.readline()
        setup = time.perf_counter() - child.started
        out, err, code, rss_mb, _ = child.finish()
    finally:
        child.kill()
    if ready.strip() != b"READY" or code != 0:
        fail(f"{workload} pass failed (exit {code}): {err.decode(errors='replace')[-800:]}")
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1])
    outcome.add_setup(setup, before, float(lines[0]))
    outcome.add_pass(result["latencies"], result["references"], result["wall"],
                     result["failures"], rss_mb)
    if result["trace"] is not None:
        outcome.traces.append(result["trace"])


# ---------------------------------------------------------------------------
# modes


def one_pass(workload, seed, env, outcome, trace=False, smoke=False, expected=None):
    if workload == "cli_calls":
        variants = cli_variants(seed)
        cli_pass(env, outcome, variants[:3] if smoke else variants, expected, trace=trace)
    else:
        lib_pass(env, outcome, workload, seed, trace=trace, smoke=smoke)


def measure(workload, seed, seconds, env, smoke):
    """End-to-end mode: repeated untraced passes for `seconds`."""
    outcome = Outcome()
    expected = climix.load_expected() if workload == "cli_calls" else None
    started = time.perf_counter()
    if workload == "cli_calls":
        cli_setups(env, outcome, SETUP_SAMPLES)
    else:
        for _ in range(SETUP_SAMPLES - MIN_PASSES):
            lib_setup(env, outcome, workload, seed)
    while True:
        one_pass(workload, seed, env, outcome, smoke=smoke, expected=expected)
        elapsed = time.perf_counter() - started
        if smoke or (len(outcome.walls) >= MIN_PASSES
                     and elapsed + outcome.elapsed[-1] > seconds):
            break
    latencies_ms = sorted(x * 1000.0 for latencies in outcome.latencies for x in latencies)
    pct = tail_percentile(MIN_PASSES * len(outcome.latencies[0]))
    values = {
        "setup_s": statistics.median(outcome.setups),
        "wall_s": statistics.median(outcome.walls),
        "task_p50_ms": statistics.median(latencies_ms),
        "task_tail_ms": nearest_rank(latencies_ms, pct),
        "peak_rss_mb": statistics.median(outcome.rss),
    }
    details = {"passes": len(outcome.walls), "pass_walls_s": outcome.walls,
               "pass_elapsed_s": outcome.elapsed,
               "host_speed": speed.NOMINAL_S / statistics.median(outcome.references),
               "task_samples": len(latencies_ms),
               "tail_percentile": pct,
               "tail_samples_beyond": len(latencies_ms) - math.ceil(pct / 100 * len(latencies_ms)),
               "setup_samples": len(outcome.setups), "raw_setups_s": outcome.raw_setups}
    return outcome, values, details


def traced(workload, seed, env, smoke):
    """Per-layer mode: one untraced and one traced pass of the same task list."""
    expected = climix.load_expected() if workload == "cli_calls" else None
    imports = []
    for _ in range(IMPORT_SAMPLES):
        _, err, code, _, _ = run(["-X", "importtime", "-c", "import cantorfull"], env)
        if code != 0:
            fail(f"import cantorfull failed: {err.decode(errors='replace')[-500:]}")
        imports.append(metrics.import_times(err.decode(errors="replace")))
    plain, outcome = Outcome(), Outcome()
    one_pass(workload, seed, env, plain, smoke=smoke, expected=expected)
    one_pass(workload, seed, env, outcome, trace=True, smoke=smoke, expected=expected)
    values = metrics.layer_values(merge(outcome.traces))
    for name in imports[0]:
        values[name] = statistics.median(sample[name] for sample in imports)
    # Real times of the two passes, run back to back: the traced pass samples
    # no reference timings during its tasks, so its scaled time is coarser.
    values["trace.overhead_ratio"] = outcome.elapsed[0] / plain.elapsed[0]
    values.update(metrics.sloc(SRC))
    outcome.attempted += plain.attempted
    outcome.failures = plain.failures + outcome.failures
    details = {"untraced_elapsed_s": plain.elapsed[0], "traced_elapsed_s": outcome.elapsed[0]}
    return outcome, values, details


def tail_percentile(samples):
    """The highest whole percentile with at least ten of `samples` beyond it
    (the median when there are fewer than twenty).  It is computed for
    MIN_PASSES passes, so it depends on the task list only, and every timed
    set of passes has at least ten samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


def nearest_rank(ordered, pct):
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass with one task per group (for selftest.py)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cantorfull", "__init__.py")):
        fail(f"no cantorfull sources under {os.path.relpath(SRC, ROOT)}")

    # The benchmark and every child it starts share one CPU, so the reference
    # timings around a child's work are taken on the CPU that does it: the
    # vCPUs of this kind of host slow down independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hashseed = zlib.crc32(f"{args.workload}:{args.seed}".encode())
    env = child_env(hashseed)
    _, err, code, _, _ = run([WORKER, "warmup"], env)
    if code != 0:
        fail(f"import failed: {err.decode(errors='replace')[-800:]}")

    if args.trace:
        outcome, values, details = traced(args.workload, args.seed, env, args.smoke)
        names = [name for name, _, _ in metrics.PER_LAYER]
    else:
        outcome, values, details = measure(args.workload, args.seed, args.seconds, env,
                                           args.smoke)
        names = [name for name, *_ in metrics.END_TO_END]
    failed = len(outcome.failures)
    details.update({"workload": args.workload, "seed": args.seed, "pythonhashseed": hashseed,
                    "error_rate": failed / outcome.attempted, "failures": outcome.failures[:20]})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": outcome.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
