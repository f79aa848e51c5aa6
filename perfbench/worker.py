"""Child process of the benchmark (run.py starts it; it is not a user entry point).

    worker.py warmup                       import everything once (writes .pyc)
    worker.py setup --workload W --seed N
        set up, print READY, then one reference timing (speed.py), exit
    worker.py pass --workload W --seed N [--trace] [--smoke]
        the same, then run one pass of the task list and print a JSON line
    worker.py cli -- ARGS...               run cli.main(ARGS) traced, print a JSON line
        with its exit code, the sha256 of its stdout and the trace snapshot
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time


def run_pass(args):
    import workloads
    from speed import Sampler, reference_s

    tracer = None
    if args.trace:
        import cantorfull.cli  # noqa: F401  (the tracer wraps every layer module)
        from tracer import Tracer
        tracer = Tracer().install()
    ctx = workloads.WORKLOADS[args.workload][0]()
    print("READY", flush=True)
    print(reference_s(), flush=True)
    if args.mode == "setup":
        return
    tasks = workloads.task_list(args.workload, ctx, args.seed, smoke=args.smoke)
    latencies, references, failures = [], [], []
    started = time.perf_counter()
    # A traced pass takes no samples during its tasks: tracemalloc would slow
    # them, and their time would count in the spans.
    with Sampler(active=tracer is None) as sampler:
        for task in tasks:
            before = reference_s()
            taken, busy = len(sampler.samples), sampler.busy_s
            t0 = time.perf_counter()
            try:
                value = task.call()
            except Exception as err:  # a failed task is counted, and the pass goes on
                value, error = None, err
            else:
                error = None
            latencies.append(time.perf_counter() - t0 - (sampler.busy_s - busy))
            references.append([before, reference_s()] + sampler.samples[taken:])
            if error is not None:
                failures.append(f"{task.label}: {type(error).__name__}: {error}")
                continue
            try:
                correct = task.check(value)
            except Exception:  # a check that cannot read the output fails the task
                correct = False
            if not correct:
                failures.append(f"{task.label}: wrong output {str(value)[:200]}")
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({"wall": wall, "latencies": latencies, "references": references,
                      "failures": failures,
                      "trace": tracer.snapshot() if tracer else None}), flush=True)


def run_cli(args):
    from cantorfull import cli
    from tracer import Tracer

    tracer = Tracer().install()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(args.argv)
    tracer.uninstall()
    print(json.dumps({"code": code,
                      "sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
                      "trace": tracer.snapshot()}), flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("warmup", "setup", "pass", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)
    args.argv = cli_argv
    if args.mode == "warmup":
        import cantorfull.cli  # noqa: F401
        import tracer  # noqa: F401
        import workloads  # noqa: F401
    elif args.mode == "cli":
        run_cli(args)
    else:
        run_pass(args)


if __name__ == "__main__":
    sys.exit(main())
