#!/usr/bin/env python3
"""l2alex benchmark: one workload, one closed-loop caller, checked outputs.

    python3 l2bench/run.py --workload curves2v --seed 1 --seconds 30 --trace 0

Run from the repository root; l2alex is imported from ``src/``. The run
executes a fixed list of ops: whole rounds of the workload's seeded inputs,
``max(ceil(40 / round size), round(seconds / nominal round seconds))``
rounds, so a given seed and ``--seconds`` always time the same ops and take
percentiles over the same count. Before timing it measures set-up in fresh
interpreters and runs two warm-up ops.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around l2alex's public functions (see ``spans.py``). The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, per-op times, problems) goes to
``l2bench/out/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 40            # the tail percentile needs ten samples beyond it
WARMUP_OPS = 2
SETUP_PROBES = 5        # fresh interpreters timed for setup_s, after one warm
STARTUP_PROBES = 5      # fresh interpreters timed for cli.startup_ms


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["curves2v", "presentations", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rounds(workload, round_size, seconds):
    return max(math.ceil(MIN_OPS / round_size),
               round(seconds / workload.round_seconds))


def _fresh(argv):
    """Run a fresh interpreter to completion; return (stdout, seconds)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable] + argv, capture_output=True,
                          env=workloads.cli_env(), cwd=ROOT, check=True)
    return done.stdout, time.perf_counter() - start


def setup_seconds(args):
    """Median import-and-build time over fresh interpreters."""
    argv = [os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = [float(_fresh(argv)[0]) for _ in range(SETUP_PROBES + 1)]
    return statistics.median(times[1:])


def startup_ms():
    """Median wall time of a fresh interpreter importing l2alex.cli."""
    times = [_fresh(["-c", "import l2alex.cli"])[1]
             for _ in range(STARTUP_PROBES + 1)]
    return 1e3 * statistics.median(times[1:])


def timed_ops(workload, prepared, n_rounds, op, tracer=None):
    """Run n_rounds rounds of the prepared inputs.

    Returns (records, first-round (output, error) per input, elapsed
    seconds, span totals, kept spans). A record is (item index, seconds,
    whether the output and error equal the first round's). With a tracer,
    spans are aggregated after every op and those of the first round kept.
    """
    totals = spans.Totals()
    kept = []
    records = []
    first = {}
    start = time.perf_counter()
    for r in range(n_rounds):
        for i, p in enumerate(prepared):
            t0 = time.perf_counter()
            try:
                out, err = op(p), None
            except Exception as exc:    # an op that raises is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            # Only first-round outputs are kept: a heap that grew with every
            # op would make the program's garbage collections ever slower.
            if r == 0:
                first[i] = (out, err)
            records.append((i, dt, (out, err) == first[i]))
            if tracer is not None:
                recorded = tracer.take()
                totals.add(recorded)
                if r == 0:
                    kept.append((i, recorded))
    return records, first, time.perf_counter() - start, totals, kept


def judge(name, items, records, first, refs):
    """Check the first output of every input; repeats must be bit-identical.

    Returns (correct, failed ops, problems per input, unexpected failures).
    """
    import checks
    item_problems = {}
    for i, (out, err) in first.items():
        item_problems[i] = ([err] if err else
                            checks.check(name, items[i], out, refs))
    failed = 0
    unexpected = []
    for i, _, same in records:
        problems = list(item_problems[i])
        if not problems and not same:
            problems.append("output differs from the first round")
        if problems:
            failed += 1
            if not items[i].get("known_fault"):
                unexpected.append((items[i].get("label") or
                                   " ".join(items[i]["argv"]), problems))
    return not unexpected, failed, item_problems, unexpected


def environment():
    import numpy
    import l2alex
    return {"nproc": os.cpu_count(), "kernel_backend": l2alex.KERNEL_BACKEND,
            "numpy": numpy.__version__, "python": platform.python_version()}


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "l2alex", "__init__.py")):
        print(f"l2bench: no l2alex sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("L2ALEX_THREADS", None)
    sys.path.insert(0, SRC)
    w = workloads.WORKLOADS[args.workload]
    items = w.inputs(args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    if args.setup_probe:
        t0 = time.perf_counter()
        w.build(items, run_dir)
        print(repr(time.perf_counter() - t0))
        return 0

    import checks    # numpy and mpmath: not before the set-up probes
    refs = checks.load_references()
    setup = None if args.trace else setup_seconds(args)
    startup = startup_ms() if args.trace else None
    prepared = w.build(items, run_dir)
    op = w.op_in_process if args.trace and args.workload == "cli" else w.op
    for p in prepared[:WARMUP_OPS]:
        op(p)
    n_rounds = rounds(w, len(items), args.seconds)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        records, first, elapsed, totals, kept = timed_ops(
            w, prepared, n_rounds, op, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_kb = w.peak_rss_kb()
    correct, failed, item_problems, unexpected = judge(
        args.workload, items, records, first, refs)

    times = sorted(rec[1] for rec in records)
    n = len(times)
    if args.trace:
        metrics = spans.per_layer(totals, n, times, startup)
    else:
        metrics = {
            "ops_per_s": {"value": n / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times),
                          "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * times[n - 11], "unit": "ms"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": n, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    env = environment()
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "environment": env, "rounds": n_rounds,
                   "round_size": len(items), "elapsed_s": elapsed,
                   "tail_percentile": 100.0 * (n - 10) / n,
                   "op_ms": [(i, 1e3 * dt) for i, dt, _ in records],
                   "problems": {str(i): p for i, p in item_problems.items()
                                if p}},
                  fh, indent=1)
    if tracer is not None:
        spans.write_spans(stem + "-spans.jsonl", kept)
    for label, problems in unexpected:
        print(f"l2bench: {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} ops={n} "
          f"backend={env['kernel_backend']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
