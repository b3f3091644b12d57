#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 l2bench/selftest.py

Runs a few real ops of every workload (seed 0), asserts that their checks
pass, then feeds each check deliberately perturbed outputs and asserts
that every perturbation is reported, so no check can pass vacuously.
Exits 1 if a genuine output is rejected or a perturbation slips through.
"""

import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _scale_value(k, factor):
    def mutate(out):
        out["values"][k] *= factor
    return mutate


def _break_convexity(out):
    """Raise the middle of the first triple far above the chord (by more
    than the pair terms and slopes can bend it back)."""
    v = out["values"]
    v[1] = math.sqrt(v[0] * v[2]) * math.exp(5.0)


def _blow_slope(out):
    out["values"][-1] *= math.exp(50.0)


def _set(path, value):
    def mutate(out):
        obj = out
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]])
    return mutate


def _det_coeff(delta):
    def mutate(out):
        e = sorted(out["det"])[0]
        out["det"][e] += delta
    return mutate


def _v1(delta):
    def mutate(out):
        out["v1"] = (out["v1"][0] + delta, out["v1"][1])
    return mutate


def _csv_row(k, factor):
    def mutate(out):
        lines = out["stdout"].decode().splitlines()
        t, v = lines[k + 1].split(",")
        lines[k + 1] = f"{t},{float(v) * factor:.12g}"
        out["stdout"] = ("\n".join(lines) + "\n").encode()
    return mutate


def _csv_kink(k):
    """Row k far above the geometric mean of its neighbours."""
    def mutate(out):
        lines = out["stdout"].decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        mid = math.sqrt(float(rows[k - 1][1]) * float(rows[k + 1][1]))
        lines[k + 1] = f"{rows[k][0]},{mid * math.exp(5.0):.12g}"
        out["stdout"] = ("\n".join(lines) + "\n").encode()
    return mutate


def _json_field(key, value):
    def mutate(out):
        obj = json.loads(out["stdout"])
        target = obj[0] if isinstance(obj, list) else obj
        target[key] = value(target[key])
        out["stdout"] = (json.dumps(obj) + "\n").encode()
    return mutate


def _stdout(data):
    def mutate(out):
        out["stdout"] = data
    return mutate


def _exit(out):
    out["code"] = 1


CASES = {
    # workload: [(label, item index, mutation)]
    "curves2v": [
        ("det coefficient +1", 0, _det_coeff(1.0)),
        ("det coefficient non-integer", 0, _det_coeff(0.5)),
        ("curve value nan", 0, _set(["values"], lambda v: v[:2] + [math.nan] + v[3:])),
        ("curve value zero", 0, _set(["values"], lambda v: [0.0] + v[1:])),
        ("curve not convex", 0, _break_convexity),
        ("slope range beyond bound", 0, _blow_slope),
        ("d_plus +1", 0, _set(["degree", "d_plus"], lambda x: x + 1)),
        ("d_minus -0.5", 0, _set(["degree", "d_minus"], lambda x: x - 0.5)),
        ("C_plus < 1", 0, _set(["degree", "C_plus"], lambda x: 0.9)),
        ("C_minus off its chief part", 0,
         _set(["degree", "C_minus"], lambda x: x * 1.001)),
        ("method numeric-fit", 0, _set(["degree", "method"],
                                       lambda x: "numeric-fit")),
        ("V(1) off by 1e-3", 0, _v1(1e-3)),
        ("V(1) off by 1e-5", 1, _v1(1e-5)),
    ],
    "presentations": [
        ("det coefficient -1", 0, _det_coeff(-1.0)),
        ("2-variable det coefficient +1", 2, _det_coeff(1.0)),
        ("1-variable tau off by 1e-6", 0, _scale_value(5, 1 + 1e-6)),
        ("2-variable C_plus off its chief part", 3,
         _set(["degree", "C_plus"], lambda x: x * 1.0001)),
        ("deg_b off", 1, _set(["degree", "deg_b"], lambda x: x + 1e-6)),
    ],
    "cli": [
        ("1v eval exit 1", 0, _exit),
        ("1v eval value off", 0, _csv_row(3, 1 + 1e-7)),
        ("1v eval unparsable", 0, _stdout(b"t,value\n1,oops\n")),
        ("1v eval missing row", 0, lambda out: out.update(
            stdout=b"\n".join(out["stdout"].split(b"\n")[:-2]) + b"\n")),
        ("1v torsion value off", 1, _csv_row(0, 1 + 1e-7)),
        ("1v degree d_plus off", 2, _json_field("d_plus", lambda x: x + 1)),
        ("1v convexity bound off", 3,
         _json_field("slope_bound", lambda x: x + 1)),
        ("1v convexity failed", 3, _json_field("passed", lambda x: False)),
        ("1v mahler off", 4, _json_field("log_measure", lambda x: x + 1e-6)),
        ("2v eval V(1) off", 5, _csv_row(2, 1 + 1e-4)),
        ("2v eval not convex", 5, _csv_kink(1)),
        ("2v torsion value nan", 6, _stdout(b"t,value\n0.5,nan\n")),
        ("2v degree C_minus < 1", 7, _json_field("C_minus", lambda x: 0.5)),
        ("2v convexity slope range", 8,
         _json_field("slope_range", lambda x: x + 100)),
        ("2v mahler off", 9, _json_field("log_measure", lambda x: x + 1e-4)),
        ("section9 leading off", 10, _json_field("leading", lambda x: x * 1.01)),
        ("section9 norm off", 10, _json_field("norm", lambda x: x + 0.5)),
        ("section9 sweep delta off", 11, _json_field("delta", lambda x: x + 1)),
        ("section9 sweep row missing", 11, lambda out: out.update(
            stdout=(json.dumps(json.loads(out["stdout"])[1:]) + "\n").encode())),
    ],
}


def genuine(name, indices):
    """Real outputs of the program for the given items of seed 0."""
    w = workloads.WORKLOADS[name]
    items = w.inputs(0)
    prepared = w.build(items, os.path.join(run.OUT, f"selftest-{name}"))
    op = w.op_in_process if name == "cli" else w.op
    return items, {i: op(prepared[i]) for i in sorted(set(indices))}


def main():
    refs = checks.load_references()
    failures = []
    caught = 0
    for name, cases in CASES.items():
        items, outs = genuine(name, [i for _, i, _ in cases])
        for i, out in outs.items():
            problems = checks.check(name, items[i], out, refs)
            if problems:
                failures.append(f"{name}[{i}] genuine output rejected: "
                                f"{problems}")
        for label, i, mutate in cases:
            bad = copy.deepcopy(outs[i])
            mutate(bad)
            if checks.check(name, items[i], bad, refs):
                caught += 1
            else:
                failures.append(f"{name}: perturbation '{label}' passed")

    # the known faults: the exact reference passes, today's output fails
    faults = inputs.repeated_factor_presentations()
    grid = inputs.geometric(inputs.PRESENTATION_GRID)
    for p in faults:
        exact = [math.exp(checks.known_fault_log(p, refs, t)) for t in grid]
        if checks.jensen_curve(p, {}, grid, exact, refs):
            failures.append(f"{p['label']}: exact values rejected")
        if not checks.jensen_curve(p, {}, grid,
                                   [v * (1 + 1e-6) for v in exact], refs):
            failures.append(f"{p['label']}: perturbed values passed")
        caught += 1

    # repeats must be bit-identical
    item = {"label": "repeat"}
    first = {0: ({"x": 1.0}, None)}
    repeat = ({"x": math.nextafter(1.0, 2.0)}, None)
    records = [(0, 0.0, True), (0, 0.0, repeat == first[0])]
    checks.CHECKS["_selftest"] = lambda it, out, refs: []
    try:
        correct, failed, _, _ = run.judge("_selftest", [item], records,
                                          first, refs)
    finally:
        del checks.CHECKS["_selftest"]
    if correct or failed != 1:
        failures.append("a repeat that differs in the last bit passed")
    caught += 1

    for f in failures:
        print("FAIL", f)
    print(f"{caught} perturbations caught, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
