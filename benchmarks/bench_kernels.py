#!/usr/bin/env python3
"""Benchmark the compiled quadrature kernel against the numpy fallback.

Two workloads:
  * raw kernel: batched slice-polynomial log-Mahler evaluations, the hot
    inner loop of multivariable quadrature;
  * end to end: the Mahler measure of a two-variable integer polynomial,
    which mixes kernel calls with the adaptive panel logic; the nodes it
    charges to its budget are printed too.

Usage: python benchmarks/bench_kernels.py [--nodes 20000] [--repeats 5]
"""

import argparse
import math
import time

import numpy as np

from l2alex import LaurentPoly
from l2alex import kernels as kernel_mod
from l2alex.kernels import backends
from l2alex.mahler import log_mahler_mv
from l2alex.quadrature import NodeBudget


def bench_raw(fn, coefs, inner, phases, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(coefs, inner, phases, 1e-13)
        times.append(time.perf_counter() - start)
    return min(times)


def bench_end_to_end(name, fn, poly, tol, repeats):
    original = kernel_mod.batch_log_mahler
    kernel_mod.batch_log_mahler = fn
    try:
        times = []
        for _ in range(repeats):
            budget = NodeBudget()
            start = time.perf_counter()
            log_measure, _ = log_mahler_mv(poly, tol, budget)
            times.append(time.perf_counter() - start)
        return min(times), math.exp(log_measure), budget.used
    finally:
        kernel_mod.batch_log_mahler = original


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tol", type=float, default=1e-8)
    args = parser.parse_args()

    impls = backends()
    if "compiled" not in impls:
        print("compiled kernel not available; showing fallback only")

    rng = np.random.default_rng(12345)
    nterms, depth = 12, 9
    coefs = (rng.standard_normal(nterms)
             + 1j * rng.standard_normal(nterms)).astype(np.complex128)
    inner = rng.integers(0, depth, size=nterms).astype(np.int64)
    inner[0], inner[-1] = 0, depth - 1
    phases = rng.uniform(0, 2 * np.pi, size=(args.nodes, nterms))

    poly = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 1): -3,
                           (1, 2): 2, (-1, 0): 1})

    print(f"raw kernel: {args.nodes} nodes, degree-{depth - 1} slices")
    raw = {}
    for name in sorted(impls):
        best = bench_raw(impls[name], coefs, inner, phases, args.repeats)
        raw[name] = best
        print(f"  {name:>8}: {best * 1e3:8.2f} ms "
              f"({best / args.nodes * 1e9:7.1f} ns/node)")
    if len(raw) == 2:
        print(f"  speedup: {raw['python'] / raw['compiled']:.1f}x")

    print(f"end to end: log_mahler_mv(tol={args.tol:g}) of a 6-term "
          f"2-variable polynomial")
    e2e = {}
    for name in sorted(impls):
        best, value, nodes = bench_end_to_end(name, impls[name], poly,
                                              args.tol, args.repeats)
        e2e[name] = best
        print(f"  {name:>8}: {best * 1e3:8.2f} ms  (measure {value:.9f}, "
              f"{nodes} nodes)")
    if len(e2e) == 2:
        print(f"  speedup: {e2e['python'] / e2e['compiled']:.1f}x")


if __name__ == "__main__":
    main()
