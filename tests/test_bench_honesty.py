"""Every quadrature of the benchmark's own curves2v inputs lies within the
error it reports: one seed-1 round (12 ops, 110 integrals) is run with
adaptive_circle_mean recorded where mahler looks it up, and each integrand
is integrated again at tol 1e-13. Reads the l2bench inputs the way
test_bench_hooks does, and writes nothing."""

import os

from l2alex import mahler
from l2alex.quadrature import NodeBudget, adaptive_circle_mean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_curves2v_integrals_within_reported_error(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "l2bench"))
    import workloads

    calls = []

    def recording(f, tol, budget=None, even=False, breaks=()):
        result = adaptive_circle_mean(f, tol, budget, even=even, breaks=breaks)
        calls.append((f, even, breaks, result))
        return result

    monkeypatch.setattr(mahler, "adaptive_circle_mean", recording)
    curves = workloads.WORKLOADS["curves2v"]
    for prepared in curves.build(curves.inputs(1), None):
        curves.op(prepared)
    monkeypatch.undo()

    assert len(calls) == 110
    outside = []
    for f, even, breaks, (mean, achieved, _) in calls:
        reference, _, _ = adaptive_circle_mean(f, 1e-13, NodeBudget(10 ** 8),
                                               even=even, breaks=breaks)
        if abs(mean - reference) > achieved:
            outside.append((mean, reference, achieved))
    assert not outside, f"{len(outside)} of {len(calls)}: {outside[:3]}"
