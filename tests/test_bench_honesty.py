"""Checks on one seed-1 round (12 ops) of the benchmark's own curves2v
inputs, read the way test_bench_hooks reads them; nothing is written.

Every quadrature lies within the error it reports: its 75 integrals are
recorded where mahler looks adaptive_circle_mean up and integrated again at
tol 1e-13. Every dominant-term face gives the measure of the polynomial it
replaces. Every degree block of the slice kernel runs one Aberth pass,
seeded by one eigenvalue call."""

import os

from l2alex import kernels, mahler
from l2alex.quadrature import NodeBudget, adaptive_circle_mean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_seed1_round(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "l2bench"))
    import workloads

    curves = workloads.WORKLOADS["curves2v"]
    for prepared in curves.build(curves.inputs(1), None):
        curves.op(prepared)


def test_curves2v_integrals_within_reported_error(monkeypatch):
    calls = []

    def recording(f, tol, budget=None, even=False, breaks=()):
        result = adaptive_circle_mean(f, tol, budget, even=even, breaks=breaks)
        calls.append((f, even, breaks, result))
        return result

    monkeypatch.setattr(mahler, "adaptive_circle_mean", recording)
    _run_seed1_round(monkeypatch)
    monkeypatch.undo()

    assert len(calls) == 75
    outside = []
    for f, even, breaks, (mean, achieved, _) in calls:
        reference, _, _ = adaptive_circle_mean(f, 1e-13, NodeBudget(10 ** 8),
                                               even=even, breaks=breaks)
        if abs(mean - reference) > achieved:
            outside.append((mean, reference, achieved))
    assert not outside, f"{len(outside)} of {len(calls)}: {outside[:3]}"


def test_curves2v_faces_match_quadrature(monkeypatch):
    # each polynomial reduced to a face is measured again with the faces
    # turned off, by a tol-1e-13 quadrature of the whole polynomial
    reduced = []
    dominant_face = mahler._dominant_face

    def recording(p):
        face = dominant_face(p)
        if face is not None:
            reduced.append(p)
        return face

    monkeypatch.setattr(mahler, "_dominant_face", recording)
    _run_seed1_round(monkeypatch)
    monkeypatch.setattr(mahler, "_dominant_face", dominant_face)
    faces = [mahler.log_mahler_mv(p, 1e-8, NodeBudget(10 ** 8))
             for p in reduced]
    monkeypatch.setattr(mahler, "_dominant_face", lambda p: None)

    assert len(reduced) == 35
    worst = 0.0
    for p, (value, achieved) in zip(reduced, faces):
        assert achieved == 0.0
        reference, _ = mahler.log_mahler_mv(p, 1e-13, NodeBudget(10 ** 8))
        worst = max(worst, abs(value - reference))
    assert worst <= 1e-12


def test_curves2v_kernel_work(monkeypatch):
    # one Aberth pass per degree block, from one batch of eigenvalue seeds
    block_log_mahler = kernels._block_log_mahler
    aberth, companion = kernels._aberth_roots, kernels.companion_roots
    blocks = []
    running = None      # the counts of the degree block being computed

    def counting_block(block, d, rows):
        nonlocal running
        running = {"d": d, "aberth": 0, "seeds": 0}
        blocks.append(running)
        try:
            return block_log_mahler(block, d, rows)
        finally:
            running = None

    def counting_aberth(*args):
        nonlocal running
        running["aberth"] += 1
        # the companion roots of rows at the iteration cap are no seeds
        outer, running = running, None
        try:
            return aberth(*args)
        finally:
            running = outer

    def counting_seeds(block):
        if running is not None:
            running["seeds"] += 1
        return companion(block)

    monkeypatch.setattr(kernels, "_block_log_mahler", counting_block)
    monkeypatch.setattr(kernels, "_aberth_roots", counting_aberth)
    monkeypatch.setattr(kernels, "companion_roots", counting_seeds)
    _run_seed1_round(monkeypatch)

    rooted = [b for b in blocks if b["d"] >= 2]
    assert rooted
    assert all(b["aberth"] == 1 and b["seeds"] == 1 for b in rooted)
    assert all(b["aberth"] == b["seeds"] == 0
               for b in blocks if b["d"] < 2)
