import math

import numpy as np
import pytest

from l2alex.kernels import KERNEL_BACKEND, batch_log_mahler


def _random_batch(rng, nterms=7, nodes=60, depth=6):
    coefs = (rng.standard_normal(nterms)
             + 1j * rng.standard_normal(nterms)).astype(np.complex128)
    inner = rng.integers(0, depth, size=nterms).astype(np.int64)
    inner[0] = 0
    inner[-1] = depth - 1
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(nodes, nterms))
    return coefs, inner, phases


def _reference_log_mahler(coefs, inner, phase_row):
    depth = int(inner.max()) + 1
    c = np.zeros(depth, dtype=np.complex128)
    for k, ph, co in zip(inner, phase_row, coefs):
        c[k] += co * np.exp(1j * ph)
    rts = np.roots(c[::-1])
    rts = rts[np.abs(rts) > 0]
    return float(np.log(np.abs(c[-1]))
                 + np.sum(np.maximum(0.0, np.log(np.abs(rts)))))


class TestKernels:
    def test_backend_selected(self):
        assert KERNEL_BACKEND == "python"

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(2024)
        coefs, inner, phases = _random_batch(rng)
        logm, zero = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert not zero.any()
        for i in range(0, phases.shape[0], 7):
            assert logm[i] == pytest.approx(
                _reference_log_mahler(coefs, inner, phases[i]), abs=1e-9)

    def test_zero_slice_flagged(self):
        coefs = np.array([1.0 + 0j, -1.0 + 0j], dtype=np.complex128)
        inner = np.array([0, 0], dtype=np.int64)
        phases = np.zeros((3, 2))
        logm, zero = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert zero.all()

    def test_degree_zero_and_one(self):
        # constant 2 and the linear slice 3 + 4 z
        coefs = np.array([2.0 + 0j], dtype=np.complex128)
        inner = np.array([0], dtype=np.int64)
        phases = np.zeros((1, 1))
        logm, _ = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert logm[0] == pytest.approx(math.log(2.0))

        coefs = np.array([3.0 + 0j, 4.0 + 0j], dtype=np.complex128)
        inner = np.array([0, 1], dtype=np.int64)
        logm, _ = batch_log_mahler(coefs, inner, np.zeros((1, 2)), 1e-13)
        assert logm[0] == pytest.approx(math.log(4.0))

    def test_wide_magnitude_spread(self):
        # roots at ~1e-6 and ~1e6: Jensen sum must stay accurate
        r_small, r_big = 1e-6, 1e6
        # (z - r_small)(z - r_big) = z^2 - (s+b) z + s*b
        coefs = np.array([r_small * r_big, -(r_small + r_big), 1.0],
                         dtype=np.complex128)
        inner = np.array([0, 1, 2], dtype=np.int64)
        logm, _ = batch_log_mahler(coefs, inner, np.zeros((1, 3)), 1e-300)
        assert logm[0] == pytest.approx(math.log(r_big), rel=1e-10)

    def test_high_degree(self):
        rng = np.random.default_rng(5)
        coefs, inner, phases = _random_batch(rng, nterms=14, nodes=25,
                                             depth=12)
        logm, zero = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert not zero.any()
        for i in (0, 11, 24):
            assert logm[i] == pytest.approx(
                _reference_log_mahler(coefs, inner, phases[i]), abs=1e-8)
