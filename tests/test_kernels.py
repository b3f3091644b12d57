import math

import mpmath
import numpy as np
import pytest

from l2alex import kernels
from l2alex.kernels import (KERNEL_BACKEND, batch_log_mahler,
                            companion_roots, slice_coefficients)
from l2alex.quadrature import GL_ORDER


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


def _mp_log_mahler(c):
    """Jensen's formula on 30-digit roots of the ascending coefficients c."""
    with mpmath.workdps(30):
        desc = [mpmath.mpc(complex(x)) for x in c[::-1]]
        rts = mpmath.polyroots(desc, maxsteps=200, extraprec=100)
        out = mpmath.log(abs(desc[0]))
        out += sum(max(mpmath.mpf(0), mpmath.log(abs(r))) for r in rts)
        return float(out)


def _dense_batch(rng, d, nodes):
    """nodes slices of degree d: random complex coefficients turned by
    random phases, one term per power."""
    coefs = (rng.standard_normal(d + 1)
             + 1j * rng.standard_normal(d + 1)).astype(np.complex128)
    inner = np.arange(d + 1, dtype=np.int64)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(nodes, d + 1))
    return coefs, inner, phases


def _no_companion(*args):
    raise AssertionError("a row reached the Aberth iteration cap")


class TestAberth:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_against_mpmath(self, d):
        rng = np.random.default_rng(100 + d)
        coefs, inner, phases = _dense_batch(rng, d, 2 * GL_ORDER)
        logm, zero = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert not zero.any()
        slices = slice_coefficients(coefs, inner, phases)
        for i in range(phases.shape[0]):
            assert logm[i] == pytest.approx(_mp_log_mahler(slices[i]),
                                            abs=1e-13)

    def test_root_on_circle_without_cap(self, monkeypatch):
        # (z - 1)(z - 2)(z - 1/2)(z + 3i): log M = log 2 + log 3
        monkeypatch.setattr(kernels, "companion_roots", _no_companion)
        c = np.polynomial.polynomial.polyfromroots([1.0, 2.0, 0.5, -3j])
        logm, _ = batch_log_mahler(c.astype(np.complex128),
                                   np.arange(5, dtype=np.int64),
                                   np.zeros((1, 5)), 1e-13)
        assert logm[0] == pytest.approx(math.log(6.0), abs=1e-13)

    def test_double_root_without_cap(self, monkeypatch):
        # slices in x of (1-x)^2 (1+y+xy) at y = e^{i theta}: a double
        # root at x = 1 and log M = log max(1, |1 + y|)
        monkeypatch.setattr(kernels, "companion_roots", _no_companion)
        coefs = np.array([1, 1, -2, -1, 1, -1, 1], dtype=np.complex128)
        inner = np.array([0, 0, 1, 1, 2, 2, 3], dtype=np.int64)
        outer = np.array([0, 1, 0, 1, 0, 1, 1])
        theta = np.linspace(0.05, 3.0, 3 * GL_ORDER)
        logm, _ = batch_log_mahler(coefs, inner, theta[:, None] * outer,
                                   1e-13)
        exact = np.maximum(0.0, np.log(np.abs(1.0 + np.exp(1j * theta))))
        # a double root is only attainable to about sqrt(u)
        np.testing.assert_allclose(logm, exact, rtol=0, atol=1e-7)

    def test_capped_rows_use_companion_roots(self, monkeypatch):
        rng = np.random.default_rng(7)
        coefs, inner, phases = _dense_batch(rng, 9, 3 * GL_ORDER)
        aberth, _ = batch_log_mahler(coefs, inner, phases, 1e-13)
        capped_rows = []

        def companion(block):
            capped_rows.append(block.shape[0])
            return companion_roots(block)

        monkeypatch.setattr(kernels, "_ABERTH_CAP", 1)
        monkeypatch.setattr(kernels, "companion_roots", companion)
        capped, _ = batch_log_mahler(coefs, inner, phases, 1e-13)
        assert sum(capped_rows) == phases.shape[0]
        np.testing.assert_allclose(capped, aberth, rtol=0, atol=1e-12)

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(11)
        coefs, inner, phases = _random_batch(rng, nterms=12, nodes=40,
                                             depth=9)
        logm, _ = batch_log_mahler(coefs, inner, phases, 1e-13)
        for i in range(phases.shape[0]):
            one, _ = batch_log_mahler(coefs, inner, phases[i:i + 1], 1e-13)
            assert one[0] == pytest.approx(logm[i], abs=1e-13)

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(13)
        coefs, inner, phases = _random_batch(rng, nterms=12, nodes=40,
                                             depth=9)
        first, _ = batch_log_mahler(coefs, inner, phases, 1e-13)
        again, _ = batch_log_mahler(coefs, inner, phases.copy(), 1e-13)
        assert first.tobytes() == again.tobytes()
