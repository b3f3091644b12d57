import math

import mpmath
import numpy as np
import pytest

from l2alex import kernels
from l2alex.errors import DegenerateSliceError
from l2alex.kernels import (KERNEL_BACKEND, batch_log_mahler,
                            slice_coefficients)
from l2alex.quadrature import PANEL_NODES


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
        logm = batch_log_mahler(coefs, inner, phases)
        for i in range(0, phases.shape[0], 7):
            assert logm[i] == pytest.approx(
                _reference_log_mahler(coefs, inner, phases[i]), abs=1e-9)

    def test_zero_slice_flagged(self):
        coefs = np.array([1.0 + 0j, -1.0 + 0j], dtype=np.complex128)
        inner = np.array([0, 0], dtype=np.int64)
        phases = np.zeros((3, 2))
        with pytest.raises(DegenerateSliceError):
            batch_log_mahler(coefs, inner, phases)

    def test_degree_zero_and_one(self):
        # constant 2 and the linear slice 3 + 4 z
        coefs = np.array([2.0 + 0j], dtype=np.complex128)
        inner = np.array([0], dtype=np.int64)
        phases = np.zeros((1, 1))
        logm = batch_log_mahler(coefs, inner, phases)
        assert logm[0] == pytest.approx(math.log(2.0))

        coefs = np.array([3.0 + 0j, 4.0 + 0j], dtype=np.complex128)
        inner = np.array([0, 1], dtype=np.int64)
        logm = batch_log_mahler(coefs, inner, np.zeros((1, 2)))
        assert logm[0] == pytest.approx(math.log(4.0))

    def test_wide_magnitude_spread(self):
        # roots at ~1e-6 and ~1e6: Jensen sum must stay accurate
        r_small, r_big = 1e-6, 1e6
        # (z - r_small)(z - r_big) = z^2 - (s+b) z + s*b
        coefs = np.array([r_small * r_big, -(r_small + r_big), 1.0],
                         dtype=np.complex128)
        inner = np.array([0, 1, 2], dtype=np.int64)
        logm = batch_log_mahler(coefs, inner, np.zeros((1, 3)))
        assert logm[0] == pytest.approx(math.log(r_big), rel=1e-10)

    def test_high_degree(self):
        rng = np.random.default_rng(5)
        coefs, inner, phases = _random_batch(rng, nterms=14, nodes=25,
                                             depth=12)
        logm = batch_log_mahler(coefs, inner, phases)
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


def _cap_fallbacks(monkeypatch):
    """Rows of each ``companion_roots`` call made from inside
    ``_aberth_roots``, its fallback for rows at the iteration cap; the
    calls that seed the iteration are not counted."""
    calls, inside = [], []
    aberth, companion = kernels._aberth_roots, kernels.companion_roots

    def counting_aberth(block, start):
        inside.append(True)
        try:
            return aberth(block, start)
        finally:
            inside.pop()

    def counting_companion(block):
        if inside:
            calls.append(block.shape[0])
        return companion(block)

    monkeypatch.setattr(kernels, "_aberth_roots", counting_aberth)
    monkeypatch.setattr(kernels, "companion_roots", counting_companion)
    return calls


class TestAberth:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_against_mpmath(self, d):
        rng = np.random.default_rng(100 + d)
        coefs, inner, phases = _dense_batch(rng, d, 2 * PANEL_NODES)
        logm = batch_log_mahler(coefs, inner, phases)
        slices = slice_coefficients(coefs, inner, phases)
        for i in range(phases.shape[0]):
            assert logm[i] == pytest.approx(_mp_log_mahler(slices[i]),
                                            abs=1e-13)

    def test_root_on_circle_without_cap(self, monkeypatch):
        # (z - 1)(z - 2)(z - 1/2)(z + 3i): log M = log 2 + log 3
        cap_fallbacks = _cap_fallbacks(monkeypatch)
        c = np.polynomial.polynomial.polyfromroots([1.0, 2.0, 0.5, -3j])
        logm = batch_log_mahler(c.astype(np.complex128),
                                np.arange(5, dtype=np.int64), np.zeros((1, 5)))
        assert not cap_fallbacks, "a row reached the Aberth iteration cap"
        assert logm[0] == pytest.approx(math.log(6.0), abs=1e-13)

    def test_double_root_without_cap(self, monkeypatch):
        # slices in x of (1-x)^2 (1+y+xy) at y = e^{i theta}: a double
        # root at x = 1 and log M = log max(1, |1 + y|)
        cap_fallbacks = _cap_fallbacks(monkeypatch)
        coefs = np.array([1, 1, -2, -1, 1, -1, 1], dtype=np.complex128)
        inner = np.array([0, 0, 1, 1, 2, 2, 3], dtype=np.int64)
        outer = np.array([0, 1, 0, 1, 0, 1, 1])
        theta = np.linspace(0.05, 3.0, 3 * PANEL_NODES)
        logm = batch_log_mahler(coefs, inner, theta[:, None] * outer)
        assert not cap_fallbacks, "a row reached the Aberth iteration cap"
        exact = np.maximum(0.0, np.log(np.abs(1.0 + np.exp(1j * theta))))
        # a double root is only attainable to about sqrt(u)
        np.testing.assert_allclose(logm, exact, rtol=0, atol=1e-7)

    def test_capped_rows_use_companion_roots(self, monkeypatch):
        rng = np.random.default_rng(7)
        coefs, inner, phases = _dense_batch(rng, 9, 3 * PANEL_NODES)
        aberth = batch_log_mahler(coefs, inner, phases)
        capped_rows = _cap_fallbacks(monkeypatch)
        monkeypatch.setattr(kernels, "_ABERTH_CAP", 0)
        capped = batch_log_mahler(coefs, inner, phases)
        assert sum(capped_rows) == phases.shape[0]
        np.testing.assert_allclose(capped, aberth, rtol=0, atol=1e-12)

    def test_rows_stopped_before_the_cap_keep_their_roots(self, monkeypatch):
        rng = np.random.default_rng(7)
        coefs, inner, phases = _dense_batch(rng, 9, 3 * PANEL_NODES)
        aberth = batch_log_mahler(coefs, inner, phases)
        capped_rows = _cap_fallbacks(monkeypatch)
        monkeypatch.setattr(kernels, "_ABERTH_CAP", 1)
        capped = batch_log_mahler(coefs, inner, phases)
        # the three panels' middle rows start from their own eigenvalues
        # and stop after one step; every other row reaches the cap
        assert sum(capped_rows) == phases.shape[0] - 3
        np.testing.assert_allclose(capped, aberth, rtol=0, atol=1e-12)

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(11)
        coefs, inner, phases = _random_batch(rng, nterms=12, nodes=40,
                                             depth=9)
        logm = batch_log_mahler(coefs, inner, phases)
        for i in range(phases.shape[0]):
            one = batch_log_mahler(coefs, inner, phases[i:i + 1])
            assert one[0] == pytest.approx(logm[i], abs=1e-13)

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(13)
        coefs, inner, phases = _random_batch(rng, nterms=12, nodes=40,
                                             depth=9)
        first = batch_log_mahler(coefs, inner, phases)
        again = batch_log_mahler(coefs, inner, phases.copy())
        assert first.tobytes() == again.tobytes()
