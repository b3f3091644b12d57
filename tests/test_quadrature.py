import math

import numpy as np
import pytest

from l2alex import QuadratureBudgetError, geometric_grid
from l2alex.quadrature import (_NODES, _WEIGHTS, PANEL_NODES,
                               ROUNDOFF_FLOOR, NodeBudget, _gk_batch,
                               adaptive_circle_mean)


class TestAdaptiveCircleMean:
    def test_smooth_periodic(self):
        # mean of cos^2 over the circle is 1/2
        mean, err, _ = adaptive_circle_mean(lambda t: np.cos(t) ** 2, 1e-12)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert err <= 1e-12

    def test_constant(self):
        mean, err, n = adaptive_circle_mean(lambda t: np.full_like(t, 3.0),
                                            1e-10)
        assert mean == pytest.approx(3.0, abs=1e-13)

    def test_corner_integrand(self):
        # mean of log max(1, 2 cos(t/2)) has a closed form via Jensen:
        # it is log M(1 + z) with an extra factor, easier: compare against
        # a dense trapezoid reference
        def f(t):
            return np.log(np.maximum(1.0, 2.0 * np.abs(np.cos(t / 2.0))))

        ts = 2.0 * np.pi * (np.arange(2_000_000) + 0.5) / 2_000_000
        reference = float(np.mean(f(ts)))
        mean, err, _ = adaptive_circle_mean(f, 1e-10)
        assert mean == pytest.approx(reference, abs=5e-9)

    def test_log_singularity(self):
        # mean of log|e^{it} - 1| over the circle is 0 (Jensen for z - 1)
        def f(t):
            return np.log(np.abs(np.exp(1j * t) - 1.0))

        mean, err, _ = adaptive_circle_mean(f, 1e-10)
        assert mean == pytest.approx(0.0, abs=1e-9)

    def test_budget_error(self):
        def f(t):
            return np.log(np.abs(np.exp(1j * t) - 1.0))

        with pytest.raises(QuadratureBudgetError) as info:
            adaptive_circle_mean(f, 1e-13, NodeBudget(1500))
        assert math.isfinite(info.value.best_estimate)
        assert info.value.achieved_tol > 0

    @pytest.mark.parametrize("f", [
        lambda t: np.cos(t) ** 2,
        lambda t: np.log(np.abs(np.exp(1j * t) - 0.996)),
    ])
    def test_even_half_circle(self, f):
        full_budget, half_budget = NodeBudget(), NodeBudget()
        full = adaptive_circle_mean(f, 1e-11, full_budget)
        half = adaptive_circle_mean(f, 1e-11, half_budget, even=True)
        assert half[0] == pytest.approx(full[0], abs=1e-14)
        assert half[1] == pytest.approx(full[1], rel=1e-6)
        assert 2 * half_budget.used == full_budget.used
        assert 2 * half[2] == full[2]

    def test_nested_budget_error_reports_outer_estimate(self):
        # the mean of 2 + (mean of cos^2) + |sin(s - 0.3)| is 2.5 + 2/pi;
        # the inner integrals run out partway through the outer refinement
        # (the whole integral takes 123,420 nodes)
        budget = NodeBudget(90_000)

        def outer(s):
            return np.array([2.0 + adaptive_circle_mean(
                lambda t: np.cos(t) ** 2, 1e-12, budget)[0]
                + np.abs(np.sin(x - 0.3)) for x in s])

        with pytest.raises(QuadratureBudgetError) as info:
            adaptive_circle_mean(outer, 1e-12, budget)
        reference = 2.5 + 2.0 / np.pi
        assert info.value.best_estimate == pytest.approx(
            reference, abs=info.value.achieved_tol + 1e-9)

    def test_nested_budget_error_before_first_sweep(self):
        budget = NodeBudget(1000)

        def outer(s):
            return np.array([adaptive_circle_mean(np.cos, 1e-12, budget)[0]
                             for _ in s])

        with pytest.raises(QuadratureBudgetError) as info:
            adaptive_circle_mean(outer, 1e-12, budget)
        assert math.isnan(info.value.best_estimate)
        assert info.value.achieved_tol == math.inf

    def test_deterministic(self):
        def f(t):
            return np.log(np.abs(np.exp(1j * t) - 0.996))

        a = adaptive_circle_mean(f, 1e-11)
        b = adaptive_circle_mean(f, 1e-11)
        assert a == b


def smyth_slice(t):
    """log max(1, |1 + e^{it}|): the slice log-measure of 1 + x + y, whose
    mean is m(1 + x + y), with corners at t = 2pi/3 and 4pi/3."""
    return np.log(np.maximum(1.0, np.abs(1.0 + np.exp(1j * t))))


SMYTH_LOG = 0.32306594721945051
SMYTH_BREAKS = (2 * np.pi / 3, 4 * np.pi / 3)


class TestBreaks:
    def test_breaks_resolve_corners(self):
        plain = adaptive_circle_mean(smyth_slice, 1e-12)
        split = adaptive_circle_mean(smyth_slice, 1e-12, breaks=SMYTH_BREAKS)
        for mean, err, _ in (plain, split):
            assert abs(mean - SMYTH_LOG) <= err
        # 10 panels of 15 nodes and no refinement
        assert split[2] == 10 * 15 < plain[2]

    def test_even_folds_breaks(self):
        full_budget, half_budget = NodeBudget(), NodeBudget()
        full = adaptive_circle_mean(smyth_slice, 1e-12, full_budget,
                                    breaks=SMYTH_BREAKS)
        half = adaptive_circle_mean(smyth_slice, 1e-12, half_budget,
                                    even=True, breaks=SMYTH_BREAKS)
        assert half[0] == pytest.approx(full[0], abs=1e-15)
        assert 2 * half_budget.used == full_budget.used

    def test_breaks_at_edges_add_no_panel(self):
        plain = adaptive_circle_mean(np.cos, 1e-10)
        edged = adaptive_circle_mean(np.cos, 1e-10,
                                     breaks=(0.0, np.pi / 4, -1e-12,
                                             2 * np.pi))
        assert edged[2] == plain[2]
        assert edged[0] == pytest.approx(plain[0], abs=1e-15)


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            adaptive_circle_mean(np.cos, tol)

    @pytest.mark.parametrize("scale, tol", [(1.0, 1e-14), (1e6, 1e-6)])
    def test_roundoff_floor(self, scale, tol):
        # G7 and K15 on 8 panels integrate cos^2 to rounding, so the
        # embedded estimate reads ~1e-16 per unit of scale; the report keeps
        # the floor, scaled by the integrand's mean magnitude (here
        # scale / 2) when that exceeds 1
        mean, err, _ = adaptive_circle_mean(
            lambda t: scale * np.cos(t) ** 2, tol)
        assert mean == pytest.approx(scale / 2, rel=1e-15)
        assert err == pytest.approx(ROUNDOFF_FLOOR * max(1.0, scale / 2),
                                    rel=1e-12)


class TestGeometricGrid:
    def test_endpoints_and_count(self):
        g = geometric_grid(0.001, 1000.0, 41)
        assert len(g) == 41
        assert g[0] == pytest.approx(0.001)
        assert g[-1] == pytest.approx(1000.0)

    def test_geometric_spacing(self):
        g = geometric_grid(0.5, 8.0, 9)
        ratios = [b / a for a, b in zip(g, g[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    def test_single_point(self):
        assert geometric_grid(2.0, 3.0, 1) == [2.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_grid(-1.0, 2.0, 5)
        with pytest.raises(ValueError):
            geometric_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            geometric_grid(1e-300, 1e300, 3)   # hi/lo overflows


def _monomial_integral(k):
    """The integral of x^k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestKronrodRule:
    # the panel rule on [-1, 1]: columns of _WEIGHTS are the 15-point
    # Kronrod rule and its embedded 7-point Gauss rule
    def test_nodes_ascending(self):
        assert len(_NODES) == PANEL_NODES == 15
        assert np.all(np.diff(_NODES) > 0)

    @pytest.mark.parametrize("k", range(23))
    def test_kronrod_exact_to_degree_22(self, k):
        assert abs(_NODES ** k @ _WEIGHTS[:, 0]
                   - _monomial_integral(k)) <= 1e-15

    @pytest.mark.parametrize("k", range(14))
    def test_gauss_exact_to_degree_13(self, k):
        assert abs(_NODES ** k @ _WEIGHTS[:, 1]
                   - _monomial_integral(k)) <= 1e-15

    def test_gauss_inexact_at_degree_14(self):
        # so the estimate |K15 - G7| of a panel sees an x^14 term
        lefts, widths = np.array([-1.0]), np.array([2.0])
        _, err = _gk_batch(lambda x: x ** 14, lefts, widths)
        assert err[0] == pytest.approx(1.8546591973e-4, rel=1e-9)
