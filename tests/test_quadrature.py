import math

import numpy as np
import pytest

from l2alex import QuadratureBudgetError, geometric_grid
from l2alex.quadrature import NodeBudget, adaptive_circle_mean


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
        # (the whole integral takes 443,520 nodes)
        budget = NodeBudget(250_000)

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
